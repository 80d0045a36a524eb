// Compile-service tests: wire protocol codec, admission control + fair
// queueing, and the epocd daemon end to end over a real AF_UNIX socket
// (daemon and clients in one process, which is also what makes this suite
// meaningful under TSan).
#include "service/daemon.h"

#include "fuzz_mutate.h"

#include "backend/backend.h"
#include "bench_circuits/generators.h"
#include "circuit/qasm.h"
#include "epoc/export.h"
#include "epoc/pipeline.h"
#include "qoc/pulse_io.h"
#include "service/admission.h"
#include "service/client.h"
#include "service/protocol.h"
#include "util/fault_injection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace {

using namespace epoc;
using namespace epoc::service;

// ---------------------------------------------------------------- protocol

TEST(Protocol, JobRequestRoundTrips) {
    JobRequest req;
    req.id = 0xdeadbeefcafe01ULL;
    req.tenant = "alice";
    req.priority = -3; // negative priorities are legal (background work)
    req.deadline_ms = 1234.5678;
    req.qasm = "OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[1];\n";
    req.backend = "heavy-hex-7";
    const auto back = decode_job_request(encode_job_request(req));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->id, req.id);
    EXPECT_EQ(back->tenant, req.tenant);
    EXPECT_EQ(back->priority, req.priority);
    EXPECT_EQ(back->deadline_ms, req.deadline_ms);
    EXPECT_EQ(back->qasm, req.qasm);
    EXPECT_EQ(back->backend, req.backend);
}

TEST(Protocol, JobResponseRoundTrips) {
    JobResponse resp;
    resp.id = 77;
    resp.status = JobStatus::shed_deadline;
    resp.degraded = true;
    resp.deadline_hit = true;
    resp.plan_hit = false;
    resp.digest = 0x0123456789abcdefULL;
    resp.latency_ns = 1.0e9 / 3.0; // a double that decimal formatting mangles
    resp.esp = 0.987654321;
    resp.compile_ms = 45.5;
    resp.num_pulses = 12;
    resp.blocks_total = 5;
    resp.blocks_degraded = 2;
    resp.detail = "budget exhausted while queued";
    const auto back = decode_job_response(encode_job_response(resp));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->status, resp.status);
    EXPECT_TRUE(back->degraded);
    EXPECT_TRUE(back->deadline_hit);
    EXPECT_FALSE(back->plan_hit);
    EXPECT_EQ(back->digest, resp.digest);
    EXPECT_EQ(back->latency_ns, resp.latency_ns); // bit-exact, not approximate
    EXPECT_EQ(back->esp, resp.esp);
    EXPECT_EQ(back->detail, resp.detail);
}

TEST(Protocol, StatusResponseRoundTrips) {
    StatusResponse s;
    s.counters = {{"service.connections", 3},
                  {"service.tenant.alice.completed", 41},
                  {"qoc.library_misses", 16}};
    const auto back = decode_status_response(encode_status_response(s));
    ASSERT_TRUE(back.has_value());
    ASSERT_EQ(back->counters.size(), 3u);
    EXPECT_EQ(back->counters[1].first, "service.tenant.alice.completed");
    EXPECT_EQ(back->counters[1].second, 41u);
}

TEST(Protocol, EveryTruncationIsRejected) {
    JobResponse resp;
    resp.id = 1;
    resp.status = JobStatus::ok;
    resp.detail = "fine";
    const std::string full = encode_job_response(resp);
    for (std::size_t n = 0; n < full.size(); ++n)
        EXPECT_FALSE(decode_job_response(full.substr(0, n)).has_value()) << n;
    EXPECT_TRUE(decode_job_response(full).has_value());
}

TEST(Protocol, LyingLengthFieldsAreRejected) {
    JobRequest req;
    req.id = 1;
    req.tenant = "t";
    req.qasm = "x";
    std::string bytes = encode_job_request(req);
    // The tenant length field sits right after type(1) + id(8): patch it to
    // promise far more bytes than the frame holds.
    bytes[9] = '\xff';
    bytes[10] = '\xff';
    EXPECT_FALSE(decode_job_request(bytes).has_value());
    // Wrong type byte on an otherwise valid frame.
    std::string retyped = encode_job_request(req);
    retyped[0] = static_cast<char>(MsgType::status_request);
    EXPECT_FALSE(decode_job_request(retyped).has_value());
}

// ----------------------------------------------------------- protocol fuzz
//
// Every frame decoder the daemon exposes, under 2,000 seeded mutants of a
// valid frame (tests/fuzz_mutate.h). Each mutant goes through all three
// decoders (a rotted type byte must not confuse them), is rejected or
// parsed, never crashes, and a parse never holds more bytes than the mutant
// carried. For each frame's own decoder both outcomes must occur.

/// Length-field and type-byte values worth splicing into a binary frame.
const std::string kFrameTokens("\x00\x01\x02\x03\x04\x05\x06\x7f\x80\xff", 10);

/// Decode `bytes` with every decoder; returns whether `own` accepted it.
bool decode_all(const std::string& bytes, MsgType own) {
    const auto req = decode_job_request(bytes);
    if (req) {
        EXPECT_LE(req->tenant.size() + req->qasm.size() + req->backend.size(), bytes.size());
    }
    const auto resp = decode_job_response(bytes);
    if (resp) {
        EXPECT_LE(resp->detail.size(), bytes.size());
    }
    const auto status = decode_status_response(bytes);
    if (status) {
        std::size_t held = 12 * status->counters.size();
        for (const auto& [key, value] : status->counters) held += key.size();
        EXPECT_LE(held, bytes.size());
    }
    switch (own) {
    case MsgType::job_request: return req.has_value();
    case MsgType::job_response: return resp.has_value();
    default: return status.has_value();
    }
}

void fuzz_frame(const std::string& frame, MsgType own, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    int parsed = 0, rejected = 0;
    for (int i = 0; i < 2000; ++i) {
        if (decode_all(epoc::test::mutate(frame, rng, kFrameTokens), own))
            ++parsed;
        else
            ++rejected;
    }
    EXPECT_GT(parsed, 0) << "every mutation broke the frame";
    EXPECT_GT(rejected, 0) << "no mutation ever broke the frame";
}

TEST(ProtocolFuzz, JobRequestMutantsParseOrReject) {
    JobRequest req;
    req.id = 42;
    req.tenant = "alice";
    req.priority = 3;
    req.deadline_ms = 250.0;
    req.qasm = circuit::to_qasm(bench::ghz(3));
    req.backend = "linear-5";
    fuzz_frame(encode_job_request(req), MsgType::job_request, 0x4652414D45); // "FRAME"
}

TEST(ProtocolFuzz, JobResponseMutantsParseOrReject) {
    JobResponse resp;
    resp.id = 42;
    resp.status = JobStatus::ok;
    resp.degraded = true;
    resp.digest = 0x0123456789abcdefULL;
    resp.latency_ns = 1.0e9 / 3.0;
    resp.esp = 0.97;
    resp.compile_ms = 12.5;
    resp.num_pulses = 7;
    resp.blocks_total = 4;
    resp.blocks_degraded = 1;
    resp.detail = "pulse block 2 (2q): infeasible; fell back gate by gate";
    fuzz_frame(encode_job_response(resp), MsgType::job_response, 0x52455350); // "RESP"
}

TEST(ProtocolFuzz, StatusResponseMutantsParseOrReject) {
    StatusResponse s;
    s.counters = {{"service.connections", 3},
                  {"service.tenant.alice.completed", 41},
                  {"service.job_tokens", 1},
                  {"qoc.library_misses", 16}};
    fuzz_frame(encode_status_response(s), MsgType::status_response, 0x53544154); // "STAT"
}

// --------------------------------------------------------------- admission

Job make_job(const std::string& tenant, std::int32_t priority,
             double deadline_ms = 0.0) {
    Job j;
    static std::uint64_t next_id = 1;
    j.request.id = next_id++;
    j.request.tenant = tenant;
    j.request.priority = priority;
    j.request.deadline_ms = deadline_ms;
    j.cancel = std::make_shared<util::CancelToken>();
    if (deadline_ms > 0.0) j.deadline = util::Deadline::after_ms(deadline_ms);
    j.deadline.link(j.cancel.get());
    j.respond = [](const JobResponse&) {};
    return j;
}

TEST(Admission, TenantsRoundRobinWithinAPriorityLevel) {
    // A burst tenant (4 jobs) and a singleton tenant (2 jobs) at one level:
    // service must alternate, not drain the burst first.
    AdmissionController ac;
    for (int i = 0; i < 4; ++i)
        ASSERT_EQ(ac.submit(make_job("burst", 0)), Verdict::admitted);
    for (int i = 0; i < 2; ++i)
        ASSERT_EQ(ac.submit(make_job("single", 0)), Verdict::admitted);
    std::vector<std::string> order;
    Job j;
    for (int i = 0; i < 6; ++i) {
        ASSERT_TRUE(ac.next(j));
        order.push_back(j.request.tenant);
        ac.finish(j, JobResponse{});
    }
    const std::vector<std::string> want = {"burst", "single", "burst",
                                           "single", "burst", "burst"};
    EXPECT_EQ(order, want);
}

TEST(Admission, HigherPriorityLevelsDrainFirst) {
    AdmissionController ac;
    ASSERT_EQ(ac.submit(make_job("t", 0)), Verdict::admitted);
    ASSERT_EQ(ac.submit(make_job("t", 5)), Verdict::admitted);
    ASSERT_EQ(ac.submit(make_job("t", -1)), Verdict::admitted);
    ASSERT_EQ(ac.submit(make_job("t", 5)), Verdict::admitted);
    std::vector<std::int32_t> order;
    Job j;
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(ac.next(j));
        order.push_back(j.request.priority);
        ac.finish(j, JobResponse{});
    }
    const std::vector<std::int32_t> want = {5, 5, 0, -1};
    EXPECT_EQ(order, want);
}

TEST(Admission, RejectsBeyondCapacity) {
    AdmissionOptions opt;
    opt.max_pending = 2;
    AdmissionController ac(opt);
    EXPECT_EQ(ac.submit(make_job("t", 0)), Verdict::admitted);
    EXPECT_EQ(ac.submit(make_job("t", 0)), Verdict::admitted);
    EXPECT_EQ(ac.submit(make_job("t", 0)), Verdict::rejected_overload);
    // Capacity covers in-flight too: taking a job frees nothing until
    // finish().
    Job j;
    ASSERT_TRUE(ac.next(j));
    EXPECT_EQ(ac.submit(make_job("t", 0)), Verdict::rejected_overload);
    ac.finish(j, JobResponse{});
    EXPECT_EQ(ac.submit(make_job("t", 0)), Verdict::admitted);
    const AdmissionSnapshot s = ac.snapshot();
    EXPECT_EQ(s.tenants.at("t").rejected_overload, 2u);
    EXPECT_EQ(s.peak_pending, 2u);
}

TEST(Admission, ShedsInfeasibleDeadlinesAtTheDoor) {
    AdmissionController ac;
    // Budget already (effectively) spent on arrival.
    Job spent = make_job("t", 0, 0.0001);
    while (!spent.deadline.expired()) {
    }
    EXPECT_EQ(ac.submit(std::move(spent)), Verdict::shed_deadline);
    // A fired cancel token zeroes the budget even with a generous clock —
    // the satellite-2 remaining_ms() fix is what this relies on.
    Job dead = make_job("t", 0, 60000.0);
    dead.cancel->cancel();
    EXPECT_EQ(ac.submit(std::move(dead)), Verdict::shed_deadline);
    // Deadline-free jobs always pass the feasibility gate.
    EXPECT_EQ(ac.submit(make_job("t", 0)), Verdict::admitted);
    EXPECT_EQ(ac.snapshot().tenants.at("t").shed_deadline, 2u);
}

TEST(Admission, DeadQueuedJobsFreeCapacity) {
    // A reconnecting client re-submits its unanswered ids while the old
    // copies, their tokens fired by the disconnect, still sit in the queue.
    // Those copies must not hold the capacity: a full queue drops them,
    // answering and counting each as dispatch would.
    AdmissionOptions opt;
    opt.max_pending = 2;
    AdmissionController ac(opt);
    std::vector<JobStatus> answers;
    std::vector<std::shared_ptr<util::CancelToken>> tokens;
    for (int i = 0; i < 2; ++i) {
        Job j = make_job("t", 0);
        j.respond = [&answers](const JobResponse& r) { answers.push_back(r.status); };
        tokens.push_back(j.cancel);
        ASSERT_EQ(ac.submit(std::move(j)), Verdict::admitted);
    }
    for (const auto& token : tokens) token->cancel();
    EXPECT_EQ(ac.submit(make_job("t", 0)), Verdict::admitted);
    EXPECT_EQ(answers, std::vector<JobStatus>(2, JobStatus::cancelled));
    const AdmissionSnapshot s = ac.snapshot();
    EXPECT_EQ(s.queued, 1u);
    EXPECT_EQ(s.tenants.at("t").cancelled, 2u);
    Job j;
    ASSERT_TRUE(ac.next(j));
    EXPECT_FALSE(j.cancel->cancelled());
}

TEST(Admission, CloseDrainsQueuedJobsThenStops) {
    AdmissionController ac;
    ASSERT_EQ(ac.submit(make_job("t", 0)), Verdict::admitted);
    ASSERT_EQ(ac.submit(make_job("t", 0)), Verdict::admitted);
    ac.close();
    EXPECT_EQ(ac.submit(make_job("t", 0)), Verdict::closed);
    Job j;
    EXPECT_TRUE(ac.next(j));
    ac.finish(j, JobResponse{});
    EXPECT_TRUE(ac.next(j));
    ac.finish(j, JobResponse{});
    EXPECT_FALSE(ac.next(j)); // drained + closed: executors exit here
}

// ------------------------------------------------------------------ daemon

core::EpocOptions cheap_options() {
    core::EpocOptions opt;
    opt.latency.fidelity_threshold = 0.99;
    opt.latency.grape.max_iterations = 120;
    opt.qsearch.threshold = 1e-4;
    opt.qsearch.instantiate.restarts = 2;
    opt.num_threads = 2;
    return opt;
}

std::string test_socket_path() {
    static std::atomic<int> counter{0};
    return "/tmp/epoc_test_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1)) + ".sock";
}

std::uint64_t local_digest(core::EpocCompiler& c, const std::string& qasm,
                           const core::CompileCallOptions& call = {}) {
    return qoc::fnv1a64(
        core::schedule_to_json(c.compile(circuit::parse_qasm(qasm), call).schedule));
}

std::uint64_t counter_value(const StatusResponse& s, const std::string& key) {
    for (const auto& [k, v] : s.counters)
        if (k == key) return v;
    return 0;
}

TEST(Daemon, CompileMatchesLibraryModeAndAnswersEveryRequest) {
    DaemonOptions opt;
    opt.socket_path = test_socket_path();
    opt.num_executors = 2;
    opt.compiler = cheap_options();
    EpocDaemon daemon(opt);
    daemon.start();

    const std::string qasm = circuit::to_qasm(bench::ghz(3));
    core::EpocCompiler local(cheap_options());
    const std::uint64_t want = local_digest(local, qasm);

    EpocClient client(opt.socket_path);
    const JobResponse ok = client.compile(qasm, "alice");
    EXPECT_EQ(ok.status, JobStatus::ok);
    EXPECT_FALSE(ok.degraded);
    EXPECT_EQ(ok.digest, want);
    EXPECT_GT(ok.num_pulses, 0u);

    // Malformed QASM: a structured invalid_input response, not a dropped
    // connection or an exception.
    const JobResponse bad = client.compile("OPENQASM 2.0;\nbogus q[0];", "alice");
    EXPECT_EQ(bad.status, JobStatus::invalid_input);
    EXPECT_FALSE(bad.detail.empty());

    // A job whose budget is spent on arrival is shed, also as a response.
    const JobResponse shed = client.compile(qasm, "alice", 0, 0.0001);
    EXPECT_EQ(shed.status, JobStatus::shed_deadline);

    const StatusResponse status = client.status();
    EXPECT_EQ(counter_value(status, "service.tenant.alice.submitted"), 3u);
    EXPECT_EQ(counter_value(status, "service.tenant.alice.completed"), 1u);
    EXPECT_EQ(counter_value(status, "service.tenant.alice.shed_deadline"), 1u);
    EXPECT_EQ(counter_value(status, "service.tenant.alice.failed"), 1u);
    EXPECT_EQ(counter_value(status, "service.connections"), 1u);

    client.shutdown_server();
    daemon.wait(); // returns because the client requested shutdown
    daemon.stop();
}

TEST(Daemon, LongLivedConnectionHoldsOnlyOpenJobTokens) {
    // One client, 1,000 sequential jobs on one connection: each finished
    // job's cancel token expires and is pruned when the next job arrives, so
    // the connection holds at most the last job's entry, not one per job.
    DaemonOptions opt;
    opt.socket_path = test_socket_path();
    opt.num_executors = 1;
    opt.compiler = cheap_options();
    EpocDaemon daemon(opt);
    daemon.start();

    const std::string qasm = "OPENQASM 2.0;\nqreg q[1];\nx q[0];\n";
    EpocClient client(opt.socket_path);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(client.compile(qasm, "alice").status, JobStatus::ok) << i;
    const StatusResponse status = client.status();
    EXPECT_EQ(counter_value(status, "service.tenant.alice.completed"), 1000u);
    const auto held = std::find_if(status.counters.begin(), status.counters.end(),
                                   [](const auto& kv) { return kv.first == "service.job_tokens"; });
    ASSERT_NE(held, status.counters.end());
    EXPECT_LE(held->second, 1u);
    daemon.stop();
}

std::size_t open_fds() {
    std::size_t n = 0;
    for (const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
        (void)entry;
        ++n;
    }
    return n;
}

TEST(Daemon, FinishedConnectionsAreReaped) {
    // 100 short-lived clients, one after another: each finished connection
    // is reaped (threads joined, fd closed) when a later client is accepted,
    // so the daemon holds only live clients plus at most the one that
    // closed last, not one fd and two threads per client ever served.
    DaemonOptions opt;
    opt.socket_path = test_socket_path();
    opt.num_executors = 1;
    opt.compiler = cheap_options();
    EpocDaemon daemon(opt);
    daemon.start();

    const std::size_t fds_before = open_fds();
    for (int i = 0; i < 100; ++i) {
        EpocClient client(opt.socket_path);
        ASSERT_EQ(counter_value(client.status(), "service.connections"),
                  static_cast<std::uint64_t>(i + 1));
    }
    EpocClient fresh(opt.socket_path);
    const std::uint64_t open = counter_value(fresh.status(), "service.connections_open");
    EXPECT_GE(open, 1u); // the fresh client itself
    EXPECT_LE(open, 2u);
    // The fresh client's two ends, plus at most one connection not yet reaped.
    EXPECT_LE(open_fds(), fds_before + 3);
    daemon.stop();
}

TEST(Daemon, BackendJobsResolveAtAdmission) {
    DaemonOptions opt;
    opt.socket_path = test_socket_path();
    opt.num_executors = 1;
    opt.compiler = cheap_options();
    EpocDaemon daemon(opt);
    daemon.start();

    EpocClient client(opt.socket_path);
    const std::string qasm = circuit::to_qasm(bench::ghz(3));

    // A known backend compiles and matches a local backend-aware compile
    // bit for bit.
    core::CompileCallOptions call;
    call.backend = epoc::backend::BackendRegistry().find("linear-5");
    core::EpocCompiler local(cheap_options());
    const std::uint64_t want = local_digest(local, qasm, call);
    const JobResponse ok = client.compile(qasm, "alice", 0, 0.0, "linear-5");
    EXPECT_EQ(ok.status, JobStatus::ok);
    EXPECT_EQ(ok.digest, want);

    // An unknown backend name is answered invalid_input at admission — a
    // structured response naming the backend, never a drop or an executor
    // burn.
    const JobResponse bad =
        client.compile(qasm, "alice", 0, 0.0, "no-such-device");
    EXPECT_EQ(bad.status, JobStatus::invalid_input);
    EXPECT_NE(bad.detail.find("unknown backend"), std::string::npos)
        << bad.detail;
    EXPECT_NE(bad.detail.find("no-such-device"), std::string::npos);

    const StatusResponse status = client.status();
    EXPECT_EQ(counter_value(status, "service.invalid_backend"), 1u);
    EXPECT_EQ(counter_value(status, "service.tenant.alice.failed"), 1u);

    client.shutdown_server();
    daemon.wait();
    daemon.stop();
}

TEST(Daemon, ConcurrentClientsDedupeSharedBlocks) {
    DaemonOptions opt;
    opt.socket_path = test_socket_path();
    opt.num_executors = 3;
    opt.compiler = cheap_options();
    EpocDaemon daemon(opt);
    daemon.start();

    const std::vector<std::string> circuits = {
        circuit::to_qasm(bench::ghz(3)), circuit::to_qasm(bench::qft(3))};
    core::EpocCompiler local(cheap_options());
    std::vector<std::uint64_t> want;
    for (const std::string& qasm : circuits)
        want.push_back(local_digest(local, qasm));
    const std::size_t unique_misses = local.library().stats().misses;

    constexpr int kClients = 3;
    constexpr int kRounds = 2;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kClients; ++t) {
        threads.emplace_back([&, t] {
            try {
                EpocClient client(opt.socket_path);
                // Pipelined: submit everything, then collect by id.
                std::vector<std::pair<std::uint64_t, std::size_t>> ids;
                for (int round = 0; round < kRounds; ++round)
                    for (std::size_t i = 0; i < circuits.size(); ++i)
                        ids.emplace_back(
                            client.submit(circuits[i], "tenant" + std::to_string(t),
                                          static_cast<std::int32_t>(i % 2)),
                            i);
                for (const auto& [id, i] : ids) {
                    const JobResponse resp = client.wait_for(id);
                    if (resp.status != JobStatus::ok || resp.degraded ||
                        resp.digest != want[i])
                        failures.fetch_add(1);
                }
            } catch (...) {
                failures.fetch_add(1);
            }
        });
    }
    for (std::thread& th : threads) th.join();
    EXPECT_EQ(failures.load(), 0);

    // Cross-client dedup: however the 3 clients' 12 jobs interleaved, the
    // shared library generated each unique block exactly once (single-flight
    // makes the miss count deterministic), and the repeats all hit.
    EpocClient probe(opt.socket_path);
    const StatusResponse status = probe.status();
    EXPECT_EQ(counter_value(status, "qoc.library_misses"), unique_misses);
    EXPECT_GT(counter_value(status, "qoc.library_hits"), 0u);

    daemon.stop();
}

// Every test that arms fault sites must disarm them however it exits — the
// harness is process-global and the next test inherits whatever is left on.
struct FaultGuard {
    explicit FaultGuard(const std::string& spec) { util::fault::configure(spec); }
    ~FaultGuard() { util::fault::clear(); }
};

// ---------------------------------------------------- transport resilience

TEST(Transport, ServerRejectsEveryTruncatedFrameOverRealSocket) {
    // S4: the reader-side guarantee behind all retry logic — a peer that
    // dies mid-frame (any prefix, including a torn length header) yields a
    // clean "connection closed", never a hang, a partial payload, or a
    // desynchronized success.
    JobRequest req;
    req.id = 42;
    req.tenant = "t";
    req.qasm = "OPENQASM 2.0;\nqreg q[1];\n";
    const std::string payload = encode_job_request(req);
    std::string wire;
    qoc::put_u32(wire, static_cast<std::uint32_t>(payload.size()));
    wire += payload;

    for (std::size_t n = 0; n < wire.size(); ++n) {
        int fds[2];
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        ASSERT_EQ(::send(fds[0], wire.data(), n, MSG_NOSIGNAL),
                  static_cast<ssize_t>(n));
        ::close(fds[0]); // peer dies mid-frame
        std::string got;
        EXPECT_FALSE(read_frame(fds[1], got)) << "prefix length " << n;
        ::close(fds[1]);
    }
    // The full frame still round-trips (the loop above is not vacuous).
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ASSERT_EQ(::send(fds[0], wire.data(), wire.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(wire.size()));
    ::close(fds[0]);
    std::string got;
    EXPECT_TRUE(read_frame(fds[1], got));
    EXPECT_EQ(got, payload);
    ::close(fds[1]);
}

TEST(Transport, InjectedTornWriteSurfacesAsClosedConnection) {
    // S4: the service.write site tears the frame (a short prefix escapes);
    // the writer reports the connection dead and the reader on the other end
    // rejects the torn bytes rather than decoding garbage.
    const FaultGuard guard("service.write=1");
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    JobRequest req;
    req.id = 7;
    req.tenant = "t";
    req.qasm = "OPENQASM 2.0;\nqreg q[1];\n";
    EXPECT_FALSE(write_frame(fds[0], encode_job_request(req)));
    EXPECT_EQ(util::fault::fired("service.write"), 1u);
    ::close(fds[0]);
    std::string got;
    EXPECT_FALSE(read_frame(fds[1], got)); // torn prefix, then EOF
    ::close(fds[1]);
}

TEST(Transport, InjectedFrameRotIsRejectedByEveryDecoder) {
    const FaultGuard guard("service.frame=1");
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    JobRequest req;
    req.id = 9;
    req.tenant = "t";
    req.qasm = "OPENQASM 2.0;\nqreg q[1];\n";
    ASSERT_TRUE(write_frame(fds[0], encode_job_request(req)));
    std::string got;
    ASSERT_TRUE(read_frame(fds[1], got)); // framing survives; content is rot
    EXPECT_FALSE(peek_type(got).has_value());
    EXPECT_FALSE(decode_job_request(got).has_value());
    ::close(fds[0]);
    ::close(fds[1]);
}

// ------------------------------------------------------- client resilience

/// A listening socket that accepts nothing and answers nothing: the stalled
/// server every client timeout exists for.
struct SilentServer {
    int fd = -1;
    std::string path;
    explicit SilentServer(std::string p) : path(std::move(p)) {
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
        ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
        ::listen(fd, 8);
    }
    ~SilentServer() {
        if (fd >= 0) ::close(fd);
        ::unlink(path.c_str());
    }
};

TEST(Client, CallTimeoutSurfacesAsClientTimeout) {
    // S1: a server that accepts the job but never answers must not absorb
    // the client forever — the bounded wait expires as the *distinct*
    // ClientTimeout type (a slow server is not a dead one; callers decide).
    const SilentServer server(test_socket_path());
    ClientOptions copt;
    copt.call_timeout_ms = 150.0;
    EpocClient client(server.path, copt);
    const std::uint64_t id = client.submit("OPENQASM 2.0;\nqreg q[1];\n", "t");
    EXPECT_THROW(client.wait_for(id), ClientTimeout);
}

TEST(Client, JobDeadlineBoundsTheWaitEvenWithoutCallTimeout) {
    // S1: wait_for() on a job that carried deadline_ms is bounded by
    // deadline * grace + slack, independent of call_timeout_ms.
    const SilentServer server(test_socket_path());
    ClientOptions copt;
    copt.deadline_grace = 1.0;
    copt.deadline_slack_ms = 100.0;
    EpocClient client(server.path, copt);
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t id =
        client.submit("OPENQASM 2.0;\nqreg q[1];\n", "t", 0, 50.0);
    EXPECT_THROW(client.wait_for(id), ClientTimeout);
    const double waited_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
    EXPECT_LT(waited_ms, 5000.0); // bounded by ~150ms + scheduling noise
}

TEST(Daemon, RetryingClientRecoversFromTornServerWriteWithIdenticalDigest) {
    // The tentpole invariant end to end: the daemon computes the job, the
    // response write is torn (service.write arrival #2 — #1 is the client's
    // submit), the connection dies, the retry layer reconnects and re-submits
    // the same id, and the daemon answers from its replay table — one
    // response, bit-identical digest, no recompute.
    DaemonOptions opt;
    opt.socket_path = test_socket_path();
    opt.num_executors = 1;
    opt.compiler = cheap_options();
    EpocDaemon daemon(opt);
    daemon.start();

    const std::string qasm = circuit::to_qasm(bench::ghz(3));
    core::EpocCompiler local(cheap_options());
    const std::uint64_t want = local_digest(local, qasm);

    ClientOptions copt;
    copt.retry = true;
    copt.backoff_initial_ms = 5.0;
    EpocClient client(opt.socket_path, copt);
    {
        const FaultGuard guard("service.write=2");
        const JobResponse resp = client.compile(qasm, "alice");
        EXPECT_EQ(resp.status, JobStatus::ok);
        EXPECT_EQ(resp.digest, want);
        EXPECT_EQ(util::fault::fired("service.write"), 1u);
    }
    EXPECT_EQ(client.connects(), 2); // exactly one reconnect

    EpocClient probe(opt.socket_path);
    const StatusResponse status = probe.status();
    EXPECT_EQ(counter_value(status, "service.replay_hits"), 1u);
    EXPECT_EQ(counter_value(status, "service.tenant.alice.replayed"), 1u);
    EXPECT_EQ(counter_value(status, "service.tenant.alice.completed"), 1u);
    daemon.stop();
}

// --------------------------------------------------------- server hardening

TEST(Daemon, SpentBudgetIsShedNotCompiled) {
    // The service.executor_stall site is slow pre-compile work that honours
    // the job's deadline: a 50 ms budget runs out before the compile starts,
    // and the job is answered shed_deadline instead of being compiled with a
    // budget of 0, which compile() would read as unlimited.
    DaemonOptions opt;
    opt.socket_path = test_socket_path();
    opt.num_executors = 1;
    opt.compiler = cheap_options();
    EpocDaemon daemon(opt);
    daemon.start();

    const std::string qasm = circuit::to_qasm(bench::ghz(3));
    EpocClient client(opt.socket_path);
    const FaultGuard guard("service.executor_stall=1");
    const auto t0 = std::chrono::steady_clock::now();
    const JobResponse resp = client.compile(qasm, "t", 0, 50.0);
    const double waited_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
    EXPECT_EQ(resp.status, JobStatus::shed_deadline);
    EXPECT_EQ(resp.detail, "budget exhausted before compile");
    EXPECT_LT(waited_ms, 1000.0);
    // The deadline alone gave the executor back: the next job compiles.
    EXPECT_EQ(client.compile(qasm, "t").status, JobStatus::ok);
    daemon.stop();
}

TEST(Daemon, ClientKilledMidJobIsCancelledWithAccounting) {
    // S4: kill a client while its job is wedged on the only executor; the
    // disconnect must fire the job's token (freeing the executor) and the
    // tenant's `cancelled` counter must record it.
    DaemonOptions opt;
    opt.socket_path = test_socket_path();
    opt.num_executors = 1;
    opt.compiler = cheap_options();
    EpocDaemon daemon(opt);
    daemon.start();

    const FaultGuard guard("service.executor_stall=1");
    auto victim = std::make_unique<EpocClient>(opt.socket_path);
    victim->submit(circuit::to_qasm(bench::ghz(3)), "victim");
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    victim.reset(); // kill mid-job: only the disconnect can break the wedge

    EpocClient probe(opt.socket_path);
    std::uint64_t cancelled = 0;
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (cancelled == 0 && std::chrono::steady_clock::now() < give_up) {
        cancelled =
            counter_value(probe.status(), "service.tenant.victim.cancelled");
        if (cancelled == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_EQ(cancelled, 1u);
    daemon.stop();
}

TEST(Daemon, StaleSocketIsReclaimedButLiveSocketIsNot) {
    // S2, live half: a second daemon must refuse to steal a serving path.
    DaemonOptions opt;
    opt.socket_path = test_socket_path();
    opt.compiler = cheap_options();
    EpocDaemon live(opt);
    live.start();
    {
        EpocDaemon thief(opt);
        EXPECT_THROW(thief.start(), std::runtime_error);
    }
    // The live daemon kept serving through the attempted theft.
    EpocClient probe(opt.socket_path);
    EXPECT_NO_THROW(probe.status());
    live.stop();

    // S2, stale half: a leftover socket file with no listener behind it (a
    // crashed daemon's corpse) is reclaimed and serving starts normally.
    const std::string stale_path = test_socket_path();
    {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, stale_path.c_str(),
                     sizeof(addr.sun_path) - 1);
        ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                         sizeof(addr)),
                  0);
        ::close(fd); // no listen(): the file stays, nothing answers
    }
    DaemonOptions opt2;
    opt2.socket_path = stale_path;
    opt2.compiler = cheap_options();
    EpocDaemon phoenix(opt2);
    EXPECT_NO_THROW(phoenix.start());
    EpocClient probe2(stale_path);
    EXPECT_NO_THROW(probe2.status());
    phoenix.stop();
}

TEST(Daemon, InProcessChaosSoakUnderTransportFaults) {
    // The chaos-soak CI job's in-process twin, which is what puts the whole
    // fault/retry/replay machinery under TSan: transport sites at a few
    // percent, two retry-enabled clients, and still every job answered ok
    // with digests bit-identical to library mode.
    const FaultGuard guard(
        "service.read=%5@3;service.write=%7@5;service.frame=%13@7");
    DaemonOptions opt;
    opt.socket_path = test_socket_path();
    opt.num_executors = 2;
    opt.compiler = cheap_options();
    EpocDaemon daemon(opt);
    daemon.start();

    const std::vector<std::string> circuits = {
        circuit::to_qasm(bench::ghz(3)), circuit::to_qasm(bench::qft(3))};
    core::EpocCompiler local(cheap_options());
    std::vector<std::uint64_t> want;
    {
        // Baseline digests computed with the sites disarmed: the compiler
        // shares this process, and a store/transport site firing inside the
        // local compile would poison the ground truth.
        util::fault::clear();
        for (const std::string& qasm : circuits)
            want.push_back(local_digest(local, qasm));
        util::fault::configure(
            "service.read=%5@3;service.write=%7@5;service.frame=%13@7");
    }

    constexpr int kClients = 2;
    constexpr int kRounds = 3;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kClients; ++t) {
        threads.emplace_back([&, t] {
            try {
                ClientOptions copt;
                copt.retry = true;
                copt.max_reconnects = 50;
                copt.backoff_initial_ms = 2.0;
                copt.backoff_max_ms = 50.0;
                copt.backoff_seed = static_cast<std::uint64_t>(t + 1);
                copt.call_timeout_ms = 120000.0; // hang backstop, not a bound
                EpocClient client(opt.socket_path, copt);
                for (int round = 0; round < kRounds; ++round)
                    for (std::size_t i = 0; i < circuits.size(); ++i) {
                        const JobResponse resp = client.compile(
                            circuits[i], "chaos" + std::to_string(t));
                        if (resp.status != JobStatus::ok ||
                            resp.digest != want[i])
                            failures.fetch_add(1);
                    }
            } catch (...) {
                failures.fetch_add(1);
            }
        });
    }
    for (std::thread& th : threads) th.join();
    EXPECT_EQ(failures.load(), 0);
    // Proof the chaos actually happened (otherwise this test is vacuous):
    // at least one transport fault fired. Read before clear() — it resets
    // the counters.
    const std::size_t faults_fired = util::fault::fired("service.read") +
                                     util::fault::fired("service.write") +
                                     util::fault::fired("service.frame");
    EXPECT_GT(faults_fired, 0u);
    util::fault::clear(); // probe and shutdown on a clean transport
    EpocClient probe(opt.socket_path);
    EXPECT_NO_THROW(probe.status());
    daemon.stop();
}

TEST(Daemon, StopAnswersQueuedJobsAsCancelled) {
    // One executor, several queued jobs, then stop() from under them: every
    // job still gets exactly one response (ok for whatever finished,
    // cancelled for the rest) and stop() returns promptly.
    DaemonOptions opt;
    opt.socket_path = test_socket_path();
    opt.num_executors = 1;
    opt.compiler = cheap_options();
    EpocDaemon daemon(opt);
    daemon.start();

    const std::string qasm = circuit::to_qasm(bench::qft(3));
    EpocClient client(opt.socket_path);
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 4; ++i) ids.push_back(client.submit(qasm, "t"));
    daemon.stop();
    int answered = 0;
    for (const std::uint64_t id : ids) {
        try {
            const JobResponse resp = client.wait_for(id);
            // Any terminal status is acceptable; no hangs, no garbage.
            EXPECT_LE(static_cast<int>(resp.status),
                      static_cast<int>(JobStatus::error));
            ++answered;
        } catch (const std::exception&) {
            // Connection torn down before the response: also a clean outcome
            // for jobs cancelled by shutdown — the guarantee under test is
            // "prompt, no hang, no crash".
            break;
        }
    }
    EXPECT_GE(answered, 0); // reaching here at all is the real assertion

    // Drain accounting: every submitted job reached a terminal status (no
    // job silently dropped) and nothing is left queued after stop().
    const StatusResponse s = daemon.status();
    EXPECT_EQ(counter_value(s, "service.queued"), 0u);
    EXPECT_EQ(counter_value(s, "service.in_flight"), 0u);
    const std::uint64_t terminal =
        counter_value(s, "service.tenant.t.completed") +
        counter_value(s, "service.tenant.t.cancelled") +
        counter_value(s, "service.tenant.t.shed_deadline") +
        counter_value(s, "service.tenant.t.rejected_overload") +
        counter_value(s, "service.tenant.t.failed");
    EXPECT_EQ(terminal, counter_value(s, "service.tenant.t.submitted"));
    EXPECT_EQ(counter_value(s, "service.drain_deadline_exceeded"), 0u);
}

} // namespace
