// warm_serve: epocd's purpose. An open loop into an in-process EpocDaemon
// over its AF_UNIX socket: seeded Poisson arrivals at the nominal offered
// rate, each request a seeded pick of a small suite circuit and a tenant.
// Every circuit is compiled once in set-up, so the timed phase is all cache
// hits and measures service plus pipeline overhead (ZX, partition, cache
// lookups, schedule, wire, admission). A stepped rate search then finds the
// highest offered rate whose p99 meets the latency limit without a growing
// backlog.
//
// The generator is one thread: it sends each request when due without
// waiting for replies and reads responses in between, so a slow daemon
// shows as latency (timed from each request's due time), while a generator
// that falls behind its own schedule rejects the run.
#include "workloads.h"

#include "circuit/qasm.h"
#include "qoc/pulse_io.h"
#include "service/client.h"
#include "service/daemon.h"
#include "stats.h"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <random>
#include <stdexcept>

namespace perfbench {

namespace fs = std::filesystem;
using namespace epoc;

namespace {

/// Share of --seconds spent at the nominal rate; the rate search uses most
/// of the rest.
constexpr double kNominalShare = 0.5;
constexpr double kStepGrowth = 1.25;
constexpr int kMaxSteps = 12;
constexpr int kRefinements = 2;
/// Arrivals per search step: enough for ten samples beyond its p99.
constexpr double kStepArrivals = 1200.0;
constexpr double kDrainSeconds = 10.0;
/// Daemon executors (one compile thread each) and generator connections:
/// with the one generator thread they fit a 4-core machine.
constexpr int kExecutors = 2;
constexpr int kConnections = 2;
const char* const kTenants[] = {"alice", "bob", "carol", "dave"};

/// Small suite circuits whose warm compile is sub-millisecond.
std::vector<bench::NamedCircuit> serve_mix() {
    return {
        {"bell4", bench::bell_pairs(4)},      {"bb84_a", bench::bb84(5, 1)},
        {"bb84_b", bench::bb84(5, 2)},        {"bb84_c", bench::bb84(5, 3)},
        {"simon2_s1", bench::simon(2, 1)},    {"simon2_s2", bench::simon(2, 2)},
        {"bv4_s1", bench::bv(4, 1)},          {"bv4_s2", bench::bv(4, 2)},
        {"bv4_s4", bench::bv(4, 4)},          {"bv4_s8", bench::bv(4, 8)},
        {"hidden_shift4", bench::hidden_shift(4)},
    };
}

class Socket {
public:
    explicit Socket(const std::string& path) : fd_(::socket(AF_UNIX, SOCK_STREAM, 0)) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (fd_ < 0 || path.size() >= sizeof(addr.sun_path))
            throw std::runtime_error("warm_serve: bad socket path " + path);
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
            ::close(fd_);
            throw std::runtime_error("warm_serve: cannot connect to " + path);
        }
    }
    ~Socket() { ::close(fd_); }
    Socket(const Socket&) = delete;
    Socket& operator=(const Socket&) = delete;
    int fd() const { return fd_; }

private:
    int fd_;
};

struct Request {
    double due_ms = 0;
    std::size_t circuit = 0;
    std::size_t tenant = 0;
    double sent_ms = kNaN;
    double recv_ms = kNaN;
    service::JobResponse response;
    bool answered = false;
};

struct Phase {
    double rate = 0;
    std::vector<Request> requests;
    double wall_ms = 0; ///< first due time to last response
    std::size_t failed = 0;
    std::vector<double> latency_ms; ///< from due time; failures are +inf
    Lateness late;
};

struct Served {
    std::vector<std::string> qasm;
    std::vector<std::uint64_t> digest; ///< the warm-up response per circuit
};

/// One open-loop phase: arrivals at `rate` for `seconds`, then a bounded
/// drain. Responses are checked against the warm-up digests.
Phase open_loop(std::vector<std::unique_ptr<Socket>>& conns, const Served& mix, double rate,
                double seconds, std::mt19937_64& rng, std::uint64_t& next_id, Spans& spans,
                int parent) {
    Phase ph;
    ph.rate = rate;
    std::exponential_distribution<double> gap(rate / 1000.0);
    for (double t = gap(rng); t < seconds * 1000.0; t += gap(rng)) {
        Request r;
        r.due_ms = t;
        r.circuit = rng() % mix.qasm.size();
        r.tenant = rng() % std::size(kTenants);
        ph.requests.push_back(r);
    }
    const std::uint64_t id_base = next_id;
    next_id += ph.requests.size();
    std::vector<std::string> frames;
    frames.reserve(ph.requests.size());
    for (std::size_t i = 0; i < ph.requests.size(); ++i) {
        service::JobRequest req;
        req.id = id_base + i;
        req.tenant = kTenants[ph.requests[i].tenant];
        req.qasm = mix.qasm[ph.requests[i].circuit];
        frames.push_back(service::encode_job_request(req));
    }
    std::vector<pollfd> fds;
    for (const auto& c : conns) fds.push_back({c->fd(), POLLIN, 0});

    const auto origin = Clock::now() + std::chrono::milliseconds(5);
    const auto now_ms = [&] { return ms_between(origin, Clock::now()); };
    std::size_t next = 0, outstanding = 0;
    const double drain_until = seconds * 1000.0 + kDrainSeconds * 1000.0;
    bool lost = false;
    while (!lost) {
        double now = now_ms();
        while (next < ph.requests.size() && now >= ph.requests[next].due_ms) {
            if (!service::write_frame(conns[next % conns.size()]->fd(), frames[next])) {
                lost = true;
                break;
            }
            ph.requests[next].sent_ms = now_ms();
            ++next;
            ++outstanding;
            now = now_ms();
        }
        if (lost || (next == ph.requests.size() && outstanding == 0) || now > drain_until) break;
        // Block until the next due time or a response, whichever is first.
        double wait_ms = next < ph.requests.size() ? ph.requests[next].due_ms - now
                                                   : std::min(50.0, drain_until - now);
        wait_ms = std::max(wait_ms, 0.0);
        const timespec ts{static_cast<time_t>(wait_ms / 1000.0),
                          static_cast<long>(std::fmod(wait_ms, 1000.0) * 1e6)};
        if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) continue;
        for (pollfd& p : fds) {
            if (p.revents == 0) continue;
            std::string payload;
            std::optional<service::JobResponse> resp;
            if (!service::read_frame(p.fd, payload) ||
                !(resp = service::decode_job_response(payload)) || resp->id < id_base ||
                resp->id >= id_base + ph.requests.size()) {
                lost = true;
                break;
            }
            Request& r = ph.requests[resp->id - id_base];
            r.recv_ms = now_ms();
            r.response = std::move(*resp);
            r.answered = true;
            --outstanding;
        }
    }
    double last_ms = 0;
    std::vector<double> due, sent;
    for (std::size_t i = 0; i < ph.requests.size(); ++i) {
        const Request& r = ph.requests[i];
        const bool ok = r.answered && r.response.status == service::JobStatus::ok &&
                        !r.response.degraded && r.response.digest == mix.digest[r.circuit];
        if (!ok) ++ph.failed;
        ph.latency_ms.push_back(ok ? r.recv_ms - r.due_ms : kInf);
        if (r.answered) last_ms = std::max(last_ms, r.recv_ms);
        if (!std::isnan(r.sent_ms)) {
            due.push_back(r.due_ms);
            sent.push_back(r.sent_ms);
        }
        if (spans.enabled() && r.answered)
            spans.add("request " + std::string(kTenants[r.tenant]), parent, id_base + i,
                      origin + std::chrono::microseconds(static_cast<long>(r.sent_ms * 1000)),
                      origin + std::chrono::microseconds(static_cast<long>(r.recv_ms * 1000)));
    }
    ph.wall_ms = last_ms - (ph.requests.empty() ? 0 : ph.requests.front().due_ms);
    ph.late = lateness(due, sent);
    return ph;
}

std::map<std::string, std::uint64_t> status_map(const service::EpocDaemon& d) {
    std::map<std::string, std::uint64_t> m;
    for (const auto& [k, v] : d.status().counters) m[k] = v;
    return m;
}

std::uint64_t submitted(const std::map<std::string, std::uint64_t>& s) {
    std::uint64_t n = 0;
    for (const char* t : kTenants) {
        const auto it = s.find(std::string("service.tenant.") + t + ".submitted");
        if (it != s.end()) n += it->second;
    }
    return n;
}

/// Does a phase meet the limit: p99 (failures count as over it) within the
/// limit, and no growing backlog (the last fifth's median within it too).
bool meets_limit(const Phase& ph, double limit_ms) {
    if (ph.latency_ms.empty()) return false;
    const std::vector<double> tail(ph.latency_ms.end() - ph.latency_ms.size() / 5,
                                   ph.latency_ms.end());
    return quantile(ph.latency_ms, 0.99) <= limit_ms && median(tail) <= limit_ms;
}

void print_phase(const char* label, const Phase& ph, double limit_ms) {
    const std::size_t n = ph.latency_ms.size();
    std::printf("%s rate=%.1f/s n=%zu failed=%zu p50=%.3f ms p99=%s late_p50=%.3f ms "
                "late_p99=%.3f ms -> %s\n",
                label, ph.rate, n, ph.failed, median(ph.latency_ms),
                tail_eligible(n, 0.99) ? std::to_string(quantile(ph.latency_ms, 0.99)).c_str()
                                       : "n/a",
                ph.late.p50_ms, ph.late.p99_ms, meets_limit(ph, limit_ms) ? "meets" : "misses");
}

} // namespace

void run_warm_serve(const Args& args, Report& report, Spans& spans) {
    if (kExecutors + 1 > cores())
        throw std::runtime_error("warm_serve: needs " + std::to_string(kExecutors + 1) +
                                 " cores");
    const fs::path work = fs::path(args.work_dir) / ("warm_serve-" + std::to_string(getpid()));
    fs::remove_all(work);
    fs::create_directories(work);
    const core::EpocOptions opt = suite_options(1);
    const double limit_ms = args.serve_p99_limit_ms;
    const double lateness_budget_ms = limit_ms / 10.0;

    // Set-up: reference compiles in process (checked against each circuit's
    // unitary), the daemon, a warm-up through the socket whose responses must
    // match the references, and the generator's connections.
    const auto setup_begin = Clock::now();
    const std::vector<Input> inputs = with_references(serve_mix());
    core::EpocCompiler reference(opt);
    Served mix;
    util::CacheStats synth_after_setup;
    for (const Input& in : inputs) {
        const core::EpocResult r = reference.compile(in.circuit);
        synth_after_setup = r.synth_cache_stats;
        const std::string bad = check_compile(r, in.reference);
        report.require(bad.empty(), "warm_serve reference compile " + in.name + ": " + bad);
        mix.qasm.push_back(circuit::to_qasm(in.circuit));
        mix.digest.push_back(digest(r));
    }
    service::DaemonOptions dopt;
    dopt.socket_path = (work / "epocd.sock").string();
    dopt.num_executors = kExecutors;
    dopt.compiler = opt;
    service::EpocDaemon daemon(dopt);
    daemon.start();
    {
        service::EpocClient client(dopt.socket_path);
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            const service::JobResponse r = client.compile(mix.qasm[i], "warmup");
            report.require(r.status == service::JobStatus::ok && !r.degraded &&
                               r.digest == mix.digest[i],
                           "warm_serve warm-up " + inputs[i].name +
                               " differs from the in-process reference");
        }
    }
    std::vector<std::unique_ptr<Socket>> conns;
    for (int c = 0; c < kConnections; ++c)
        conns.push_back(std::make_unique<Socket>(dopt.socket_path));
    const double setup_s = ms_between(setup_begin, Clock::now()) / 1000.0;
    // Wake the generator at its due times, not up to the default 50 us later.
    // Set after the daemon's threads exist, so they keep the default slack.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

    std::mt19937_64 rng(args.seed);
    std::uint64_t next_id = 1;
    const auto before = status_map(daemon);
    const double nominal_s = args.seconds * kNominalShare * (args.trace ? 0.5 : 1.0);
    const int nominal_span = spans.begin("phase nominal");
    const Phase nominal = open_loop(conns, mix, args.serve_rate, nominal_s, rng, next_id, spans,
                                    nominal_span);
    spans.end(nominal_span);
    print_phase("nominal", nominal, limit_ms);
    const auto after_nominal = status_map(daemon);

    const std::size_t n = nominal.requests.size();
    report.attempted += n;
    report.failed += nominal.failed;
    report.require(!generator_fell_behind(nominal.late, lateness_budget_ms),
                   "warm_serve: the generator fell behind its schedule");
    report.require(submitted(after_nominal) - submitted(before) == n,
                   "warm_serve: the daemon did not see every request");
    std::vector<std::uint64_t> picks;
    for (const Request& r : nominal.requests) picks.push_back(r.circuit * 16 + r.tenant);
    const std::uint64_t stream = qoc::fnv1a64(picks.data(), picks.size() * sizeof picks[0]);

    if (!args.trace) {
        // Stepped rate search from the nominal rate: grow until a step misses
        // the limit, then bisect between the last step that met it and the
        // first that missed.
        double good = meets_limit(nominal, limit_ms) ? args.serve_rate : 0.0;
        double bad = 0.0;
        for (int k = 1; k <= kMaxSteps && good > 0 && bad == 0; ++k) {
            const double rate = args.serve_rate * std::pow(kStepGrowth, k);
            const Phase step = open_loop(conns, mix, rate, std::max(1.0, kStepArrivals / rate),
                                         rng, next_id, spans, 0);
            print_phase("step", step, limit_ms);
            // A saturated machine can starve the generator too: that step
            // does not meet the limit either.
            const bool valid = !generator_fell_behind(step.late, lateness_budget_ms);
            (valid && meets_limit(step, limit_ms) ? good : bad) = rate;
        }
        for (int k = 0; k < kRefinements && good > 0 && bad > 0; ++k) {
            const double rate = std::sqrt(good * bad);
            const Phase step = open_loop(conns, mix, rate, std::max(1.0, kStepArrivals / rate),
                                         rng, next_id, spans, 0);
            print_phase("refine", step, limit_ms);
            const bool valid = !generator_fell_behind(step.late, lateness_budget_ms);
            (valid && meets_limit(step, limit_ms) ? good : bad) = rate;
        }
        const auto after = status_map(daemon);
        report.require(after.at("qoc.library_misses") == before.at("qoc.library_misses"),
                       "warm_serve: pulse-library misses in the timed phase");
        report.exact_counts(args, "nominal",
                            {{"requests", n},
                             {"qoc.library_misses_delta", after_nominal.at("qoc.library_misses") -
                                                              before.at("qoc.library_misses")},
                             {"stream_digest", stream}});

        std::vector<double> sched, esp;
        for (const Request& r : nominal.requests)
            if (r.answered && r.response.status == service::JobStatus::ok) {
                sched.push_back(r.response.latency_ns);
                esp.push_back(r.response.esp);
            }
        report.metric("setup_s", setup_s, 1);
        report.metric("throughput_cps",
                      1000.0 * static_cast<double>(n - nominal.failed) / nominal.wall_ms, n);
        report.metric("latency_ms_p50", median(nominal.latency_ms), n);
        if (tail_eligible(n, 0.90))
            report.metric("latency_ms_p90", quantile(nominal.latency_ms, 0.90), n);
        if (tail_eligible(n, 0.99))
            report.metric("latency_ms_p99", quantile(nominal.latency_ms, 0.99), n);
        report.metric("max_rate_cps", good, 1);
        report.metric("schedule_latency_ns", geomean(sched), sched.size());
        report.metric("esp_geomean", geomean(esp), esp.size());
        report.metric("success_rate",
                      static_cast<double>(n - nominal.failed) / static_cast<double>(n), n);
        report.metric("peak_rss_mb", peak_rss_mb(), 1);
        conns.clear();
        daemon.stop();
        fs::remove_all(work);
        return;
    }

    // Traced run: a second nominal phase with per-request spans, the daemon's
    // status deltas (its compiler stays untraced), and the same mix compiled
    // in process on the warmed reference compiler with tracing on.
    const int traced_span = spans.begin("phase nominal traced");
    const Phase traced = open_loop(conns, mix, args.serve_rate, nominal_s, rng, next_id, spans,
                                   traced_span);
    spans.end(traced_span);
    print_phase("nominal traced", traced, limit_ms);
    const auto after = status_map(daemon);
    report.attempted += traced.requests.size();
    report.failed += traced.failed;
    report.require(after.at("qoc.library_misses") == before.at("qoc.library_misses"),
                   "warm_serve: pulse-library misses in the timed phase");
    report.exact_counts(args, "nominal", {{"requests", n}, {"stream_digest", stream}});

    std::vector<double> compile_ms, overhead_ms;
    double busy_ms = 0;
    for (const Phase* ph : {&nominal, &traced})
        for (const Request& r : ph->requests)
            if (r.answered) {
                compile_ms.push_back(r.response.compile_ms);
                overhead_ms.push_back(r.recv_ms - r.sent_ms - r.response.compile_ms);
                busy_ms += r.response.compile_ms;
            }
    report.metric("service.compile_ms_p50", median(compile_ms), compile_ms.size());
    report.metric("service.overhead_ms_p50", median(overhead_ms), overhead_ms.size());
    if (tail_eligible(overhead_ms.size(), 0.99))
        report.metric("service.overhead_ms_p99", quantile(overhead_ms, 0.99),
                      overhead_ms.size());
    report.metric("service.executor_busy",
                  busy_ms / (kExecutors * (nominal.wall_ms + traced.wall_ms)),
                  compile_ms.size());
    if (!std::isnan(traced.late.p99_ms))
        report.metric("service.generator_late_ms_p99", traced.late.p99_ms,
                      traced.late.samples);

    // In-process pass over the mix on the warmed reference compiler, traced.
    reference.tracer().set_enabled(true);
    const qoc::PulseLibraryStats lib_before = reference.library().stats();
    const Pass mix_pass = compile_passes({&reference}, inputs, report, spans, 0).front();
    reference.tracer().set_enabled(false);
    report.failed += mix_pass.failed;
    report.attempted += mix_pass.latency_ms.size();
    report.require(mix_pass.library.misses == lib_before.misses,
                   "warm_serve: the warmed in-process compiler missed its library");
    qoc::PulseLibraryStats served;
    served.hits = after.at("qoc.library_hits") - before.at("qoc.library_hits");
    served.misses = after.at("qoc.library_misses") - before.at("qoc.library_misses");
    served.single_flight_waits =
        after.at("qoc.single_flight_waits") - before.at("qoc.single_flight_waits");
    util::CacheStats synth = mix_pass.synth;
    synth.hits -= synth_after_setup.hits;
    synth.misses -= synth_after_setup.misses;
    report_tally(report, mix_pass.tally, served, synth, 0, 0);
    std::size_t warm_n = 0;
    const double warm_ms = warm_compile_p50(reference, inputs, 20, warm_n);
    report.metric("pipeline.warm_compile_ms", warm_ms, warm_n);
    report.metric("store.pack_bytes", 0, 0);
    report.metric("trace_overhead", median(traced.latency_ms) / median(nominal.latency_ms),
                  2);
    run_layer_probes(report, spans, mix.qasm.front());
    conns.clear();
    daemon.stop();
    fs::remove_all(work);
}

} // namespace perfbench
