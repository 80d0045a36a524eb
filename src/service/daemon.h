// epocd: the long-running compile-service daemon.
//
// One EpocDaemon owns one shared EpocCompiler — one pulse library, one
// synthesis cache, one plan cache, one (optional) on-disk pulse store — and
// serves compile jobs from any number of clients over an AF_UNIX socket
// (service/protocol.h). That sharing is the point: identical unitary blocks
// submitted by different clients dedupe through the caches' single-flight
// paths, so the thousandth GHZ-preparation circuit costs lookups, not GRAPE.
//
// Threading model:
//
//   accept thread  -> one reader thread per connection -> AdmissionController
//                      one writer thread per connection     (fair queue)
//   executor threads (num_executors) <- AdmissionController::next()
//       each runs EpocCompiler::compile(circuit, per-call options)
//
// compile() is safe for concurrent callers (see epoc/pipeline.h), and the
// compiler's ThreadPool round-robins block-level work across the concurrent
// compiles, so a wide job and a burst of narrow jobs make progress together.
//
// Executors never block on a client: responses are queued on the
// connection's bounded outbox (256 frames) and drained by its writer thread
// under a 5 s write timeout — a slow or wedged client overflows its outbox
// (or times out a write) and is disconnected with accounting
// (service.slow_client_disconnects, service.write_timeouts), while the
// executor has long moved on.
//
// Every job gets exactly one response, always — admission verdicts, parse
// failures, compile degradations and internal errors all come back as a
// JobResponse with the appropriate status; no path lets an exception escape
// to kill an executor or silently drop a request. Client disconnect fires
// the connection's job tokens (queued jobs are answered `cancelled` at
// dispatch, or sooner when admission needs their capacity; in-flight
// compiles wind down through the §4e ladder); stop() does the same globally.
// A job's deadline, linked to its token, is its only stop: every poll point
// sees it, and a job whose budget is spent before its compile starts is
// answered shed_deadline instead of compiled.
// Completed verdicts (ok / invalid_input) are additionally recorded in a
// replay table of the last 1024, keyed by (tenant, id): a client that lost the
// response to a transport fault re-submits the same id and is answered from
// the record — the idempotence that makes client-side retry safe.
#pragma once

#include "epoc/pipeline.h"
#include "service/admission.h"
#include "service/protocol.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace epoc::service {

struct DaemonOptions {
    /// Filesystem path for the listening socket; created on start(),
    /// unlinked on stop(). A stale path from a crashed daemon is probed
    /// (connect) and unlinked only when nothing answers — start() throws
    /// when a live daemon already holds the path.
    std::string socket_path = "/tmp/epocd.sock";
    /// Concurrent compile jobs (executor threads). The compiler's own
    /// thread pool parallelizes inside each compile on top of this.
    int num_executors = 2;
    AdmissionOptions admission;
    /// Configuration for the shared compiler. Each job's backend, budget and
    /// cancellation arrive with its request and are passed per call.
    core::EpocOptions compiler;
    /// Registry the per-job `backend` field resolves against. nullptr (the
    /// default) makes the daemon construct a registry of the built-in
    /// devices; pass a pre-populated one to serve custom (JSON-registered)
    /// backends.
    std::shared_ptr<backend::BackendRegistry> backends;

    /// stop() drain budget: how long to wait for executors to answer the
    /// queue before bumping service.drain_deadline_exceeded (threads are
    /// still joined — cancellation makes that prompt; the counter records
    /// that the budget was blown, it does not abandon threads).
    double drain_ms = 10000.0;
};

class EpocDaemon {
public:
    explicit EpocDaemon(DaemonOptions opt);
    ~EpocDaemon(); ///< calls stop()

    EpocDaemon(const EpocDaemon&) = delete;
    EpocDaemon& operator=(const EpocDaemon&) = delete;

    /// Bind the socket and spawn the accept and executor threads.
    /// Throws std::runtime_error when the socket cannot be created or bound,
    /// or when a live daemon already serves socket_path.
    void start();

    /// Block until a client's shutdown request (or a stop() from another
    /// thread) ends the serving loop.
    void wait();

    /// wait(), bounded: returns true when shutdown was requested within
    /// `ms`, false on timeout. The polling primitive a signal-driven main
    /// loop needs (signal handlers can only set a flag; the loop checks it
    /// between bounded waits).
    bool wait_for(double ms);

    /// Drain and terminate: stop admitting, cancel in-flight jobs, answer
    /// queued jobs as cancelled, join every thread, unlink the socket.
    /// Idempotent; safe to call from any thread except an executor's.
    void stop();

    /// Wake wait()/wait_for() without stopping — lets a signal-watching
    /// thread hand control back to whoever drives stop().
    void request_shutdown();

    /// The flat counter snapshot the status endpoint serves; also handy for
    /// in-process tests.
    StatusResponse status() const;

    const std::string& socket_path() const { return opt_.socket_path; }

private:
    struct Connection;

    /// Bounded (tenant, id) -> completed JobResponse table, FIFO-evicted.
    class ReplayTable {
    public:
        bool lookup(const std::string& key, JobResponse& out) const;
        void insert(const std::string& key, const JobResponse& resp);

    private:
        mutable std::mutex mutex_;
        std::unordered_map<std::string, JobResponse> map_;
        std::deque<std::string> fifo_;
    };

    void accept_loop();
    void serve_connection(std::shared_ptr<Connection> conn);
    void writer_loop(std::shared_ptr<Connection> conn);
    void executor_loop();
    JobResponse run_job(Job& job);
    void handle_job_request(const std::shared_ptr<Connection>& conn,
                            JobRequest&& req);
    void send_response(const std::shared_ptr<Connection>& conn,
                       const JobResponse& resp);

    DaemonOptions opt_;
    std::unique_ptr<core::EpocCompiler> compiler_;
    AdmissionController admission_;
    ReplayTable replay_;

    // Written by start()/stop(), read each iteration by the accept thread.
    std::atomic<int> listen_fd_{-1};
    std::thread accept_thread_;
    std::vector<std::thread> executors_;
    mutable std::mutex conns_mutex_;
    /// Live connections, plus any closed since the last accept, which reaps
    /// them; service.connections_open counts them all.
    std::vector<std::shared_ptr<Connection>> conns_;

    std::atomic<bool> running_{false};
    std::mutex shutdown_mutex_;
    std::condition_variable shutdown_cv_;
    bool shutdown_requested_ = false;

    // Drain accounting: executors still in their loop; stop() waits (bounded
    // by drain_ms) for this to reach zero before joining.
    std::mutex drain_mutex_;
    std::condition_variable drain_cv_;
    int live_executors_ = 0;

    // service.* counters not covered by the admission snapshot.
    std::atomic<std::uint64_t> connections_accepted_{0};
    std::atomic<std::uint64_t> bad_frames_{0};
    std::atomic<std::uint64_t> status_requests_{0};
    std::atomic<std::uint64_t> accept_faults_{0};
    std::atomic<std::uint64_t> slow_client_disconnects_{0};
    std::atomic<std::uint64_t> write_timeouts_{0};
    std::atomic<std::uint64_t> send_failures_{0};
    std::atomic<std::uint64_t> replay_hits_{0};
    /// Jobs naming a backend the registry does not know (answered
    /// invalid_input at admission).
    std::atomic<std::uint64_t> invalid_backend_{0};
    std::atomic<std::uint64_t> drain_deadline_exceeded_{0};
};

} // namespace epoc::service
