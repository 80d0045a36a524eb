#include "service/daemon.h"

#include "circuit/qasm.h"
#include "epoc/export.h"
#include "qoc/pulse_io.h"
#include "util/fault_injection.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <utility>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace epoc::service {

namespace {

/// Slow-client protection: a connection with this many responses queued is
/// disconnected (service.slow_client_disconnects), and so is one whose peer
/// takes longer than kWriteTimeoutMs to accept a single response — an
/// executor is never parked behind a wedged peer.
constexpr std::size_t kMaxOutboxFrames = 256;
constexpr double kWriteTimeoutMs = 5000.0;
/// Completed responses remembered for idempotent re-submission.
constexpr std::size_t kReplayEntries = 1024;

/// Replay-table key: tenants cannot collide with each other, and \x1f
/// cannot appear in a numeric id rendering.
std::string replay_key(const std::string& tenant, std::uint64_t id) {
    return tenant + '\x1f' + std::to_string(id);
}

} // namespace

/// Per-client connection state. The reader thread owns the fd's read side;
/// the writer thread owns the write side, draining a bounded outbox that
/// executors enqueue into — an executor therefore never blocks on a peer's
/// socket buffer. `open` flips false exactly once (disconnect or teardown);
/// the fd is closed only after both threads are joined — when the next
/// accept reaps the finished connection, or at stop() — so no I/O can race a
/// recycled descriptor.
struct EpocDaemon::Connection {
    int fd = -1;
    std::thread reader;
    std::thread writer;

    std::mutex mutex; // guards outbox, open, writer_exit
    std::condition_variable outbox_cv;
    std::deque<std::string> outbox;
    bool open = true;
    bool writer_exit = false;

    /// Cancel tokens of this client's queued and in-flight jobs; fired on
    /// disconnect so its work stops consuming the service. weak_ptr: a
    /// finished job drops its token, and add_token() prunes the expired
    /// entries, so a long-lived connection holds only its open jobs' tokens.
    std::mutex tokens_mutex;
    std::vector<std::weak_ptr<util::CancelToken>> job_tokens;

    void add_token(const std::shared_ptr<util::CancelToken>& token) {
        std::lock_guard<std::mutex> lock(tokens_mutex);
        std::erase_if(job_tokens, [](const auto& weak) { return weak.expired(); });
        job_tokens.emplace_back(token);
    }

    std::size_t held_tokens() {
        std::lock_guard<std::mutex> lock(tokens_mutex);
        return job_tokens.size();
    }

    void fire_tokens() {
        std::lock_guard<std::mutex> lock(tokens_mutex);
        for (const auto& weak : job_tokens)
            if (const auto token = weak.lock()) token->cancel();
        job_tokens.clear();
    }

    /// Mark the connection dead, wake both threads, drop undeliverable
    /// frames, and cancel the client's jobs. Idempotent.
    void disconnect() {
        bool was_open;
        {
            std::lock_guard<std::mutex> lock(mutex);
            was_open = open;
            open = false;
            if (was_open && fd >= 0) ::shutdown(fd, SHUT_RDWR);
            outbox.clear();
            outbox_cv.notify_all();
        }
        if (was_open) fire_tokens();
    }

    /// Queue one frame for the writer. `full` leaves the frame unqueued so
    /// the caller can disconnect-with-accounting.
    enum class Enqueue { queued, full, closed };
    Enqueue enqueue(std::string payload) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!open) return Enqueue::closed;
        if (outbox.size() >= kMaxOutboxFrames) return Enqueue::full;
        outbox.push_back(std::move(payload));
        outbox_cv.notify_all();
        return Enqueue::queued;
    }

    /// Best-effort wait for the writer to drain the outbox (stop() uses
    /// this so cancelled-on-shutdown responses reach still-live clients).
    void flush(const util::Deadline& deadline) {
        std::unique_lock<std::mutex> lock(mutex);
        while (open && !outbox.empty() && !deadline.expired())
            outbox_cv.wait_for(lock, std::chrono::milliseconds(10));
    }

    bool is_open() {
        std::lock_guard<std::mutex> lock(mutex);
        return open;
    }

    /// Join both threads, then close the fd. Both threads must be on their
    /// way out (the connection closed, or writer_exit set).
    void reap() {
        if (reader.joinable()) reader.join();
        if (writer.joinable()) writer.join();
        std::lock_guard<std::mutex> lock(mutex);
        if (fd >= 0) ::close(fd);
        fd = -1;
        open = false;
    }
};

bool EpocDaemon::ReplayTable::lookup(const std::string& key,
                                     JobResponse& out) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = map_.find(key);
    if (it == map_.end()) return false;
    out = it->second;
    return true;
}

void EpocDaemon::ReplayTable::insert(const std::string& key,
                                     const JobResponse& resp) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, fresh] = map_.try_emplace(key, resp);
    if (!fresh) {
        it->second = resp; // re-submitted and recomputed: keep the latest
        return;
    }
    fifo_.push_back(key);
    while (fifo_.size() > kReplayEntries) {
        map_.erase(fifo_.front());
        fifo_.pop_front();
    }
}

EpocDaemon::EpocDaemon(DaemonOptions opt)
    : opt_(std::move(opt)), admission_(opt_.admission) {
    compiler_ = std::make_unique<core::EpocCompiler>(opt_.compiler);
    opt_.num_executors = std::max(1, opt_.num_executors);
    if (opt_.backends == nullptr)
        opt_.backends = std::make_shared<backend::BackendRegistry>();
}

EpocDaemon::~EpocDaemon() { stop(); }

void EpocDaemon::start() {
    if (running_.exchange(true)) return;
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
        running_.store(false);
        throw std::runtime_error("epocd: socket(): " +
                                 std::string(std::strerror(errno)));
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opt_.socket_path.size() >= sizeof(addr.sun_path)) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        running_.store(false);
        throw std::runtime_error("epocd: socket path too long: " +
                                 opt_.socket_path);
    }
    std::strncpy(addr.sun_path, opt_.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    // A leftover socket file may be a crashed daemon's corpse (safe to
    // unlink) or a *live* daemon's front door (unlinking would silently
    // steal its path: new clients reach us, its clients keep it). Probe by
    // connecting: an answer means live, a refusal means stale.
    if (::access(opt_.socket_path.c_str(), F_OK) == 0) {
        const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
        const bool live =
            probe >= 0 &&
            ::connect(probe, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)) == 0;
        if (probe >= 0) ::close(probe);
        if (live) {
            ::close(listen_fd_);
            listen_fd_ = -1;
            running_.store(false);
            throw std::runtime_error("epocd: a live daemon already serves " +
                                     opt_.socket_path);
        }
        ::unlink(opt_.socket_path.c_str()); // stale: crashed daemon's leftover
    }
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 64) != 0) {
        const std::string err = std::strerror(errno);
        ::close(listen_fd_);
        listen_fd_ = -1;
        running_.store(false);
        throw std::runtime_error("epocd: bind/listen " + opt_.socket_path +
                                 ": " + err);
    }
    {
        std::lock_guard<std::mutex> lock(drain_mutex_);
        live_executors_ = opt_.num_executors;
    }
    for (int i = 0; i < opt_.num_executors; ++i)
        executors_.emplace_back([this] { executor_loop(); });
    accept_thread_ = std::thread([this] { accept_loop(); });
}

void EpocDaemon::wait() {
    std::unique_lock<std::mutex> lock(shutdown_mutex_);
    shutdown_cv_.wait(lock, [&] { return shutdown_requested_; });
}

bool EpocDaemon::wait_for(double ms) {
    std::unique_lock<std::mutex> lock(shutdown_mutex_);
    shutdown_cv_.wait_for(lock, std::chrono::duration<double, std::milli>(ms),
                          [&] { return shutdown_requested_; });
    return shutdown_requested_;
}

void EpocDaemon::request_shutdown() {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    shutdown_requested_ = true;
    shutdown_cv_.notify_all();
}

void EpocDaemon::stop() {
    if (!running_.exchange(false)) return;
    request_shutdown();
    // 1. No new jobs; executors will drain what is queued (answering each —
    //    a fired token makes run_job return `cancelled` without compiling).
    admission_.close();
    // 2. Cancel everything in flight so the drain is fast: compiles wind
    //    down through the degradation ladder at the next poll.
    {
        std::lock_guard<std::mutex> lock(conns_mutex_);
        for (const auto& conn : conns_) conn->fire_tokens();
    }
    // 3. Bounded drain: every queued job must be *answered* (as cancelled)
    //    within the drain budget. Blowing the budget is recorded, not
    //    enforced by abandonment — the joins below still complete because
    //    cancellation is cooperative and polled.
    {
        std::unique_lock<std::mutex> lock(drain_mutex_);
        if (!drain_cv_.wait_for(
                lock, std::chrono::duration<double, std::milli>(opt_.drain_ms),
                [&] { return live_executors_ == 0; }))
            drain_deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    }
    for (std::thread& t : executors_) t.join();
    executors_.clear();
    // 4. Wake and reap the accept thread. The close happens only after the
    //    join: closing while accept() still blocks on the fd would let the
    //    kernel recycle the descriptor under it.
    const int lfd = listen_fd_.exchange(-1);
    if (lfd >= 0) ::shutdown(lfd, SHUT_RDWR);
    if (accept_thread_.joinable()) accept_thread_.join();
    if (lfd >= 0) ::close(lfd);
    // 5. Let writers deliver the cancelled-on-shutdown responses to clients
    //    that are still reading, then wake the readers (EOF) and reap.
    std::vector<std::shared_ptr<Connection>> conns;
    {
        std::lock_guard<std::mutex> lock(conns_mutex_);
        conns.swap(conns_);
    }
    const util::Deadline flush_deadline = util::Deadline::after_ms(1000.0);
    for (const auto& conn : conns) conn->flush(flush_deadline);
    for (const auto& conn : conns) {
        {
            std::lock_guard<std::mutex> lock(conn->mutex);
            conn->writer_exit = true;
            if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
            conn->outbox_cv.notify_all();
        }
        conn->reap();
    }
    ::unlink(opt_.socket_path.c_str());
}

void EpocDaemon::accept_loop() {
    for (;;) {
        const int lfd = listen_fd_.load();
        if (lfd < 0) return; // stop() already took the socket back
        const int fd = ::accept(lfd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR) continue;
            return; // listen socket closed (stop()) or fatal — either way out
        }
        if (!running_.load()) {
            ::close(fd);
            return;
        }
        if (util::fault::maybe_fail("service.accept")) {
            // Accept-time failure (fd exhaustion, handshake reset): the
            // client sees an immediate EOF and redials.
            accept_faults_.fetch_add(1, std::memory_order_relaxed);
            ::close(fd);
            continue;
        }
        connections_accepted_.fetch_add(1, std::memory_order_relaxed);
        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        // Reap the connections whose clients have gone: their threads are
        // exiting, and each holds an fd. They are joined after the lock is
        // released — a reader may be inside status(), which takes it.
        std::vector<std::shared_ptr<Connection>> finished;
        {
            std::lock_guard<std::mutex> lock(conns_mutex_);
            const auto live = std::stable_partition(
                conns_.begin(), conns_.end(), [](const auto& c) { return c->is_open(); });
            finished.assign(std::make_move_iterator(live), std::make_move_iterator(conns_.end()));
            conns_.erase(live, conns_.end());
            conns_.push_back(conn);
        }
        for (const auto& done : finished) done->reap();
        conn->writer = std::thread([this, conn] { writer_loop(conn); });
        conn->reader = std::thread([this, conn] { serve_connection(conn); });
    }
}

void EpocDaemon::writer_loop(std::shared_ptr<Connection> conn) {
    for (;;) {
        std::string frame;
        {
            std::unique_lock<std::mutex> lock(conn->mutex);
            conn->outbox_cv.wait(lock, [&] {
                return !conn->open || conn->writer_exit || !conn->outbox.empty();
            });
            if (!conn->open) return;
            if (conn->outbox.empty()) {
                if (conn->writer_exit) return;
                continue;
            }
            frame = std::move(conn->outbox.front());
            conn->outbox.pop_front();
            if (conn->outbox.empty()) conn->outbox_cv.notify_all(); // flush()
        }
        const IoStatus s = write_frame_deadline(
            conn->fd, frame, util::Deadline::after_ms(kWriteTimeoutMs));
        if (s != IoStatus::ok) {
            // A peer too slow to accept one frame within the write timeout
            // is indistinguishable from a wedged one: disconnect with
            // accounting rather than stall the connection's entire outbox.
            (s == IoStatus::timeout ? write_timeouts_ : send_failures_)
                .fetch_add(1, std::memory_order_relaxed);
            conn->disconnect();
            return;
        }
    }
}

void EpocDaemon::serve_connection(std::shared_ptr<Connection> conn) {
    std::string payload;
    while (read_frame(conn->fd, payload)) {
        const std::optional<MsgType> type = peek_type(payload);
        if (!type) {
            bad_frames_.fetch_add(1, std::memory_order_relaxed);
            break; // framing is lost; drop the connection
        }
        switch (*type) {
        case MsgType::job_request: {
            std::optional<JobRequest> req = decode_job_request(payload);
            if (!req) {
                bad_frames_.fetch_add(1, std::memory_order_relaxed);
                break;
            }
            handle_job_request(conn, std::move(*req));
            break;
        }
        case MsgType::status_request: {
            status_requests_.fetch_add(1, std::memory_order_relaxed);
            if (conn->enqueue(encode_status_response(status())) ==
                Connection::Enqueue::full) {
                slow_client_disconnects_.fetch_add(1, std::memory_order_relaxed);
                conn->disconnect();
            }
            break;
        }
        case MsgType::shutdown_request: {
            conn->enqueue(encode_shutdown_response());
            request_shutdown(); // keep serving; the wait()er drives stop()
            break;
        }
        default:
            // Response types are client-bound; a client sending one is
            // confused but harmless.
            bad_frames_.fetch_add(1, std::memory_order_relaxed);
            break;
        }
    }
    // Disconnect: the client can no longer receive results, so its
    // outstanding jobs only burn shared capacity — cancel them.
    conn->disconnect();
}

void EpocDaemon::send_response(const std::shared_ptr<Connection>& conn,
                               const JobResponse& resp) {
    switch (conn->enqueue(encode_job_response(resp))) {
    case Connection::Enqueue::queued: break;
    case Connection::Enqueue::full:
        // Slow-client protection: a peer that cannot drain its own results
        // loses the connection, never an executor's time.
        slow_client_disconnects_.fetch_add(1, std::memory_order_relaxed);
        conn->disconnect();
        break;
    case Connection::Enqueue::closed:
        send_failures_.fetch_add(1, std::memory_order_relaxed);
        break;
    }
}

void EpocDaemon::handle_job_request(const std::shared_ptr<Connection>& conn,
                                    JobRequest&& req) {
    // Idempotent re-submission: a client that never saw its response (lost
    // to a transport fault) re-sends the same id; answer from the record
    // instead of recompiling. Only completed verdicts are recorded, so a
    // retried job that was cancelled mid-flight genuinely re-runs.
    JobResponse replayed;
    if (replay_.lookup(replay_key(req.tenant, req.id), replayed)) {
        replay_hits_.fetch_add(1, std::memory_order_relaxed);
        admission_.record_replay(req.tenant);
        send_response(conn, replayed);
        return;
    }

    Job job;
    job.request = std::move(req);
    if (!job.request.backend.empty()) {
        // Backend validation at admission: an unknown name is answered
        // invalid_input right here — never dropped, never an executor slot.
        job.backend = opt_.backends->find(job.request.backend);
        if (job.backend == nullptr) {
            invalid_backend_.fetch_add(1, std::memory_order_relaxed);
            admission_.record_invalid(job.request.tenant);
            JobResponse resp;
            resp.id = job.request.id;
            resp.status = JobStatus::invalid_input;
            resp.detail = "unknown backend '" + job.request.backend + "'";
            replay_.insert(replay_key(job.request.tenant, job.request.id), resp);
            send_response(conn, resp);
            return;
        }
    }
    job.cancel = std::make_shared<util::CancelToken>();
    if (job.request.deadline_ms > 0.0)
        job.deadline = util::Deadline::after_ms(job.request.deadline_ms);
    job.deadline.link(job.cancel.get());
    job.enqueued_at = std::chrono::steady_clock::now();
    conn->add_token(job.cancel);
    const std::uint64_t id = job.request.id;
    std::weak_ptr<Connection> weak_conn = conn;
    job.respond = [this, weak_conn](const JobResponse& resp) {
        if (const auto c = weak_conn.lock()) send_response(c, resp);
    };

    const Verdict verdict = admission_.submit(std::move(job));
    if (verdict == Verdict::admitted) return;
    JobResponse resp;
    resp.id = id;
    switch (verdict) {
    case Verdict::shed_deadline:
        resp.status = JobStatus::shed_deadline;
        resp.detail = "deadline infeasible at admission";
        break;
    case Verdict::rejected_overload:
        resp.status = JobStatus::rejected_overload;
        resp.detail = "service at capacity";
        break;
    default:
        resp.status = JobStatus::cancelled;
        resp.detail = "service shutting down";
        break;
    }
    send_response(conn, resp);
}

void EpocDaemon::executor_loop() {
    Job job;
    while (admission_.next(job)) {
        const JobResponse resp = run_job(job);
        // Record completed verdicts for idempotent re-submission before
        // answering: if the response write is the thing that fails, the
        // retried id must already find the record. Only deterministic
        // outcomes are replayable — a degraded ok is a product of runtime
        // circumstance, so a retried id recomputes it instead.
        if ((resp.status == JobStatus::ok && !resp.degraded) ||
            resp.status == JobStatus::invalid_input)
            replay_.insert(replay_key(job.request.tenant, job.request.id), resp);
        // Account before answering: a client that probes the status endpoint
        // right after its response must see its own job in the counters.
        admission_.finish(job, resp);
        // Drop the job, and with it its cancel token, before answering: a
        // client that submits again on reading this response must find the
        // token expired, so its connection prunes the entry.
        const auto respond = std::move(job.respond);
        job = Job{};
        respond(resp);
    }
    std::lock_guard<std::mutex> lock(drain_mutex_);
    --live_executors_;
    drain_cv_.notify_all();
}

JobResponse EpocDaemon::run_job(Job& job) {
    JobResponse resp;
    resp.id = job.request.id;
    try {
        // Late feasibility check: the admission gate passed, but the queue
        // wait may have eaten the budget since.
        if (cannot_run(job)) return dead_job_response(job, "while queued");
        // Slow pre-compile work that honours the job's deadline (and with it
        // the job's token). Test-only by construction.
        if (util::fault::maybe_fail("service.executor_stall"))
            while (!job.deadline.expired())
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
        circuit::Circuit circuit(0);
        try {
            circuit = circuit::parse_qasm(job.request.qasm);
        } catch (const circuit::QasmError& e) {
            resp.status = JobStatus::invalid_input;
            resp.detail = e.what();
            return resp;
        }
        // The budget that survived the queue and the parse goes to the
        // compile (0 = none requested = unlimited). A spent budget would
        // read as unlimited there, so such a job is answered instead.
        const double budget_ms = job.deadline.remaining_ms();
        if (budget_ms < kMinFeasibleMs) return dead_job_response(job, "before compile");
        core::CompileCallOptions call;
        call.cancel = job.cancel.get();
        call.backend = job.backend;
        call.deadline_ms = job.request.deadline_ms > 0.0 ? budget_ms : 0.0;
        // A degraded pulse a single-flight leader hands this healthy job is
        // already recomputed by the caches (get_or_compute_retrying).
        const core::EpocResult r = compiler_->compile(circuit, call);

        resp.degraded = r.degraded;
        resp.deadline_hit = r.deadline_hit;
        resp.plan_hit = r.plan_hit;
        resp.digest = qoc::fnv1a64(core::schedule_to_json(r.schedule));
        resp.latency_ns = r.latency_ns;
        resp.esp = r.esp;
        resp.compile_ms = r.compile_ms;
        resp.num_pulses = r.num_pulses;
        resp.blocks_total = r.block_reports.size();
        resp.blocks_degraded = static_cast<std::uint64_t>(
            std::count_if(r.block_reports.begin(), r.block_reports.end(),
                          [](const core::BlockReport& b) { return !b.status.ok(); }));
        if (!r.status.ok() && !r.degraded) {
            // Boundary validation rejected the circuit outright (the result
            // is empty): that is the client's input, not a degradation.
            resp.status = JobStatus::invalid_input;
            resp.detail = r.status.detail;
        } else if (job.cancel->cancelled()) {
            resp.status = JobStatus::cancelled;
            resp.detail = "cancelled mid-compile";
        } else {
            resp.status = JobStatus::ok;
            if (!r.status.ok()) resp.detail = r.status.detail;
            if (r.degraded && resp.detail.empty()) {
                // Surface the first degraded unit of work: "ok but degraded"
                // with no explanation is undebuggable from the client side.
                for (const auto& b : r.block_reports)
                    if (!b.status.ok()) {
                        resp.detail = b.label + ": " + b.status.to_string();
                        break;
                    }
            }
        }
        return resp;
    } catch (const std::exception& e) {
        // compile() promises not to throw; this is the belt-and-braces rung
        // that keeps the executor alive and the client answered regardless.
        resp.status = JobStatus::error;
        resp.detail = e.what();
        return resp;
    } catch (...) {
        resp.status = JobStatus::error;
        resp.detail = "unknown exception";
        return resp;
    }
}

StatusResponse EpocDaemon::status() const {
    StatusResponse s;
    const AdmissionSnapshot a = admission_.snapshot();
    auto put = [&s](const std::string& key, std::uint64_t v) {
        s.counters.emplace_back(key, v);
    };
    put("service.connections",
        connections_accepted_.load(std::memory_order_relaxed));
    put("service.bad_frames", bad_frames_.load(std::memory_order_relaxed));
    put("service.status_requests",
        status_requests_.load(std::memory_order_relaxed));
    put("service.accept_faults",
        accept_faults_.load(std::memory_order_relaxed));
    put("service.slow_client_disconnects",
        slow_client_disconnects_.load(std::memory_order_relaxed));
    put("service.write_timeouts",
        write_timeouts_.load(std::memory_order_relaxed));
    put("service.send_failures",
        send_failures_.load(std::memory_order_relaxed));
    put("service.replay_hits", replay_hits_.load(std::memory_order_relaxed));
    put("service.invalid_backend",
        invalid_backend_.load(std::memory_order_relaxed));
    put("service.drain_deadline_exceeded",
        drain_deadline_exceeded_.load(std::memory_order_relaxed));
    std::uint64_t job_tokens = 0;
    std::uint64_t connections_open = 0;
    {
        std::lock_guard<std::mutex> lock(conns_mutex_);
        connections_open = conns_.size();
        for (const auto& conn : conns_) job_tokens += conn->held_tokens();
    }
    put("service.connections_open", connections_open);
    put("service.job_tokens", job_tokens);
    put("service.queued", a.queued);
    put("service.in_flight", a.in_flight);
    put("service.peak_pending", a.peak_pending);
    for (const auto& [tenant, tc] : a.tenants) {
        const std::string p = "service.tenant." + tenant + ".";
        put(p + "submitted", tc.submitted);
        put(p + "admitted", tc.admitted);
        put(p + "completed", tc.completed);
        put(p + "degraded", tc.degraded);
        put(p + "shed_deadline", tc.shed_deadline);
        put(p + "rejected_overload", tc.rejected_overload);
        put(p + "cancelled", tc.cancelled);
        put(p + "failed", tc.failed);
        put(p + "replayed", tc.replayed);
    }
    // Shared-compiler counters: these aggregate over ALL tenants (the caches
    // are shared — that sharing is the dedup the service exists for, so
    // per-tenant attribution of a hit would be arbitrary).
    compiler_->library().stats().for_each_counter(put);
    // Shared store tier, pack counters included: the per-daemon view a fleet
    // operator reads to see whether the shipped warm library is being hit.
    if (store::PulseStore* st = compiler_->store()) st->stats().for_each_counter(put);
    return s;
}

} // namespace epoc::service
