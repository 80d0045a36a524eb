// Admission control and fair scheduling for the epocd compile service.
//
// Every incoming job passes through one AdmissionController, which decides at
// the door — before any compile work — whether the job may enter:
//
//   * capacity: queued + in-flight jobs are bounded (max_pending); beyond
//     the bound the job is rejected_overload immediately rather than queued
//     into a latency death spiral;
//   * deadline feasibility: a job whose budget is already spent (or below
//     kMinFeasibleMs) is shed_deadline at the door — running it could only
//     produce a maximally-degraded artifact after burning an executor slot
//     somebody with budget left was waiting for. This reuses util::Deadline:
//     the job's deadline is armed at submission, so queueing time counts
//     against the budget, and the executor re-checks remaining_ms() at
//     dispatch (a job admitted feasible can die waiting in the queue).
//     A full queue first drops the queued jobs that died waiting, so a
//     client that reconnects and re-submits does not find its own cancelled
//     copies holding the capacity.
//
// Admitted jobs wait in a two-level fair queue: strict priority levels
// (larger = more urgent), round-robin across tenants within a level. A tenant
// that dumps a thousand jobs cannot starve another tenant's single job at the
// same priority — the burst tenant and the singleton tenant alternate. (The
// complementary intra-job fairness — one 30-qubit job not starving many
// 4-qubit jobs — lives in util::ThreadPool, whose workers round-robin across
// live batches one block at a time.)
//
// Per-tenant counters accumulate here and feed the daemon's status endpoint.
#pragma once

#include "backend/backend.h"
#include "service/protocol.h"
#include "util/deadline.h"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace epoc::service {

struct AdmissionOptions {
    /// Ceiling on queued + in-flight jobs; submissions beyond it are
    /// rejected_overload.
    std::size_t max_pending = 256;
};

/// Jobs whose remaining budget is below this are shed as infeasible. A fired
/// cancel token zeroes the budget, so cancelled jobs fall below it too;
/// a deadline-free job with a live token never does.
inline constexpr double kMinFeasibleMs = 1.0;

/// One unit of work flowing through the service: the wire request plus the
/// runtime state the daemon attaches (armed deadline, cancel token, and the
/// callback that delivers the response to the right connection).
struct Job {
    JobRequest request;
    /// Hardware backend resolved from request.backend at admission (nullptr
    /// for the default device model); the executor passes it to compile().
    /// Resolution happens *before* the queue so an unknown name is answered
    /// invalid_input immediately instead of burning an executor slot.
    std::shared_ptr<const backend::Backend> backend;
    /// Armed from request.deadline_ms at submission (unarmed when 0), linked
    /// to `cancel` — so remaining_ms() collapses to 0 the moment the client
    /// vanishes or the daemon shuts down.
    util::Deadline deadline;
    /// Fired on client disconnect and daemon shutdown. shared_ptr because
    /// the connection (which fires it) and the executor (which polls it)
    /// outlive each other in either order.
    std::shared_ptr<util::CancelToken> cancel;
    /// Delivers the response frame; must tolerate a dead connection (no-op).
    std::function<void(const JobResponse&)> respond;
    std::chrono::steady_clock::time_point enqueued_at{};
};

/// True once a job can no longer run: its remaining budget is below
/// kMinFeasibleMs.
inline bool cannot_run(const Job& job) {
    return job.deadline.remaining_ms() < kMinFeasibleMs;
}

/// The answer to a job that cannot run: `cancelled` once its token fired,
/// else `shed_deadline`. `when` ("while queued", "before compile") ends the
/// detail.
JobResponse dead_job_response(const Job& job, const std::string& when);

enum class Verdict : std::uint8_t {
    admitted = 0,
    shed_deadline = 1,
    rejected_overload = 2,
    closed = 3, ///< controller shut down; daemon answers cancelled
};

struct TenantCounters {
    std::uint64_t submitted = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shed_deadline = 0;
    std::uint64_t rejected_overload = 0;
    std::uint64_t completed = 0; ///< responded ok (possibly degraded)
    std::uint64_t degraded = 0;  ///< subset of completed
    std::uint64_t cancelled = 0;
    std::uint64_t failed = 0;   ///< invalid_input / error / late shed
    std::uint64_t replayed = 0; ///< re-submitted ids answered from the replay table
};

struct AdmissionSnapshot {
    std::size_t queued = 0;
    std::size_t in_flight = 0;
    std::uint64_t peak_pending = 0;
    std::map<std::string, TenantCounters> tenants;
};

class AdmissionController {
public:
    explicit AdmissionController(AdmissionOptions opt = {});

    /// Gate + enqueue. On `admitted` the job is owned by the queue until an
    /// executor takes it; any other verdict leaves `job` untouched for the
    /// caller to answer. At capacity, queued jobs that cannot run are first
    /// dropped, counted and answered (outside the lock) as dispatch would
    /// answer them. Thread-safe; never blocks on capacity.
    Verdict submit(Job&& job);

    /// Dequeue the next job by (priority desc, tenant round-robin), blocking
    /// while the queue is empty. False once the controller is closed AND the
    /// queue is drained — the executor loop's termination condition. The
    /// taken job counts as in-flight until finish() is called for it.
    bool next(Job& out);

    /// Account the outcome of a job taken via next() and release its
    /// in-flight slot.
    void finish(const Job& job, const JobResponse& resp);

    /// Account a replayed response (a re-submitted id answered from the
    /// daemon's replay table — the job never re-entered the queue).
    void record_replay(const std::string& tenant);

    /// Account a job answered invalid_input at the door (e.g. an unknown
    /// backend name rejected at admission — the job never entered the queue).
    void record_invalid(const std::string& tenant);

    /// Stop admitting (submit returns closed) and wake next() waiters.
    /// Queued jobs remain takeable so a draining shutdown can answer them.
    void close();

    AdmissionSnapshot snapshot() const;

private:
    struct Level {
        /// FIFO per tenant; `order` rotates so tenants alternate.
        std::map<std::string, std::deque<Job>> by_tenant;
        std::vector<std::string> order;
        std::size_t next = 0;
        std::size_t jobs = 0;
    };
    using Answer = std::pair<std::function<void(const JobResponse&)>, JobResponse>;

    /// Remove the queued jobs that cannot run, count each, and return their
    /// answers. Caller holds mutex_.
    std::vector<Answer> drop_dead_locked();

    AdmissionOptions opt_;
    mutable std::mutex mutex_;
    std::condition_variable ready_;
    /// Strict priority: highest level first.
    std::map<std::int32_t, Level, std::greater<std::int32_t>> levels_;
    std::size_t queued_ = 0;
    std::size_t in_flight_ = 0;
    std::uint64_t peak_pending_ = 0;
    bool closed_ = false;
    std::map<std::string, TenantCounters> tenants_;
};

} // namespace epoc::service
