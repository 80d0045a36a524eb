#include "service/admission.h"

#include <algorithm>

namespace epoc::service {

namespace {

void count_outcome(TenantCounters& tc, const JobResponse& resp) {
    switch (resp.status) {
    case JobStatus::ok:
        ++tc.completed;
        if (resp.degraded) ++tc.degraded;
        break;
    case JobStatus::cancelled: ++tc.cancelled; break;
    case JobStatus::shed_deadline: ++tc.shed_deadline; break;
    default: ++tc.failed; break;
    }
}

} // namespace

JobResponse dead_job_response(const Job& job, const std::string& when) {
    JobResponse resp;
    resp.id = job.request.id;
    if (job.cancel->cancelled()) {
        resp.status = JobStatus::cancelled;
        resp.detail = "cancelled " + when;
    } else {
        resp.status = JobStatus::shed_deadline;
        resp.detail = "budget exhausted " + when;
    }
    return resp;
}

AdmissionController::AdmissionController(AdmissionOptions opt) : opt_(opt) {}

Verdict AdmissionController::submit(Job&& job) {
    std::unique_lock<std::mutex> lock(mutex_);
    TenantCounters& tc = tenants_[job.request.tenant];
    ++tc.submitted;
    if (closed_) {
        // The daemon answers this submission `cancelled`; count it here so
        // terminal counters always sum to `submitted`, even for jobs racing
        // the shutdown drain.
        ++tc.cancelled;
        return Verdict::closed;
    }
    std::vector<Answer> dropped;
    if (queued_ + in_flight_ >= opt_.max_pending) dropped = drop_dead_locked();
    Verdict verdict = Verdict::admitted;
    if (queued_ + in_flight_ >= opt_.max_pending) {
        ++tc.rejected_overload;
        verdict = Verdict::rejected_overload;
    } else if (cannot_run(job)) {
        // Feasibility gate: an armed deadline with (almost) nothing left, or
        // a fired token, cannot produce anything but a placeholder artifact.
        ++tc.shed_deadline;
        verdict = Verdict::shed_deadline;
    } else {
        ++tc.admitted;
        Level& level = levels_[job.request.priority];
        std::deque<Job>& q = level.by_tenant[job.request.tenant];
        if (q.empty()) level.order.push_back(job.request.tenant);
        q.push_back(std::move(job));
        ++level.jobs;
        ++queued_;
        peak_pending_ = std::max<std::uint64_t>(peak_pending_, queued_ + in_flight_);
        ready_.notify_one();
    }
    lock.unlock(); // respond() enqueues on a connection and may disconnect it
    for (const auto& [respond, resp] : dropped) respond(resp);
    return verdict;
}

std::vector<AdmissionController::Answer> AdmissionController::drop_dead_locked() {
    std::vector<Answer> dropped;
    for (auto& [priority, level] : levels_) {
        for (auto& [tenant, q] : level.by_tenant)
            for (auto it = q.begin(); it != q.end();) {
                if (!cannot_run(*it)) {
                    ++it;
                    continue;
                }
                JobResponse resp = dead_job_response(*it, "while queued");
                count_outcome(tenants_[tenant], resp);
                dropped.emplace_back(std::move(it->respond), std::move(resp));
                it = q.erase(it);
                --level.jobs;
                --queued_;
            }
        std::erase_if(level.order,
                      [&](const std::string& t) { return level.by_tenant.at(t).empty(); });
        std::erase_if(level.by_tenant, [](const auto& kv) { return kv.second.empty(); });
    }
    std::erase_if(levels_, [](const auto& kv) { return kv.second.jobs == 0; });
    return dropped;
}

bool AdmissionController::next(Job& out) {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [&] { return closed_ || queued_ > 0; });
    if (queued_ == 0) return false; // closed and drained

    // Highest non-empty priority level, then the level's tenant rotation.
    auto lit = levels_.begin();
    while (lit->second.jobs == 0) ++lit; // queued_ > 0 guarantees one exists
    Level& level = lit->second;
    if (level.next >= level.order.size()) level.next = 0;
    const std::string tenant = level.order[level.next];
    std::deque<Job>& q = level.by_tenant[tenant];
    out = std::move(q.front());
    q.pop_front();
    --level.jobs;
    --queued_;
    ++in_flight_;
    if (q.empty()) {
        // Tenant exhausted at this level: drop it from the rotation without
        // advancing past whoever slid into its slot.
        level.by_tenant.erase(tenant);
        level.order.erase(level.order.begin() +
                          static_cast<std::ptrdiff_t>(level.next));
    } else {
        ++level.next; // served this tenant; the next one gets the next turn
    }
    if (level.jobs == 0) levels_.erase(lit);
    return true;
}

void AdmissionController::finish(const Job& job, const JobResponse& resp) {
    std::lock_guard<std::mutex> lock(mutex_);
    --in_flight_;
    count_outcome(tenants_[job.request.tenant], resp);
}

void AdmissionController::record_replay(const std::string& tenant) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++tenants_[tenant].replayed;
}

void AdmissionController::record_invalid(const std::string& tenant) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++tenants_[tenant].submitted;
    ++tenants_[tenant].failed;
}

void AdmissionController::close() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    ready_.notify_all();
}

AdmissionSnapshot AdmissionController::snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    AdmissionSnapshot s;
    s.queued = queued_;
    s.in_flight = in_flight_;
    s.peak_pending = peak_pending_;
    s.tenants = tenants_;
    return s;
}

} // namespace epoc::service
