#include "service/client.h"

#include "util/fault_injection.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace epoc::service {

namespace {

/// Ids must stay unique across every client a tenant ever runs: the daemon's
/// replay table is keyed by (tenant, id), so a collision would hand one
/// client another client's recorded response. pid + a process-wide serial
/// keeps the id space disjoint per client without any wire-format change.
std::uint64_t first_id() {
    static std::atomic<std::uint64_t> serial{0};
    const std::uint64_t pid = static_cast<std::uint64_t>(::getpid());
    return ((pid & 0xffffULL) << 48) |
           ((serial.fetch_add(1) & 0xffffULL) << 32) | 1;
}

int dial_unix(const std::string& socket_path) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error("epocd client: socket(): " +
                                 std::string(std::strerror(errno)));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path)) {
        ::close(fd);
        throw std::runtime_error("epocd client: socket path too long: " +
                                 socket_path);
    }
    std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
        0) {
        const std::string err = std::strerror(errno);
        ::close(fd);
        throw std::runtime_error("epocd client: connect " + socket_path + ": " +
                                 err);
    }
    return fd;
}

} // namespace

EpocClient::EpocClient(const std::string& socket_path, ClientOptions opt)
    : socket_path_(socket_path), opt_(opt), next_id_(first_id()),
      jitter_state_(opt.backoff_seed) {
    fd_ = dial_unix(socket_path_);
    connects_ = 1;
}

EpocClient::~EpocClient() {
    if (fd_ >= 0) ::close(fd_);
}

void EpocClient::dial() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    fd_ = dial_unix(socket_path_);
    ++connects_;
}

/// The retry layer's single recovery point: reconnect with capped
/// exponential backoff + deterministic jitter, then re-submit every
/// outstanding job verbatim (same id — the daemon's replay table makes the
/// re-submission idempotent). Throws when retry is off or exhausted.
void EpocClient::handle_connection_loss(const char* context) {
    if (!opt_.retry)
        throw std::runtime_error(std::string("epocd client: connection lost ") +
                                 context);
    double backoff = opt_.backoff_initial_ms;
    for (int attempt = 0; attempt < std::max(1, opt_.max_reconnects); ++attempt) {
        if (attempt > 0) {
            const double jitter = static_cast<double>(
                util::splitmix64(++jitter_state_) % 1024) / 1024.0;
            const double sleep_ms = backoff * (1.0 + 0.5 * jitter);
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(sleep_ms));
            backoff = std::min(backoff * 2.0, opt_.backoff_max_ms);
        }
        try {
            dial();
        } catch (const std::exception&) {
            continue; // daemon may still be restarting/recovering
        }
        bool resubmitted = true;
        for (const auto& [id, req] : outstanding_) {
            if (!write_frame(fd_, encode_job_request(req))) {
                resubmitted = false;
                break;
            }
        }
        if (resubmitted) return;
    }
    throw std::runtime_error(std::string("epocd client: connection lost ") +
                             context + " (reconnects exhausted)");
}

std::uint64_t EpocClient::submit(const std::string& qasm,
                                 const std::string& tenant,
                                 std::int32_t priority, double deadline_ms,
                                 const std::string& backend) {
    JobRequest req;
    req.id = next_id_++;
    req.tenant = tenant;
    req.priority = priority;
    req.deadline_ms = deadline_ms;
    req.qasm = qasm;
    req.backend = backend;
    const std::uint64_t id = req.id;
    // Track before sending: if the write tears the connection, the reconnect
    // path re-submits this job along with the rest (so no second write here —
    // that would duplicate the submission).
    outstanding_.emplace(id, std::move(req));
    if (!write_frame(fd_, encode_job_request(outstanding_.at(id))))
        handle_connection_loss("on submit");
    return id;
}

JobResponse EpocClient::wait_for(std::uint64_t id) {
    // Bound the wait: the per-call timeout, plus — for jobs that carried a
    // deadline — the job's own budget times a grace factor. A job the
    // server *should* answer within D ms must not park the client forever.
    double bound_ms = 0.0;
    if (opt_.call_timeout_ms > 0.0) bound_ms = opt_.call_timeout_ms;
    const auto oit = outstanding_.find(id);
    if (oit != outstanding_.end() && oit->second.deadline_ms > 0.0) {
        const double job_bound = oit->second.deadline_ms * opt_.deadline_grace +
                                 opt_.deadline_slack_ms;
        bound_ms = bound_ms > 0.0 ? std::min(bound_ms, job_bound) : job_bound;
    }
    util::Deadline bound;
    if (bound_ms > 0.0) bound = util::Deadline::after_ms(bound_ms);

    // The bound applies per connection epoch: a reconnect re-submits the job,
    // so the server earns a fresh window to answer it — backoff sleeps and
    // recompute time must not eat a budget meant for the response wait. A
    // flapping server cannot extend the wait forever: after max_reconnects
    // re-arms the bound sticks and the next expiry throws.
    int rearms_left = std::max(1, opt_.max_reconnects);
    auto reconnect = [&](const char* context) {
        handle_connection_loss(context);
        if (bound_ms > 0.0 && rearms_left > 0) {
            --rearms_left;
            bound = util::Deadline::after_ms(bound_ms);
        }
    };

    for (;;) {
        const auto it = pending_.find(id);
        if (it != pending_.end()) {
            JobResponse resp = std::move(it->second);
            pending_.erase(it);
            outstanding_.erase(id);
            return resp;
        }
        std::string payload;
        const IoStatus s = read_frame_deadline(fd_, payload, bound);
        if (s == IoStatus::timeout)
            throw ClientTimeout("epocd client: timed out awaiting response for id " +
                                std::to_string(id));
        if (s == IoStatus::closed) {
            reconnect("awaiting response");
            continue;
        }
        std::optional<JobResponse> resp = decode_job_response(payload);
        if (!resp) {
            // Framing is corrupt; the stream cannot be trusted past this
            // point. With retry enabled a fresh connection recovers.
            if (!opt_.retry)
                throw std::runtime_error("epocd client: malformed response frame");
            reconnect("on malformed frame");
            continue;
        }
        // Only buffer responses we are still waiting for: a replayed or
        // doubly-computed job can answer an id twice, and the second copy
        // must not leak into the buffer forever.
        if (outstanding_.count(resp->id) != 0)
            pending_[resp->id] = std::move(*resp);
    }
}

JobResponse EpocClient::compile(const std::string& qasm,
                                const std::string& tenant,
                                std::int32_t priority, double deadline_ms,
                                const std::string& backend) {
    return wait_for(submit(qasm, tenant, priority, deadline_ms, backend));
}

/// Send `request`, then read frames until one of type `expect` arrives.
/// Job responses arriving in between are buffered for wait_for(). The
/// request must be idempotent — the retry layer re-sends it whole.
std::string EpocClient::transact(MsgType expect, const std::string& request) {
    util::Deadline bound;
    if (opt_.call_timeout_ms > 0.0)
        bound = util::Deadline::after_ms(opt_.call_timeout_ms);
    // Per-connection-epoch bound, as in wait_for: reconnects re-arm it a
    // bounded number of times.
    int rearms_left = std::max(1, opt_.max_reconnects);
    auto rearm = [&] {
        if (opt_.call_timeout_ms > 0.0 && rearms_left > 0) {
            --rearms_left;
            bound = util::Deadline::after_ms(opt_.call_timeout_ms);
        }
    };
    while (!write_frame(fd_, request)) handle_connection_loss("on request");
    for (;;) {
        std::string payload;
        const IoStatus s = read_frame_deadline(fd_, payload, bound);
        if (s == IoStatus::timeout)
            throw ClientTimeout("epocd client: timed out awaiting reply");
        if (s == IoStatus::closed) {
            handle_connection_loss("awaiting reply");
            while (!write_frame(fd_, request)) handle_connection_loss("on request");
            rearm();
            continue;
        }
        const std::optional<MsgType> type = peek_type(payload);
        if (type == expect) return payload;
        if (type == MsgType::job_response) {
            std::optional<JobResponse> resp = decode_job_response(payload);
            if (resp && outstanding_.count(resp->id) != 0)
                pending_[resp->id] = std::move(*resp);
            continue;
        }
        if (!opt_.retry)
            throw std::runtime_error("epocd client: unexpected response type");
        handle_connection_loss("on unexpected frame");
        while (!write_frame(fd_, request)) handle_connection_loss("on request");
        rearm();
    }
}

StatusResponse EpocClient::status() {
    const std::string payload =
        transact(MsgType::status_response, encode_status_request());
    std::optional<StatusResponse> s = decode_status_response(payload);
    if (!s) throw std::runtime_error("epocd client: malformed status frame");
    return *s;
}

void EpocClient::shutdown_server() {
    transact(MsgType::shutdown_response, encode_shutdown_request());
}

} // namespace epoc::service
