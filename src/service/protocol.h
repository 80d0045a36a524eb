// Wire protocol for the epocd compile service.
//
// Transport: a local AF_UNIX stream socket carrying length-prefixed binary
// frames — u32 little-endian payload length, then the payload. The payload's
// first byte is the message type; the rest is the message body encoded with
// the same little-endian primitives as the pulse store codec (qoc/pulse_io.h),
// so doubles cross the wire bit-exact and the decode side is bounds-checked
// byte by byte. Decoding is defensive throughout: a malformed frame yields
// false / nullopt, never UB, an exception, or an allocation bomb (payload
// lengths are capped before any buffer is sized).
//
// The protocol is deliberately minimal — four request/response pairs:
//
//   job_request      -> job_response       compile one QASM circuit
//   status_request   -> status_response    flat key/value counter snapshot
//   shutdown_request -> shutdown_response  ack, then the daemon drains + exits
//
// Responses carry the request's id and may arrive out of submission order
// (the daemon interleaves jobs by priority and tenant); clients correlate by
// id. No new dependencies: framing is plain read/write on the socket fd.
//
// Fault-injection sites (util/fault_injection.h), so daemon chaos is as
// reproducible as compile chaos:
//
//   service.read    an incoming frame dies mid-read (connection reset)
//   service.frame   a frame arrives with its type byte rotted — the decoder
//                   must reject it and the server must drop the connection
//   service.write   an outgoing frame is torn: a short prefix reaches the
//                   peer, then the connection is reported dead
//
// (The fourth transport site, service.accept, lives in daemon.cpp where the
// accept loop runs.) Every site degrades to "connection lost", which the
// retrying client recovers from by reconnect + idempotent re-submission.
#pragma once

#include "util/deadline.h"

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace epoc::service {

/// Payload bytes are capped here on both encode and decode: a corrupt or
/// hostile length prefix must not size a buffer. Generous for QASM text
/// (the biggest payload in practice).
inline constexpr std::uint32_t kMaxFrameBytes = 16u * 1024u * 1024u;

enum class MsgType : std::uint8_t {
    job_request = 1,
    job_response = 2,
    status_request = 3,
    status_response = 4,
    shutdown_request = 5,
    shutdown_response = 6,
};

/// Terminal status of one job, from the client's point of view. Every
/// submitted job receives exactly one response with one of these — the
/// daemon's "no request ever sees an exception" contract.
enum class JobStatus : std::uint8_t {
    ok = 0,                ///< compiled (possibly degraded — see the flag)
    shed_deadline = 1,     ///< admission shed it: budget infeasible/expired
    rejected_overload = 2, ///< admission shed it: queue at capacity
    invalid_input = 3,     ///< QASM parse or boundary validation rejected it
    cancelled = 4,         ///< its cancel token fired (disconnect, shutdown)
    error = 5,             ///< unexpected failure; detail says what
};

const char* job_status_name(JobStatus s);

struct JobRequest {
    std::uint64_t id = 0;      ///< client-chosen correlation id
    std::string tenant;        ///< accounting + fairness bucket
    std::int32_t priority = 0; ///< larger = more urgent (strict levels)
    double deadline_ms = 0.0;  ///< wall-clock budget incl. queueing; 0 = none
    std::string qasm;          ///< OpenQASM 2 circuit text
    /// Hardware backend name, resolved against the daemon's registry at
    /// admission; empty = the daemon's default device (the implicit
    /// all-to-all one unless configured). An unknown name is answered
    /// invalid_input, not dropped.
    std::string backend;
};

struct JobResponse {
    std::uint64_t id = 0;
    JobStatus status = JobStatus::error;
    bool degraded = false;
    bool deadline_hit = false;
    bool plan_hit = false;
    /// fnv1a64 of the schedule's JSON export — the cross-process identity
    /// check (equal digests == bit-identical schedules).
    std::uint64_t digest = 0;
    double latency_ns = 0.0;
    double esp = 0.0;
    double compile_ms = 0.0;
    std::uint64_t num_pulses = 0;
    std::uint64_t blocks_total = 0;
    std::uint64_t blocks_degraded = 0;
    std::string detail; ///< empty on clean ok; human-readable otherwise
};

/// Flat counter snapshot: dotted keys ("service.jobs_completed",
/// "service.tenant.alice.admitted", "qoc.library_misses", ...). A vector of
/// pairs rather than a map so the daemon controls ordering for display.
struct StatusResponse {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
};

// --- message codec (payload only, excluding the length prefix) ---

std::string encode_job_request(const JobRequest& req);
std::string encode_job_response(const JobResponse& resp);
std::string encode_status_request();
std::string encode_status_response(const StatusResponse& s);
std::string encode_shutdown_request();
std::string encode_shutdown_response();

/// First byte of a payload, or nullopt when empty/unknown.
std::optional<MsgType> peek_type(const std::string& payload);

/// Decoders return nullopt on any structural problem (wrong type byte,
/// truncation, oversized string field, trailing garbage).
std::optional<JobRequest> decode_job_request(const std::string& payload);
std::optional<JobResponse> decode_job_response(const std::string& payload);
std::optional<StatusResponse> decode_status_response(const std::string& payload);

// --- framing over a socket fd ---

/// Outcome of one framed I/O operation. `timeout` is only possible when the
/// caller armed a deadline; after a mid-frame timeout the stream is
/// desynchronized, so callers must treat the connection as lost either way —
/// the distinction exists for accounting (a slow peer is not a dead peer).
enum class IoStatus : std::uint8_t { ok = 0, closed = 1, timeout = 2 };

/// Write one length-prefixed frame; loops over partial writes and EINTR,
/// bounded by `deadline` (an unarmed deadline blocks indefinitely, the
/// historical behavior). `closed` on any write failure or a payload
/// exceeding kMaxFrameBytes.
IoStatus write_frame_deadline(int fd, const std::string& payload,
                              const util::Deadline& deadline);

/// Read one length-prefixed frame into `payload`, bounded by `deadline`.
/// `closed` on EOF, any read failure, or a lying length prefix.
IoStatus read_frame_deadline(int fd, std::string& payload,
                             const util::Deadline& deadline);

/// Unbounded conveniences (the pre-deadline API); true iff IoStatus::ok.
bool write_frame(int fd, const std::string& payload);
bool read_frame(int fd, std::string& payload);

} // namespace epoc::service
