// Compile deadlines and cooperative cancellation.
//
// A compile gets one Deadline (CompileCallOptions::deadline_ms), and every
// long-running loop in the pipeline — QSearch's A* expansion, GRAPE's
// gradient iterations, the latency search's probes — polls it at its
// natural iteration granularity. On expiry a loop does NOT throw: it returns
// its best-so-far result with converged/feasible/timed_out flags set, and the
// pipeline's degradation ladder substitutes a fallback. That keeps a deadline
// a *quality* knob (you get the best compile the budget allows) rather than a
// failure mode.
//
// Polling cost: an unarmed Deadline (no budget, no token) is two branches on
// already-loaded members. A linked CancelToken is one relaxed atomic load.
// The armed clock check is a steady_clock read, but only until expiry is
// first observed — after that a relaxed atomic short-circuits every later
// poll (the loops that poll do matrix exponentials per iteration, so even
// the clock read is noise).
#pragma once

#include <atomic>
#include <chrono>

namespace epoc::util {

/// A relaxed-atomic cancellation flag shared between a controller thread and
/// the workers polling it. Fire-once semantics per compile (reset() exists
/// for reuse across compiles, not mid-flight).
class CancelToken {
public:
    void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }
    bool cancelled() const noexcept { return cancelled_.load(std::memory_order_relaxed); }
    void reset() noexcept { cancelled_.store(false, std::memory_order_relaxed); }

private:
    std::atomic<bool> cancelled_{false};
};

/// A wall-clock budget (steady_clock based) optionally linked to a
/// CancelToken: expired() is true once the budget elapses *or* the token
/// fires. Default-constructed deadlines never expire, so call sites can poll
/// unconditionally.
class Deadline {
public:
    Deadline() = default;

    /// A deadline `ms` milliseconds from now. `ms <= 0` arms an
    /// already-expired deadline (useful for "best effort, zero budget").
    static Deadline after_ms(double ms) {
        Deadline d;
        d.armed_ = true;
        d.at_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double, std::milli>(ms));
        return d;
    }

    /// Also expire when `token` fires. nullptr detaches. The token must
    /// outlive every expired() call.
    void link(const CancelToken* token) noexcept { token_ = token; }

    /// The linked cancellation token, nullptr when none. Call sites that
    /// forward cancellation (e.g. ThreadPool::parallel_for) take it from the
    /// deadline so one link() call covers both expiry and claim-stopping.
    const CancelToken* token() const noexcept { return token_; }

    bool armed() const noexcept { return armed_ || token_ != nullptr; }

    bool expired() const noexcept {
        if (expired_cached_.load(std::memory_order_relaxed)) return true;
        const bool hit = (token_ != nullptr && token_->cancelled()) ||
                         (armed_ && std::chrono::steady_clock::now() >= at_);
        if (hit) expired_cached_.store(true, std::memory_order_relaxed);
        return hit;
    }

    /// Milliseconds left in the budget; a large positive number when unarmed,
    /// clamped at 0 once expired. A fired CancelToken zeroes the budget even
    /// when no clock deadline is armed: a cancelled job has no budget left,
    /// and an admission controller keying on remaining_ms() must see dead
    /// requests as infeasible, not as infinitely patient. (The historical
    /// version ignored the token and kept reporting the full clock budget.)
    double remaining_ms() const noexcept {
        if (expired()) return 0.0;
        if (!armed_) return 1e300;
        const auto left = at_ - std::chrono::steady_clock::now();
        const double ms = std::chrono::duration<double, std::milli>(left).count();
        return ms > 0.0 ? ms : 0.0;
    }

    // Copyable so option structs can carry one by value; the cached-expiry
    // flag is per-copy (worst case a copy re-reads the clock once).
    Deadline(const Deadline& other) noexcept { *this = other; }
    Deadline& operator=(const Deadline& other) noexcept {
        armed_ = other.armed_;
        at_ = other.at_;
        token_ = other.token_;
        expired_cached_.store(other.expired_cached_.load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
        return *this;
    }

private:
    bool armed_ = false;
    std::chrono::steady_clock::time_point at_{};
    const CancelToken* token_ = nullptr;
    mutable std::atomic<bool> expired_cached_{false};
};

/// True when `d` is non-null and expired — the polling idiom for option
/// structs that carry an optional `const Deadline*`.
inline bool deadline_expired(const Deadline* d) noexcept {
    return d != nullptr && d->expired();
}

/// Milliseconds elapsed on the steady clock since `t0`.
inline double ms_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace epoc::util
