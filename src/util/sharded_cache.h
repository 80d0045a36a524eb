// Sharded, single-flight, string-keyed cache.
//
// This is the concurrency substrate under qoc::PulseLibrary and the
// pipeline's synthesis cache. Two properties matter for the compiler:
//
//   * Single-flight misses. A pulse-library miss costs a full GRAPE latency
//     search (seconds); a synthesis miss costs a QSearch A* run. When several
//     threads miss on the same key simultaneously, exactly one runs the
//     compute function and the rest block until the value lands. This keeps
//     hit/miss totals — and the amount of numerical work — bit-identical to
//     the sequential schedule, which the determinism tests rely on.
//
//   * Reference stability. Values are handed out as shared_ptr<const V>, so
//     a rehash of the underlying hash map under concurrent insertion can
//     never dangle a result a caller is still holding (the historical
//     PulseLibrary returned references into its unordered_map; see
//     tests/test_pulse_library_concurrent.cpp for the regression).
//
// Sharding (key-hash -> one of N independently locked maps) keeps lock
// contention bounded: threads working on distinct keys almost never touch
// the same mutex.
#pragma once

#include "util/deadline.h"

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace epoc::util {

/// Snapshot of cache activity. `waits` counts lookups that found another
/// thread already generating their key and blocked for the result — the
/// cache-contention number the benchmarks report. Every lookup is either a
/// hit or a miss; waits are a subset of hits.
struct CacheStats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t waits = 0;
    /// Computed values the `cacheable` verdict rejected: returned to their
    /// callers but evicted immediately, so a later lookup recomputes. This is
    /// how degraded (timed-out / fault-injected) pulses and syntheses are
    /// kept out of the authoritative caches.
    std::size_t uncacheable = 0;
    double hit_rate() const {
        const std::size_t total = hits + misses;
        return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }

    /// Calls `f(name, value)` for every counter above, named `prefix` plus
    /// its exported suffix (e.g. "synth_cache." + "hits").
    template <typename F>
    void for_each_counter(const std::string& prefix, F&& f) const {
        f(prefix + "hits", hits);
        f(prefix + "misses", misses);
        f(prefix + "single_flight_waits", waits);
        f(prefix + "uncached_degraded", uncacheable);
    }
};

template <typename V>
class ShardedFlightCache {
public:
    explicit ShardedFlightCache(std::size_t num_shards = 16)
        : shards_(num_shards == 0 ? 1 : num_shards) {}

    ShardedFlightCache(const ShardedFlightCache&) = delete;
    ShardedFlightCache& operator=(const ShardedFlightCache&) = delete;

    /// Return the cached value for `key`, computing it with `make` on a miss.
    /// Concurrent callers with the same key: one computes, the others wait.
    /// If the leader's `make` throws, the slot is erased (so a later call
    /// retries) and the exception propagates to the leader *and* to every
    /// waiter.
    ///
    /// `cacheable` (optional) vets the computed value: when it returns false
    /// the value is still handed to the leader and to every waiter already
    /// blocked on the slot — they asked under the same conditions that
    /// degraded it — but the entry is evicted immediately, so no *later*
    /// lookup is served the degraded value as an authoritative hit; it
    /// recomputes instead (e.g. a compile with a fresh deadline re-attempting
    /// a timed-out pulse).
    std::shared_ptr<const V> get_or_compute(
        const std::string& key, const std::function<V()>& make,
        const std::function<bool(const V&)>& cacheable = {}) {
        Shard& shard = shard_of(key);
        std::shared_ptr<Slot> slot;
        bool leader = false;
        {
            std::lock_guard<std::mutex> lock(shard.mutex);
            auto it = shard.table.find(key);
            if (it == shard.table.end()) {
                slot = std::make_shared<Slot>();
                shard.table.emplace(key, slot);
                leader = true;
            } else {
                slot = it->second;
            }
        }

        if (leader) {
            misses_.fetch_add(1, std::memory_order_relaxed);
            try {
                auto value = std::make_shared<const V>(make());
                const bool keep = !cacheable || cacheable(*value);
                if (!keep) {
                    // Evict BEFORE publishing: once ready is set, a waking
                    // waiter can loop back around and look the key up again
                    // ahead of this thread being rescheduled — publishing
                    // first opens a window where the degraded value is served
                    // as an ordinary hit (observed on a 1-core host: a
                    // waiter's bounded retry loop burned every attempt on
                    // that window). Evicting first means any lookup after
                    // publication recomputes; only callers already blocked on
                    // the slot receive the degraded value.
                    uncacheable_.fetch_add(1, std::memory_order_relaxed);
                    std::lock_guard<std::mutex> lock(shard.mutex);
                    // Evict only our own slot: a concurrent eviction+reinsert
                    // cycle may have put a fresh slot under this key.
                    const auto it = shard.table.find(key);
                    if (it != shard.table.end() && it->second == slot)
                        shard.table.erase(it);
                }
                {
                    std::lock_guard<std::mutex> lock(slot->mutex);
                    slot->value = std::move(value);
                    slot->ready = true;
                }
                slot->cv.notify_all();
            } catch (...) {
                {
                    std::lock_guard<std::mutex> lock(slot->mutex);
                    slot->error = std::current_exception();
                    slot->ready = true;
                }
                slot->cv.notify_all();
                std::lock_guard<std::mutex> lock(shard.mutex);
                const auto it = shard.table.find(key);
                if (it != shard.table.end() && it->second == slot)
                    shard.table.erase(it);
                throw;
            }
            return slot->value;
        }

        hits_.fetch_add(1, std::memory_order_relaxed);
        std::unique_lock<std::mutex> lock(slot->mutex);
        if (!slot->ready) {
            waits_.fetch_add(1, std::memory_order_relaxed);
            slot->cv.wait(lock, [&] { return slot->ready; });
        }
        if (slot->error) std::rethrow_exception(slot->error);
        return slot->value;
    }

    /// Re-entries get_or_compute_retrying() allows a blocked waiter.
    static constexpr int kWaiterRetries = 3;

    /// get_or_compute() for a caller that must not ship another caller's
    /// degradation. Single-flight hands a value `cacheable` rejects to every
    /// waiter blocked on the slot, then evicts it. A waiter whose own
    /// `deadline` (nullptr: none) has not expired re-enters the cache
    /// instead, recomputing or joining a live leader, at most kWaiterRetries
    /// times, calling `on_retry` before each re-entry. The leader, a waiter
    /// whose deadline has expired (re-attempting could only burn what little
    /// remains) and a waiter out of retries return what they got.
    std::shared_ptr<const V> get_or_compute_retrying(
        const std::string& key, const std::function<V()>& make,
        const std::function<bool(const V&)>& cacheable, const Deadline* deadline,
        const std::function<void()>& on_retry) {
        for (int attempt = 0;; ++attempt) {
            bool led = false;
            std::shared_ptr<const V> out = get_or_compute(
                key,
                [&] {
                    led = true;
                    return make();
                },
                cacheable);
            if (led || cacheable(*out)) return out;
            if ((deadline != nullptr && deadline->expired()) || attempt >= kWaiterRetries)
                return out;
            // The leader evicts its own degraded value; compare-and-evict
            // makes the retry self-sufficient and is a no-op otherwise.
            erase_if(key, out);
            on_retry();
        }
    }

    /// Compare-and-evict: drop the entry only if it currently holds exactly
    /// `expected` (a completed value). Returns true when the erase happened.
    /// Of N threads that observed one bad value, exactly one wins the erase —
    /// and with it the right to invalidate downstream tiers — while the rest
    /// fall through to a normal lookup that waits on or hits the winner's
    /// replacement. This keeps verify-triggered recomputes single-flight.
    bool erase_if(const std::string& key, const std::shared_ptr<const V>& expected) {
        Shard& shard = shard_of(key);
        std::lock_guard<std::mutex> lock(shard.mutex);
        const auto it = shard.table.find(key);
        if (it == shard.table.end()) return false;
        {
            std::lock_guard<std::mutex> slot_lock(it->second->mutex);
            if (!it->second->ready || it->second->value != expected) return false;
        }
        shard.table.erase(it);
        return true;
    }

    /// Lookup only; nullptr on miss or while the value is still being
    /// generated. Does not touch the statistics.
    std::shared_ptr<const V> peek(const std::string& key) const {
        const Shard& shard = shard_of(key);
        std::shared_ptr<Slot> slot;
        {
            std::lock_guard<std::mutex> lock(shard.mutex);
            const auto it = shard.table.find(key);
            if (it == shard.table.end()) return nullptr;
            slot = it->second;
        }
        std::lock_guard<std::mutex> lock(slot->mutex);
        return slot->ready && !slot->error ? slot->value : nullptr;
    }

    /// Number of completed entries (in-flight generations are not counted).
    std::size_t size() const {
        std::size_t n = 0;
        for (const Shard& shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mutex);
            for (const auto& [k, slot] : shard.table) {
                std::lock_guard<std::mutex> slot_lock(slot->mutex);
                if (slot->ready && !slot->error) ++n;
            }
        }
        return n;
    }

    CacheStats stats() const {
        CacheStats s;
        s.hits = hits_.load(std::memory_order_relaxed);
        s.misses = misses_.load(std::memory_order_relaxed);
        s.waits = waits_.load(std::memory_order_relaxed);
        s.uncacheable = uncacheable_.load(std::memory_order_relaxed);
        return s;
    }

private:
    struct Slot {
        mutable std::mutex mutex;
        std::condition_variable cv;
        bool ready = false;
        std::exception_ptr error;
        std::shared_ptr<const V> value;
    };

    struct Shard {
        mutable std::mutex mutex;
        std::unordered_map<std::string, std::shared_ptr<Slot>> table;
    };

    Shard& shard_of(const std::string& key) {
        return shards_[std::hash<std::string>{}(key) % shards_.size()];
    }
    const Shard& shard_of(const std::string& key) const {
        return shards_[std::hash<std::string>{}(key) % shards_.size()];
    }

    std::vector<Shard> shards_;
    std::atomic<std::size_t> hits_{0};
    std::atomic<std::size_t> misses_{0};
    std::atomic<std::size_t> waits_{0};
    std::atomic<std::size_t> uncacheable_{0};
};

} // namespace epoc::util
