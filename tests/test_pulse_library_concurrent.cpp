// Concurrency contract of qoc::PulseLibrary:
//
//   * single-flight: N threads missing on the same phase-equivalence class
//     run exactly one GRAPE latency search (misses == #classes, always);
//   * consistent stats: every lookup is counted exactly once, as hit or miss;
//   * no lost entries: every class ends up in the table exactly once;
//   * reference stability: a result handed out before the table grows past
//     its load factor (rehash!) must stay valid and unchanged -- the
//     historical API returned a reference into the unordered_map, which a
//     concurrent rehash could dangle;
//   * waiter retry (util::ShardedFlightCache::get_or_compute_retrying, the
//     rule under both the pulse library and the synthesis cache): a waiter
//     never ships a degraded value it only inherited while its own budget
//     is intact.
#include "qoc/pulse_library.h"

#include "circuit/gate.h"
#include "util/deadline.h"
#include "util/sharded_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <complex>
#include <thread>
#include <vector>

namespace {

using namespace epoc::qoc;
using epoc::linalg::Matrix;

/// Cheap search settings: one GRAPE attempt usually clears the bar, so the
/// hammer spends its time in the cache, not in the optimizer.
LatencySearchOptions cheap_search() {
    LatencySearchOptions opt;
    opt.fidelity_threshold = 0.5;
    opt.max_slots = 8;
    opt.grape.max_iterations = 25;
    return opt;
}

/// Member k of phase-equivalence class `cls`: RZ(0.1 + 0.37*cls) times a
/// global phase that varies with k. Phase-aware lookup must collapse all k
/// onto one entry.
Matrix class_member(int cls, int k) {
    Matrix u = epoc::circuit::kind_matrix(epoc::circuit::GateKind::RZ,
                                          {0.1 + 0.37 * cls});
    u *= std::polar(1.0, 0.211 * k);
    return u;
}

TEST(PulseLibraryConcurrent, SingleFlightPerEquivalenceClass) {
    const int kClasses = 6;
    const int kThreads = 8;
    const int kLookupsPerThread = 3 * kClasses;

    const auto h = make_block_hamiltonian(1);
    const LatencySearchOptions opt = cheap_search();
    PulseLibrary lib(true);

    std::atomic<int> start_gate{kThreads};
    std::atomic<std::size_t> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            // Rendezvous so all threads hit the cold cache together -- the
            // worst case for single-flight.
            start_gate.fetch_sub(1);
            while (start_gate.load() > 0) std::this_thread::yield();
            for (int i = 0; i < kLookupsPerThread; ++i) {
                const int cls = (i + t) % kClasses; // staggered overlap
                const auto r = lib.get_or_generate(h, class_member(cls, t), opt);
                if (r == nullptr || r->pulse.num_slots() <= 0)
                    failures.fetch_add(1);
            }
        });
    }
    for (std::thread& th : threads) th.join();

    EXPECT_EQ(failures.load(), 0u);
    // Exactly one generation per class, no matter how the threads raced.
    EXPECT_EQ(lib.stats().misses, static_cast<std::size_t>(kClasses));
    EXPECT_EQ(lib.size(), static_cast<std::size_t>(kClasses));
    // Every lookup is counted exactly once.
    EXPECT_EQ(lib.stats().hits + lib.stats().misses,
              static_cast<std::size_t>(kThreads * kLookupsPerThread));
    // Waiters are a subset of hits.
    EXPECT_LE(lib.stats().single_flight_waits, lib.stats().hits);
}

TEST(PulseLibraryConcurrent, AllThreadsSeeTheSamePulse) {
    const auto h = make_block_hamiltonian(1);
    const LatencySearchOptions opt = cheap_search();
    PulseLibrary lib(true);

    const int kThreads = 8;
    std::vector<std::shared_ptr<const LatencyResult>> results(kThreads);
    std::atomic<int> start_gate{kThreads};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start_gate.fetch_sub(1);
            while (start_gate.load() > 0) std::this_thread::yield();
            results[t] = lib.get_or_generate(h, class_member(0, t), opt);
        });
    }
    for (std::thread& th : threads) th.join();

    // Single-flight means one shared immutable entry: all pointers identical.
    for (int t = 1; t < kThreads; ++t) EXPECT_EQ(results[t], results[0]);
    EXPECT_EQ(lib.stats().misses, 1u);
}

TEST(PulseLibraryConcurrent, ResultsSurviveRehash) {
    // Regression: hold the first result, then insert far past any load
    // factor. With the old reference-into-unordered_map API the rehash could
    // move the buckets out from under the caller; the shared_ptr API pins
    // the entry regardless of table growth.
    const auto h = make_block_hamiltonian(1);
    const LatencySearchOptions opt = cheap_search();
    PulseLibrary lib(true);

    const auto held = lib.get_or_generate(h, class_member(0, 0), opt);
    const double held_duration = held->pulse.duration();
    const double held_fidelity = held->pulse.fidelity;

    const int kInsertions = 200; // >> 16 shards * default bucket counts
    for (int cls = 1; cls <= kInsertions; ++cls)
        lib.get_or_generate(h, class_member(cls, 0), opt);
    ASSERT_EQ(lib.size(), static_cast<std::size_t>(kInsertions) + 1);

    // The held entry is bit-identical and still the canonical one.
    EXPECT_EQ(held->pulse.duration(), held_duration);
    EXPECT_EQ(held->pulse.fidelity, held_fidelity);
    const auto again = lib.get_or_generate(h, class_member(0, 1), opt);
    EXPECT_EQ(again, held); // same shared entry, not a regenerated copy
}

TEST(PulseLibraryConcurrent, ConcurrentInsertsLoseNothing) {
    // Distinct keys from every thread: all must land, none overwritten.
    const auto h = make_block_hamiltonian(1);
    const LatencySearchOptions opt = cheap_search();
    PulseLibrary lib(true);

    const int kThreads = 6;
    const int kPerThread = 20;
    std::atomic<int> start_gate{kThreads};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start_gate.fetch_sub(1);
            while (start_gate.load() > 0) std::this_thread::yield();
            for (int i = 0; i < kPerThread; ++i)
                lib.get_or_generate(h, class_member(t * kPerThread + i, 0), opt);
        });
    }
    for (std::thread& th : threads) th.join();

    EXPECT_EQ(lib.size(), static_cast<std::size_t>(kThreads * kPerThread));
    EXPECT_EQ(lib.stats().misses, static_cast<std::size_t>(kThreads * kPerThread));
    // Each thread's lookups were all distinct keys it inserted itself, so
    // hits can only come from cross-thread overlap -- there is none here.
    EXPECT_EQ(lib.stats().hits, 0u);
}

TEST(PulseLibraryConcurrent, PeekNeverBlocksOrGenerates) {
    PulseLibrary lib(true);
    const auto h = make_block_hamiltonian(1);
    const LatencySearchOptions opt = cheap_search();
    EXPECT_EQ(lib.peek(h, epoc::circuit::hadamard(), opt), nullptr);
    lib.get_or_generate(h, epoc::circuit::hadamard(), opt);
    const auto p = lib.peek(h, epoc::circuit::hadamard(), opt);
    ASSERT_NE(p, nullptr);
    EXPECT_GT(p->pulse.num_slots(), 0);
    EXPECT_EQ(lib.stats().hits, 0u); // peek leaves the stats alone
}

/// Parks one waiter on a leader's slot, then lets the leader publish a value
/// `cacheable` rejects (-1: the degraded result of the leader's own budget).
/// Returns what the waiter's get_or_compute_retrying() shipped, how often
/// the waiter computed, and how often it re-entered the cache.
struct WaiterOutcome {
    int value = 0;
    int computed = 0;
    int retries = 0;
};

WaiterOutcome inherit_degraded_value(const epoc::util::Deadline& waiter_deadline) {
    epoc::util::ShardedFlightCache<int> cache;
    const auto cacheable = [](const int& v) { return v >= 0; };
    std::atomic<bool> leading{false};
    std::thread leader([&] {
        (void)cache.get_or_compute(
            "k",
            [&] {
                leading = true;
                // Publish only once the waiter is blocked on this slot.
                while (cache.stats().waits == 0) std::this_thread::yield();
                return -1;
            },
            cacheable);
    });
    while (!leading) std::this_thread::yield();
    WaiterOutcome out;
    out.value = *cache.get_or_compute_retrying(
        "k",
        [&] {
            ++out.computed;
            return 7;
        },
        cacheable, &waiter_deadline, [&] { ++out.retries; });
    leader.join();
    return out;
}

TEST(FlightCacheWaiterRetry, WaiterWithBudgetLeftRecomputes) {
    const epoc::util::Deadline alive = epoc::util::Deadline::after_ms(600000.0);
    const WaiterOutcome out = inherit_degraded_value(alive);
    EXPECT_EQ(out.value, 7);
    EXPECT_EQ(out.computed, 1);
    EXPECT_EQ(out.retries, 1);
}

TEST(FlightCacheWaiterRetry, WaiterPastItsDeadlineShipsTheInheritedValue) {
    const epoc::util::Deadline expired = epoc::util::Deadline::after_ms(0.0);
    const WaiterOutcome out = inherit_degraded_value(expired);
    EXPECT_EQ(out.value, -1);
    EXPECT_EQ(out.computed, 0);
    EXPECT_EQ(out.retries, 0);
}

} // namespace
