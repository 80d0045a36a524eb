// Determinism under parallelism: the parallel pipeline must be a pure
// performance optimization. For every thread count the compiled artifact --
// synthesized circuit, pulse schedule, latency, ESP, and even the pulse
// library's hit/miss totals -- must be identical to the sequential
// (num_threads = 1) run, because per-block outputs merge in block order and
// cache misses are single-flight.
#include "epoc/pipeline.h"

#include "bench_circuits/generators.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

namespace {

using namespace epoc::core;
using epoc::circuit::Circuit;

EpocOptions cheap_options(int num_threads) {
    EpocOptions opt;
    opt.latency.fidelity_threshold = 0.99;
    opt.latency.grape.max_iterations = 120;
    opt.qsearch.threshold = 1e-4;
    opt.qsearch.instantiate.restarts = 2;
    opt.num_threads = num_threads;
    return opt;
}

std::vector<std::pair<std::string, Circuit>> seed_circuits() {
    return {
        {"ghz4", epoc::bench::ghz(4)},
        {"qft3", epoc::bench::qft(3)},
        {"decod24", epoc::bench::decod24()},
        {"bv5", epoc::bench::bv(5)},
        {"wstate", epoc::bench::wstate(4)},
    };
}

/// Everything observable about a compile, flattened for exact comparison.
struct Artifact {
    double latency_ns;
    double esp;
    double esp_decoherent;
    std::size_t num_pulses;
    std::size_t synthesized_gates;
    std::size_t library_hits;
    std::size_t library_misses;
    std::size_t synth_hits;
    std::size_t synth_misses;
    std::vector<std::tuple<std::vector<int>, double, double, double, std::string>> pulses;
};

Artifact artifact_of(const EpocResult& r) {
    Artifact a;
    a.latency_ns = r.latency_ns;
    a.esp = r.esp;
    a.esp_decoherent = r.esp_decoherent;
    a.num_pulses = r.num_pulses;
    a.synthesized_gates = r.synthesized_gates;
    a.library_hits = r.library_stats.hits;
    a.library_misses = r.library_stats.misses;
    a.synth_hits = r.synth_cache_stats.hits;
    a.synth_misses = r.synth_cache_stats.misses;
    for (const ScheduledPulse& p : r.schedule.pulses)
        a.pulses.emplace_back(p.job.qubits, p.start, p.end, p.job.fidelity, p.job.label);
    return a;
}

void expect_identical(const Artifact& seq, const Artifact& par, const std::string& what) {
    // Bit-exact: no tolerance. The parallel path runs the same floating-point
    // operations on the same inputs in the same per-block order.
    EXPECT_EQ(seq.latency_ns, par.latency_ns) << what;
    EXPECT_EQ(seq.esp, par.esp) << what;
    EXPECT_EQ(seq.esp_decoherent, par.esp_decoherent) << what;
    EXPECT_EQ(seq.num_pulses, par.num_pulses) << what;
    EXPECT_EQ(seq.synthesized_gates, par.synthesized_gates) << what;
    EXPECT_EQ(seq.library_hits, par.library_hits) << what;
    EXPECT_EQ(seq.library_misses, par.library_misses) << what;
    EXPECT_EQ(seq.synth_hits, par.synth_hits) << what;
    EXPECT_EQ(seq.synth_misses, par.synth_misses) << what;
    ASSERT_EQ(seq.pulses.size(), par.pulses.size()) << what;
    for (std::size_t i = 0; i < seq.pulses.size(); ++i)
        EXPECT_EQ(seq.pulses[i], par.pulses[i]) << what << " pulse " << i;
}

TEST(ParallelPipeline, BitIdenticalAcrossThreadCounts) {
    for (const auto& [name, circuit] : seed_circuits()) {
        EpocCompiler sequential(cheap_options(1));
        const Artifact seq = artifact_of(sequential.compile(circuit));
        for (const int threads : {2, 8}) {
            EpocCompiler parallel(cheap_options(threads));
            const EpocResult r = parallel.compile(circuit);
            EXPECT_EQ(r.threads_used, threads);
            expect_identical(seq, artifact_of(r),
                             name + " @" + std::to_string(threads) + " threads");
        }
    }
}

TEST(ParallelPipeline, BitIdenticalWithNoRegroup) {
    // Exercise 2-qubit QSearch blocks with regroup disabled under the same
    // determinism contract.
    Circuit c(3);
    c.h(0).cx(0, 1).t(1).cx(1, 2).u3(0.4, -0.2, 0.9, 2).cx(2, 0).sx(1);
    EpocOptions base = cheap_options(1);
    base.regroup_enabled = false;
    base.partition.max_qubits = 2;
    EpocCompiler sequential(base);
    const Artifact seq = artifact_of(sequential.compile(c));
    EpocOptions popt = base;
    popt.num_threads = 8;
    EpocCompiler parallel(popt);
    expect_identical(seq, artifact_of(parallel.compile(c)), "qsearch");
}

TEST(ParallelPipeline, RepeatedCompilesStayDeterministic) {
    // The library persists across compiles; the second compile must be
    // all hits for every thread count, with identical cumulative stats.
    const Circuit c = epoc::bench::ghz(4);
    std::vector<Artifact> seconds;
    for (const int threads : {1, 2, 8}) {
        EpocCompiler compiler(cheap_options(threads));
        compiler.compile(c);
        seconds.push_back(artifact_of(compiler.compile(c)));
        EXPECT_EQ(seconds.back().library_misses, seconds.front().library_misses);
    }
    expect_identical(seconds[0], seconds[1], "2 threads, second compile");
    expect_identical(seconds[0], seconds[2], "8 threads, second compile");
}

TEST(ParallelPipeline, ZeroMeansHardwareConcurrency) {
    EpocOptions opt = cheap_options(0);
    EpocCompiler compiler(opt);
    const EpocResult r = compiler.compile(epoc::bench::ghz(3));
    EXPECT_EQ(r.threads_used, epoc::util::default_thread_count());
    EXPECT_GT(r.latency_ns, 0.0);
}

TEST(ParallelPipeline, SingleFlightWaitsOnlyUnderContention) {
    // Sequential runs can never block on another thread's generation.
    EpocCompiler compiler(cheap_options(1));
    compiler.compile(epoc::bench::qft(3));
    EXPECT_EQ(compiler.library().stats().single_flight_waits, 0u);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
    epoc::util::ThreadPool pool(4);
    std::vector<std::atomic<int>> counts(1000);
    pool.parallel_for(counts.size(),
                      [&](std::size_t i) { counts[i].fetch_add(1); });
    for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, SurvivesBackToBackBatches) {
    // Regression guard for batch-identity confusion: stack-allocated batches
    // reuse addresses, so the pool must distinguish batches by generation.
    epoc::util::ThreadPool pool(3);
    std::atomic<int> total{0};
    for (int round = 0; round < 50; ++round)
        pool.parallel_for(20, [&](std::size_t) { total.fetch_add(1); });
    EXPECT_EQ(total.load(), 50 * 20);
}

TEST(ThreadPool, ConcurrentCallersEachRunEveryIndexOnce) {
    // Regression for the shared-batch race: parallel_for used to publish its
    // batch through single shared members (batch_/generation_/workers_done_),
    // so two concurrent callers overwrote each other's state — lost indices,
    // double-run indices, or a caller returning before its own batch drained.
    // The pool now queues per-call batch records, so any number of threads may
    // call parallel_for on one pool simultaneously.
    epoc::util::ThreadPool pool(4);
    constexpr int kCallers = 8;
    constexpr int kRounds = 25;
    constexpr std::size_t kIndices = 200;
    std::vector<std::thread> callers;
    std::atomic<int> failures{0};
    for (int t = 0; t < kCallers; ++t) {
        callers.emplace_back([&] {
            for (int round = 0; round < kRounds; ++round) {
                std::vector<std::atomic<int>> counts(kIndices);
                pool.parallel_for(kIndices,
                                  [&](std::size_t i) { counts[i].fetch_add(1); });
                for (const auto& c : counts)
                    if (c.load() != 1) failures.fetch_add(1);
            }
        });
    }
    for (std::thread& th : callers) th.join();
    EXPECT_EQ(failures.load(), 0);
}

TEST(ThreadPool, NestedParallelForCompletes) {
    // A task that itself calls parallel_for on the same pool must not
    // deadlock (the nested caller drains its own batch inline) and must still
    // run every inner index exactly once.
    epoc::util::ThreadPool pool(3);
    constexpr std::size_t kOuter = 6;
    constexpr std::size_t kInner = 40;
    std::vector<std::atomic<int>> counts(kOuter * kInner);
    pool.parallel_for(kOuter, [&](std::size_t o) {
        pool.parallel_for(
            kInner, [&](std::size_t i) { counts[o * kInner + i].fetch_add(1); });
    });
    for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, ConcurrentCallerExceptionsStayWithTheirBatch) {
    // One caller's thrown task must surface on that caller and leave the
    // other caller's concurrently running batch untouched.
    epoc::util::ThreadPool pool(4);
    std::atomic<int> clean_ran{0};
    std::thread thrower([&] {
        for (int round = 0; round < 20; ++round) {
            EXPECT_THROW(pool.parallel_for(50,
                                           [](std::size_t i) {
                                               if (i == 13)
                                                   throw std::runtime_error("boom");
                                           }),
                         std::runtime_error);
        }
    });
    for (int round = 0; round < 20; ++round)
        pool.parallel_for(50, [&](std::size_t) { clean_ran.fetch_add(1); });
    thrower.join();
    EXPECT_EQ(clean_ran.load(), 20 * 50);
}

TEST(ThreadPool, PropagatesTaskExceptions) {
    epoc::util::ThreadPool pool(4);
    EXPECT_THROW(pool.parallel_for(100,
                                   [](std::size_t i) {
                                       if (i == 37) throw std::runtime_error("boom");
                                   }),
                 std::runtime_error);
    // The pool must still be usable afterwards.
    std::atomic<int> n{0};
    pool.parallel_for(10, [&](std::size_t) { n.fetch_add(1); });
    EXPECT_EQ(n.load(), 10);
}

} // namespace
