// Concurrent compile() safety: one EpocCompiler, shared by N caller threads,
// must produce bit-identical schedules to a sequential run of the same
// circuits. This is the contract the epocd daemon is built on — all jobs
// share one compiler (one pulse library, one synthesis cache, one plan
// cache), so identical blocks from different clients dedupe through the
// single-flight path, and nothing a concurrent caller does may perturb
// another caller's artifact.
//
// Per-call state — the verify tally and the trace — must be per call too:
// two concurrent compiles never see each other's counts or spans.
//
// Runs under TSan in CI (the tsan-concurrency job): the assertions here catch
// value races, the sanitizer catches ordering races the values happen to
// survive.
#include "epoc/pipeline.h"

#include "bench_circuits/generators.h"
#include "epoc/export.h"
#include "qoc/pulse_io.h"
#include "util/deadline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
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
        {"bv5", epoc::bench::bv(5)},
        {"wstate", epoc::bench::wstate(4)},
    };
}

std::uint64_t digest(const EpocResult& r) {
    return epoc::qoc::fnv1a64(schedule_to_json(r.schedule));
}

TEST(ConcurrentCompile, NCallersBitIdenticalToSequential) {
    const auto circuits = seed_circuits();

    // Sequential baseline: a private single-threaded compiler per the
    // existing determinism tests' ground truth.
    std::map<std::string, std::uint64_t> baseline;
    {
        EpocCompiler seq(cheap_options(1));
        for (const auto& [name, c] : circuits) baseline[name] = digest(seq.compile(c));
    }

    // One shared compiler, hammered from every caller thread. Each caller
    // walks the circuit list from a different offset so lookups interleave:
    // some callers take the single-flight miss, others wait on it or hit.
    EpocCompiler shared(cheap_options(4));
    constexpr int kCallers = 6;
    constexpr int kRounds = 3;
    std::atomic<int> mismatches{0};
    std::atomic<int> exceptions{0};
    std::vector<std::thread> callers;
    for (int t = 0; t < kCallers; ++t) {
        callers.emplace_back([&, t] {
            for (int round = 0; round < kRounds; ++round) {
                for (std::size_t i = 0; i < circuits.size(); ++i) {
                    const auto& [name, c] =
                        circuits[(i + static_cast<std::size_t>(t)) % circuits.size()];
                    try {
                        const EpocResult r = shared.compile(c);
                        if (digest(r) != baseline[name]) mismatches.fetch_add(1);
                        if (r.degraded) mismatches.fetch_add(1);
                    } catch (...) {
                        exceptions.fetch_add(1);
                    }
                }
            }
        });
    }
    for (std::thread& th : callers) th.join();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(exceptions.load(), 0);

    // Single-flight makes the shared library's miss count deterministic:
    // one miss per unique (unitary, hamiltonian, options) key, however many
    // callers raced on it. A sequential run of the same circuit set must see
    // the exact same number.
    EpocCompiler seq2(cheap_options(1));
    for (const auto& [name, c] : circuits) seq2.compile(c);
    EXPECT_EQ(shared.library().stats().misses, seq2.library().stats().misses);
}

TEST(ConcurrentCompile, PerCallCancelOnlyAffectsItsOwnJob) {
    // Two callers on one compiler: one with a pre-fired per-call token, one
    // without. The cancelled caller gets a degraded-but-exception-free
    // result; the clean caller's artifact is untouched.
    const Circuit c = epoc::bench::qft(3);
    std::uint64_t clean_digest = 0;
    {
        EpocCompiler seq(cheap_options(1));
        clean_digest = digest(seq.compile(c));
    }

    EpocCompiler shared(cheap_options(2));
    epoc::util::CancelToken token;
    token.cancel();

    std::atomic<int> failures{0};
    std::thread cancelled([&] {
        CompileCallOptions call;
        call.cancel = &token;
        const EpocResult r = shared.compile(c, call);
        if (!r.degraded) failures.fetch_add(1);
        if (r.status.ok()) failures.fetch_add(1);
    });
    std::thread clean([&] {
        const EpocResult r = shared.compile(c);
        if (digest(r) != clean_digest) failures.fetch_add(1);
        if (r.degraded) failures.fetch_add(1);
    });
    cancelled.join();
    clean.join();
    EXPECT_EQ(failures.load(), 0);

    // The cancelled compile must not have poisoned any cache: a fresh
    // uncancelled compile on the same shared compiler is clean.
    const EpocResult again = shared.compile(c);
    EXPECT_FALSE(again.degraded);
    EXPECT_EQ(digest(again), clean_digest);
}

TEST(ConcurrentCompile, PerCallDeadlineBindsOnlyItsCall) {
    // A call with a zero budget degrades (deadline_hit) instead of running to
    // completion — and a later call without one runs unlimited again.
    EpocCompiler compiler(cheap_options(1));

    CompileCallOptions starved;
    starved.deadline_ms = 0.001; // effectively pre-expired
    const EpocResult r = compiler.compile(epoc::bench::qft(3), starved);
    EXPECT_TRUE(r.deadline_hit);
    EXPECT_TRUE(r.degraded);

    const EpocResult full = compiler.compile(epoc::bench::qft(3));
    EXPECT_FALSE(full.deadline_hit);
    EXPECT_FALSE(full.degraded);
}

TEST(ConcurrentCompile, VerifyTallyIsPerCall) {
    // Two verifying compiles racing on one warmed compiler: each result's
    // tally must equal the one its circuit gets compiled alone, neither wiped
    // nor inflated by the other call's checks.
    EpocOptions opt = cheap_options(2);
    opt.verify_level = epoc::verify::VerifyLevel::full;
    EpocCompiler shared(opt);
    const Circuit a = epoc::bench::qft(3);
    const Circuit b = epoc::bench::ghz(4);
    shared.compile(a);
    shared.compile(b);
    const epoc::verify::VerifySummary alone_a = shared.compile(a).verify;
    const epoc::verify::VerifySummary alone_b = shared.compile(b).verify;
    ASSERT_GT(alone_a.checks, 0u);
    ASSERT_GT(alone_b.checks, 0u);

    const auto expect_same = [](const epoc::verify::VerifySummary& got,
                                const epoc::verify::VerifySummary& want,
                                const std::string& what) {
        EXPECT_EQ(got.checks, want.checks) << what;
        EXPECT_EQ(got.passed, want.passed) << what;
        EXPECT_EQ(got.failed, want.failed) << what;
        EXPECT_EQ(got.skipped, want.skipped) << what;
        EXPECT_EQ(got.unverified, want.unverified) << what;
        EXPECT_EQ(got.error_budget, want.error_budget) << what;
    };
    for (int round = 0; round < 20; ++round) {
        EpocResult ra, rb;
        std::thread ta([&] { ra = shared.compile(a); });
        std::thread tb([&] { rb = shared.compile(b); });
        ta.join();
        tb.join();
        expect_same(ra.verify, alone_a, "qft3 round " + std::to_string(round));
        expect_same(rb.verify, alone_b, "ghz4 round " + std::to_string(round));
    }
}

TEST(ConcurrentCompile, TraceIsPerCall) {
    // Repeated traced compiles of one circuit on a warmed compiler: each
    // result holds its own call's spans and counters, not a running history.
    EpocOptions opt = cheap_options(1);
    opt.trace_enabled = true;
    EpocCompiler compiler(opt);
    const Circuit c = epoc::bench::qft(3);
    compiler.compile(c); // the cold compile: GRAPE and QSearch spans
    std::vector<std::size_t> spans;
    for (int i = 0; i < 5; ++i) {
        const EpocResult r = compiler.compile(c);
        ASSERT_TRUE(r.trace.enabled);
        spans.push_back(r.trace.spans.size());
        EXPECT_EQ(r.trace.counter("pipeline.blocks"), r.num_blocks) << "compile " << i;
    }
    for (const std::size_t n : spans) EXPECT_EQ(n, spans.front());

    // Two traced calls at once: each trace holds exactly its own compile.
    EpocResult r1, r2;
    std::thread t1([&] { r1 = compiler.compile(c); });
    std::thread t2([&] { r2 = compiler.compile(epoc::bench::ghz(4)); });
    t1.join();
    t2.join();
    for (const EpocResult* r : {&r1, &r2})
        EXPECT_EQ(std::count_if(r->trace.spans.begin(), r->trace.spans.end(),
                                [](const epoc::util::TraceEvent& ev) {
                                    return ev.name == "compile";
                                }),
                  1);
}

} // namespace
