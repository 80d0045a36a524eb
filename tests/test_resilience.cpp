// Resilient compilation: every rung of the degradation ladder, exercised
// deterministically through the fault-injection harness (util/fault_injection.h),
// plus the compile-deadline / cancel-token machinery and the boundary
// validation of compile(). The overarching contract under test: compile()
// never throws for per-block failures, always returns a structurally valid
// schedule, accounts for every block in EpocResult::block_reports, and — with
// zero faults and no deadline — stays bit-identical across thread counts.
#include "epoc/pipeline.h"

#include "bench_circuits/generators.h"
#include "qoc/grape.h"
#include "qoc/latency_search.h"
#include "util/deadline.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

namespace {

using namespace epoc::core;
using epoc::circuit::Circuit;
namespace fault = epoc::util::fault;

/// Scoped arming: tests must never leak a fault config into each other.
struct FaultGuard {
    explicit FaultGuard(const std::string& spec) { fault::configure(spec); }
    ~FaultGuard() { fault::clear(); }
};

EpocOptions cheap_options(int num_threads = 1) {
    EpocOptions opt;
    opt.latency.fidelity_threshold = 0.99;
    opt.latency.grape.max_iterations = 120;
    opt.qsearch.threshold = 1e-4;
    opt.qsearch.instantiate.restarts = 2;
    opt.num_threads = num_threads;
    return opt;
}

/// A degraded compile is still a usable artifact: complete schedule, sane
/// timings, in-range qubits, and an account of what went wrong.
void expect_valid_degraded(const EpocResult& r, const Circuit& c,
                           const std::string& what) {
    EXPECT_TRUE(r.degraded) << what;
    EXPECT_FALSE(r.status.ok()) << what;
    EXPECT_FALSE(r.block_reports.empty()) << what;
    EXPECT_GT(r.num_pulses, 0u) << what;
    EXPECT_GT(r.latency_ns, 0.0) << what;
    EXPECT_EQ(r.schedule.num_qubits, c.num_qubits()) << what;
    for (const ScheduledPulse& p : r.schedule.pulses) {
        EXPECT_GE(p.start, 0.0) << what;
        EXPECT_GE(p.end, p.start) << what;
        for (const int q : p.job.qubits) {
            EXPECT_GE(q, 0) << what;
            EXPECT_LT(q, c.num_qubits()) << what;
        }
    }
    bool any_fallback = false;
    for (const BlockReport& br : r.block_reports)
        any_fallback = any_fallback || !br.status.ok();
    EXPECT_TRUE(any_fallback) << what;
}

// ---------------------------------------------------------------------------
// Fault-injection harness unit tests.

TEST(FaultInjection, DisabledByDefaultAndAfterClear) {
    fault::clear();
    EXPECT_FALSE(fault::enabled());
    EXPECT_FALSE(fault::maybe_fail("anything"));
    EXPECT_NO_THROW(fault::maybe_throw("anything"));
}

TEST(FaultInjection, AlwaysTriggerFiresEveryArrival) {
    const FaultGuard g("site.a=*");
    EXPECT_TRUE(fault::enabled());
    for (int i = 0; i < 5; ++i) EXPECT_TRUE(fault::maybe_fail("site.a"));
    EXPECT_EQ(fault::arrivals("site.a"), 5u);
    EXPECT_EQ(fault::fired("site.a"), 5u);
}

TEST(FaultInjection, UnarmedSitesCountArrivalsButNeverFire) {
    const FaultGuard g("site.a=*");
    for (int i = 0; i < 3; ++i) EXPECT_FALSE(fault::maybe_fail("site.b"));
    EXPECT_EQ(fault::arrivals("site.b"), 3u);
    EXPECT_EQ(fault::fired("site.b"), 0u);
}

TEST(FaultInjection, NthArrivalTrigger) {
    const FaultGuard g("s=3");
    std::vector<bool> fired;
    for (int i = 0; i < 6; ++i) fired.push_back(fault::maybe_fail("s"));
    EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false, false}));
}

TEST(FaultInjection, FromNthArrivalTrigger) {
    const FaultGuard g("s=3+");
    std::vector<bool> fired;
    for (int i = 0; i < 5; ++i) fired.push_back(fault::maybe_fail("s"));
    EXPECT_EQ(fired, (std::vector<bool>{false, false, true, true, true}));
}

TEST(FaultInjection, SeededRateIsDeterministic) {
    std::vector<bool> first;
    {
        const FaultGuard g("s=%3@42");
        for (int i = 0; i < 64; ++i) first.push_back(fault::maybe_fail("s"));
    }
    std::vector<bool> second;
    {
        const FaultGuard g("s=%3@42");
        for (int i = 0; i < 64; ++i) second.push_back(fault::maybe_fail("s"));
    }
    EXPECT_EQ(first, second);
    // ~1/3 rate: not all-false, not all-true.
    EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
    EXPECT_NE(std::count(first.begin(), first.end(), true), 64);
}

TEST(FaultInjection, MultipleSitesInOneSpec) {
    const FaultGuard g("a=*;b=2");
    EXPECT_TRUE(fault::maybe_fail("a"));
    EXPECT_FALSE(fault::maybe_fail("b"));
    EXPECT_TRUE(fault::maybe_fail("b"));
}

TEST(FaultInjection, MalformedSpecThrows) {
    fault::clear();
    EXPECT_THROW(fault::configure("oops"), std::invalid_argument);
    EXPECT_THROW(fault::configure("s=zzz"), std::invalid_argument);
    EXPECT_THROW(fault::configure("s=%0@1"), std::invalid_argument);
    EXPECT_FALSE(fault::enabled()); // a failed configure never half-arms
}

TEST(FaultInjection, MaybeThrowCarriesTheSiteName) {
    const FaultGuard g("boom.site=*");
    try {
        fault::maybe_throw("boom.site");
        FAIL() << "expected InjectedFault";
    } catch (const fault::InjectedFault& e) {
        EXPECT_EQ(e.site_name, "boom.site");
    }
}

TEST(FaultInjection, ConfigureFromEnv) {
    ::setenv("EPOC_FAULT_INJECT", "env.site=*", 1);
    fault::configure_from_env();
    EXPECT_TRUE(fault::maybe_fail("env.site"));
    fault::clear();
    ::unsetenv("EPOC_FAULT_INJECT");
}

// ---------------------------------------------------------------------------
// Deadline / cancel-token unit tests.

TEST(Deadline, UnarmedNeverExpires) {
    const epoc::util::Deadline d;
    EXPECT_FALSE(d.armed());
    EXPECT_FALSE(d.expired());
    EXPECT_FALSE(epoc::util::deadline_expired(nullptr));
    EXPECT_FALSE(epoc::util::deadline_expired(&d));
}

TEST(Deadline, ExpiresAfterItsBudget) {
    const epoc::util::Deadline d = epoc::util::Deadline::after_ms(1.0);
    EXPECT_TRUE(d.armed());
    while (!d.expired()) {
    } // a 1 ms spin; expired() must eventually flip and then stick
    EXPECT_TRUE(d.expired());
    EXPECT_EQ(d.remaining_ms(), 0.0);
}

TEST(Deadline, CancelTokenActsAsImmediateExpiry) {
    epoc::util::CancelToken token;
    epoc::util::Deadline d; // unarmed: would never expire on its own
    d.link(&token);
    EXPECT_FALSE(d.expired());
    token.cancel();
    EXPECT_TRUE(d.expired());
    token.reset();
    EXPECT_FALSE(token.cancelled());
}

TEST(Deadline, FiredTokenZeroesRemainingBudget) {
    // Regression: remaining_ms() used to ignore the linked token, so a
    // cancelled job kept reporting its full clock budget — an admission
    // controller keying on remaining_ms() would admit dead requests.
    epoc::util::CancelToken token;

    // Armed case: a generous clock budget must collapse to 0 on cancel.
    epoc::util::Deadline armed = epoc::util::Deadline::after_ms(60000.0);
    armed.link(&token);
    EXPECT_GT(armed.remaining_ms(), 0.0);
    token.cancel();
    EXPECT_EQ(armed.remaining_ms(), 0.0);

    // Unarmed case: no clock at all, only the token — 1e300 until it fires,
    // then 0.
    token.reset();
    epoc::util::Deadline unarmed;
    unarmed.link(&token);
    EXPECT_GE(unarmed.remaining_ms(), 1e300);
    token.cancel();
    EXPECT_EQ(unarmed.remaining_ms(), 0.0);
    token.reset();
}

// ---------------------------------------------------------------------------
// ThreadPool cooperative stop.

TEST(ThreadPool, CancelledTokenStopsClaimsBeforeAnyWork) {
    epoc::util::CancelToken token;
    token.cancel();
    std::atomic<int> ran{0};
    for (const int workers : {1, 4}) {
        epoc::util::ThreadPool pool(workers);
        pool.parallel_for(1000, [&](std::size_t) { ran.fetch_add(1); }, &token);
        EXPECT_EQ(ran.load(), 0) << workers << " workers";
        // The pool must stay usable for the next (uncancelled) batch.
        token.reset();
        pool.parallel_for(10, [&](std::size_t) { ran.fetch_add(1); });
        EXPECT_EQ(ran.load(), 10) << workers << " workers";
        ran.store(0);
        token.cancel();
    }
}

TEST(ThreadPool, WorkersStopClaimingAfterAFailure) {
    // Once one index throws, remaining indices must not be claimed: each
    // worker (plus the caller draining inline) can execute at most the one
    // task it had already claimed.
    epoc::util::ThreadPool pool(4);
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.parallel_for(10000,
                                   [&](std::size_t) {
                                       ran.fetch_add(1);
                                       throw std::runtime_error("boom");
                                   }),
                 std::runtime_error);
    EXPECT_LE(ran.load(), 5);
    EXPECT_GE(ran.load(), 1);
}

TEST(ThreadPool, MidBatchCancellationStopsEarly) {
    // Sequential fast path (1 worker): cancelling from inside the body is
    // fully deterministic — exactly index 0 runs.
    epoc::util::ThreadPool pool(1);
    epoc::util::CancelToken token;
    std::atomic<int> ran{0};
    pool.parallel_for(1000,
                      [&](std::size_t) {
                          ran.fetch_add(1);
                          token.cancel();
                      },
                      &token);
    EXPECT_EQ(ran.load(), 1);
}

// ---------------------------------------------------------------------------
// GRAPE non-finite handling.

TEST(Grape, ReseedsOnceOnTransientNonFiniteFidelity) {
    const FaultGuard g("grape.nonfinite=1"); // poison only the first iteration
    const epoc::qoc::BlockHamiltonian h = epoc::qoc::make_block_hamiltonian(1);
    epoc::linalg::Matrix x(2, 2);
    x(0, 1) = 1.0;
    x(1, 0) = 1.0;
    epoc::qoc::GrapeOptions opt;
    opt.max_iterations = 80;
    const epoc::qoc::Pulse p = epoc::qoc::grape_optimize(h, x, 12, opt);
    EXPECT_EQ(p.nonfinite_reseeds, 1);
    EXPECT_FALSE(p.nonfinite_aborted);
    EXPECT_TRUE(std::isfinite(p.fidelity));
    EXPECT_GT(p.fidelity, 0.5); // the reseeded run genuinely optimized
}

TEST(Grape, AbortsAfterExhaustingReseedBudget) {
    const FaultGuard g("grape.nonfinite=*"); // every iteration goes non-finite
    const epoc::qoc::BlockHamiltonian h = epoc::qoc::make_block_hamiltonian(1);
    epoc::linalg::Matrix x(2, 2);
    x(0, 1) = 1.0;
    x(1, 0) = 1.0;
    epoc::qoc::GrapeOptions opt;
    opt.max_iterations = 40;
    opt.nonfinite_retries = 2;
    const epoc::qoc::Pulse p = epoc::qoc::grape_optimize(h, x, 12, opt);
    EXPECT_TRUE(p.nonfinite_aborted);
    EXPECT_EQ(p.nonfinite_reseeds, 2);
    EXPECT_TRUE(std::isfinite(p.fidelity)); // best *finite* iterate is returned
}

// ---------------------------------------------------------------------------
// Pipeline-level ladder rungs (the acceptance scenarios).

TEST(Resilience, SynthesisFaultFallsBackToOriginalGates) {
    const FaultGuard g("synth.block=*");
    const Circuit c = epoc::bench::ghz(4);
    EpocCompiler compiler(cheap_options());
    const EpocResult r = compiler.compile(c);
    expect_valid_degraded(r, c, "synth.block=*");
    EXPECT_EQ(r.status.cause, epoc::util::Cause::injected);
    // Every synthesis block fell back; the synthesized circuit is exactly the
    // (ZX-optimized, partitioned) original gates.
    std::size_t synth_reports = 0;
    for (const BlockReport& br : r.block_reports) {
        if (br.status.stage != epoc::util::Stage::synthesis) continue;
        ++synth_reports;
        EXPECT_EQ(br.status.cause, epoc::util::Cause::injected);
        EXPECT_TRUE(br.status.fallback_taken);
    }
    EXPECT_EQ(synth_reports, r.num_blocks);
}

TEST(Resilience, SynthesisCacheComputeFaultIsContained) {
    // The fault fires *inside* the single-flight compute lambda: the cache
    // must surface it to the leader without caching it or wedging waiters.
    const FaultGuard g("synth.compute=*");
    const Circuit c = epoc::bench::qft(3);
    for (const int threads : {1, 4}) {
        EpocCompiler compiler(cheap_options(threads));
        const EpocResult r = compiler.compile(c);
        expect_valid_degraded(r, c,
                              "synth.compute=* @" + std::to_string(threads));
        EXPECT_EQ(r.synth_cache_stats.hits, 0u); // failures are never cached
    }
}

TEST(Resilience, BlockPulseFaultFallsBackToGateByGatePulses) {
    const FaultGuard g("pulse.block=*");
    const Circuit c = epoc::bench::ghz(3);
    EpocOptions opt = cheap_options();
    EpocCompiler compiler(opt);
    const EpocResult r = compiler.compile(c);
    expect_valid_degraded(r, c, "pulse.block=*");
    // The grouped arm degraded to per-gate pulses but stays schedulable;
    // whichever arm won, every grouped block is accounted for and marked.
    bool saw_grouped = false;
    for (const BlockReport& br : r.block_reports) {
        if (br.status.stage != epoc::util::Stage::pulse) continue;
        if (br.label.rfind("grouped block", 0) != 0) continue;
        saw_grouped = true;
        EXPECT_EQ(br.status.cause, epoc::util::Cause::injected) << br.label;
        EXPECT_TRUE(br.status.fallback_taken) << br.label;
    }
    EXPECT_TRUE(saw_grouped);
}

TEST(Resilience, GatePulseFaultShipsPlaceholderPulses) {
    const FaultGuard g("pulse.gate=*");
    const Circuit c = epoc::bench::ghz(3);
    // Disable the grouped arm: with only per-gate pulses faulted, the clean
    // grouped schedule would win the latency comparison and hide them.
    EpocOptions opt = cheap_options();
    opt.regroup_enabled = false;
    EpocCompiler compiler(opt);
    const EpocResult r = compiler.compile(c);
    expect_valid_degraded(r, c, "pulse.gate=*");
    // Placeholders are impossible to mistake for good pulses.
    bool saw_placeholder = false;
    for (const ScheduledPulse& p : r.schedule.pulses)
        saw_placeholder = saw_placeholder || p.job.fidelity == 0.0;
    EXPECT_TRUE(saw_placeholder);
    EXPECT_EQ(r.esp, 0.0); // ESP is a product over pulse fidelities
}

TEST(Resilience, GrapeNonFiniteCascadesToFallbackNotThrow) {
    const FaultGuard g("grape.nonfinite=*");
    const Circuit c = epoc::bench::ghz(3);
    EpocOptions opt = cheap_options();
    opt.latency.grape.max_iterations = 20; // aborts are cheap but keep it snappy
    EpocCompiler compiler(opt);
    const EpocResult r = compiler.compile(c);
    expect_valid_degraded(r, c, "grape.nonfinite=*");
    // Nothing built from aborted GRAPE runs may be cached as authoritative.
    EXPECT_GT(r.library_stats.uncached_degraded, 0u);
}

TEST(Resilience, InjectedInfeasibleLatencySearchTakesTheLadder) {
    const FaultGuard g("latency.infeasible=*");
    const Circuit c = epoc::bench::ghz(3);
    EpocCompiler compiler(cheap_options());
    const EpocResult r = compiler.compile(c);
    expect_valid_degraded(r, c, "latency.infeasible=*");
}

TEST(Resilience, GenuinelyInfeasibleThresholdIsFlaggedNotFatal) {
    // No injection: an impossible fidelity bar with a starved slot budget.
    EpocOptions opt = cheap_options();
    opt.latency.fidelity_threshold = 0.999999999;
    opt.latency.max_slots = 2;
    opt.latency.grape.max_iterations = 15;
    const Circuit c = epoc::bench::ghz(3);
    EpocCompiler compiler(opt);
    const EpocResult r = compiler.compile(c);
    expect_valid_degraded(r, c, "impossible threshold");
    EXPECT_EQ(r.status.cause, epoc::util::Cause::infeasible);
    // Deterministic infeasibility is cacheable: a second compile must not
    // redo the failed searches.
    const std::size_t misses_after_first = r.library_stats.misses;
    const EpocResult r2 = compiler.compile(c);
    EXPECT_EQ(r2.library_stats.misses, misses_after_first);
}

TEST(Resilience, ZxFaultKeepsTheOriginalCircuit) {
    const FaultGuard g("zx.fail=*");
    const Circuit c = epoc::bench::qft(3);
    EpocCompiler compiler(cheap_options());
    const EpocResult r = compiler.compile(c);
    expect_valid_degraded(r, c, "zx.fail=*");
    EXPECT_EQ(r.depth_after_zx, r.depth_original);
    EXPECT_EQ(r.block_reports.front().status.stage, epoc::util::Stage::zx);
}

TEST(Resilience, EveryInjectionSiteStillYieldsAValidCompile) {
    // The acceptance sweep: force each site in turn on the fig8-style
    // benches; compile() must never leak an exception and must mark itself
    // degraded with every block accounted for.
    const std::vector<std::string> sites = {
        "zx.fail",     "partition.fail",    "regroup.fail", "synth.block",
        "synth.compute", "pulse.block",     "pulse.gate",   "grape.nonfinite",
        "latency.infeasible"};
    const Circuit c = epoc::bench::ghz(3);
    for (const std::string& site : sites) {
        const FaultGuard g(site + "=*");
        EpocOptions opt = cheap_options();
        opt.latency.grape.max_iterations = 30;
        EpocCompiler compiler(opt);
        EpocResult r;
        ASSERT_NO_THROW(r = compiler.compile(c)) << site;
        expect_valid_degraded(r, c, site + "=*");
    }
}

TEST(Resilience, BrokenPlanCacheDegradesToColdCompileNotThrow) {
    // The plan cache is an accelerator, never a dependency: a fault anywhere
    // on the plan path (lookup or instantiation) must silently drop the
    // compile onto the ordinary cold pipeline, whose output is clean — not
    // degraded, and certainly not an exception.
    for (const std::string site : {"plan.lookup", "plan.instantiate"}) {
        const FaultGuard g(site + "=*");
        EpocOptions opt = cheap_options();
        opt.plan_cache = true;
        opt.trace_enabled = true;
        EpocCompiler compiler(opt);
        Circuit c(2);
        c.h(0).h(1).rzz(0.5, 0, 1).rx(0.3, 0).rx(0.3, 1);
        EpocResult r;
        ASSERT_NO_THROW(r = compiler.compile(c)) << site;
        EXPECT_FALSE(r.plan_hit) << site;
        EXPECT_GT(r.num_pulses, 0u) << site;
        EXPECT_GT(r.latency_ns, 0.0) << site;
        EXPECT_FALSE(r.degraded) << site; // the cold path saw no fault
        EXPECT_GT(r.trace.counter("robust.plan_fallbacks"), 0u) << site;
        // The site fires on every arrival, so later compiles keep falling
        // back — and keep succeeding.
        ASSERT_NO_THROW(r = compiler.compile(c)) << site;
        EXPECT_FALSE(r.plan_hit) << site;
        EXPECT_GT(r.num_pulses, 0u) << site;
    }
}

// ---------------------------------------------------------------------------
// Deadlines and cancellation at the compile() level.

TEST(Resilience, TightDeadlineDegradesButStaysValid) {
    CompileCallOptions call;
    call.deadline_ms = 0.001; // expires essentially immediately
    const Circuit c = epoc::bench::qft(3);
    EpocCompiler compiler(cheap_options());
    const EpocResult r = compiler.compile(c, call);
    expect_valid_degraded(r, c, "deadline 1us");
    EXPECT_TRUE(r.deadline_hit);
    EXPECT_EQ(r.status.cause, epoc::util::Cause::timeout);
}

TEST(Resilience, DegradedResultsAreNotServedFromCacheLater) {
    // A compile starved by its deadline must not poison the library: with the
    // deadline lifted, the same compiler re-attempts and matches a compiler
    // that never had a deadline at all.
    const Circuit c = epoc::bench::ghz(3);
    CompileCallOptions starving;
    starving.deadline_ms = 0.001;
    EpocCompiler compiler(cheap_options());
    const EpocResult starved = compiler.compile(c, starving);
    EXPECT_TRUE(starved.degraded);
    EXPECT_GT(starved.library_stats.uncached_degraded, 0u);

    const EpocResult retry = compiler.compile(c);
    EXPECT_FALSE(retry.degraded) << retry.status.to_string();

    EpocCompiler fresh(cheap_options());
    const EpocResult clean = fresh.compile(c);
    EXPECT_EQ(retry.latency_ns, clean.latency_ns);
    EXPECT_EQ(retry.esp, clean.esp);
    EXPECT_EQ(retry.num_pulses, clean.num_pulses);
}

TEST(Resilience, PreCancelledTokenYieldsCancelledResult) {
    epoc::util::CancelToken token;
    token.cancel();
    CompileCallOptions call;
    call.cancel = &token;
    const Circuit c = epoc::bench::ghz(3);
    EpocCompiler compiler(cheap_options());
    const EpocResult r = compiler.compile(c, call);
    expect_valid_degraded(r, c, "pre-cancelled token");
    EXPECT_TRUE(r.deadline_hit);
    EXPECT_EQ(r.status.cause, epoc::util::Cause::cancelled);
}

// ---------------------------------------------------------------------------
// Boundary validation.

TEST(Resilience, EmptyCircuitCompilesToEmptySchedule) {
    EpocCompiler compiler(cheap_options());
    const EpocResult r = compiler.compile(Circuit(3));
    EXPECT_TRUE(r.status.ok());
    EXPECT_FALSE(r.degraded);
    EXPECT_EQ(r.num_pulses, 0u);
    EXPECT_EQ(r.latency_ns, 0.0);
    EXPECT_EQ(r.schedule.num_qubits, 3);
}

TEST(Resilience, NegativeQubitCountIsRejectedStructurally) {
    EpocCompiler compiler(cheap_options());
    EpocResult r;
    ASSERT_NO_THROW(r = compiler.compile(Circuit(-2)));
    EXPECT_EQ(r.status.cause, epoc::util::Cause::invalid_input);
    EXPECT_EQ(r.status.stage, epoc::util::Stage::input);
    EXPECT_EQ(r.num_pulses, 0u);
    EXPECT_EQ(r.schedule.num_qubits, 0);
}

TEST(Resilience, ZeroQubitEmptyCircuitIsFine) {
    EpocCompiler compiler(cheap_options());
    const EpocResult r = compiler.compile(Circuit(0));
    EXPECT_TRUE(r.status.ok());
    EXPECT_EQ(r.num_pulses, 0u);
}

// ---------------------------------------------------------------------------
// Determinism: the resilience layer must be invisible on the clean path.

TEST(Resilience, CleanPathStaysBitIdenticalAcrossThreadCounts) {
    fault::clear(); // belt and braces: zero faults, no deadline
    for (const auto& [name, circuit] :
         std::vector<std::pair<std::string, Circuit>>{
             {"ghz4", epoc::bench::ghz(4)}, {"qft3", epoc::bench::qft(3)}}) {
        EpocCompiler sequential(cheap_options(1));
        const EpocResult seq = sequential.compile(circuit);
        EXPECT_FALSE(seq.degraded) << name;
        EXPECT_TRUE(seq.status.ok()) << name;
        for (const int threads : {2, 8}) {
            EpocCompiler parallel(cheap_options(threads));
            const EpocResult par = parallel.compile(circuit);
            const std::string what = name + " @" + std::to_string(threads);
            EXPECT_FALSE(par.degraded) << what;
            EXPECT_EQ(seq.latency_ns, par.latency_ns) << what;
            EXPECT_EQ(seq.esp, par.esp) << what;
            EXPECT_EQ(seq.esp_decoherent, par.esp_decoherent) << what;
            ASSERT_EQ(seq.schedule.pulses.size(), par.schedule.pulses.size()) << what;
            for (std::size_t i = 0; i < seq.schedule.pulses.size(); ++i) {
                const ScheduledPulse& a = seq.schedule.pulses[i];
                const ScheduledPulse& b = par.schedule.pulses[i];
                EXPECT_EQ(a.job.qubits, b.job.qubits) << what << " pulse " << i;
                EXPECT_EQ(a.start, b.start) << what << " pulse " << i;
                EXPECT_EQ(a.end, b.end) << what << " pulse " << i;
                EXPECT_EQ(a.job.fidelity, b.job.fidelity) << what << " pulse " << i;
                EXPECT_EQ(a.job.label, b.job.label) << what << " pulse " << i;
            }
            // Block reports are merged in block order: deterministic too.
            ASSERT_EQ(seq.block_reports.size(), par.block_reports.size()) << what;
            for (std::size_t i = 0; i < seq.block_reports.size(); ++i) {
                EXPECT_EQ(seq.block_reports[i].label, par.block_reports[i].label)
                    << what << " report " << i;
            }
        }
    }
}

TEST(Resilience, InjectedDegradationIsDeterministicAcrossRuns) {
    // Same spec, same circuit, same thread count => same degraded artifact.
    const Circuit c = epoc::bench::ghz(3);
    auto run = [&] {
        const FaultGuard g("pulse.block=*");
        EpocCompiler compiler(cheap_options(1));
        return compiler.compile(c);
    };
    const EpocResult a = run();
    const EpocResult b = run();
    EXPECT_EQ(a.latency_ns, b.latency_ns);
    EXPECT_EQ(a.esp, b.esp);
    EXPECT_EQ(a.num_pulses, b.num_pulses);
}

TEST(Resilience, RobustCountersAppearInTrace) {
    const FaultGuard g("synth.block=*");
    EpocOptions opt = cheap_options();
    opt.trace_enabled = true;
    EpocCompiler compiler(opt);
    const EpocResult r = compiler.compile(epoc::bench::ghz(3));
    EXPECT_TRUE(r.degraded);
    EXPECT_GT(r.trace.counter("robust.injected_faults"), 0u);
    EXPECT_GT(r.trace.counter("robust.synth_fallbacks"), 0u);
    EXPECT_EQ(r.trace.counter("robust.degraded_compiles"), 1u);
}

} // namespace
