// Integration tests over the full EPOC pipeline and its baselines. QOC
// settings are turned down (loose fidelity threshold, small circuits) so the
// suite stays fast; the benches run the full-strength configuration.
#include "epoc/baselines.h"
#include "epoc/pipeline.h"
#include "epoc/regroup.h"

#include "bench_circuits/generators.h"
#include "circuit/unitary.h"
#include "linalg/phase.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace {

using namespace epoc::core;
using epoc::circuit::Circuit;

EpocOptions cheap_options() {
    EpocOptions opt;
    opt.latency.fidelity_threshold = 0.99;
    opt.latency.grape.max_iterations = 120;
    opt.qsearch.threshold = 1e-4;
    opt.qsearch.instantiate.restarts = 2;
    return opt;
}

TEST(Regroup, MergesConsecutiveBlocksOnSameQubits) {
    Circuit c(2);
    for (int i = 0; i < 6; ++i) c.cx(0, 1).h(0);
    epoc::partition::PartitionOptions opt;
    opt.max_qubits = 2;
    opt.max_gates = 32;
    const auto blocks = regroup(c, opt);
    EXPECT_EQ(blocks.size(), 1u);
    EXPECT_EQ(blocks[0].body.size(), c.size());
}

TEST(Regroup, RespectsGateLimit) {
    Circuit c(2);
    for (int i = 0; i < 40; ++i) c.cx(0, 1);
    epoc::partition::PartitionOptions opt;
    opt.max_qubits = 2;
    opt.max_gates = 8;
    for (const auto& b : regroup(c, opt)) EXPECT_LE(b.body.size(), 8u);
}

TEST(Pipeline, GhzEndToEnd) {
    EpocCompiler compiler(cheap_options());
    const EpocResult r = compiler.compile(epoc::bench::ghz(3));
    EXPECT_GT(r.latency_ns, 0.0);
    EXPECT_GT(r.esp, 0.9);
    EXPECT_GT(r.num_pulses, 0u);
    EXPECT_GT(r.compile_ms, 0.0);
}

TEST(Pipeline, SynthesizedCircuitMatchesInputUnitary) {
    EpocOptions opt = cheap_options();
    opt.qsearch.threshold = 1e-5;
    EpocCompiler compiler(opt);
    const Circuit c = epoc::bench::ghz(3);
    const EpocResult r = compiler.compile(c);
    EXPECT_TRUE(epoc::linalg::equal_up_to_global_phase(
        epoc::circuit::circuit_unitary(r.synthesized),
        epoc::circuit::circuit_unitary(c), 1e-3));
}

TEST(Pipeline, GroupingReducesLatencyAndPulseCount) {
    const Circuit c = epoc::bench::decod24();
    EpocCompiler grouped(cheap_options());
    EpocOptions off = cheap_options();
    off.regroup_enabled = false;
    EpocCompiler ungrouped(off);
    const EpocResult rg = grouped.compile(c);
    const EpocResult rn = ungrouped.compile(c);
    EXPECT_LT(rg.latency_ns, rn.latency_ns);
    EXPECT_LT(rg.num_pulses, rn.num_pulses);
    EXPECT_GT(rg.esp, rn.esp); // Fig. 10 mechanism
}

TEST(Pipeline, ZxStageCanBeDisabled) {
    EpocOptions opt = cheap_options();
    opt.use_zx = false;
    EpocCompiler compiler(opt);
    const EpocResult r = compiler.compile(epoc::bench::ghz(3));
    EXPECT_EQ(r.depth_after_zx, r.depth_original);
}

TEST(Pipeline, LibraryPersistsAcrossCompiles) {
    EpocCompiler compiler(cheap_options());
    compiler.compile(epoc::bench::ghz(3));
    const std::size_t misses_first = compiler.library().stats().misses;
    compiler.compile(epoc::bench::ghz(3));
    // Second compile of the same circuit is all cache hits.
    EXPECT_EQ(compiler.library().stats().misses, misses_first);
    EXPECT_GT(compiler.library().stats().hits, 0u);
}

TEST(Pipeline, IdentityBlocksAreSkipped) {
    Circuit c(2);
    c.h(0).h(0).cx(0, 1).cx(0, 1); // everything cancels
    EpocCompiler compiler(cheap_options());
    const EpocResult r = compiler.compile(c);
    EXPECT_EQ(r.num_pulses, 0u);
    EXPECT_EQ(r.latency_ns, 0.0);
}

TEST(Baselines, GateBasedUsesVirtualRz) {
    Circuit c(1);
    c.rz(0.7, 0);
    GateBasedCompiler gate;
    const EpocResult r = gate.compile(c);
    EXPECT_EQ(r.latency_ns, 0.0); // rz alone is free
    EXPECT_EQ(r.esp, 1.0);
}

TEST(Baselines, GateBasedLatencyScalesWithGates) {
    GateBasedCompiler gate;
    const EpocResult r1 = gate.compile(epoc::bench::ghz(2));
    const EpocResult r2 = gate.compile(epoc::bench::ghz(4));
    EXPECT_GT(r2.latency_ns, r1.latency_ns);
}

TEST(Baselines, PaqocBeatsGateBased) {
    const Circuit c = epoc::bench::decod24();
    GateBasedCompiler gate;
    PaqocLikeCompiler paqoc;
    EXPECT_LT(paqoc.compile(c).latency_ns, gate.compile(c).latency_ns);
}

TEST(Baselines, EpocBeatsPaqocOnStructuredCircuit) {
    // The headline Table-1 ordering: EPOC < PAQOC-like < gate-based. Uses the
    // full-strength configuration (as the Table-1 bench does): the win margin
    // depends on the fidelity threshold.
    const Circuit c = epoc::bench::simon(2);
    GateBasedCompiler gate;
    PaqocLikeCompiler paqoc;
    EpocOptions eo;
    eo.regroup_opt.max_qubits = 4;
    EpocCompiler epoc_c(eo);
    const double lg = gate.compile(c).latency_ns;
    const double lp = paqoc.compile(c).latency_ns;
    const double le = epoc_c.compile(c).latency_ns;
    EXPECT_LT(lp, lg);
    EXPECT_LT(le, lp);
}

TEST(Baselines, AccqocMstWarmStartCompiles) {
    AccqocOptions opt;
    opt.latency.fidelity_threshold = 0.99;
    AccqocLikeCompiler acc(opt);
    const EpocResult r = acc.compile(epoc::bench::qft(3));
    EXPECT_GT(r.latency_ns, 0.0);
    EXPECT_GT(r.num_pulses, 0u);
}

TEST(Baselines, AccqocWithoutMstMatchesPulseCount) {
    AccqocOptions with_mst;
    with_mst.latency.fidelity_threshold = 0.99;
    AccqocOptions without = with_mst;
    without.use_mst = false;
    AccqocLikeCompiler a(with_mst), b(without);
    const Circuit c = epoc::bench::ghz(4);
    EXPECT_EQ(a.compile(c).num_pulses, b.compile(c).num_pulses);
}

TEST(Pipeline, VariationalAngleSweepReusesThePlan) {
    // The variational outer loop: one circuit structure, 50 angle updates.
    // After the first (plan-building) compile every iteration must be a plan
    // hit, and warm-starting GRAPE from the previous iterate's pulses must cut
    // the total optimizer iterations without costing fidelity.
    constexpr int kIters = 50;
    const auto qaoa = [](double gamma, double beta) {
        Circuit c(2);
        c.h(0).h(1);
        c.rzz(gamma, 0, 1);
        c.rx(beta, 0).rx(beta, 1);
        return c;
    };
    const auto sweep = [&](bool warm, std::vector<double>& esp_out) {
        EpocOptions opt = cheap_options();
        opt.plan_cache = true;
        opt.plan_warm_start = warm;
        opt.trace_enabled = true;
        EpocCompiler compiler(opt);
        std::uint64_t total_grape_iters = 0;
        for (int i = 0; i < kIters; ++i) {
            const double gamma = 0.8 + 0.002 * i;
            const double beta = 0.4 - 0.001 * i;
            const EpocResult r = compiler.compile(qaoa(gamma, beta));
            EXPECT_EQ(r.plan_hit, i > 0) << "warm=" << warm << " iter=" << i;
            EXPECT_FALSE(r.degraded);
            EXPECT_GT(r.esp, 0.9) << "warm=" << warm << " iter=" << i;
            esp_out.push_back(r.esp);
            // Each trace holds its own compile's counters; the sweep's total
            // is their sum.
            total_grape_iters += r.trace.counter("qoc.grape_iterations");
        }
        return total_grape_iters;
    };

    std::vector<double> warm_esp, cold_esp;
    const std::uint64_t warm_iters = sweep(true, warm_esp);
    const std::uint64_t cold_iters = sweep(false, cold_esp);

    // Warm seeds must save real optimizer work across the sweep...
    EXPECT_LT(warm_iters, cold_iters);
    // ...without costing fidelity. Both runs stop once every pulse clears the
    // fidelity threshold; a cold run typically *overshoots* the threshold a
    // little more than a warm one (more gradient steps past convergence), so
    // exact esp equality is not the contract. The contract is: the warm
    // iterate never lands materially below its cold counterpart — the GRAPE
    // cold-rescue re-runs any warm seed that converges under the target, so a
    // bad seed can cost iterations but never a below-threshold pulse.
    ASSERT_EQ(warm_esp.size(), cold_esp.size());
    for (std::size_t i = 0; i < warm_esp.size(); ++i)
        EXPECT_GE(warm_esp[i], cold_esp[i] - 5e-3) << "iter=" << i;
}

} // namespace
