// Cross-module property tests: chains of passes must preserve circuit
// semantics, and reported pulse fidelities must match the physics.
#include "bench_circuits/generators.h"
#include "bench_circuits/random_circuits.h"
#include "circuit/decompose.h"
#include "circuit/peephole.h"
#include "circuit/unitary.h"
#include "epoc/export.h"
#include "epoc/pipeline.h"
#include "epoc/regroup.h"
#include "linalg/phase.h"
#include "partition/partition.h"
#include "qoc/grape.h"
#include "qoc/latency_search.h"
#include "qoc/pulse_io.h"
#include "zx/optimize.h"

#include <gtest/gtest.h>

namespace {

using namespace epoc;
using circuit::Circuit;
using circuit::circuit_unitary;
using linalg::equal_up_to_global_phase;

TEST(Properties, ZxOptimizePreservesEverySuiteCircuit) {
    for (const auto& [name, c] : bench::figure_suite()) {
        if (c.num_qubits() > 7) continue;
        const zx::ZxOptimizeResult r = zx::zx_optimize(c);
        EXPECT_TRUE(equal_up_to_global_phase(circuit_unitary(r.circuit),
                                             circuit_unitary(c), 1e-6))
            << name;
        EXPECT_LE(r.depth_after, r.depth_before) << name;
    }
}

TEST(Properties, PassChainPreservesUnitary) {
    // transpile -> peephole -> zx_optimize -> transpile, all composed.
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        bench::RandomCircuitSpec spec;
        spec.seed = seed * 5 + 1;
        spec.num_qubits = 3;
        spec.num_gates = 25;
        const Circuit c = bench::random_circuit(spec);
        Circuit t = circuit::transpile(c, circuit::Basis::RZ_SX_CX);
        t = circuit::peephole_optimize(t);
        t = zx::zx_optimize(t).circuit;
        t = circuit::transpile(t, circuit::Basis::U3_CX);
        EXPECT_TRUE(equal_up_to_global_phase(circuit_unitary(t), circuit_unitary(c), 1e-6))
            << seed;
    }
}

TEST(Properties, LibraryPulseFidelityIsPhysical) {
    // The fidelity a LatencyResult reports must equal the Schroedinger-
    // propagated fidelity of its pulse against the requested unitary.
    const auto h = qoc::make_block_hamiltonian(2);
    qoc::LatencySearchOptions opt;
    opt.fidelity_threshold = 0.995;
    Circuit block(2);
    block.h(0).cx(0, 1).t(1);
    const auto target = circuit_unitary(block);
    const auto r = qoc::find_minimal_latency_pulse(h, target, opt);
    ASSERT_TRUE(r.feasible);
    const auto realised = qoc::pulse_unitary(h, r.pulse);
    EXPECT_NEAR(linalg::hs_fidelity(realised, target), r.pulse.fidelity, 1e-9);
    EXPECT_GE(r.pulse.fidelity, 0.995);
}

TEST(Properties, MinimalLatencyIsMinimal) {
    // One granularity step below the found optimum must fail the threshold
    // (that is what "minimal" means for the binary search).
    const auto h = qoc::make_block_hamiltonian(1);
    qoc::LatencySearchOptions opt;
    opt.fidelity_threshold = 0.995;
    const auto r = qoc::find_minimal_latency_pulse(h, circuit::pauli_x(), opt);
    ASSERT_TRUE(r.feasible);
    ASSERT_GT(r.pulse.num_slots(), 1);
    qoc::GrapeOptions g = opt.grape;
    g.target_fidelity = opt.fidelity_threshold;
    g.seed = opt.grape.seed * 1315423911u +
             static_cast<std::uint64_t>(r.pulse.num_slots() - 1);
    const auto shorter =
        qoc::grape_optimize(h, circuit::pauli_x(), r.pulse.num_slots() - 1, g);
    EXPECT_LT(shorter.fidelity, opt.fidelity_threshold);
}

TEST(Properties, DeterministicAcrossRuns) {
    // The whole QOC stack is seeded: equal inputs give equal pulses.
    const auto h = qoc::make_block_hamiltonian(1);
    qoc::LatencySearchOptions opt;
    const auto a = qoc::find_minimal_latency_pulse(h, circuit::hadamard(), opt);
    const auto b = qoc::find_minimal_latency_pulse(h, circuit::hadamard(), opt);
    EXPECT_EQ(a.pulse.num_slots(), b.pulse.num_slots());
    EXPECT_DOUBLE_EQ(a.pulse.fidelity, b.pulse.fidelity);
    EXPECT_EQ(a.pulse.amplitudes, b.pulse.amplitudes);
}

TEST(Properties, PeepholeIsIdempotent) {
    bench::RandomCircuitSpec spec;
    spec.seed = 9;
    spec.num_qubits = 4;
    spec.num_gates = 40;
    const Circuit c = bench::random_circuit(spec);
    const Circuit once = circuit::peephole_optimize(c);
    const Circuit twice = circuit::peephole_optimize(once);
    EXPECT_EQ(once.size(), twice.size());
}

TEST(Properties, RegroupBlockProductMatchesCircuitUnitary) {
    // Regrouping is a semantic no-op: embedding each regrouped block's
    // unitary back onto its global qubits, in block order, must reproduce
    // the original circuit's unitary up to global phase. This is exactly the
    // oracle the verify layer runs as check_blocks_equiv("regroup", ...).
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        bench::RandomCircuitSpec spec;
        spec.seed = seed * 13 + 3;
        spec.num_qubits = 3 + static_cast<int>(seed % 3); // 3, 4, 5 qubits
        spec.num_gates = 22;
        const Circuit c = bench::random_circuit(spec);
        const int nq = c.num_qubits();
        const auto groups = core::regroup(c, {/*max_qubits=*/3, /*max_gates=*/8});
        ASSERT_FALSE(groups.empty()) << seed;
        linalg::Matrix u = linalg::Matrix::identity(std::size_t{1} << nq);
        for (const auto& blk : groups)
            circuit::apply_gate(u, partition::block_unitary(blk), blk.qubits, nq);
        EXPECT_TRUE(equal_up_to_global_phase(u, circuit_unitary(c), 1e-6)) << seed;
    }
}

TEST(Properties, RegroupEquivalenceHoldsAcrossThreadCounts) {
    // The same property checked in vivo: a full-verify compile re-derives the
    // regroup (and zx/partition) equivalences internally, and both the audit
    // verdicts and the shipped schedule must be identical whether the block
    // loops ran on 1, 2 or 8 workers.
    bench::RandomCircuitSpec spec;
    spec.seed = 41;
    spec.num_qubits = 4;
    spec.num_gates = 16;
    const Circuit c = bench::random_circuit(spec);
    std::uint64_t first_digest = 0;
    std::size_t first_checks = 0;
    bool have_first = false;
    for (const int threads : {1, 2, 8}) {
        core::EpocOptions opt;
        opt.latency.fidelity_threshold = 0.99;
        opt.latency.grape.max_iterations = 120;
        opt.qsearch.threshold = 1e-4;
        opt.qsearch.instantiate.restarts = 2;
        opt.num_threads = threads;
        opt.verify_level = verify::VerifyLevel::full;
        core::EpocCompiler compiler(opt);
        const core::EpocResult r = compiler.compile(c);
        EXPECT_EQ(r.verify.failed, 0u) << threads;
        EXPECT_GT(r.verify.checks, 0u) << threads;
        const std::uint64_t d = qoc::fnv1a64(core::schedule_to_json(r.schedule));
        if (!have_first) {
            first_digest = d;
            first_checks = r.verify.checks;
            have_first = true;
            continue;
        }
        EXPECT_EQ(d, first_digest) << threads;
        EXPECT_EQ(r.verify.checks, first_checks) << threads;
    }
}

TEST(Properties, TranspileIdempotentOnNativeCircuits) {
    const Circuit c = circuit::transpile(bench::ham7(), circuit::Basis::U3_CX);
    const Circuit again = circuit::transpile(c, circuit::Basis::U3_CX);
    EXPECT_TRUE(equal_up_to_global_phase(circuit_unitary(again), circuit_unitary(c), 1e-7));
    for (const auto& g : again.gates())
        EXPECT_TRUE(g.kind == circuit::GateKind::U3 || g.kind == circuit::GateKind::CX);
}

} // namespace
