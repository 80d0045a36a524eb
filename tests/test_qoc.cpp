#include "qoc/decoherence.h"
#include "qoc/grape.h"
#include "qoc/hamiltonian.h"
#include "qoc/latency_search.h"
#include "qoc/pulse_library.h"

#include "circuit/circuit.h"
#include "circuit/unitary.h"
#include "linalg/phase.h"
#include "util/deadline.h"
#include "util/fault_injection.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

namespace {

using namespace epoc::qoc;
using epoc::circuit::Circuit;
using epoc::circuit::GateKind;
using epoc::linalg::Matrix;

TEST(Hamiltonian, SingleQubitModel) {
    const auto h = make_block_hamiltonian(1);
    EXPECT_EQ(h.drift.rows(), 2u);
    EXPECT_EQ(h.controls.size(), 2u); // x, y drives only, no coupler
}

TEST(Hamiltonian, TwoQubitModelHasCoupler) {
    const auto h = make_block_hamiltonian(2);
    EXPECT_EQ(h.drift.rows(), 4u);
    EXPECT_EQ(h.controls.size(), 5u); // 2*(x,y) + 1 coupler
    EXPECT_EQ(h.controls.back().label, "xx0_1");
}

TEST(Hamiltonian, ThreeQubitModelCouplerCount) {
    const auto h = make_block_hamiltonian(3);
    EXPECT_EQ(h.controls.size(), 9u); // 6 drives + 3 couplers
}

TEST(Hamiltonian, DriftIsHermitian) {
    const auto h = make_block_hamiltonian(3);
    EXPECT_LT(h.drift.max_abs_diff(h.drift.dagger()), 1e-12);
    for (const auto& c : h.controls)
        EXPECT_LT(c.h.max_abs_diff(c.h.dagger()), 1e-12);
}

TEST(Hamiltonian, RejectsNonPositive) {
    EXPECT_THROW(make_block_hamiltonian(0), std::invalid_argument);
}

TEST(Grape, ReachesXGate) {
    const auto h = make_block_hamiltonian(1);
    GrapeOptions opt;
    opt.target_fidelity = 0.999;
    const Pulse p = grape_optimize(h, epoc::circuit::pauli_x(), 8, opt);
    EXPECT_GE(p.fidelity, 0.999);
    // Cross-check: the claimed fidelity matches the realised propagator.
    const Matrix u = pulse_unitary(h, p);
    EXPECT_NEAR(epoc::linalg::hs_fidelity(u, epoc::circuit::pauli_x()), p.fidelity, 1e-6);
}

TEST(Grape, ReachesCnot) {
    const auto h = make_block_hamiltonian(2);
    GrapeOptions opt;
    opt.target_fidelity = 0.995;
    const Pulse p =
        grape_optimize(h, epoc::circuit::kind_matrix(GateKind::CX, {}), 24, opt);
    EXPECT_GE(p.fidelity, 0.995);
}

TEST(Grape, RespectsAmplitudeBounds) {
    const auto h = make_block_hamiltonian(2);
    const Pulse p =
        grape_optimize(h, epoc::circuit::kind_matrix(GateKind::CX, {}), 24, {});
    for (std::size_t j = 0; j < h.controls.size(); ++j)
        for (const double a : p.amplitudes[j])
            EXPECT_LE(std::abs(a), h.controls[j].bound + 1e-12);
}

TEST(Grape, TooFewSlotsCannotReachTarget) {
    const auto h = make_block_hamiltonian(1);
    // A pi rotation at bounded amplitude needs ~10ns; one 2ns slot cannot.
    const Pulse p = grape_optimize(h, epoc::circuit::pauli_x(), 1, {});
    EXPECT_LT(p.fidelity, 0.9);
}

TEST(Grape, WarmStartSpeedsConvergence) {
    const auto h = make_block_hamiltonian(1);
    GrapeOptions cold;
    cold.target_fidelity = 0.9999;
    const Pulse p1 = grape_optimize(h, epoc::circuit::hadamard(), 8, cold);
    GrapeOptions warm = cold;
    warm.warm_amplitudes = p1.amplitudes;
    const Pulse p2 = grape_optimize(h, epoc::circuit::hadamard(), 8, warm);
    EXPECT_LE(p2.grape_iterations, p1.grape_iterations);
    EXPECT_GE(p2.fidelity, p1.fidelity - 1e-6);
}

TEST(Grape, InvalidArgumentsThrow) {
    const auto h = make_block_hamiltonian(1);
    EXPECT_THROW(grape_optimize(h, Matrix::identity(4), 8, {}), std::invalid_argument);
    EXPECT_THROW(grape_optimize(h, Matrix::identity(2), 0, {}), std::invalid_argument);
}

TEST(LatencySearch, SxShorterThanX) {
    const auto h = make_block_hamiltonian(1);
    LatencySearchOptions opt;
    const auto rx = find_minimal_latency_pulse(h, epoc::circuit::pauli_x(), opt);
    const auto rsx =
        find_minimal_latency_pulse(h, epoc::circuit::kind_matrix(GateKind::SX, {}), opt);
    EXPECT_TRUE(rx.feasible);
    EXPECT_TRUE(rsx.feasible);
    EXPECT_LT(rsx.pulse.duration(), rx.pulse.duration());
}

TEST(LatencySearch, GroupedBlockBeatsSequentialGates) {
    // The paper's central physical claim (Fig. 7/8): one pulse for a block is
    // shorter than the concatenation of its per-gate pulses.
    const auto h2 = make_block_hamiltonian(2);
    const auto h1 = make_block_hamiltonian(1);
    LatencySearchOptions opt;

    Circuit block(2);
    block.h(0).cx(0, 1);
    const auto grouped =
        find_minimal_latency_pulse(h2, epoc::circuit::circuit_unitary(block), opt);
    const auto h_only = find_minimal_latency_pulse(h1, epoc::circuit::hadamard(), opt);
    const auto cx_only = find_minimal_latency_pulse(
        h2, epoc::circuit::kind_matrix(GateKind::CX, {}), opt);
    EXPECT_TRUE(grouped.feasible);
    EXPECT_LT(grouped.pulse.duration(),
              h_only.pulse.duration() + cx_only.pulse.duration());
}

TEST(LatencySearch, GranularityRoundsUp) {
    const auto h = make_block_hamiltonian(1);
    LatencySearchOptions opt;
    opt.slot_granularity = 4;
    const auto r = find_minimal_latency_pulse(h, epoc::circuit::pauli_x(), opt);
    EXPECT_TRUE(r.feasible);
    EXPECT_EQ(r.pulse.num_slots() % 4, 0);
}

TEST(LatencySearch, InfeasibleReported) {
    const auto h = make_block_hamiltonian(1);
    LatencySearchOptions opt;
    opt.max_slots = 1; // nothing nontrivial fits in 2ns
    const auto r = find_minimal_latency_pulse(h, epoc::circuit::pauli_x(), opt);
    EXPECT_FALSE(r.feasible);
}

TEST(PulseLibrary, CachesByUnitary) {
    const auto h = make_block_hamiltonian(1);
    PulseLibrary lib(true);
    LatencySearchOptions opt;
    const auto r1 = lib.get_or_generate(h, epoc::circuit::hadamard(), opt);
    const double d1 = r1->pulse.duration();
    const auto r2 = lib.get_or_generate(h, epoc::circuit::hadamard(), opt);
    EXPECT_EQ(lib.stats().hits, 1u);
    EXPECT_EQ(lib.stats().misses, 1u);
    EXPECT_EQ(r2->pulse.duration(), d1);
}

TEST(PulseLibrary, PhaseAwareHitsPhaseShiftedUnitary) {
    const auto h = make_block_hamiltonian(1);
    PulseLibrary lib(true);
    LatencySearchOptions opt;
    const Matrix u = epoc::circuit::hadamard();
    lib.get_or_generate(h, u, opt);
    Matrix shifted = u;
    shifted *= std::polar(1.0, 1.234);
    lib.get_or_generate(h, shifted, opt);
    EXPECT_EQ(lib.stats().hits, 1u);
}

TEST(PulseLibrary, PhaseObliviousMisses) {
    const auto h = make_block_hamiltonian(1);
    PulseLibrary lib(false); // AccQOC/PAQOC-style raw lookup
    LatencySearchOptions opt;
    const Matrix u = epoc::circuit::hadamard();
    lib.get_or_generate(h, u, opt);
    Matrix shifted = u;
    shifted *= std::polar(1.0, 1.234);
    lib.get_or_generate(h, shifted, opt);
    EXPECT_EQ(lib.stats().hits, 0u);
    EXPECT_EQ(lib.size(), 2u);
}

TEST(PulseLibrary, PeekDoesNotGenerate) {
    PulseLibrary lib(true);
    const auto h = make_block_hamiltonian(1);
    EXPECT_EQ(lib.peek(h, epoc::circuit::hadamard(), LatencySearchOptions{}), nullptr);
    EXPECT_EQ(lib.size(), 0u);
}

// Regression for the cache-key collision: the library used to key on the
// unitary alone, so a coarse-granularity request silently received the
// fine-granularity pulse generated earlier for the same unitary, and the
// wide-block slot coarsening never applied on hits.
TEST(PulseLibrary, GranularityKeyedSeparately) {
    const auto h = make_block_hamiltonian(1);
    PulseLibrary lib(true);
    LatencySearchOptions fine;
    LatencySearchOptions coarse;
    coarse.slot_granularity = 4;

    // Fine-granularity arm runs first, exactly like the pipeline.
    const auto rf = lib.get_or_generate(h, epoc::circuit::pauli_x(), fine);
    const auto rc = lib.get_or_generate(h, epoc::circuit::pauli_x(), coarse);
    EXPECT_EQ(lib.stats().misses, 2u) << "coarse request must not hit the fine entry";
    EXPECT_EQ(lib.stats().hits, 0u);
    EXPECT_EQ(rc->pulse.num_slots() % 4, 0)
        << "coarse arm's pulse must reflect the coarsened slot search";
    EXPECT_GE(rc->pulse.num_slots(), rf->pulse.num_slots());

    // Same options again: a hit, and the exact shared entry.
    const auto again = lib.get_or_generate(h, epoc::circuit::pauli_x(), coarse);
    EXPECT_EQ(again, rc);
    EXPECT_EQ(lib.stats().hits, 1u);
}

TEST(PulseLibrary, SearchOptionsKeyedSeparately) {
    const auto h = make_block_hamiltonian(1);
    PulseLibrary lib(true);
    LatencySearchOptions a;
    a.fidelity_threshold = 0.99;
    LatencySearchOptions b = a;
    b.fidelity_threshold = 0.9999;
    lib.get_or_generate(h, epoc::circuit::hadamard(), a);
    lib.get_or_generate(h, epoc::circuit::hadamard(), b);
    LatencySearchOptions c = a;
    c.max_slots = 64;
    lib.get_or_generate(h, epoc::circuit::hadamard(), c);
    EXPECT_EQ(lib.stats().misses, 3u);
    EXPECT_EQ(lib.stats().hits, 0u);
}

TEST(PulseLibrary, NearEqualDoublesKeyedSeparately) {
    // Regression for the precision(12) keying bug: two learning rates one ulp
    // apart rendered to the same 12-significant-digit string and collided
    // into one cache entry. Keys now encode doubles by exact bit pattern
    // (qoc/pulse_io.h), so any representable difference splits the entries —
    // which also keeps the on-disk store's content addresses exact.
    const auto h = make_block_hamiltonian(1);
    PulseLibrary lib(true);
    LatencySearchOptions a;
    a.grape.learning_rate = 0.003;
    LatencySearchOptions b = a;
    b.grape.learning_rate =
        std::nextafter(a.grape.learning_rate, 1.0); // differs past 12 digits
    ASSERT_NE(a.grape.learning_rate, b.grape.learning_rate);
    lib.get_or_generate(h, epoc::circuit::pauli_x(), a);
    lib.get_or_generate(h, epoc::circuit::pauli_x(), b);
    EXPECT_EQ(lib.stats().misses, 2u)
        << "near-equal learning rates must key distinct entries";
    EXPECT_EQ(lib.stats().hits, 0u);

    // And exact re-lookup under each still hits its own entry.
    lib.get_or_generate(h, epoc::circuit::pauli_x(), a);
    lib.get_or_generate(h, epoc::circuit::pauli_x(), b);
    EXPECT_EQ(lib.stats().hits, 2u);
}

TEST(PulseLibrary, DeviceKeyedSeparately) {
    // Same unitary, different device model: the pulses are physically
    // incompatible and must never be traded through the cache.
    DeviceParams slow;
    slow.drive_bound = 0.08;
    const auto h_default = make_block_hamiltonian(1);
    const auto h_slow = make_block_hamiltonian(1, slow);
    PulseLibrary lib(true);
    LatencySearchOptions opt;
    lib.get_or_generate(h_default, epoc::circuit::pauli_x(), opt);
    lib.get_or_generate(h_slow, epoc::circuit::pauli_x(), opt);
    EXPECT_EQ(lib.stats().misses, 2u);
    EXPECT_EQ(lib.stats().hits, 0u);
}

TEST(PulseLibrary, WarmStartDoesNotSplitKeys) {
    // AccQOC's MST construction generates under warm-started options and
    // looks the entry up later under the plain options: same key.
    const auto h = make_block_hamiltonian(1);
    PulseLibrary lib(true);
    LatencySearchOptions plain;
    const auto parent = lib.get_or_generate(h, epoc::circuit::pauli_x(), plain);
    LatencySearchOptions warm = plain;
    warm.grape.warm_amplitudes = parent->pulse.amplitudes;
    lib.get_or_generate(h, epoc::circuit::hadamard(), warm);
    EXPECT_EQ(lib.peek(h, epoc::circuit::hadamard(), plain) != nullptr, true);
    const auto hit = lib.get_or_generate(h, epoc::circuit::hadamard(), plain);
    EXPECT_EQ(lib.stats().hits, 1u);
    EXPECT_EQ(lib.stats().misses, 2u);
    EXPECT_GT(hit->pulse.num_slots(), 0);
}

TEST(LatencySearch, CapNeverExceedsMaxSlots) {
    // round_up(max_slots) used to probe up to granularity-1 slots past the
    // configured budget; the cap is now the largest multiple of the
    // granularity <= max_slots.
    const auto h = make_block_hamiltonian(1);
    LatencySearchOptions opt;
    opt.slot_granularity = 4;
    opt.max_slots = 10; // cap must be 8, never 12
    opt.fidelity_threshold = 0.999999; // unreachable: forces the full doubling
    opt.grape.max_iterations = 5;
    const auto r = find_minimal_latency_pulse(h, epoc::circuit::pauli_x(), opt);
    EXPECT_FALSE(r.feasible);
    EXPECT_LE(r.pulse.num_slots(), 10);
    EXPECT_EQ(r.pulse.num_slots(), 8) << "bracket must stop at the clamped cap";
}

TEST(LatencySearch, FeasibleUnderClampedCap) {
    const auto h = make_block_hamiltonian(1);
    LatencySearchOptions opt;
    opt.slot_granularity = 4;
    opt.max_slots = 21; // effective cap 20: never probe 24 (the old round-up)
    const auto r = find_minimal_latency_pulse(h, epoc::circuit::pauli_x(), opt);
    EXPECT_TRUE(r.feasible);
    EXPECT_EQ(r.pulse.num_slots() % 4, 0);
    EXPECT_LE(r.pulse.num_slots(), 21);
}

TEST(LatencySearch, GranularityAboveMaxSlotsProbesOneUnit) {
    // No multiple of the granularity fits under max_slots: the documented
    // fallback probes exactly one granularity unit.
    const auto h = make_block_hamiltonian(1);
    LatencySearchOptions opt;
    opt.slot_granularity = 8;
    opt.max_slots = 5;
    const auto r = find_minimal_latency_pulse(h, epoc::circuit::pauli_x(), opt);
    EXPECT_EQ(r.pulse.num_slots(), 8);
    EXPECT_EQ(r.grape_runs, 1);
}

TEST(Grape, NoControlsIsSafe) {
    // nc == 0 plus an empty warm_amplitudes used to read .front() of an empty
    // vector (UB). The optimizer must degrade gracefully: nothing to drive.
    BlockHamiltonian h;
    h.num_qubits = 1;
    h.drift = Matrix::identity(2);
    h.dt = 2.0;
    GrapeOptions opt;
    opt.max_iterations = 3;
    const Pulse p = grape_optimize(h, Matrix::identity(2), 4, opt);
    EXPECT_EQ(p.num_slots(), 0); // no control lines -> no amplitude rows
    EXPECT_FALSE(p.warm_start_applied);
    EXPECT_FALSE(p.warm_start_mismatch);
}

TEST(Grape, WarmStartShapeMismatchSurfaced) {
    const auto h = make_block_hamiltonian(1); // 2 control lines
    GrapeOptions opt;
    opt.max_iterations = 10;
    opt.warm_amplitudes = {{0.1, 0.1}}; // 1 row: wrong control count
    const Pulse p = grape_optimize(h, epoc::circuit::pauli_x(), 8, opt);
    EXPECT_FALSE(p.warm_start_applied);
    EXPECT_TRUE(p.warm_start_mismatch) << "mismatch must be reported, not dropped";

    GrapeOptions good = opt;
    good.warm_amplitudes = {{0.1, 0.1}, {0.1, 0.1}};
    const Pulse q = grape_optimize(h, epoc::circuit::pauli_x(), 8, good);
    EXPECT_TRUE(q.warm_start_applied);
    EXPECT_FALSE(q.warm_start_mismatch);
}

// ---------------------------------------------------------------------------
// Fidelity/amplitude consistency: whatever path a search exits through
// (feasible, infeasible, timed out, nonfinite-aborted), the recorded fidelity
// must be the fidelity OF THE RETURNED AMPLITUDES — re-simulating the pulse
// must reproduce it to float noise. The verify layer's schedule audit flags
// any pulse violating this as corrupt, so a drifting pair here would turn
// every degraded compile into a (false) verification failure.

struct LocalFaultGuard {
    explicit LocalFaultGuard(const std::string& spec) {
        epoc::util::fault::configure(spec);
    }
    ~LocalFaultGuard() { epoc::util::fault::clear(); }
};

double resim_error(const BlockHamiltonian& h, const Matrix& target, const Pulse& p) {
    double f = epoc::linalg::hs_fidelity(target, pulse_unitary(h, p));
    if (!std::isfinite(f)) f = 0.0;
    return std::abs(p.fidelity - f);
}

TEST(LatencySearch, FeasibleFidelityMatchesReturnedAmplitudes) {
    const auto h = make_block_hamiltonian(1);
    LatencySearchOptions opt;
    opt.fidelity_threshold = 0.99;
    const auto r = find_minimal_latency_pulse(h, epoc::circuit::pauli_x(), opt);
    ASSERT_TRUE(r.feasible);
    EXPECT_LT(resim_error(h, epoc::circuit::pauli_x(), r.pulse), 1e-9);
}

TEST(LatencySearch, InfeasibleFidelityMatchesReturnedAmplitudes) {
    // The infeasible exit ships the best bracket probe; its recorded fidelity
    // must still belong to the shipped amplitudes, not to some probe the
    // search later overwrote.
    const auto h = make_block_hamiltonian(2);
    LatencySearchOptions opt;
    opt.max_slots = 1; // even a CX cannot land in one slot
    opt.fidelity_threshold = 0.999;
    opt.grape.max_iterations = 40;
    Circuit cx(2);
    cx.cx(0, 1);
    const Matrix target = epoc::circuit::circuit_unitary(cx);
    const auto r = find_minimal_latency_pulse(h, target, opt);
    ASSERT_FALSE(r.feasible);
    EXPECT_LT(resim_error(h, target, r.pulse), 1e-9);
}

TEST(LatencySearch, TimedOutFidelityMatchesReturnedAmplitudes) {
    // A pre-expired deadline forces the earliest best-effort exit.
    const auto h = make_block_hamiltonian(1);
    const auto deadline = epoc::util::Deadline::after_ms(0.0);
    ASSERT_TRUE(deadline.expired());
    LatencySearchOptions opt;
    opt.fidelity_threshold = 0.99;
    opt.deadline = &deadline;
    const auto r = find_minimal_latency_pulse(h, epoc::circuit::pauli_x(), opt);
    EXPECT_TRUE(r.timed_out);
    EXPECT_FALSE(r.authoritative());
    EXPECT_LT(resim_error(h, epoc::circuit::pauli_x(), r.pulse), 1e-9);
}

TEST(LatencySearch, NonfiniteAbortFidelityMatchesReturnedAmplitudes) {
    // grape.nonfinite=* aborts every GRAPE run after re-randomizing: the
    // regression this pins is the abort path returning re-randomized
    // amplitudes with the fidelity of the pre-abort iterate.
    const auto h = make_block_hamiltonian(1);
    const LocalFaultGuard g("grape.nonfinite=*");
    LatencySearchOptions opt;
    opt.fidelity_threshold = 0.99;
    opt.grape.max_iterations = 30;
    const auto r = find_minimal_latency_pulse(h, epoc::circuit::pauli_x(), opt);
    EXPECT_TRUE(r.pulse.nonfinite_aborted);
    EXPECT_FALSE(r.authoritative());
    EXPECT_LT(resim_error(h, epoc::circuit::pauli_x(), r.pulse), 1e-9);
}

TEST(Decoherence, FactorDecaysWithDuration) {
    EXPECT_NEAR(coherence_factor(0.0), 1.0, 1e-12);
    EXPECT_LT(coherence_factor(1000.0), 1.0);
    EXPECT_LT(coherence_factor(2000.0), coherence_factor(1000.0));
}

TEST(Decoherence, InvalidTimesThrow) {
    DecoherenceParams p;
    p.t1_ns = 0.0;
    EXPECT_THROW(coherence_factor(10.0, p), std::invalid_argument);
}

TEST(Decoherence, EspPenalizesLatency) {
    epoc::core::PulseSchedule s;
    s.num_qubits = 2;
    s.esp = 0.99;
    s.latency = 500.0;
    const double with = esp_with_decoherence(s);
    EXPECT_LT(with, s.esp);
    epoc::core::PulseSchedule longer = s;
    longer.latency = 5000.0;
    EXPECT_LT(esp_with_decoherence(longer), with);
}

} // namespace
