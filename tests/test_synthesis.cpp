#include "synthesis/instantiate.h"
#include "synthesis/qsearch.h"

#include "circuit/unitary.h"
#include "linalg/phase.h"
#include "linalg/random_unitary.h"

#include <gtest/gtest.h>

namespace {

using namespace epoc::synthesis;
using epoc::circuit::Circuit;
using epoc::circuit::circuit_unitary;
using epoc::circuit::GateKind;
using epoc::linalg::equal_up_to_global_phase;
using epoc::linalg::random_unitary;

TEST(SynthStructure, SeedHasOneVugPerQubit) {
    const SynthStructure s = SynthStructure::seed(3);
    EXPECT_EQ(s.ops.size(), 3u);
    EXPECT_EQ(s.num_params(), 9);
    EXPECT_EQ(s.cnot_count(), 0);
}

TEST(SynthStructure, ExpandAddsCnotAndTwoVugs) {
    const SynthStructure s = SynthStructure::seed(2).expanded(0, 1);
    EXPECT_EQ(s.cnot_count(), 1);
    EXPECT_EQ(s.num_params(), 12);
}

TEST(SynthStructure, UnitaryMatchesCircuitLowering) {
    const SynthStructure s = SynthStructure::seed(2).expanded(0, 1).expanded(1, 0);
    std::vector<double> params(static_cast<std::size_t>(s.num_params()));
    for (std::size_t i = 0; i < params.size(); ++i) params[i] = 0.1 * (double)(i + 1);
    const auto direct = structure_unitary(s, params);
    const auto via_circuit = circuit_unitary(structure_to_circuit(s, params));
    EXPECT_LT(direct.max_abs_diff(via_circuit), 1e-10);
}

TEST(SynthStructure, ParamCountValidated) {
    const SynthStructure s = SynthStructure::seed(2);
    EXPECT_THROW(structure_unitary(s, {0.1}), std::invalid_argument);
}

TEST(U3Derivative, MatchesFiniteDifference) {
    const double th = 0.7, ph = -0.4, la = 1.2, eps = 1e-6;
    for (int which = 0; which < 3; ++which) {
        double t = th, p = ph, l = la;
        double* var = which == 0 ? &t : which == 1 ? &p : &l;
        *var += eps;
        const auto up = epoc::circuit::u3_matrix(t, p, l);
        *var -= 2 * eps;
        const auto um = epoc::circuit::u3_matrix(t, p, l);
        auto fd = up - um;
        fd *= epoc::linalg::cplx{1.0 / (2 * eps), 0.0};
        EXPECT_LT(fd.max_abs_diff(u3_derivative(th, ph, la, which)), 1e-8) << which;
    }
}

TEST(Instantiate, ExactSingleQubit) {
    const auto u = random_unitary(2, std::uint64_t{42});
    const SynthStructure s = SynthStructure::seed(1);
    const auto fit = instantiate(s, u);
    EXPECT_TRUE(fit.converged);
    EXPECT_LT(fit.distance, 1e-7);
}

TEST(Instantiate, GradientDescendsOnTwoQubit) {
    const auto u = random_unitary(4, std::uint64_t{43});
    const SynthStructure s =
        SynthStructure::seed(2).expanded(0, 1).expanded(1, 0).expanded(0, 1);
    const auto fit = instantiate(s, u);
    // 3 CNOTs suffice for any 2-qubit unitary.
    EXPECT_LT(fit.distance, 1e-5);
}

TEST(QSearch, CzNeedsOneCnot) {
    const auto r =
        qsearch_synthesize(epoc::circuit::kind_matrix(GateKind::CZ, {}));
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.cnot_count, 1);
}

TEST(QSearch, SwapNeedsThreeCnots) {
    const auto r =
        qsearch_synthesize(epoc::circuit::kind_matrix(GateKind::SWAP, {}));
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.cnot_count, 3);
}

TEST(QSearch, RandomTwoQubitWithinThreeCnots) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const auto u = random_unitary(4, seed);
        const auto r = qsearch_synthesize(u);
        EXPECT_TRUE(r.converged) << seed;
        EXPECT_LE(r.cnot_count, 3) << seed;
        EXPECT_TRUE(equal_up_to_global_phase(circuit_unitary(r.circuit), u, 1e-4));
    }
}

TEST(QSearch, OutputUsesOnlyU3AndCx) {
    const auto u = random_unitary(4, std::uint64_t{77});
    const auto r = qsearch_synthesize(u);
    for (const auto& g : r.circuit.gates())
        EXPECT_TRUE(g.kind == GateKind::U3 || g.kind == GateKind::CX);
}

TEST(QSearch, StructuredThreeQubitBlock) {
    Circuit c(3);
    c.h(0).cx(0, 1).cx(1, 2);
    const auto u = circuit_unitary(c);
    const auto r = qsearch_synthesize(u);
    EXPECT_TRUE(r.converged);
    EXPECT_LE(r.cnot_count, 2); // synthesis must not exceed the original
    EXPECT_TRUE(equal_up_to_global_phase(circuit_unitary(r.circuit), u, 1e-4));
}

TEST(QSearch, RejectsBadDimensions) {
    EXPECT_THROW(qsearch_synthesize(Matrix(3, 3)), std::invalid_argument);
    EXPECT_THROW(qsearch_synthesize(Matrix(2, 4)), std::invalid_argument);
}

} // namespace
