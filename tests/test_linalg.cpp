#include "linalg/expm.h"
#include "linalg/lu.h"
#include "linalg/matrix.h"
#include "linalg/phase.h"
#include "linalg/qr.h"
#include "linalg/random_unitary.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

namespace {

using namespace epoc::linalg;

constexpr double kTol = 1e-9;

TEST(Matrix, IdentityAndBasicOps) {
    const Matrix i3 = Matrix::identity(3);
    EXPECT_EQ(i3.rows(), 3u);
    EXPECT_EQ(i3(0, 0), (cplx{1, 0}));
    EXPECT_EQ(i3(0, 1), (cplx{0, 0}));
    EXPECT_NEAR(std::abs(i3.trace() - cplx{3.0, 0.0}), 0.0, kTol);
    EXPECT_NEAR(i3.frobenius_norm(), std::sqrt(3.0), kTol);
}

TEST(Matrix, InitializerListAndRaggedThrows) {
    const Matrix m{{cplx{1, 0}, cplx{2, 0}}, {cplx{3, 0}, cplx{4, 0}}};
    EXPECT_EQ(m(1, 0), (cplx{3, 0}));
    EXPECT_THROW((Matrix{{cplx{1, 0}}, {cplx{1, 0}, cplx{2, 0}}}), std::invalid_argument);
}

TEST(Matrix, MultiplyMatchesHandComputation) {
    const Matrix a{{cplx{1, 0}, cplx{2, 0}}, {cplx{0, 1}, cplx{0, 0}}};
    const Matrix b{{cplx{0, 0}, cplx{1, 0}}, {cplx{1, 0}, cplx{0, 0}}};
    const Matrix c = a * b;
    EXPECT_NEAR(std::abs(c(0, 0) - cplx{2.0, 0.0}), 0.0, kTol);
    EXPECT_NEAR(std::abs(c(0, 1) - cplx{1.0, 0.0}), 0.0, kTol);
    EXPECT_NEAR(std::abs(c(1, 0) - cplx{0.0, 0.0}), 0.0, kTol);
    EXPECT_NEAR(std::abs(c(1, 1) - cplx{0.0, 1.0}), 0.0, kTol);
}

TEST(Matrix, ShapeMismatchThrows) {
    const Matrix a(2, 3), b(2, 3);
    EXPECT_THROW(a * b, std::invalid_argument);
    Matrix c(2, 2);
    EXPECT_THROW(c += a, std::invalid_argument);
    EXPECT_THROW(a.trace(), std::invalid_argument);
}

TEST(Matrix, DaggerIsConjugateTranspose) {
    const Matrix a{{cplx{1, 2}, cplx{3, 4}}, {cplx{5, 6}, cplx{7, 8}}};
    const Matrix d = a.dagger();
    EXPECT_EQ(d(0, 1), (cplx{5, -6}));
    EXPECT_EQ(d(1, 0), (cplx{3, -4}));
}

TEST(Matrix, KronDimensionsAndValues) {
    const Matrix x{{cplx{0, 0}, cplx{1, 0}}, {cplx{1, 0}, cplx{0, 0}}};
    const Matrix i2 = Matrix::identity(2);
    const Matrix k = kron(i2, x);
    EXPECT_EQ(k.rows(), 4u);
    // kron(I, X) is block-diagonal with X blocks.
    EXPECT_EQ(k(0, 1), (cplx{1, 0}));
    EXPECT_EQ(k(2, 3), (cplx{1, 0}));
    EXPECT_EQ(k(0, 3), (cplx{0, 0}));
}

TEST(Matrix, KronAllOfEmptyIsScalarIdentity) {
    const Matrix k = kron_all({});
    EXPECT_EQ(k.rows(), 1u);
    EXPECT_EQ(k(0, 0), (cplx{1, 0}));
}

TEST(Matrix, MatrixVectorProduct) {
    const Matrix a{{cplx{1, 0}, cplx{2, 0}}, {cplx{3, 0}, cplx{4, 0}}};
    const std::vector<cplx> v{cplx{1, 0}, cplx{1, 0}};
    const auto r = a * v;
    EXPECT_NEAR(std::abs(r[0] - cplx{3.0, 0.0}), 0.0, kTol);
    EXPECT_NEAR(std::abs(r[1] - cplx{7.0, 0.0}), 0.0, kTol);
}

TEST(Lu, SolveRoundTrip) {
    std::mt19937_64 rng(7);
    std::normal_distribution<double> g(0.0, 1.0);
    Matrix a(5, 5);
    for (std::size_t r = 0; r < 5; ++r)
        for (std::size_t c = 0; c < 5; ++c) a(r, c) = cplx{g(rng), g(rng)};
    const Matrix x_true = Matrix::identity(5);
    const Matrix b = a * x_true;
    const Matrix x = solve(a, b);
    EXPECT_LT(x.max_abs_diff(x_true), 1e-8);
}

TEST(Lu, InverseTimesSelfIsIdentity) {
    std::mt19937_64 rng(11);
    const Matrix u = random_unitary(8, rng);
    const Matrix inv = inverse(u);
    EXPECT_LT((inv * u).max_abs_diff(Matrix::identity(8)), 1e-9);
    // For a unitary the inverse is the dagger.
    EXPECT_LT(inv.max_abs_diff(u.dagger()), 1e-9);
}

TEST(Lu, SingularMatrixDetected) {
    Matrix a(2, 2);
    a(0, 0) = a(1, 1) = a(0, 1) = a(1, 0) = cplx{1.0, 0.0};
    const auto f = lu_decompose(a);
    EXPECT_TRUE(f.singular);
    EXPECT_THROW(solve(a, Matrix::identity(2)), std::domain_error);
    EXPECT_NEAR(std::abs(determinant(a)), 0.0, kTol);
}

TEST(Lu, DeterminantOfDiagonal) {
    Matrix a(3, 3);
    a(0, 0) = cplx{2, 0};
    a(1, 1) = cplx{0, 1};
    a(2, 2) = cplx{3, 0};
    EXPECT_NEAR(std::abs(determinant(a) - cplx{0.0, 6.0}), 0.0, 1e-9);
}

TEST(Expm, ZeroMatrixGivesIdentity) {
    const Matrix z(4, 4);
    EXPECT_LT(expm(z).max_abs_diff(Matrix::identity(4)), kTol);
}

TEST(Expm, DiagonalMatrix) {
    Matrix a(2, 2);
    a(0, 0) = cplx{1.0, 0.0};
    a(1, 1) = cplx{0.0, std::numbers::pi};
    const Matrix e = expm(a);
    EXPECT_NEAR(std::abs(e(0, 0) - cplx{std::exp(1.0), 0.0}), 0.0, 1e-10);
    EXPECT_NEAR(std::abs(e(1, 1) - cplx{-1.0, 0.0}), 0.0, 1e-10);
}

TEST(Expm, PauliXRotation) {
    // exp(-i * (theta/2) * X) = RX(theta).
    Matrix x(2, 2);
    x(0, 1) = x(1, 0) = cplx{1, 0};
    const double theta = 0.7;
    const Matrix u = exp_i(x, theta / 2);
    EXPECT_NEAR(std::abs(u(0, 0) - cplx{std::cos(theta / 2), 0.0}), 0.0, 1e-10);
    EXPECT_NEAR(std::abs(u(0, 1) - cplx{0.0, -std::sin(theta / 2)}), 0.0, 1e-10);
}

TEST(Expm, LargeNormTriggersScalingAndStaysAccurate) {
    // exp(-i * a * Z) has closed form even for large a.
    Matrix z(2, 2);
    z(0, 0) = cplx{1, 0};
    z(1, 1) = cplx{-1, 0};
    const double a = 50.0;
    const Matrix u = exp_i(z, a);
    EXPECT_NEAR(std::abs(u(0, 0) - std::polar(1.0, -a)), 0.0, 1e-8);
    EXPECT_NEAR(std::abs(u(1, 1) - std::polar(1.0, a)), 0.0, 1e-8);
}

TEST(Expm, AntiHermitianGivesUnitary) {
    std::mt19937_64 rng(3);
    std::normal_distribution<double> g(0.0, 1.0);
    Matrix h(6, 6);
    for (std::size_t r = 0; r < 6; ++r) {
        h(r, r) = cplx{g(rng), 0.0};
        for (std::size_t c = r + 1; c < 6; ++c) {
            h(r, c) = cplx{g(rng), g(rng)};
            h(c, r) = std::conj(h(r, c));
        }
    }
    EXPECT_TRUE(exp_i(h, 1.3).is_unitary(1e-8));
}

TEST(Expm, MatchesSpectralConstruction) {
    // An independent check on Pade: H = V diag(l) V-dagger from a Haar-random
    // V has exp(-iHt) = V diag(exp(-i l t)) V-dagger exactly.
    std::mt19937_64 rng(17);
    std::uniform_real_distribution<double> spectrum(-2.0, 2.0);
    for (const std::size_t d : {4u, 8u, 16u}) {
        const Matrix v = random_unitary(d, rng);
        Matrix lam(d, d);
        Matrix phase(d, d);
        const double t = 0.7;
        for (std::size_t j = 0; j < d; ++j) {
            const double l = spectrum(rng);
            lam(j, j) = cplx{l, 0.0};
            phase(j, j) = std::polar(1.0, -l * t);
        }
        const Matrix h = v * lam * v.dagger();
        EXPECT_LT(exp_i(h, t).max_abs_diff(v * phase * v.dagger()), 1e-10) << "d=" << d;
    }
}

TEST(Qr, ReconstructsInput) {
    std::mt19937_64 rng(5);
    std::normal_distribution<double> g(0.0, 1.0);
    Matrix a(6, 6);
    for (std::size_t r = 0; r < 6; ++r)
        for (std::size_t c = 0; c < 6; ++c) a(r, c) = cplx{g(rng), g(rng)};
    const auto f = qr_decompose(a);
    EXPECT_TRUE(f.q.is_unitary(1e-9));
    EXPECT_LT((f.q * f.r).max_abs_diff(a), 1e-9);
    // R upper triangular.
    for (std::size_t r = 1; r < 6; ++r)
        for (std::size_t c = 0; c < r; ++c) EXPECT_LT(std::abs(f.r(r, c)), 1e-9);
}

class RandomUnitarySizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RandomUnitarySizes, ProducesUnitary) {
    std::mt19937_64 rng(42 + GetParam());
    const Matrix u = random_unitary(GetParam(), rng);
    EXPECT_TRUE(u.is_unitary(1e-9));
}

INSTANTIATE_TEST_SUITE_P(Sizes, RandomUnitarySizes, ::testing::Values(1, 2, 4, 8, 16));

TEST(RandomUnitary, SpecialUnitaryHasUnitDeterminant) {
    std::mt19937_64 rng(9);
    const Matrix u = random_special_unitary(4, rng);
    EXPECT_TRUE(u.is_unitary(1e-9));
    EXPECT_NEAR(std::abs(determinant(u) - cplx{1.0, 0.0}), 0.0, 1e-8);
}

TEST(RandomUnitary, SeededOverloadIsDeterministic) {
    const Matrix a = random_unitary(4, std::uint64_t{123});
    const Matrix b = random_unitary(4, std::uint64_t{123});
    EXPECT_LT(a.max_abs_diff(b), 0.0 + kTol);
}

TEST(Phase, FidelityOfPhaseShiftedCopiesIsOne) {
    std::mt19937_64 rng(17);
    const Matrix u = random_unitary(4, rng);
    const Matrix v = std::polar(1.0, 1.234) * u;
    EXPECT_NEAR(hs_fidelity(u, v), 1.0, 1e-10);
    EXPECT_NEAR(phase_invariant_distance(u, v), 0.0, 1e-6);
    EXPECT_TRUE(equal_up_to_global_phase(u, v));
}

TEST(Phase, DistinctUnitariesHavePositiveDistance) {
    std::mt19937_64 rng(19);
    const Matrix u = random_unitary(4, rng);
    const Matrix v = random_unitary(4, rng);
    EXPECT_GT(phase_invariant_distance(u, v), 0.1);
    EXPECT_FALSE(equal_up_to_global_phase(u, v));
}

TEST(Phase, CanonicalKeyIdentifiesPhaseClass) {
    std::mt19937_64 rng(23);
    const Matrix u = random_unitary(4, rng);
    const Matrix v = std::polar(1.0, -2.1) * u;
    EXPECT_EQ(phase_canonical_key(u), phase_canonical_key(v));
    EXPECT_NE(raw_key(u), raw_key(v));
}

TEST(Phase, KeysOfDifferentUnitariesDiffer) {
    const Matrix a = random_unitary(4, std::uint64_t{1});
    const Matrix b = random_unitary(4, std::uint64_t{2});
    EXPECT_NE(phase_canonical_key(a), phase_canonical_key(b));
}

TEST(Phase, CanonicalFormHasRealPositiveDominantEntry) {
    const Matrix u = random_unitary(8, std::uint64_t{31});
    const Matrix c = canonicalize_global_phase(u);
    double best = -1.0;
    cplx ref;
    for (std::size_t r = 0; r < 8; ++r)
        for (std::size_t col = 0; col < 8; ++col)
            if (std::abs(c(r, col)) > best + 1e-12) {
                best = std::abs(c(r, col));
                ref = c(r, col);
            }
    EXPECT_NEAR(ref.imag(), 0.0, 1e-9);
    EXPECT_GT(ref.real(), 0.0);
}

} // namespace
