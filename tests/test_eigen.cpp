#include "linalg/eigen.h"

#include "circuit/gate.h"
#include "linalg/random_unitary.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

namespace {

using namespace epoc::linalg;

Matrix random_real_symmetric(std::size_t n, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::normal_distribution<double> g(0.0, 1.0);
    Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = r; c < n; ++c) {
            a(r, c) = cplx{g(rng), 0.0};
            a(c, r) = a(r, c);
        }
    return a;
}

TEST(Jacobi, DiagonalMatrixIsFixedPoint) {
    Matrix d(3, 3);
    d(0, 0) = cplx{3, 0};
    d(1, 1) = cplx{-1, 0};
    d(2, 2) = cplx{2, 0};
    const SymmetricEigen e = jacobi_symmetric(d);
    EXPECT_NEAR(e.values[0], -1.0, 1e-12);
    EXPECT_NEAR(e.values[1], 2.0, 1e-12);
    EXPECT_NEAR(e.values[2], 3.0, 1e-12);
}

TEST(Jacobi, ReconstructsRandomSymmetric) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const Matrix a = random_real_symmetric(5, seed);
        const SymmetricEigen e = jacobi_symmetric(a);
        Matrix d(5, 5);
        for (std::size_t j = 0; j < 5; ++j) d(j, j) = cplx{e.values[j], 0.0};
        EXPECT_LT((e.vectors * d * e.vectors.transpose()).max_abs_diff(a), 1e-9);
        EXPECT_TRUE(e.vectors.is_unitary(1e-9));
    }
}

TEST(Jacobi, EigenvaluesAscending) {
    const SymmetricEigen e = jacobi_symmetric(random_real_symmetric(6, 9));
    for (std::size_t j = 1; j < e.values.size(); ++j)
        EXPECT_LE(e.values[j - 1], e.values[j] + 1e-12);
}

TEST(Jacobi, RejectsNonSymmetric) {
    Matrix a(2, 2);
    a(0, 1) = cplx{1, 0};
    EXPECT_THROW(jacobi_symmetric(a), std::invalid_argument);
    Matrix b(2, 2);
    b(0, 0) = cplx{0, 1};
    EXPECT_THROW(jacobi_symmetric(b), std::invalid_argument);
}

TEST(KronFactor, ExactProductRecovered) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const Matrix a = random_unitary(2, seed);
        const Matrix b = random_unitary(2, seed + 100);
        const auto f = kron_factor_2x2(kron(a, b));
        ASSERT_TRUE(f.has_value()) << seed;
        EXPECT_LT(kron(f->first, f->second).max_abs_diff(kron(a, b)), 1e-9);
    }
}

TEST(KronFactor, EntangledOperatorRejected) {
    const Matrix cx = epoc::circuit::kind_matrix(epoc::circuit::GateKind::CX, {});
    EXPECT_FALSE(kron_factor_2x2(cx).has_value());
}

TEST(KronFactor, NonExactModeReturnsClosest) {
    const Matrix cx = epoc::circuit::kind_matrix(epoc::circuit::GateKind::CX, {});
    const auto f = kron_factor_2x2(cx, /*require_exact=*/false);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->first.rows(), 2u);
}

TEST(KronFactor, WrongShapeThrows) {
    EXPECT_THROW(kron_factor_2x2(Matrix::identity(2)), std::invalid_argument);
}

} // namespace
