// Cyclic Jacobi for real symmetric matrices, and a closest-Kronecker
// factorization for 4x4 operators (exact on product unitaries): the building
// blocks of two-qubit KAK-style analysis (synthesis/kak.h).
#pragma once

#include "linalg/matrix.h"

#include <optional>
#include <utility>
#include <vector>

namespace epoc::linalg {

struct SymmetricEigen {
    std::vector<double> values;  ///< ascending
    Matrix vectors;              ///< column j is the eigenvector of values[j]
};

/// Cyclic Jacobi on a real symmetric matrix (imaginary parts must be ~0).
/// Throws std::invalid_argument for non-square or non-symmetric input.
SymmetricEigen jacobi_symmetric(const Matrix& a, double tol = 1e-12);

/// Closest Kronecker factorization of a 4x4 matrix: u ~ a (x) b with
/// ||a|| = ||b|| balanced. Returns nullopt if u is (numerically) not a
/// product operator and `require_exact` is set.
std::optional<std::pair<Matrix, Matrix>> kron_factor_2x2(const Matrix& u,
                                                         bool require_exact = true,
                                                         double tol = 1e-8);

} // namespace epoc::linalg
