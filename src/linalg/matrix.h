// Dense complex matrix type used throughout EPOC.
//
// Unitaries in this codebase are small (dimension <= 2^8); a straightforward
// row-major dense representation with O(n^3) multiply is the right tool.
// All quantum-specific helpers (embedding a gate into a register, fidelity
// metrics, ...) live in circuit/ and linalg/phase.h; this header is plain
// linear algebra.
#pragma once

#include <cmath>
#include <complex>
#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <vector>

namespace epoc::linalg {

using cplx = std::complex<double>;

/// r * e^{ia} for a magnitude of either sign: the product std::polar
/// computes, without its r >= 0 precondition. U3's sin(theta/2) and
/// cos(theta/2) magnitudes go negative, where std::polar is undefined (and
/// aborts under _GLIBCXX_ASSERTIONS).
inline cplx scaled_phase(double r, double a) { return {r * std::cos(a), r * std::sin(a)}; }

/// Dense row-major complex matrix.
class Matrix {
public:
    Matrix() = default;

    /// Zero-initialized rows x cols matrix.
    Matrix(std::size_t rows, std::size_t cols)
        : rows_(rows), cols_(cols), data_(rows * cols, cplx{0.0, 0.0}) {}

    /// Construct from nested initializer lists; all rows must be equal length.
    Matrix(std::initializer_list<std::initializer_list<cplx>> rows);

    /// n x n identity.
    static Matrix identity(std::size_t n);
    /// rows x cols all-zero matrix.
    static Matrix zeros(std::size_t rows, std::size_t cols);

    std::size_t rows() const noexcept { return rows_; }
    std::size_t cols() const noexcept { return cols_; }
    bool empty() const noexcept { return data_.empty(); }
    bool is_square() const noexcept { return rows_ == cols_; }

    cplx& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
    const cplx& operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

    /// Raw storage, row-major. Useful for tight inner loops.
    cplx* data() noexcept { return data_.data(); }
    const cplx* data() const noexcept { return data_.data(); }

    Matrix& operator+=(const Matrix& rhs);
    Matrix& operator-=(const Matrix& rhs);
    Matrix& operator*=(cplx s);

    /// Conjugate transpose.
    Matrix dagger() const;
    Matrix transpose() const;

    cplx trace() const;
    double frobenius_norm() const;
    /// Maximum column sum of absolute values (induced 1-norm).
    double one_norm() const;
    /// max_ij |a_ij - b_ij|; matrices must be the same shape.
    double max_abs_diff(const Matrix& other) const;

    /// True if this is square and U * U^dagger == I within `tol` (max abs entry).
    bool is_unitary(double tol = 1e-9) const;
    bool approx_equal(const Matrix& other, double tol = 1e-9) const;

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<cplx> data_;
};

/// tr(A^dagger B) for same-shape matrices, summed in storage order. Inline
/// because GRAPE's gradient and synthesis instantiation call it in their
/// inner loops.
inline cplx overlap(const Matrix& a, const Matrix& b) {
    cplx w{0.0, 0.0};
    const std::size_t n = a.rows() * a.cols();
    const cplx* pa = a.data();
    const cplx* pb = b.data();
    for (std::size_t i = 0; i < n; ++i) w += std::conj(pa[i]) * pb[i];
    return w;
}

Matrix operator+(Matrix lhs, const Matrix& rhs);
Matrix operator-(Matrix lhs, const Matrix& rhs);
Matrix operator*(const Matrix& lhs, const Matrix& rhs);
Matrix operator*(cplx s, Matrix m);
Matrix operator*(Matrix m, cplx s);

/// Matrix-vector product; v.size() must equal m.cols().
std::vector<cplx> operator*(const Matrix& m, const std::vector<cplx>& v);

/// Kronecker (tensor) product, a (x) b.
Matrix kron(const Matrix& a, const Matrix& b);

/// Kronecker product of a list, left to right: ms[0] (x) ms[1] (x) ...
Matrix kron_all(const std::vector<Matrix>& ms);

std::ostream& operator<<(std::ostream& os, const Matrix& m);

} // namespace epoc::linalg
