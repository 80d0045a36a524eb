#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <stdexcept>

namespace epoc::linalg {

Matrix::Matrix(std::initializer_list<std::initializer_list<cplx>> rows) {
    rows_ = rows.size();
    cols_ = rows_ == 0 ? 0 : rows.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto& row : rows) {
        if (row.size() != cols_)
            throw std::invalid_argument("Matrix: ragged initializer list");
        data_.insert(data_.end(), row.begin(), row.end());
    }
}

Matrix Matrix::identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = cplx{1.0, 0.0};
    return m;
}

Matrix Matrix::zeros(std::size_t rows, std::size_t cols) { return Matrix(rows, cols); }

Matrix& Matrix::operator+=(const Matrix& rhs) {
    if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
        throw std::invalid_argument("Matrix +=: shape mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
    return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
    if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
        throw std::invalid_argument("Matrix -=: shape mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
    return *this;
}

Matrix& Matrix::operator*=(cplx s) {
    for (auto& x : data_) x *= s;
    return *this;
}

Matrix Matrix::dagger() const {
    Matrix out(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = 0; c < cols_; ++c) out(c, r) = std::conj((*this)(r, c));
    return out;
}

Matrix Matrix::transpose() const {
    Matrix out(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
    return out;
}

cplx Matrix::trace() const {
    if (!is_square()) throw std::invalid_argument("Matrix::trace: not square");
    cplx t{0.0, 0.0};
    for (std::size_t i = 0; i < rows_; ++i) t += (*this)(i, i);
    return t;
}

double Matrix::frobenius_norm() const {
    double s = 0.0;
    for (const auto& x : data_) s += std::norm(x);
    return std::sqrt(s);
}

double Matrix::one_norm() const {
    double best = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) {
        double s = 0.0;
        for (std::size_t r = 0; r < rows_; ++r) s += std::abs((*this)(r, c));
        best = std::max(best, s);
    }
    return best;
}

double Matrix::max_abs_diff(const Matrix& other) const {
    if (rows_ != other.rows_ || cols_ != other.cols_)
        throw std::invalid_argument("Matrix::max_abs_diff: shape mismatch");
    double best = 0.0;
    for (std::size_t i = 0; i < data_.size(); ++i)
        best = std::max(best, std::abs(data_[i] - other.data_[i]));
    return best;
}

bool Matrix::is_unitary(double tol) const {
    if (!is_square()) return false;
    const Matrix prod = (*this) * dagger();
    return prod.max_abs_diff(identity(rows_)) <= tol;
}

bool Matrix::approx_equal(const Matrix& other, double tol) const {
    if (rows_ != other.rows_ || cols_ != other.cols_) return false;
    return max_abs_diff(other) <= tol;
}

Matrix operator+(Matrix lhs, const Matrix& rhs) {
    lhs += rhs;
    return lhs;
}

Matrix operator-(Matrix lhs, const Matrix& rhs) {
    lhs -= rhs;
    return lhs;
}

Matrix operator*(const Matrix& lhs, const Matrix& rhs) {
    if (lhs.cols() != rhs.rows())
        throw std::invalid_argument("Matrix *: inner dimension mismatch");
    Matrix out(lhs.rows(), rhs.cols());
    const std::size_t n = lhs.rows(), k = lhs.cols(), m = rhs.cols();
    // i-k-j loop order keeps the inner loop contiguous for row-major storage.
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t p = 0; p < k; ++p) {
            const cplx a = lhs(i, p);
            if (a == cplx{0.0, 0.0}) continue;
            const cplx* rrow = rhs.data() + p * m;
            cplx* orow = out.data() + i * m;
            for (std::size_t j = 0; j < m; ++j) orow[j] += a * rrow[j];
        }
    }
    return out;
}

Matrix operator*(cplx s, Matrix m) {
    m *= s;
    return m;
}

Matrix operator*(Matrix m, cplx s) {
    m *= s;
    return m;
}

std::vector<cplx> operator*(const Matrix& m, const std::vector<cplx>& v) {
    if (m.cols() != v.size())
        throw std::invalid_argument("Matrix * vector: dimension mismatch");
    std::vector<cplx> out(m.rows(), cplx{0.0, 0.0});
    for (std::size_t r = 0; r < m.rows(); ++r) {
        cplx acc{0.0, 0.0};
        const cplx* row = m.data() + r * m.cols();
        for (std::size_t c = 0; c < m.cols(); ++c) acc += row[c] * v[c];
        out[r] = acc;
    }
    return out;
}

Matrix kron(const Matrix& a, const Matrix& b) {
    Matrix out(a.rows() * b.rows(), a.cols() * b.cols());
    for (std::size_t ar = 0; ar < a.rows(); ++ar)
        for (std::size_t ac = 0; ac < a.cols(); ++ac) {
            const cplx v = a(ar, ac);
            if (v == cplx{0.0, 0.0}) continue;
            for (std::size_t br = 0; br < b.rows(); ++br)
                for (std::size_t bc = 0; bc < b.cols(); ++bc)
                    out(ar * b.rows() + br, ac * b.cols() + bc) = v * b(br, bc);
        }
    return out;
}

Matrix kron_all(const std::vector<Matrix>& ms) {
    if (ms.empty()) return Matrix::identity(1);
    Matrix out = ms.front();
    for (std::size_t i = 1; i < ms.size(); ++i) out = kron(out, ms[i]);
    return out;
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
    for (std::size_t r = 0; r < m.rows(); ++r) {
        os << (r == 0 ? "[[" : " [");
        for (std::size_t c = 0; c < m.cols(); ++c) {
            const cplx v = m(r, c);
            os << v.real() << (v.imag() < 0 ? "-" : "+") << std::abs(v.imag()) << "i";
            if (c + 1 < m.cols()) os << ", ";
        }
        os << (r + 1 == m.rows() ? "]]" : "]\n");
    }
    return os;
}

} // namespace epoc::linalg
