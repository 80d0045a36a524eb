#include "linalg/eigen.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace epoc::linalg {

SymmetricEigen jacobi_symmetric(const Matrix& a, double tol) {
    if (!a.is_square()) throw std::invalid_argument("jacobi_symmetric: not square");
    const std::size_t n = a.rows();
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c) {
            if (std::abs(a(r, c).imag()) > 1e-10)
                throw std::invalid_argument("jacobi_symmetric: matrix not real");
            if (std::abs(a(r, c).real() - a(c, r).real()) > 1e-9)
                throw std::invalid_argument("jacobi_symmetric: matrix not symmetric");
        }

    std::vector<std::vector<double>> m(n, std::vector<double>(n));
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c) m[r][c] = a(r, c).real();
    std::vector<std::vector<double>> v(n, std::vector<double>(n, 0.0));
    for (std::size_t i = 0; i < n; ++i) v[i][i] = 1.0;

    for (int sweep = 0; sweep < 100; ++sweep) {
        double off = 0.0;
        for (std::size_t p = 0; p < n; ++p)
            for (std::size_t q = p + 1; q < n; ++q) off += m[p][q] * m[p][q];
        if (off < tol * tol) break;
        for (std::size_t p = 0; p < n; ++p) {
            for (std::size_t q = p + 1; q < n; ++q) {
                if (std::abs(m[p][q]) < tol * 1e-3) continue;
                const double theta = (m[q][q] - m[p][p]) / (2.0 * m[p][q]);
                const double t = (theta >= 0 ? 1.0 : -1.0) /
                                 (std::abs(theta) + std::sqrt(theta * theta + 1.0));
                const double c = 1.0 / std::sqrt(t * t + 1.0);
                const double s = t * c;
                for (std::size_t k = 0; k < n; ++k) {
                    const double mkp = m[k][p], mkq = m[k][q];
                    m[k][p] = c * mkp - s * mkq;
                    m[k][q] = s * mkp + c * mkq;
                }
                for (std::size_t k = 0; k < n; ++k) {
                    const double mpk = m[p][k], mqk = m[q][k];
                    m[p][k] = c * mpk - s * mqk;
                    m[q][k] = s * mpk + c * mqk;
                }
                for (std::size_t k = 0; k < n; ++k) {
                    const double vkp = v[k][p], vkq = v[k][q];
                    v[k][p] = c * vkp - s * vkq;
                    v[k][q] = s * vkp + c * vkq;
                }
            }
        }
    }

    // Sort ascending by eigenvalue.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t x, std::size_t y) { return m[x][x] < m[y][y]; });

    SymmetricEigen out;
    out.values.resize(n);
    out.vectors = Matrix(n, n);
    for (std::size_t j = 0; j < n; ++j) {
        out.values[j] = m[order[j]][order[j]];
        for (std::size_t i = 0; i < n; ++i)
            out.vectors(i, j) = cplx{v[i][order[j]], 0.0};
    }
    return out;
}

std::optional<std::pair<Matrix, Matrix>> kron_factor_2x2(const Matrix& u,
                                                         bool require_exact,
                                                         double tol) {
    if (u.rows() != 4 || u.cols() != 4)
        throw std::invalid_argument("kron_factor_2x2: expected a 4x4 matrix");
    // In this codebase kron(a, b) places a's indices on the high bits:
    // u[2*ra+rb][2*ca+cb] = a(ra,ca) * b(rb,cb). Find the dominant block to
    // fix b up to scale, then read a off block magnitudes.
    double best = -1.0;
    std::size_t bra = 0, bca = 0;
    for (std::size_t ra = 0; ra < 2; ++ra)
        for (std::size_t ca = 0; ca < 2; ++ca) {
            double s = 0.0;
            for (std::size_t rb = 0; rb < 2; ++rb)
                for (std::size_t cb = 0; cb < 2; ++cb)
                    s += std::norm(u(2 * ra + rb, 2 * ca + cb));
            if (s > best) {
                best = s;
                bra = ra;
                bca = ca;
            }
        }
    if (best <= 0.0) return std::nullopt;

    Matrix b(2, 2);
    for (std::size_t rb = 0; rb < 2; ++rb)
        for (std::size_t cb = 0; cb < 2; ++cb) b(rb, cb) = u(2 * bra + rb, 2 * bca + cb);
    const double bnorm = b.frobenius_norm();
    b *= cplx{1.0 / bnorm, 0.0};

    Matrix a(2, 2);
    for (std::size_t ra = 0; ra < 2; ++ra)
        for (std::size_t ca = 0; ca < 2; ++ca) {
            // a(ra, ca) = <b, block(ra, ca)> for normalized b.
            cplx ov{0.0, 0.0};
            for (std::size_t rb = 0; rb < 2; ++rb)
                for (std::size_t cb = 0; cb < 2; ++cb)
                    ov += std::conj(b(rb, cb)) * u(2 * ra + rb, 2 * ca + cb);
            a(ra, ca) = ov;
        }

    if (require_exact && kron(a, b).max_abs_diff(u) > tol) return std::nullopt;
    return std::make_pair(std::move(a), std::move(b));
}

} // namespace epoc::linalg
