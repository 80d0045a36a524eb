#include "linalg/phase.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace epoc::linalg {

double hs_fidelity(const Matrix& a, const Matrix& b) {
    if (a.rows() != b.rows() || a.cols() != b.cols())
        throw std::invalid_argument("hs_fidelity: shape mismatch");
    return std::abs(overlap(a, b)) / static_cast<double>(a.rows());
}

double phase_invariant_distance(const Matrix& a, const Matrix& b) {
    return std::sqrt(std::max(0.0, 1.0 - hs_fidelity(a, b)));
}

bool equal_up_to_global_phase(const Matrix& a, const Matrix& b, double tol) {
    if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
    return phase_invariant_distance(a, b) <= tol;
}

bool is_identity_unitary(const Matrix& u) {
    return hs_fidelity(u, Matrix::identity(u.rows())) > 1.0 - 1e-10;
}

Matrix canonicalize_global_phase(const Matrix& m) {
    // Pick the largest-magnitude entry as the phase reference. Ties broken by
    // index order, which is deterministic.
    double best = -1.0;
    cplx ref{1.0, 0.0};
    const std::size_t n = m.rows() * m.cols();
    const cplx* p = m.data();
    for (std::size_t i = 0; i < n; ++i) {
        const double mag = std::abs(p[i]);
        if (mag > best + 1e-12) {
            best = mag;
            ref = p[i];
        }
    }
    if (best <= 0.0) return m;
    const cplx phase = std::conj(ref) / std::abs(ref);
    Matrix out = m;
    out *= phase;
    return out;
}

namespace {

std::string fingerprint(const Matrix& m, int decimals) {
    const double scale = std::pow(10.0, decimals);
    std::string key;
    key.reserve(m.rows() * m.cols() * 24 + 16);
    key += std::to_string(m.rows());
    key += 'x';
    key += std::to_string(m.cols());
    char buf[64];
    const std::size_t n = m.rows() * m.cols();
    const cplx* p = m.data();
    for (std::size_t i = 0; i < n; ++i) {
        // Round and normalize -0 to 0 so the key is stable across signed zeros.
        double re = std::round(p[i].real() * scale) / scale;
        double im = std::round(p[i].imag() * scale) / scale;
        if (re == 0.0) re = 0.0;
        if (im == 0.0) im = 0.0;
        std::snprintf(buf, sizeof(buf), ";%.*f,%.*f", decimals, re, decimals, im);
        key += buf;
    }
    return key;
}

} // namespace

std::string phase_canonical_key(const Matrix& m, int decimals) {
    return fingerprint(canonicalize_global_phase(m), decimals);
}

std::string raw_key(const Matrix& m, int decimals) { return fingerprint(m, decimals); }

} // namespace epoc::linalg
