#include "qoc/crab.h"

#include "linalg/expm.h"

#include <cmath>
#include <numbers>
#include <random>
#include <stdexcept>

namespace epoc::qoc {

namespace {

using linalg::cplx;
using linalg::overlap;

} // namespace

Pulse crab_optimize(const BlockHamiltonian& h, const Matrix& target, int num_slots,
                    const CrabOptions& opt) {
    const std::size_t dim = h.drift.rows();
    if (target.rows() != dim || target.cols() != dim)
        throw std::invalid_argument("crab_optimize: target dimension mismatch");
    if (num_slots < 1) throw std::invalid_argument("crab_optimize: num_slots < 1");

    const std::size_t nc = h.controls.size();
    const std::size_t ns = static_cast<std::size_t>(num_slots);
    const double d = static_cast<double>(dim);
    const double total_t = static_cast<double>(num_slots) * h.dt;

    // Basis: DC term + num_modes randomized harmonics (sin & cos each).
    const std::size_t nb = 1 + 2 * static_cast<std::size_t>(opt.num_modes);
    std::mt19937_64 rng(opt.seed);
    std::uniform_real_distribution<double> jitter(-opt.frequency_jitter,
                                                  opt.frequency_jitter);
    std::vector<double> freqs(static_cast<std::size_t>(opt.num_modes));
    for (std::size_t k = 0; k < freqs.size(); ++k)
        freqs[k] = 2.0 * std::numbers::pi * (static_cast<double>(k + 1) + jitter(rng)) /
                   total_t;

    // basis[b][s]: value of basis function b at slot midpoint s.
    std::vector<std::vector<double>> basis(nb, std::vector<double>(ns));
    for (std::size_t s = 0; s < ns; ++s) {
        const double t = (static_cast<double>(s) + 0.5) * h.dt;
        basis[0][s] = 1.0;
        for (std::size_t k = 0; k < freqs.size(); ++k) {
            basis[1 + 2 * k][s] = std::sin(freqs[k] * t);
            basis[2 + 2 * k][s] = std::cos(freqs[k] * t);
        }
    }

    // Coefficients x[j*nb + b], small random init.
    std::vector<double> x(nc * nb);
    std::normal_distribution<double> gauss(0.0, 0.2);
    for (double& v : x) v = gauss(rng);

    // Adam state.
    std::vector<double> m(x.size(), 0.0), v2(x.size(), 0.0);
    constexpr double b1 = 0.9, b2c = 0.999, eps = 1e-8;

    std::vector<std::vector<double>> amps(nc, std::vector<double>(ns));
    std::vector<std::vector<double>> squash(nc, std::vector<double>(ns));
    std::vector<Matrix> slot_u(ns), fwd(ns + 1), bwd(ns + 1);

    Pulse best;
    best.dt = h.dt;
    best.amplitudes.assign(nc, std::vector<double>(ns, 0.0));
    double best_f = -1.0;

    for (int it = 1; it <= opt.max_iterations; ++it) {
        // Materialize amplitudes u = bound * tanh(z).
        for (std::size_t j = 0; j < nc; ++j)
            for (std::size_t s = 0; s < ns; ++s) {
                double z = 0.0;
                for (std::size_t b = 0; b < nb; ++b) z += x[j * nb + b] * basis[b][s];
                const double th = std::tanh(z);
                amps[j][s] = h.controls[j].bound * th;
                squash[j][s] = h.controls[j].bound * (1.0 - th * th);
            }

        fwd[0] = Matrix::identity(dim);
        for (std::size_t s = 0; s < ns; ++s) {
            Matrix hk = h.drift;
            for (std::size_t j = 0; j < nc; ++j) {
                Matrix term = h.controls[j].h;
                term *= cplx{amps[j][s], 0.0};
                hk += term;
            }
            slot_u[s] = linalg::exp_i(hk, h.dt);
            fwd[s + 1] = slot_u[s] * fwd[s];
        }
        bwd[ns] = Matrix::identity(dim);
        for (std::size_t s = ns; s-- > 0;) bwd[s] = bwd[s + 1] * slot_u[s];

        const cplx w = overlap(target, fwd[ns]);
        const double fidelity = std::abs(w) / d;
        if (fidelity > best_f) {
            best_f = fidelity;
            best.amplitudes = amps;
            best.fidelity = fidelity;
            best.grape_iterations = it;
        }
        if (fidelity >= opt.target_fidelity) break;
        const cplx wbar = (std::abs(w) > 1e-15) ? std::conj(w) / std::abs(w) : cplx{1.0, 0.0};

        // dF/du_js first (as in GRAPE), then chain rule into coefficients.
        std::vector<double> grad(x.size(), 0.0);
        for (std::size_t s = 0; s < ns; ++s) {
            for (std::size_t j = 0; j < nc; ++j) {
                const Matrix du = bwd[s + 1] * (h.controls[j].h * fwd[s + 1]);
                cplx dw = overlap(target, du);
                dw *= cplx{0.0, -h.dt};
                const double dfid_du = std::real(wbar * dw) / d;
                const double common = -dfid_du * squash[j][s]; // minimize -F
                for (std::size_t b = 0; b < nb; ++b)
                    grad[j * nb + b] += common * basis[b][s];
            }
        }

        const double b1t = 1.0 - std::pow(b1, it);
        const double b2t = 1.0 - std::pow(b2c, it);
        for (std::size_t i = 0; i < x.size(); ++i) {
            m[i] = b1 * m[i] + (1 - b1) * grad[i];
            v2[i] = b2c * v2[i] + (1 - b2c) * grad[i] * grad[i];
            x[i] -= opt.learning_rate * (m[i] / b1t) / (std::sqrt(v2[i] / b2t) + eps);
        }
    }
    return best;
}

} // namespace epoc::qoc
