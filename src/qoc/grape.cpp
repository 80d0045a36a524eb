#include "qoc/grape.h"

#include "linalg/expm.h"
#include "util/fault_injection.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>

namespace epoc::qoc {

namespace {

using linalg::cplx;
using linalg::overlap;

} // namespace

Matrix pulse_unitary(const BlockHamiltonian& h, const Pulse& p) {
    const std::size_t dim = h.drift.rows();
    Matrix u = Matrix::identity(dim);
    for (int k = 0; k < p.num_slots(); ++k) {
        Matrix hk = h.drift;
        for (std::size_t j = 0; j < h.controls.size(); ++j) {
            Matrix term = h.controls[j].h;
            term *= cplx{p.amplitudes[j][static_cast<std::size_t>(k)], 0.0};
            hk += term;
        }
        u = linalg::exp_i(hk, p.dt) * u;
    }
    return u;
}

Pulse grape_optimize(const BlockHamiltonian& h, const Matrix& target, int num_slots,
                     const GrapeOptions& opt) {
    const std::size_t dim = h.drift.rows();
    if (target.rows() != dim || target.cols() != dim)
        throw std::invalid_argument("grape_optimize: target dimension mismatch");
    if (num_slots < 1) throw std::invalid_argument("grape_optimize: num_slots < 1");

    const std::size_t nc = h.controls.size();
    const std::size_t ns = static_cast<std::size_t>(num_slots);
    const double d = static_cast<double>(dim);

    Pulse p;
    p.dt = h.dt;
    p.amplitudes.assign(nc, std::vector<double>(ns, 0.0));

    std::mt19937_64 rng(opt.seed);
    std::uniform_real_distribution<double> uni(-1.0, 1.0);
    // A warm start must match the control count exactly (slot counts may
    // differ; they are resampled). With no controls there is nothing to seed:
    // the historical `warm_amplitudes.front()` probe was UB for nc == 0.
    const bool warm_requested = !opt.warm_amplitudes.empty();
    const bool warm_usable = warm_requested && nc > 0 && opt.warm_amplitudes.size() == nc &&
                             !opt.warm_amplitudes.front().empty();
    p.warm_start_applied = warm_usable;
    p.warm_start_mismatch = warm_requested && !warm_usable;
    if (warm_usable) {
        // Nearest-slot resample of the warm-start pulse.
        const std::size_t wn = opt.warm_amplitudes.front().size();
        for (std::size_t j = 0; j < nc; ++j)
            for (std::size_t k = 0; k < ns; ++k) {
                const std::size_t src = std::min(wn - 1, k * wn / ns);
                p.amplitudes[j][k] =
                    std::clamp(opt.warm_amplitudes[j][src], -h.controls[j].bound,
                               h.controls[j].bound);
            }
    } else {
        for (std::size_t j = 0; j < nc; ++j)
            for (std::size_t k = 0; k < ns; ++k)
                p.amplitudes[j][k] = opt.init_scale * h.controls[j].bound * uni(rng);
    }

    // Adam state.
    std::vector<std::vector<double>> m(nc, std::vector<double>(ns, 0.0));
    std::vector<std::vector<double>> v(nc, std::vector<double>(ns, 0.0));
    constexpr double b1 = 0.9, b2 = 0.999, eps = 1e-8;

    std::vector<Matrix> slot_u(ns);
    std::vector<Matrix> fwd(ns + 1);  // fwd[k] = U_k ... U_1
    std::vector<Matrix> bwd(ns + 1);  // bwd[k] = U_ns ... U_{k+1}

    auto best = p;
    double best_f = -1.0;
    int reseeds = 0;

    for (int it = 1; it <= opt.max_iterations; ++it) {
        // Cooperative deadline: return the best finite iterate so far rather
        // than throwing; the caller sees Pulse::timed_out and degrades.
        if (util::deadline_expired(opt.deadline)) {
            best.timed_out = true;
            break;
        }
        // Forward pass.
        fwd[0] = Matrix::identity(dim);
        for (std::size_t k = 0; k < ns; ++k) {
            Matrix hk = h.drift;
            for (std::size_t j = 0; j < nc; ++j) {
                Matrix term = h.controls[j].h;
                term *= cplx{p.amplitudes[j][k], 0.0};
                hk += term;
            }
            slot_u[k] = linalg::exp_i(hk, p.dt);
            fwd[k + 1] = slot_u[k] * fwd[k];
        }
        bwd[ns] = Matrix::identity(dim);
        for (std::size_t k = ns; k-- > 0;) bwd[k] = bwd[k + 1] * slot_u[k];

        const cplx w = overlap(target, fwd[ns]);
        double fidelity = std::abs(w) / d;
        if (util::fault::maybe_fail("grape.nonfinite"))
            fidelity = std::numeric_limits<double>::quiet_NaN();
        if (!std::isfinite(fidelity)) {
            // The iterate is poisoned (and the gradients below would be too):
            // re-randomize from a derived seed and restart with a fresh
            // optimizer state, bounded by nonfinite_retries. `best` still
            // holds the last finite iterate, so even the give-up path returns
            // valid amplitudes.
            if (reseeds >= opt.nonfinite_retries) {
                best.nonfinite_aborted = true;
                break;
            }
            ++reseeds;
            std::mt19937_64 rr(opt.seed ^ (0x9e3779b97f4a7c15ULL *
                                           static_cast<std::uint64_t>(reseeds)));
            for (std::size_t j = 0; j < nc; ++j)
                for (std::size_t k = 0; k < ns; ++k)
                    p.amplitudes[j][k] = opt.init_scale * h.controls[j].bound * uni(rr);
            for (std::size_t j = 0; j < nc; ++j) {
                std::fill(m[j].begin(), m[j].end(), 0.0);
                std::fill(v[j].begin(), v[j].end(), 0.0);
            }
            it = 0; // restart the iteration budget (the for-loop increments)
            continue;
        }
        if (fidelity > best_f) {
            best_f = fidelity;
            best = p;
            best.fidelity = fidelity;
            best.grape_iterations = it;
        }
        if (fidelity >= opt.target_fidelity) break;
        const cplx wbar = (std::abs(w) > 1e-15) ? std::conj(w) / std::abs(w) : cplx{1.0, 0.0};

        // Gradient of cost = -fidelity (we maximize fidelity).
        const double b1t = 1.0 - std::pow(b1, it);
        const double b2t = 1.0 - std::pow(b2, it);
        for (std::size_t k = 0; k < ns; ++k) {
            // dU/du_jk ~ bwd[k+1] * (-i dt H_j U_k) * fwd[k]
            //          = bwd[k+1] * (-i dt H_j) * fwd[k+1]  (first order).
            for (std::size_t j = 0; j < nc; ++j) {
                const Matrix du = bwd[k + 1] * (h.controls[j].h * fwd[k + 1]);
                cplx dw = overlap(target, du);
                dw *= cplx{0.0, -p.dt};
                const double dfid = std::real(wbar * dw) / d;
                const double grad = -dfid; // minimize -fidelity
                m[j][k] = b1 * m[j][k] + (1 - b1) * grad;
                v[j][k] = b2 * v[j][k] + (1 - b2) * grad * grad;
                const double step =
                    opt.learning_rate * (m[j][k] / b1t) / (std::sqrt(v[j][k] / b2t) + eps);
                const double bound = h.controls[j].bound;
                p.amplitudes[j][k] = std::clamp(p.amplitudes[j][k] - step, -bound, bound);
            }
        }
    }
    best.nonfinite_reseeds = reseeds;
    if (best.warm_start_applied && !best.timed_out && !best.nonfinite_aborted &&
        best_f >= 0.0 && best_f < opt.target_fidelity) {
        // Cold rescue: a warm start is a hint, not a contract. When the
        // seeded trajectory stalls below the target (a too-different warm
        // pulse can park the optimizer in its donor's basin), re-run from the
        // ordinary random init and keep the better pulse — so warm starting
        // can reduce iterations but never degrade the fidelity a cold run
        // would have reached. The rescue winner reports itself cold
        // (warm_start_applied=false), which also keeps it eligible for the
        // persistent store.
        GrapeOptions cold = opt;
        cold.warm_amplitudes.clear();
        Pulse rescued = grape_optimize(h, target, num_slots, cold);
        // Bill the rescue's work to whichever pulse ships: iteration counts
        // feed the qoc.grape_iterations accounting.
        rescued.grape_iterations += best.grape_iterations;
        if (rescued.fidelity > best.fidelity) return rescued;
        best.grape_iterations = rescued.grape_iterations;
        best.timed_out = best.timed_out || rescued.timed_out;
        return best;
    }
    if (best_f < 0.0) {
        // No iterate was ever scored: the deadline expired before the first
        // forward pass, or every pass went non-finite within the retry
        // budget. `best` still holds its initial amplitudes whose fidelity
        // field is the default 0.0 — a number with no relation to the
        // amplitudes' physics. The contract (which the verify layer audits)
        // is that the returned fidelity always corresponds to the returned
        // amplitudes, so score them here with the same overlap formula the
        // optimizer uses.
        const double f = std::abs(overlap(target, pulse_unitary(h, best))) / d;
        best.fidelity = std::isfinite(f) ? f : 0.0;
    }
    return best;
}

} // namespace epoc::qoc
