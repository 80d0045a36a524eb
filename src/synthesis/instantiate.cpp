#include "synthesis/instantiate.h"

#include "circuit/gate.h"
#include "circuit/unitary.h"
#include "opt/lbfgs.h"

#include <cmath>
#include <numbers>
#include <random>

namespace epoc::synthesis {

namespace {

using circuit::GateKind;
using linalg::cplx;
using linalg::overlap;

} // namespace

InstantiateResult instantiate(const SynthStructure& s, const Matrix& target,
                              const InstantiateOptions& opt,
                              const std::vector<double>& warm_start) {
    const int nq = s.num_qubits;
    const std::size_t dim = std::size_t{1} << nq;
    const double d = static_cast<double>(dim);
    const std::size_t np = static_cast<std::size_t>(s.num_params());
    const Matrix cx = circuit::kind_matrix(GateKind::CX, {});

    // Objective: f = 1 - |tr(U^dag C)|/d, with analytic gradients via
    // prefix/suffix products around each VUG.
    const auto objective = [&](const std::vector<double>& x, std::vector<double>& grad) {
        grad.assign(np, 0.0);
        const std::size_t m = s.ops.size();

        // Embedded op matrices and prefix products P_k = E_k ... E_1.
        std::vector<Matrix> emb(m);
        std::vector<Matrix> prefix(m + 1);
        prefix[0] = Matrix::identity(dim);
        std::size_t p = 0;
        std::vector<std::size_t> param_base(m, 0);
        for (std::size_t k = 0; k < m; ++k) {
            const SynthOp& op = s.ops[k];
            param_base[k] = p;
            if (op.kind == SynthOp::Kind::Vug) {
                emb[k] = circuit::embed_gate(
                    circuit::u3_matrix(x[p], x[p + 1], x[p + 2]), {op.a}, nq);
                p += 3;
            } else {
                emb[k] = circuit::embed_gate(cx, {op.a, op.b}, nq);
            }
            prefix[k + 1] = emb[k] * prefix[k];
        }
        // Suffix products S_k = E_m ... E_{k+1}.
        std::vector<Matrix> suffix(m + 1);
        suffix[m] = Matrix::identity(dim);
        for (std::size_t k = m; k-- > 0;) suffix[k] = suffix[k + 1] * emb[k];

        const Matrix& c = prefix[m];
        const cplx w = overlap(target, c);
        const double aw = std::abs(w);
        const double f = 1.0 - aw / d;
        if (aw < 1e-15) return f; // gradient direction undefined at the centre

        const cplx wbar = std::conj(w) / aw;
        p = 0;
        for (std::size_t k = 0; k < m; ++k) {
            const SynthOp& op = s.ops[k];
            if (op.kind != SynthOp::Kind::Vug) continue;
            const std::size_t base = param_base[k];
            for (int which = 0; which < 3; ++which) {
                const Matrix de = circuit::embed_gate(
                    u3_derivative(x[base], x[base + 1], x[base + 2], which), {op.a}, nq);
                const Matrix dc = suffix[k + 1] * (de * prefix[k]);
                const cplx dw = overlap(target, dc);
                grad[base + which] = -std::real(wbar * dw) / d;
            }
        }
        return f;
    };

    std::mt19937_64 rng(opt.seed);
    std::uniform_real_distribution<double> ang(-std::numbers::pi, std::numbers::pi);

    InstantiateResult best;
    opt::LbfgsOptions lopt;
    lopt.max_iterations = opt.max_iterations;
    lopt.target_value = opt.target_distance * opt.target_distance; // f ~ dist^2
    for (int r = 0; r < std::max(1, opt.restarts); ++r) {
        std::vector<double> x0(np);
        if (r == 0 && warm_start.size() == np) {
            x0 = warm_start;
        } else {
            for (double& v : x0) v = ang(rng);
        }
        const opt::OptimizeResult res = opt::lbfgs_minimize(objective, std::move(x0), lopt);
        const double dist = std::sqrt(std::max(0.0, res.value));
        if (dist < best.distance || best.params.empty()) {
            best.distance = dist;
            best.params = res.x;
        }
        if (best.distance <= opt.target_distance) break;
    }
    best.converged = best.distance <= opt.target_distance;
    return best;
}

} // namespace epoc::synthesis
