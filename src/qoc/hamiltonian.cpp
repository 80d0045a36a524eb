#include "qoc/hamiltonian.h"

#include "qoc/pulse_io.h"

#include <cmath>
#include <stdexcept>

namespace epoc::qoc {

using linalg::cplx;

namespace {

std::size_t ipow(int base, int exp) {
    std::size_t r = 1;
    for (int i = 0; i < exp; ++i) r *= static_cast<std::size_t>(base);
    return r;
}

/// Single-site operator embedded at local position `pos` of an n-site,
/// L-level register, little-endian (site 0 = least-significant digit) — the
/// same ordering circuit::embed_gate uses for L == 2.
Matrix op_at(const Matrix& op, int pos, int n, int levels) {
    const std::size_t dim = ipow(levels, n);
    const std::size_t stride = ipow(levels, pos);
    const std::size_t block = stride * static_cast<std::size_t>(levels);
    Matrix m = Matrix::zeros(dim, dim);
    for (std::size_t high = 0; high < dim / block; ++high)
        for (std::size_t low = 0; low < stride; ++low) {
            const std::size_t base = high * block + low;
            for (int a = 0; a < levels; ++a)
                for (int b = 0; b < levels; ++b)
                    m(base + static_cast<std::size_t>(a) * stride,
                      base + static_cast<std::size_t>(b) * stride) =
                        op(static_cast<std::size_t>(a), static_cast<std::size_t>(b));
        }
    return m;
}

/// BlockHamiltonian::variant: the device name, the level count (and, at 3
/// levels, the anharmonicity) and every pair's ZZ strength. The name is
/// length-prefixed, so no name can spell out another's model.
std::string variant_of(const BlockModel& m) {
    std::string v = "dev:" + std::to_string(m.name.size()) + ":" + m.name + ";L" +
                    std::to_string(m.levels);
    if (m.levels > 2) v += ":" + exact_double(m.anharmonicity);
    for (const BlockModel::Pair& p : m.pairs) v += ";" + exact_double(p.zz);
    return v;
}

} // namespace

std::string BlockModel::key() const {
    // The variant plus what the control lines carry: dt, drive bounds and
    // couplers. Every double is 16 hex digits, so no two models share a key.
    std::string k = variant_of(*this) + ";dt=" + exact_double(dt) + ";d=";
    for (const double b : drive_bounds) k += exact_double(b) + ",";
    k += ";c=";
    for (const Pair& p : pairs) k += (p.coupled ? exact_double(p.coupler_bound) : "-") + ",";
    return k;
}

BlockHamiltonian build_block_hamiltonian(const BlockModel& model) {
    const int n = static_cast<int>(model.drive_bounds.size());
    const int L = model.levels;
    if (n < 1) throw std::invalid_argument("build_block_hamiltonian: empty block");
    if (L != 2 && L != 3)
        throw std::invalid_argument("build_block_hamiltonian: levels must be 2 or 3");
    if (model.pairs.size() != static_cast<std::size_t>(n * (n - 1) / 2))
        throw std::invalid_argument("build_block_hamiltonian: one pair entry per i < j");
    const std::size_t dim = ipow(L, n);
    // One L-level site: the ladder-derived drive quadratures X and Y (the
    // Paulis at L == 2), Z, and the anharmonic drift alpha/2 n(n-1), which
    // is diag(0, 0, alpha) at L == 3.
    const auto site = static_cast<std::size_t>(L);
    Matrix X = Matrix::zeros(site, site), Y = X, Z = X, anh = X;
    for (std::size_t k = 0; k < site; ++k) {
        const auto lv = static_cast<double>(k);
        Z(k, k) = cplx{1.0 - 2.0 * lv, 0.0};
        anh(k, k) = cplx{0.5 * model.anharmonicity * lv * (lv - 1.0), 0.0};
        if (k == 0) continue;
        const double amp = std::sqrt(lv);
        X(k - 1, k) = X(k, k - 1) = cplx{amp, 0.0};
        Y(k - 1, k) = cplx{0.0, -amp};
        Y(k, k - 1) = cplx{0.0, amp};
    }

    BlockHamiltonian h;
    h.num_qubits = n;
    h.dt = model.dt;
    h.drift = Matrix::zeros(dim, dim);
    h.variant = variant_of(model);

    for (int q = 0; q < n; ++q) {
        const double bound = model.drive_bounds[static_cast<std::size_t>(q)];
        h.controls.push_back({"x" + std::to_string(q), op_at(X, q, n, L), bound});
        h.controls.push_back({"y" + std::to_string(q), op_at(Y, q, n, L), bound});
    }
    // Per pair: a ZZ drift term when its strength is nonzero, an XX line when
    // a coupler joins it.
    const BlockModel::Pair* p = model.pairs.data();
    for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j, ++p) {
            if (p->zz != 0.0) {
                Matrix term = op_at(Z, i, n, L) * op_at(Z, j, n, L);
                term *= cplx{p->zz, 0.0};
                h.drift += term;
            }
            if (p->coupled)
                h.controls.push_back({"xx" + std::to_string(i) + "_" + std::to_string(j),
                                      op_at(X, i, n, L) * op_at(X, j, n, L), p->coupler_bound});
        }
    if (L > 2)
        for (int q = 0; q < n; ++q) h.drift += op_at(anh, q, n, L);
    return h;
}

BlockHamiltonian make_block_hamiltonian(int num_qubits, const DeviceParams& dev) {
    if (num_qubits < 1) throw std::invalid_argument("make_block_hamiltonian: nq < 1");
    const auto n = static_cast<std::size_t>(num_qubits);
    BlockModel model;
    model.dt = dev.dt;
    model.drive_bounds.assign(n, dev.drive_bound);
    model.pairs.assign(n * (n - 1) / 2, {dev.zz_drift, true, dev.coupling_bound});
    return build_block_hamiltonian(model);
}

} // namespace epoc::qoc
