#include "backend/backend.h"

#include "qoc/pulse_io.h"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <stdexcept>

namespace epoc::backend {

using linalg::Matrix;

namespace {

std::pair<int, int> norm_edge(int a, int b) { return {std::min(a, b), std::max(a, b)}; }

} // namespace

Backend::Backend(std::string name_, circuit::CouplingMap coupling_,
                 qoc::DeviceParams base_)
    : name(std::move(name_)), coupling(std::move(coupling_)), base(base_) {}

double Backend::drive_bound(int q) const {
    if (qubit_drive_bounds.empty()) return base.drive_bound;
    return qubit_drive_bounds.at(static_cast<std::size_t>(q));
}

EdgeParams Backend::edge(int a, int b) const {
    const auto it = edge_overrides.find(norm_edge(a, b));
    if (it != edge_overrides.end()) return it->second;
    return {base.coupling_bound, base.zz_drift};
}

void Backend::validate() const {
    if (name.empty()) throw std::invalid_argument("Backend: empty name");
    if (levels != 2 && levels != 3)
        throw std::invalid_argument("Backend '" + name + "': levels must be 2 or 3");
    if (!qubit_drive_bounds.empty() &&
        static_cast<int>(qubit_drive_bounds.size()) != coupling.num_qubits())
        throw std::invalid_argument("Backend '" + name +
                                    "': qubit_drive_bounds size != num_qubits");
    for (const auto& [e, p] : edge_overrides) {
        (void)p;
        if (e != norm_edge(e.first, e.second))
            throw std::invalid_argument("Backend '" + name +
                                        "': edge override key not normalized");
        if (e.first < 0 || e.second >= coupling.num_qubits() ||
            !coupling.adjacent(e.first, e.second))
            throw std::invalid_argument(
                "Backend '" + name + "': edge override (" + std::to_string(e.first) +
                "," + std::to_string(e.second) + ") is not a coupling-map edge");
    }
}

std::string Backend::fingerprint() const {
    using qoc::exact_double;
    std::ostringstream os;
    os << "backend:" << name << "|n:" << coupling.num_qubits() << "|e:";
    if (coupling.complete()) {
        os << "complete"; // named, not listed: O(1) at any width
    } else {
        // Normalize edge order so equal graphs fingerprint equally
        // regardless of the edge list's construction order.
        std::vector<std::pair<int, int>> es = coupling.edges();
        for (auto& e : es) e = norm_edge(e.first, e.second);
        std::sort(es.begin(), es.end());
        for (const auto& [a, b] : es) os << a << "-" << b << ",";
    }
    os << "|p:" << exact_double(base.drive_bound) << ":"
       << exact_double(base.coupling_bound) << ":" << exact_double(base.zz_drift)
       << ":" << exact_double(base.dt) << "|q:";
    for (const double d : qubit_drive_bounds) os << exact_double(d) << ",";
    os << "|eo:";
    for (const auto& [e, p] : edge_overrides)
        os << e.first << "-" << e.second << "=" << exact_double(p.coupling_bound)
           << "," << exact_double(p.zz_drift) << ";";
    os << "|xt:" << (crosstalk_zz ? exact_double(crosstalk_strength) : std::string("off"));
    os << "|L:" << levels;
    if (levels > 2) os << ":" << exact_double(anharmonicity);
    return os.str();
}

std::uint64_t Backend::fingerprint_hash() const { return qoc::fnv1a64(fingerprint()); }

qoc::BlockModel Backend::block_model(const std::vector<int>& qubits) const {
    qoc::BlockModel model{
        .name = name, .levels = levels, .anharmonicity = anharmonicity, .dt = base.dt};
    for (const int q : qubits) {
        if (q < 0 || q >= coupling.num_qubits())
            throw std::invalid_argument("Backend::block_model: qubit out of range");
        model.drive_bounds.push_back(drive_bound(q));
    }
    // Edge-resolved ZZ and a coupler on coupled pairs; spectator ZZ on
    // distance-2 pairs in the crosstalk variant.
    for (std::size_t i = 0; i < qubits.size(); ++i)
        for (std::size_t j = i + 1; j < qubits.size(); ++j) {
            qoc::BlockModel::Pair p;
            const int d = coupling.distance(qubits[i], qubits[j]);
            if (d == 0) throw std::invalid_argument("Backend::block_model: repeated qubit");
            if (d == 1) {
                const EdgeParams e = edge(qubits[i], qubits[j]);
                p = {e.zz_drift, true, e.coupling_bound};
            } else if (crosstalk_zz && d == 2) {
                p.zz = crosstalk_strength;
            }
            model.pairs.push_back(p);
        }
    return model;
}

qoc::BlockHamiltonian Backend::block_hamiltonian(const std::vector<int>& qubits) const {
    return qoc::build_block_hamiltonian(block_model(qubits));
}

Matrix embed_in_levels(const Matrix& u, int num_qubits, int levels) {
    if (levels == 2) return u;
    const std::size_t din = std::size_t{1} << num_qubits;
    if (u.rows() != din || u.cols() != din)
        throw std::invalid_argument("embed_in_levels: unitary is not 2^n x 2^n");
    std::size_t dout = 1;
    for (int p = 0; p < num_qubits; ++p) dout *= static_cast<std::size_t>(levels);
    // Binary basis index -> mixed-radix index with the same digit values.
    const auto map_index = [&](std::size_t i) {
        std::size_t j = 0;
        std::size_t stride = 1;
        for (int p = 0; p < num_qubits; ++p) {
            j += ((i >> p) & 1u) * stride;
            stride *= static_cast<std::size_t>(levels);
        }
        return j;
    };
    Matrix out = Matrix::identity(dout);
    for (std::size_t r = 0; r < din; ++r)
        for (std::size_t c = 0; c < din; ++c) out(map_index(r), map_index(c)) = u(r, c);
    return out;
}

} // namespace epoc::backend
