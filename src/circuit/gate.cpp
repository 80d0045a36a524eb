#include "circuit/gate.h"

#include <cmath>
#include <numbers>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace epoc::circuit {

namespace {

constexpr cplx kI{0.0, 1.0};

Matrix controlled(const Matrix& u) {
    // Control = local qubit 0, target = local qubit 1 (little-endian): the
    // control bit selects the odd basis indices {1, 3}.
    Matrix m = Matrix::identity(4);
    m(1, 1) = u(0, 0);
    m(1, 3) = u(0, 1);
    m(3, 1) = u(1, 0);
    m(3, 3) = u(1, 1);
    return m;
}

} // namespace

Matrix pauli_x() { return Matrix{{cplx{0, 0}, cplx{1, 0}}, {cplx{1, 0}, cplx{0, 0}}}; }
Matrix pauli_y() { return Matrix{{cplx{0, 0}, -kI}, {kI, cplx{0, 0}}}; }
Matrix pauli_z() { return Matrix{{cplx{1, 0}, cplx{0, 0}}, {cplx{0, 0}, cplx{-1, 0}}}; }

Matrix hadamard() {
    const double s = 1.0 / std::numbers::sqrt2;
    return Matrix{{cplx{s, 0}, cplx{s, 0}}, {cplx{s, 0}, cplx{-s, 0}}};
}

Matrix rx_matrix(double theta) {
    const double c = std::cos(theta / 2), s = std::sin(theta / 2);
    return Matrix{{cplx{c, 0}, cplx{0, -s}}, {cplx{0, -s}, cplx{c, 0}}};
}

Matrix ry_matrix(double theta) {
    const double c = std::cos(theta / 2), s = std::sin(theta / 2);
    return Matrix{{cplx{c, 0}, cplx{-s, 0}}, {cplx{s, 0}, cplx{c, 0}}};
}

Matrix rz_matrix(double theta) {
    return Matrix{{std::polar(1.0, -theta / 2), cplx{0, 0}},
                  {cplx{0, 0}, std::polar(1.0, theta / 2)}};
}

Matrix u3_matrix(double theta, double phi, double lambda) {
    const double c = std::cos(theta / 2), s = std::sin(theta / 2);
    return Matrix{{cplx{c, 0}, -linalg::scaled_phase(s, lambda)},
                  {linalg::scaled_phase(s, phi), linalg::scaled_phase(c, phi + lambda)}};
}

int kind_arity(GateKind k) {
    switch (k) {
    case GateKind::I:
    case GateKind::X:
    case GateKind::Y:
    case GateKind::Z:
    case GateKind::H:
    case GateKind::S:
    case GateKind::Sdg:
    case GateKind::T:
    case GateKind::Tdg:
    case GateKind::SX:
    case GateKind::SXdg:
    case GateKind::RX:
    case GateKind::RY:
    case GateKind::RZ:
    case GateKind::P:
    case GateKind::U3:
        return 1;
    case GateKind::CX:
    case GateKind::CY:
    case GateKind::CZ:
    case GateKind::CH:
    case GateKind::SWAP:
    case GateKind::ISWAP:
    case GateKind::CP:
    case GateKind::CRX:
    case GateKind::CRY:
    case GateKind::CRZ:
    case GateKind::RXX:
    case GateKind::RYY:
    case GateKind::RZZ:
    case GateKind::CU3:
        return 2;
    case GateKind::CCX:
    case GateKind::CCZ:
    case GateKind::CSWAP:
        return 3;
    case GateKind::VUG:
    case GateKind::UNITARY:
        return 0;
    }
    return 0;
}

int kind_num_params(GateKind k) {
    switch (k) {
    case GateKind::RX:
    case GateKind::RY:
    case GateKind::RZ:
    case GateKind::P:
    case GateKind::CP:
    case GateKind::CRX:
    case GateKind::CRY:
    case GateKind::CRZ:
    case GateKind::RXX:
    case GateKind::RYY:
    case GateKind::RZZ:
        return 1;
    case GateKind::U3:
    case GateKind::CU3:
        return 3;
    default:
        return 0;
    }
}

std::string kind_name(GateKind k) {
    switch (k) {
    case GateKind::I: return "id";
    case GateKind::X: return "x";
    case GateKind::Y: return "y";
    case GateKind::Z: return "z";
    case GateKind::H: return "h";
    case GateKind::S: return "s";
    case GateKind::Sdg: return "sdg";
    case GateKind::T: return "t";
    case GateKind::Tdg: return "tdg";
    case GateKind::SX: return "sx";
    case GateKind::SXdg: return "sxdg";
    case GateKind::RX: return "rx";
    case GateKind::RY: return "ry";
    case GateKind::RZ: return "rz";
    case GateKind::P: return "p";
    case GateKind::U3: return "u3";
    case GateKind::CX: return "cx";
    case GateKind::CY: return "cy";
    case GateKind::CZ: return "cz";
    case GateKind::CH: return "ch";
    case GateKind::SWAP: return "swap";
    case GateKind::ISWAP: return "iswap";
    case GateKind::CP: return "cp";
    case GateKind::CRX: return "crx";
    case GateKind::CRY: return "cry";
    case GateKind::CRZ: return "crz";
    case GateKind::RXX: return "rxx";
    case GateKind::RYY: return "ryy";
    case GateKind::RZZ: return "rzz";
    case GateKind::CU3: return "cu3";
    case GateKind::CCX: return "ccx";
    case GateKind::CCZ: return "ccz";
    case GateKind::CSWAP: return "cswap";
    case GateKind::VUG: return "vug";
    case GateKind::UNITARY: return "unitary";
    }
    return "?";
}

GateKind kind_from_name(const std::string& name) {
    static const std::unordered_map<std::string, GateKind> table = {
        {"id", GateKind::I},      {"i", GateKind::I},     {"x", GateKind::X},
        {"y", GateKind::Y},       {"z", GateKind::Z},     {"h", GateKind::H},
        {"s", GateKind::S},       {"sdg", GateKind::Sdg}, {"t", GateKind::T},
        {"tdg", GateKind::Tdg},   {"sx", GateKind::SX},   {"sxdg", GateKind::SXdg},
        {"rx", GateKind::RX},     {"ry", GateKind::RY},   {"rz", GateKind::RZ},
        {"p", GateKind::P},       {"u1", GateKind::P},    {"phase", GateKind::P},
        {"u3", GateKind::U3},     {"u", GateKind::U3},    {"cx", GateKind::CX},
        {"cnot", GateKind::CX},   {"cy", GateKind::CY},   {"cz", GateKind::CZ},
        {"ch", GateKind::CH},     {"swap", GateKind::SWAP}, {"iswap", GateKind::ISWAP},
        {"cp", GateKind::CP},     {"cu1", GateKind::CP},  {"crx", GateKind::CRX},
        {"cry", GateKind::CRY},   {"crz", GateKind::CRZ}, {"rxx", GateKind::RXX},
        {"ryy", GateKind::RYY},   {"rzz", GateKind::RZZ}, {"cu3", GateKind::CU3},
        {"ccx", GateKind::CCX},   {"toffoli", GateKind::CCX}, {"ccz", GateKind::CCZ},
        {"cswap", GateKind::CSWAP}, {"fredkin", GateKind::CSWAP},
    };
    const auto it = table.find(name);
    if (it == table.end()) throw std::invalid_argument("unknown gate name: " + name);
    return it->second;
}

Matrix kind_matrix(GateKind k, const std::vector<double>& params) {
    const auto need = [&](int n) {
        if (static_cast<int>(params.size()) < n)
            throw std::invalid_argument("kind_matrix: missing parameters for " +
                                        kind_name(k));
    };
    switch (k) {
    case GateKind::I: return Matrix::identity(2);
    case GateKind::X: return pauli_x();
    case GateKind::Y: return pauli_y();
    case GateKind::Z: return pauli_z();
    case GateKind::H: return hadamard();
    case GateKind::S: return Matrix{{cplx{1, 0}, cplx{0, 0}}, {cplx{0, 0}, kI}};
    case GateKind::Sdg: return Matrix{{cplx{1, 0}, cplx{0, 0}}, {cplx{0, 0}, -kI}};
    case GateKind::T:
        return Matrix{{cplx{1, 0}, cplx{0, 0}},
                      {cplx{0, 0}, std::polar(1.0, std::numbers::pi / 4)}};
    case GateKind::Tdg:
        return Matrix{{cplx{1, 0}, cplx{0, 0}},
                      {cplx{0, 0}, std::polar(1.0, -std::numbers::pi / 4)}};
    case GateKind::SX:
        return Matrix{{cplx{0.5, 0.5}, cplx{0.5, -0.5}}, {cplx{0.5, -0.5}, cplx{0.5, 0.5}}};
    case GateKind::SXdg:
        return Matrix{{cplx{0.5, -0.5}, cplx{0.5, 0.5}}, {cplx{0.5, 0.5}, cplx{0.5, -0.5}}};
    case GateKind::RX: need(1); return rx_matrix(params[0]);
    case GateKind::RY: need(1); return ry_matrix(params[0]);
    case GateKind::RZ: need(1); return rz_matrix(params[0]);
    case GateKind::P: {
        need(1);
        return Matrix{{cplx{1, 0}, cplx{0, 0}}, {cplx{0, 0}, std::polar(1.0, params[0])}};
    }
    case GateKind::U3: need(3); return u3_matrix(params[0], params[1], params[2]);
    case GateKind::CX: return controlled(pauli_x());
    case GateKind::CY: return controlled(pauli_y());
    case GateKind::CZ: return controlled(pauli_z());
    case GateKind::CH: return controlled(hadamard());
    case GateKind::SWAP: {
        Matrix m(4, 4);
        m(0, 0) = m(3, 3) = cplx{1, 0};
        m(2, 1) = m(1, 2) = cplx{1, 0};
        return m;
    }
    case GateKind::ISWAP: {
        Matrix m(4, 4);
        m(0, 0) = m(3, 3) = cplx{1, 0};
        m(2, 1) = m(1, 2) = kI;
        return m;
    }
    case GateKind::CP: {
        need(1);
        Matrix m = Matrix::identity(4);
        m(3, 3) = std::polar(1.0, params[0]);
        return m;
    }
    case GateKind::CRX: need(1); return controlled(rx_matrix(params[0]));
    case GateKind::CRY: need(1); return controlled(ry_matrix(params[0]));
    case GateKind::CRZ: need(1); return controlled(rz_matrix(params[0]));
    case GateKind::RXX: {
        need(1);
        const double c = std::cos(params[0] / 2), s = std::sin(params[0] / 2);
        Matrix m(4, 4);
        for (int d = 0; d < 4; ++d) m(d, d) = cplx{c, 0};
        for (int d = 0; d < 4; ++d) m(d, 3 - d) = cplx{0, -s};
        return m;
    }
    case GateKind::RYY: {
        need(1);
        const double c = std::cos(params[0] / 2), s = std::sin(params[0] / 2);
        Matrix m(4, 4);
        for (int d = 0; d < 4; ++d) m(d, d) = cplx{c, 0};
        m(0, 3) = cplx{0, s};
        m(3, 0) = cplx{0, s};
        m(1, 2) = cplx{0, -s};
        m(2, 1) = cplx{0, -s};
        return m;
    }
    case GateKind::RZZ: {
        need(1);
        Matrix m(4, 4);
        const cplx minus = std::polar(1.0, -params[0] / 2);
        const cplx plus = std::polar(1.0, params[0] / 2);
        m(0, 0) = minus;
        m(1, 1) = plus;
        m(2, 2) = plus;
        m(3, 3) = minus;
        return m;
    }
    case GateKind::CU3:
        need(3);
        return controlled(u3_matrix(params[0], params[1], params[2]));
    case GateKind::CCX: {
        Matrix m = Matrix::identity(8);
        // controls = local bits 0,1; target = local bit 2.
        m(3, 3) = m(7, 7) = cplx{0, 0};
        m(7, 3) = m(3, 7) = cplx{1, 0};
        return m;
    }
    case GateKind::CCZ: {
        Matrix m = Matrix::identity(8);
        m(7, 7) = cplx{-1, 0};
        return m;
    }
    case GateKind::CSWAP: {
        Matrix m = Matrix::identity(8);
        // control = local bit 0; swap local bits 1 and 2 (indices 3 <-> 5).
        m(3, 3) = m(5, 5) = cplx{0, 0};
        m(5, 3) = m(3, 5) = cplx{1, 0};
        return m;
    }
    case GateKind::VUG:
    case GateKind::UNITARY:
        throw std::invalid_argument("kind_matrix: explicit-unitary kinds carry their own matrix");
    }
    throw std::invalid_argument("kind_matrix: unhandled kind");
}

Gate Gate::make_unitary(std::vector<int> qs, Matrix u, GateKind k) {
    if (k != GateKind::VUG && k != GateKind::UNITARY)
        throw std::invalid_argument("make_unitary: kind must be VUG or UNITARY");
    const std::size_t dim = std::size_t{1} << qs.size();
    if (u.rows() != dim || u.cols() != dim)
        throw std::invalid_argument("make_unitary: matrix dimension does not match qubit count");
    Gate g;
    g.kind = k;
    g.qubits = std::move(qs);
    g.matrix = std::make_shared<const Matrix>(std::move(u));
    return g;
}

Matrix Gate::unitary() const {
    if (is_explicit_unitary()) {
        if (!matrix) throw std::logic_error("explicit-unitary gate without matrix payload");
        return *matrix;
    }
    return kind_matrix(kind, params);
}

Gate Gate::inverse() const {
    switch (kind) {
    case GateKind::I:
    case GateKind::X:
    case GateKind::Y:
    case GateKind::Z:
    case GateKind::H:
    case GateKind::CX:
    case GateKind::CY:
    case GateKind::CZ:
    case GateKind::CH:
    case GateKind::SWAP:
    case GateKind::CCX:
    case GateKind::CCZ:
    case GateKind::CSWAP:
        return *this; // self-inverse
    case GateKind::S: return Gate(GateKind::Sdg, qubits);
    case GateKind::Sdg: return Gate(GateKind::S, qubits);
    case GateKind::T: return Gate(GateKind::Tdg, qubits);
    case GateKind::Tdg: return Gate(GateKind::T, qubits);
    case GateKind::SX: return Gate(GateKind::SXdg, qubits);
    case GateKind::SXdg: return Gate(GateKind::SX, qubits);
    case GateKind::RX:
    case GateKind::RY:
    case GateKind::RZ:
    case GateKind::P:
    case GateKind::CP:
    case GateKind::CRX:
    case GateKind::CRY:
    case GateKind::CRZ:
    case GateKind::RXX:
    case GateKind::RYY:
    case GateKind::RZZ:
        return Gate(kind, qubits, {-params[0]});
    case GateKind::U3:
        return Gate(kind, qubits, {-params[0], -params[2], -params[1]});
    case GateKind::CU3:
        return Gate(kind, qubits, {-params[0], -params[2], -params[1]});
    case GateKind::ISWAP:
    case GateKind::VUG:
    case GateKind::UNITARY:
        return make_unitary(qubits, unitary().dagger(),
                            kind == GateKind::VUG ? GateKind::VUG : GateKind::UNITARY);
    }
    throw std::logic_error("Gate::inverse: unhandled kind");
}

std::string Gate::to_string() const {
    std::ostringstream os;
    os << kind_name(kind);
    if (!params.empty()) {
        os << "(";
        for (std::size_t i = 0; i < params.size(); ++i) {
            if (i) os << ",";
            os << params[i];
        }
        os << ")";
    }
    os << " ";
    for (std::size_t i = 0; i < qubits.size(); ++i) {
        if (i) os << ",";
        os << "q" << qubits[i];
    }
    return os.str();
}

} // namespace epoc::circuit
