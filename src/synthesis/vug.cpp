#include "synthesis/vug.h"

#include "circuit/unitary.h"

#include <cmath>
#include <stdexcept>

namespace epoc::synthesis {

using circuit::GateKind;
using linalg::cplx;
using linalg::scaled_phase;

int SynthStructure::num_params() const {
    int n = 0;
    for (const SynthOp& op : ops)
        if (op.kind == SynthOp::Kind::Vug) n += 3;
    return n;
}

int SynthStructure::cnot_count() const {
    int n = 0;
    for (const SynthOp& op : ops)
        if (op.kind == SynthOp::Kind::Cnot) ++n;
    return n;
}

SynthStructure SynthStructure::seed(int num_qubits) {
    SynthStructure s;
    s.num_qubits = num_qubits;
    for (int q = 0; q < num_qubits; ++q) s.ops.push_back(SynthOp::vug(q));
    return s;
}

SynthStructure SynthStructure::expanded(int a, int b) const {
    SynthStructure s = *this;
    s.ops.push_back(SynthOp::cnot(a, b));
    s.ops.push_back(SynthOp::vug(a));
    s.ops.push_back(SynthOp::vug(b));
    return s;
}

Matrix structure_unitary(const SynthStructure& s, const std::vector<double>& params) {
    if (static_cast<int>(params.size()) != s.num_params())
        throw std::invalid_argument("structure_unitary: parameter count mismatch");
    const std::size_t dim = std::size_t{1} << s.num_qubits;
    Matrix u = Matrix::identity(dim);
    std::size_t p = 0;
    for (const SynthOp& op : s.ops) {
        if (op.kind == SynthOp::Kind::Vug) {
            const Matrix g = circuit::u3_matrix(params[p], params[p + 1], params[p + 2]);
            p += 3;
            circuit::apply_gate(u, g, {op.a}, s.num_qubits);
        } else {
            circuit::apply_gate(u, circuit::kind_matrix(GateKind::CX, {}), {op.a, op.b},
                                s.num_qubits);
        }
    }
    return u;
}

circuit::Circuit structure_to_circuit(const SynthStructure& s,
                                      const std::vector<double>& params) {
    circuit::Circuit c(s.num_qubits);
    std::size_t p = 0;
    for (const SynthOp& op : s.ops) {
        if (op.kind == SynthOp::Kind::Vug) {
            c.u3(params.at(p), params.at(p + 1), params.at(p + 2), op.a);
            p += 3;
        } else {
            c.cx(op.a, op.b);
        }
    }
    return c;
}

Matrix u3_derivative(double theta, double phi, double lambda, int which) {
    const double c = std::cos(theta / 2), sn = std::sin(theta / 2);
    switch (which) {
    case 0: // d/dtheta
        return Matrix{{cplx{-sn / 2, 0.0}, -0.5 * scaled_phase(c, lambda)},
                      {0.5 * scaled_phase(c, phi), -0.5 * scaled_phase(sn, phi + lambda)}};
    case 1: // d/dphi
        return Matrix{{cplx{0, 0}, cplx{0, 0}},
                      {cplx{0, 1} * scaled_phase(sn, phi),
                       cplx{0, 1} * scaled_phase(c, phi + lambda)}};
    case 2: // d/dlambda
        return Matrix{{cplx{0, 0}, cplx{0, -1} * scaled_phase(sn, lambda)},
                      {cplx{0, 0}, cplx{0, 1} * scaled_phase(c, phi + lambda)}};
    default:
        throw std::invalid_argument("u3_derivative: which must be 0..2");
    }
}

} // namespace epoc::synthesis
