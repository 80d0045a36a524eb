// Analytic two-qubit KAK (Cartan) decomposition.
//
// Every U in U(4) factors, up to global phase, as
//     U = (a1 (x) b1) * exp(i (cx XX + cy YY + cz ZZ)) * (a2 (x) b2)
// with single-qubit unitaries a*, b* and interaction coefficients c*. The
// construction follows the magic-basis recipe (Kraus & Cirac 2001): conjugate
// into the Bell basis where SU(2)xSU(2) becomes SO(4), simultaneously
// diagonalize the symmetric unitary V^T V with the real Jacobi solver, and
// read the canonical class off the eigenphases.
//
// Compared with QSearch this is exact, non-iterative and ~1000x faster, but
// only for 2-qubit targets. The compile pipeline does not call it; its
// interaction coefficients are a candidate lower bound on 2-qubit pulse
// latency.
#pragma once

#include "circuit/circuit.h"
#include "linalg/matrix.h"

namespace epoc::synthesis {

struct KakDecomposition {
    linalg::Matrix a1, b1; ///< outer (later-in-time) local gates; a on qubit 1
    linalg::Matrix a2, b2; ///< inner (earlier) local gates
    double cx = 0.0, cy = 0.0, cz = 0.0; ///< canonical interaction coefficients
};

/// Decompose a 4x4 unitary. Throws std::invalid_argument for non-unitary or
/// wrongly shaped input.
KakDecomposition kak_decompose(const linalg::Matrix& u);

/// Realize the decomposition as a circuit over {u3, rxx, ryy, rzz} on two
/// qubits (qubit 0 = low bit). Equal to the input up to global phase.
circuit::Circuit kak_to_circuit(const KakDecomposition& k);

/// Convenience: decompose and lower in one step.
circuit::Circuit kak_synthesize(const linalg::Matrix& u);

} // namespace epoc::synthesis
