// Global-phase-aware unitary comparison.
//
// Two unitaries that differ only by e^{i*phi} implement the same quantum
// operation. EPOC's pulse library keys on this equivalence class (Section 3.4
// of the paper: "EPOC supports the detection of unitary similarity with
// global phase"), so canonicalization and phase-invariant distances live here.
#pragma once

#include "linalg/matrix.h"

#include <cstdint>
#include <string>

namespace epoc::linalg {

/// Hilbert-Schmidt overlap |tr(A^dagger B)| / d, in [0, 1] for unitaries.
/// 1 means equal up to global phase.
double hs_fidelity(const Matrix& a, const Matrix& b);

/// Phase-invariant distance sqrt(max(0, 1 - hs_fidelity)). Zero iff the
/// matrices are equal up to global phase. This is the synthesis cost function.
double phase_invariant_distance(const Matrix& a, const Matrix& b);

/// True if a == e^{i phi} b for some phi, within tol on hs distance.
bool equal_up_to_global_phase(const Matrix& a, const Matrix& b, double tol = 1e-7);

/// True if `u` is the identity up to global phase (HS fidelity within 1e-10):
/// a block or gate the compilers emit no pulse for.
bool is_identity_unitary(const Matrix& u);

/// Multiply by a global phase such that the largest-magnitude entry becomes
/// real and positive. Canonical representative of the phase equivalence class.
Matrix canonicalize_global_phase(const Matrix& m);

/// Quantized fingerprint of the phase-canonical form, suitable as a hash key.
/// Entries are rounded to `decimals` decimal places. Matrices equal up to
/// global phase (and within quantization) produce identical keys.
std::string phase_canonical_key(const Matrix& m, int decimals = 6);

/// Fingerprint WITHOUT phase canonicalization (for the ablation that measures
/// the library hit-rate benefit of phase-aware lookup).
std::string raw_key(const Matrix& m, int decimals = 6);

} // namespace epoc::linalg
