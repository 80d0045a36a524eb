// Parameter-stripped circuit canonicalization: the keying substrate of the
// compilation plan cache (epoc/plan_cache.h).
//
// Variational workloads (VQE/QAOA) recompile one circuit *structure*
// thousands of times with only rotation angles changed. strip_parameters()
// splits a circuit into the two halves that split decision: a canonical
// textual form of the structure — gate kinds, qubit wiring, register width,
// program order, with every rotation angle replaced by a symbolic slot — and
// the slot-ordered angle vector. Two circuits share a structure key iff they
// differ at most in the values bound to those slots; any structural edit
// (a different gate kind, a reindexed qubit, a reordered gate, a wider
// register) changes the key.
//
// Slot numbering is deterministic: gates in program order, each parametric
// gate's first kind_num_params(kind) parameters in declaration order.
// Explicit-unitary gates (VUG/UNITARY) are structural, not parametric — their
// matrix is folded into the key as an exact-encoding FNV-1a fingerprint, so
// two different attached unitaries never alias.
//
// The sentinel helpers encode a slot index *as* a parameter value, letting a
// plan template carry its bindings through structure-only transforms
// (partition, regroup — neither reads parameter values) and recover them by
// scanning afterwards. Sentinels live far outside any physical angle range
// (base 2^42 rad) and are exact integers in double, so recovery is lossless;
// they are never evaluated — binding replaces them before any unitary is
// built.
#pragma once

#include "circuit/circuit.h"

#include <cstddef>
#include <string>
#include <vector>

namespace epoc::circuit {

/// A circuit split into reusable structure and per-call parameters.
struct StrippedCircuit {
    /// Canonical parameter-free form; equal keys <=> equal structure.
    std::string key;
    /// Parameter values in slot order (slot i of the structure holds
    /// params[i]).
    std::vector<double> params;
    /// Number of gates that contributed at least one slot. Zero means the
    /// circuit is angle-free and a plan cache buys nothing over the ordinary
    /// pulse-library/synthesis caches.
    std::size_t parametric_gates = 0;
    /// The circuit with each slot's parameter replaced by its slot_sentinel():
    /// the template a compilation plan is built from. Gates without slots
    /// are copied unchanged.
    Circuit sentinel_template{0};
};

/// Canonicalize `c` (see header comment for the key contract).
StrippedCircuit strip_parameters(const Circuit& c);

/// The sentinel value encoding parameter slot `slot`.
double slot_sentinel(std::size_t slot);
/// True when `v` is a slot sentinel (no physical angle reaches the base).
bool is_slot_sentinel(double v);
/// Inverse of slot_sentinel; only meaningful when is_slot_sentinel(v).
std::size_t sentinel_slot(double v);

/// One gate's parameter-slot binding inside a template circuit: gate `gate`
/// takes params[k] = values[slots[k]] for k < slots.size() (trailing params
/// beyond the kind's declared count are structural and left untouched).
struct ParamBinding {
    std::size_t gate = 0;
    std::vector<std::size_t> slots;
};

/// Scan `c` for sentinel-parameterized gates and return their bindings in
/// gate order. Gates without sentinels contribute nothing.
std::vector<ParamBinding> scan_bindings(const Circuit& c);

/// Apply `bindings` to `c` in place: each bound gate's leading parameters are
/// replaced with the referenced `values`. Throws std::out_of_range when a
/// binding points past the circuit or the value vector (a stale plan — the
/// caller treats that as a cache miss, never ships it).
void bind_parameters(Circuit& c, const std::vector<ParamBinding>& bindings,
                     const std::vector<double>& values);

} // namespace epoc::circuit
