// Hardware-backend model and registry.
//
// The paper's flow (Fig. 1) maps circuits onto a concrete machine before
// pulse generation. A `Backend` is that machine: a named coupling graph plus
// the calibration data pulse generation needs — base DeviceParams, per-qubit
// drive bounds, per-edge coupler/ZZ overrides, and Hamiltonian variant flags
// (ZZ crosstalk between spectator pairs, a 3-level leakage-aware mode).
//
// Every compile targets a Backend: one that names none runs on an implicit
// all-to-all device built from EpocOptions::device and given the empty name
// (validate() rejects empty names, so no registered backend shares its
// keys). `block_model()` turns the calibration into a block model for the
// one builder in qoc/hamiltonian.h: XX entangling lines exist only on
// coupling-map edges, drift ZZ is edge-resolved, and in 3-level mode every
// operator lives in the 3^n transmon space with an anharmonic drift. The
// Hamiltonian's `variant` carries the backend name and the block's drift
// model, so differently named backends never share a pulse-library or store
// entry, while blocks with one name and one Hamiltonian always do.
#pragma once

#include "circuit/routing.h"
#include "linalg/matrix.h"
#include "qoc/hamiltonian.h"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace epoc::backend {

/// Per-edge calibration: resolved from overrides or the base DeviceParams.
struct EdgeParams {
    double coupling_bound;
    double zz_drift;
};

struct Backend {
    Backend(std::string name_, circuit::CouplingMap coupling_,
            qoc::DeviceParams base_ = {});

    std::string name;
    circuit::CouplingMap coupling;
    /// Defaults for every qubit/edge without an explicit override.
    qoc::DeviceParams base;
    /// Per-qubit drive bounds; empty = base.drive_bound everywhere, else one
    /// entry per physical qubit.
    std::vector<double> qubit_drive_bounds;
    /// Per-edge overrides, keyed by the normalized (min,max) endpoint pair.
    /// Keys must be coupling-map edges.
    std::map<std::pair<int, int>, EdgeParams> edge_overrides;
    /// Hamiltonian variant: always-on ZZ between distance-2 (spectator) pairs.
    bool crosstalk_zz = false;
    double crosstalk_strength = 0.0005; ///< [rad/ns], used when crosstalk_zz
    /// Levels per transmon: 2 (qubit) or 3 (leakage-aware qutrit model).
    int levels = 2;
    /// Anharmonicity alpha [rad/ns] for the 3-level drift alpha/2 n(n-1).
    double anharmonicity = -0.33;

    /// Resolved drive bound for physical qubit q.
    double drive_bound(int q) const;
    /// Resolved edge parameters for the (a,b) coupler, either orientation.
    EdgeParams edge(int a, int b) const;
    /// Throws std::invalid_argument when the calibration data is inconsistent
    /// (override on a non-edge, wrong-sized bound vector, bad level count).
    void validate() const;
    /// Canonical textual identity: every double exact_double-encoded, so
    /// backends one ulp apart fingerprint (and therefore key) differently.
    std::string fingerprint() const;
    std::uint64_t fingerprint_hash() const;
    /// The calibration of a block over physical `qubits` (distinct, in
    /// range, in any order: local qubit i is qubits[i]) as a model for the
    /// one builder: drive bounds per qubit; ZZ and a coupler on coupled
    /// pairs; spectator ZZ on distance-2 pairs when crosstalk_zz is set.
    qoc::BlockModel block_model(const std::vector<int>& qubits) const;
    /// build_block_hamiltonian(block_model(qubits)). Control labels use local
    /// indices and `variant` names this backend, so identically calibrated
    /// congruent blocks share pulse-library entries and differently named
    /// backends share none.
    qoc::BlockHamiltonian block_hamiltonian(const std::vector<int>& qubits) const;
};

/// Embed a 2^n-dim unitary into the levels^n transmon space as U (+) I:
/// computational basis states map to the corresponding mixed-radix states,
/// leakage levels are targeted to identity. levels == 2 returns u unchanged.
linalg::Matrix embed_in_levels(const linalg::Matrix& u, int num_qubits, int levels);

/// Widest device backend_from_json accepts. A coupling map keeps an
/// all-pairs distance table, so this keeps it at 64 MiB.
inline constexpr int kMaxBackendQubits = 4096;

/// Parse a backend from a JSON object (see DESIGN.md §4i for the schema).
/// Throws std::invalid_argument on malformed JSON, nesting deeper than 32,
/// a width outside [1, kMaxBackendQubits], a non-integer or out-of-range
/// integer field, or inconsistent data — and on nothing else.
Backend backend_from_json(const std::string& text);

/// Named-device registry. Construction installs the built-in devices
/// (linear-5, ring-8, grid-3x3, heavy-hex-7); "full-N" resolves
/// parametrically. Thread-safe.
class BackendRegistry {
public:
    BackendRegistry();

    /// nullptr when unknown. "full-N" (1 <= N <= 16) is materialized on
    /// first use.
    std::shared_ptr<const Backend> find(const std::string& name) const;
    /// Throws std::invalid_argument on duplicate name or invalid backend.
    std::shared_ptr<const Backend> register_backend(Backend be);
    std::shared_ptr<const Backend> register_json(const std::string& text);
    std::vector<std::string> names() const;

private:
    mutable std::mutex mutex_;
    mutable std::map<std::string, std::shared_ptr<const Backend>> backends_;
};

} // namespace epoc::backend
