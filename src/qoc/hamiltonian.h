// Control Hamiltonian model for a block of transmon-style qubits.
//
// Works in the rotating frame: each qubit has X and Y drive lines and every
// coupled qubit pair inside a block shares an XX entangling line (tunable
// coupler). A weak always-on ZZ drift models residual coupling; in 3-level
// mode every operator lives in the 3^n transmon space with an anharmonic
// drift. Amplitude bounds set the physical speed limit that the
// minimal-latency search (latency_search.h) discovers. Units: time in ns,
// amplitudes in rad/ns.
//
// One builder, build_block_hamiltonian(), assembles every block Hamiltonian
// from a BlockModel: make_block_hamiltonian() fills in the uniform
// all-to-all model, backend::Backend::block_model() fills it from a
// device's calibration.
#pragma once

#include "linalg/matrix.h"

#include <string>
#include <vector>

namespace epoc::qoc {

using linalg::Matrix;

struct DeviceParams {
    /// Max |amplitude| of single-qubit X/Y drives [rad/ns]. 0.157 rad/ns
    /// (2*pi*25 MHz) gives a ~20 ns pi-pulse, typical of IBM backends.
    double drive_bound = 0.157;
    /// Max |amplitude| of the two-qubit XX coupler [rad/ns]; weaker than the
    /// drive, making entangling pulses the latency bottleneck, as on hardware.
    double coupling_bound = 0.020;
    /// Always-on ZZ drift strength [rad/ns].
    double zz_drift = 0.002;
    /// GRAPE time-slot width [ns].
    double dt = 2.0;
};

/// One control line: a label, its Hamiltonian term, and its amplitude bound.
struct ControlLine {
    std::string label;
    Matrix h;
    double bound;
};

/// The block Hamiltonian: drift + control lines for `num_qubits` qubits.
struct BlockHamiltonian {
    int num_qubits = 1;
    Matrix drift;
    std::vector<ControlLine> controls;
    /// GRAPE slot width copied from the model [ns].
    double dt = 2.0;
    /// What the control labels and bounds leave open: the device name, the
    /// level count (and anharmonicity) and every pair's ZZ strength,
    /// exact_double-encoded, never decimal-formatted. With the labels, bounds
    /// and dt it fixes the Hamiltonian exactly, so it is the cache key's
    /// whole device component.
    std::string variant;
};

/// The per-block slice of a device model, over block-local qubits 0..n-1.
struct BlockModel {
    /// Joins `variant`, so differently named devices never share a key.
    /// Empty for make_block_hamiltonian and for a compile that names no
    /// backend.
    std::string name;
    /// Levels per transmon: 2 (qubit) or 3 (leakage-aware qutrit).
    int levels = 2;
    /// Anharmonicity alpha [rad/ns] of the drift alpha/2 n(n-1); levels > 2.
    double anharmonicity = 0.0;
    double dt = 2.0; ///< GRAPE slot width [ns]
    /// X/Y drive bound per qubit [rad/ns]; its size is the block width.
    std::vector<double> drive_bounds;
    struct Pair {
        double zz = 0.0;            ///< always-on ZZ drift [rad/ns]; 0 = none
        bool coupled = false;       ///< an XX coupler joins the pair
        double coupler_bound = 0.0; ///< that coupler's bound [rad/ns]
    };
    /// One entry per pair i < j, in the order (0,1), (0,2), ..., (1,2), ...
    std::vector<Pair> pairs;

    /// The builder's `variant` plus dt, drive bounds and couplers, exactly
    /// encoded: equal keys build equal Hamiltonians, whatever the register
    /// width or physical qubits the block came from.
    std::string key() const;
};

/// The one block-Hamiltonian builder. Controls are x0, y0, x1, y1, ...,
/// then xx<i>_<j> for every coupled pair. Throws std::invalid_argument on an
/// empty block, a level count other than 2 or 3, or a wrong pair count.
BlockHamiltonian build_block_hamiltonian(const BlockModel& model);

/// The uniform all-to-all model for a block of n qubits (n >= 1).
BlockHamiltonian make_block_hamiltonian(int num_qubits, const DeviceParams& dev = {});

} // namespace epoc::qoc
