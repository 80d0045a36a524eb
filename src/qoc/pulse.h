// Piecewise-constant pulse representation produced by GRAPE.
#pragma once

#include "linalg/matrix.h"

#include <vector>

namespace epoc::qoc {

struct Pulse {
    /// amplitudes[j][k]: control line j, time slot k [rad/ns].
    std::vector<std::vector<double>> amplitudes;
    double dt = 2.0;          ///< slot width [ns]
    double fidelity = 0.0;    ///< |tr(U_target^dag U_pulse)| / d
    /// Index of the best iterate in the GRAPE run that produced this pulse,
    /// not that run's total work. When a warm run is followed by a cold
    /// rescue (see grape_optimize), the pulse that ships carries the sum of
    /// both runs' indices.
    int grape_iterations = 0;
    /// True if GRAPE seeded this pulse from GrapeOptions::warm_amplitudes.
    bool warm_start_applied = false;
    /// True if a warm start was requested but its shape did not match the
    /// Hamiltonian's control count — the optimizer fell back to a cold start
    /// instead of silently dropping the request (see grape_optimize).
    bool warm_start_mismatch = false;
    /// True if GrapeOptions::deadline expired mid-optimization: the pulse is
    /// the best iterate found before the budget ran out, not a converged one.
    bool timed_out = false;
    /// How many times the optimizer re-randomized its amplitudes after the
    /// fidelity went non-finite (NaN/inf gradients), and whether it gave up
    /// after the retry budget — the returned amplitudes are always the last
    /// finite best-so-far, never the poisoned iterate.
    int nonfinite_reseeds = 0;
    bool nonfinite_aborted = false;

    int num_slots() const {
        return amplitudes.empty() ? 0 : static_cast<int>(amplitudes.front().size());
    }
    double duration() const { return num_slots() * dt; }
};

} // namespace epoc::qoc
