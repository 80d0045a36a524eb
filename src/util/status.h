// Structured error taxonomy for per-block pipeline work.
//
// The pipeline's unit of failure is a *block* (a partition block in the
// synthesis stage, a regroup block or single gate in the pulse stage), and a
// production compile must absorb a failing block instead of aborting the
// whole circuit. BlockStatus replaces escape-by-exception for that per-block
// work: each block records which stage it was in, why it degraded (if it
// did), and whether a fallback was taken — so a compile can always return a
// valid schedule plus an exact account of what was degraded and where.
#pragma once

#include <string>

namespace epoc::util {

/// Pipeline stage a status refers to.
enum class Stage {
    input,     ///< compile() boundary validation
    zx,        ///< graph-based depth optimization
    partition, ///< greedy circuit partitioning
    synthesis, ///< per-block ZYZ/QSearch synthesis
    regroup,   ///< VUG+CNOT regrouping
    pulse,     ///< per-block / per-gate GRAPE pulse generation
    schedule,  ///< ASAP scheduling
};

/// Why a block (or the whole compile) degraded.
enum class Cause {
    none,          ///< clean: no fallback, no error
    exception,     ///< the stage threw; the fallback absorbed it
    timeout,       ///< the compile deadline expired mid-stage
    cancelled,     ///< the caller's CancelToken fired
    infeasible,    ///< latency search could not meet the fidelity threshold
    nonfinite,     ///< GRAPE fidelity/gradients went non-finite past retries
    invalid_input, ///< compile() boundary validation rejected the circuit
    injected,      ///< a fault-injection site fired (tests/chaos runs)
    verify_failed, ///< an independent audit rejected the stage's output
};

inline const char* stage_name(Stage s) {
    switch (s) {
        case Stage::input: return "input";
        case Stage::zx: return "zx";
        case Stage::partition: return "partition";
        case Stage::synthesis: return "synthesis";
        case Stage::regroup: return "regroup";
        case Stage::pulse: return "pulse";
        case Stage::schedule: return "schedule";
    }
    return "?";
}

inline const char* cause_name(Cause c) {
    switch (c) {
        case Cause::none: return "none";
        case Cause::exception: return "exception";
        case Cause::timeout: return "timeout";
        case Cause::cancelled: return "cancelled";
        case Cause::infeasible: return "infeasible";
        case Cause::nonfinite: return "nonfinite";
        case Cause::invalid_input: return "invalid_input";
        case Cause::injected: return "injected";
        case Cause::verify_failed: return "verify_failed";
    }
    return "?";
}

/// Outcome of one unit of pipeline work. Default-constructed means "clean".
struct BlockStatus {
    Stage stage = Stage::input;
    Cause cause = Cause::none;
    /// True when the degradation ladder substituted a fallback artifact
    /// (original gates, gate-by-gate pulses, a placeholder pulse, ...).
    bool fallback_taken = false;
    /// Human-readable context, e.g. the absorbed exception's what().
    std::string detail;

    bool ok() const { return cause == Cause::none; }

    /// "stage/cause[/fallback][: detail]" — for logs and error messages.
    std::string to_string() const {
        std::string s = stage_name(stage);
        s += '/';
        s += cause_name(cause);
        if (fallback_taken) s += "/fallback";
        if (!detail.empty()) {
            s += ": ";
            s += detail;
        }
        return s;
    }
};

} // namespace epoc::util
