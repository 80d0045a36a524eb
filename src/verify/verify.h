// Independent output auditing: the compiler's trust-but-verify tier.
//
// EPOC's pipeline is built on reuse — a phase-aware pulse library, a
// synthesis cache, an on-disk store — and reuse is exactly where silent
// correctness drift creeps in: a poisoned cache entry, a store file written
// by a buggy or older build, an optimizer that returns a plausible circuit
// for the wrong unitary. The checksums and status flags of the resilience
// and store layers catch *structural* damage; nothing before this layer
// independently checked that what the compiler emits actually implements the
// circuit. The Verifier closes that gap with three families of checks:
//
//   * Stage-equivalence oracles. The ZX-optimized circuit must equal the
//     input up to global phase; partition/regroup block lists must reproduce
//     the circuit segment they replace; each synthesized block must match
//     its target unitary within the synthesis threshold. All oracles
//     re-derive unitaries through circuit/unitary.h — a different code path
//     from the stages they audit — and, for tiny diagrams in `full` mode,
//     cross-check through the brute-force ZX tensor semantics (zx/tensor.h),
//     a third independent evaluator.
//   * Schedule audit. Every emitted pulse is forward-simulated under its
//     Hamiltonian (qoc::pulse_unitary) and the re-simulated process fidelity
//     is cross-checked against the fidelity the latency search recorded. A
//     disagreement beyond `fidelity_tol` marks the pulse bad; the absolute
//     errors of the shipped pulses aggregate into a per-schedule error
//     budget on EpocResult.
//   * Store revalidation. L2 (disk) hits are re-simulated on load — sampled
//     or always, by level — which catches entries a checksum cannot: valid
//     bytes encoding wrong physics. Rejected entries are quarantined via
//     the store's existing quarantine path and transparently recomputed.
//
// Failure semantics mirror the degradation ladder (util/status.h): a
// verification failure never throws. It becomes Cause::verify_failed on the
// block's status — recompute once (evicting the suspect cache/store entry),
// then fall back a rung — so a compile with a detected bad artifact still
// returns a complete schedule, normally bit-identical to an uncorrupted run.
// The verifier itself is guarded by fault-injection sites (`verify.equiv`,
// `verify.simulate`, `verify.revalidate`): a broken verifier degrades to
// Outcome::unverified and never fails a clean compile.
//
// Levels (EpocOptions::verify_level):
//   off      — no checks; the compile is bit-identical to a build without
//              the verifier (every call site gates on enabled()).
//   sampled  — stage-level oracles always; per-block synthesis/pulse audits
//              and store revalidation on a deterministic ~1/sample_period
//              subset keyed on the target unitary / store key (never on
//              arrival order, so the subset is thread-count-invariant).
//   full     — every check, every block, every store hit.
#pragma once

#include "partition/partition.h"
#include "qoc/latency_search.h"
#include "util/trace.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace epoc::verify {

/// Audit level; EpocOptions::verify_level defaults to `off`.
enum class VerifyLevel : std::uint8_t { off, sampled, full };

const char* level_name(VerifyLevel level);
/// Parse "off" | "sampled" | "full"; throws std::invalid_argument otherwise.
VerifyLevel level_from_name(const std::string& name);

/// Per-check (and per-BlockReport) verification outcome.
enum class Outcome : std::uint8_t {
    not_checked, ///< verification off, sampled out, or not applicable
    passed,      ///< independently confirmed
    failed,      ///< the artifact does not match what it claims to implement
    unverified,  ///< the *verifier* failed (exception / injected fault): the
                 ///< artifact ships as-is, explicitly unaudited — a broken
                 ///< verifier must never fail a clean compile
};

const char* outcome_name(Outcome o);

struct VerifyOptions {
    VerifyLevel level = VerifyLevel::off;
    /// Stage-equivalence oracles build full 2^n unitaries; above this width
    /// they are skipped (Outcome::not_checked) instead of stalling the
    /// compile on an exponential check.
    int max_equiv_qubits = 7;
    /// Hilbert-Schmidt distance tolerance for the circuit-level oracles.
    double equiv_tol = 1e-6;
    /// Tolerance on |recorded - re-simulated| pulse fidelity. The recorded
    /// number is computed by the same overlap formula GRAPE maximizes, so a
    /// healthy pulse agrees to ~1e-12; 1e-6 leaves room for non-associative
    /// float reduction while still catching any physically meaningful drift.
    double fidelity_tol = 1e-6;
    /// `sampled` audits ~1/sample_period of the per-block checks.
    int sample_period = 8;
    /// Seed of the deterministic sampling hash.
    std::uint64_t sample_seed = 0x9e3779b97f4a7c15ULL;
    /// `full` mode cross-checks the ZX oracle through zx_to_matrix when the
    /// optimized circuit's diagram has at most this many interior spiders
    /// (the tensor evaluator is exponential in that count).
    int max_tensor_interior = 12;
};

/// Per-compile audit tally, surfaced on EpocResult::verify. All counts are
/// deterministic across thread counts: which checks run is a function of
/// block indices and unitary fingerprints, never of scheduling.
struct VerifySummary {
    VerifyLevel level = VerifyLevel::off;
    std::size_t checks = 0;     ///< oracles + audits that ran to a verdict
    std::size_t passed = 0;
    std::size_t failed = 0;
    std::size_t unverified = 0; ///< verifier-side failures (never fatal)
    std::size_t skipped = 0;    ///< width-gated or sampled-out checks
    std::size_t revalidations = 0;       ///< store hits re-simulated on load
    /// Revalidations of *foreign* entries (pack-tier hits), a subset of
    /// `revalidations`. These bypass sampling — every pack hit is audited —
    /// so this is the standing cost of trust-but-verify library ingest.
    std::size_t pack_revalidations = 0;
    std::size_t revalidate_rejects = 0;  ///< ... that were quarantined
    std::size_t recomputes = 0; ///< verify-triggered regenerations
    /// Sum over the shipped schedule's audited pulses of
    /// |recorded - re-simulated| fidelity: the compile's audited error
    /// budget. Accumulated in deterministic block-merge order.
    double error_budget = 0.0;
    /// Largest single audit error observed this compile (either arm).
    double max_fidelity_error = 0.0;

    /// No artifact failed an audit and no store entry was rejected.
    bool clean() const { return failed == 0 && revalidate_rejects == 0; }

    /// Calls `f(name, value)` for every count above under its exported
    /// `verify.*` name: the one list the trace and the tools share.
    template <typename F>
    void for_each_counter(F&& f) const {
        f("verify.checks", checks);
        f("verify.passed", passed);
        f("verify.failed", failed);
        f("verify.unverified", unverified);
        f("verify.skipped", skipped);
        f("verify.revalidations", revalidations);
        f("verify.pack_revalidations", pack_revalidations);
        f("verify.revalidate_rejects", revalidate_rejects);
        f("verify.recomputes", recomputes);
    }
};

/// One compile's running audit record. Every check records into the tally it
/// is passed; the call's workers share one tally, so the counts are relaxed
/// atomic sums, whose totals do not depend on thread count. `trace`, when
/// set, receives each check's span.
struct VerifyTally {
    explicit VerifyTally(util::Tracer* trace = nullptr) : trace(trace) {}

    util::Tracer* trace;
    std::atomic<std::size_t> checks{0};
    std::atomic<std::size_t> passed{0};
    std::atomic<std::size_t> failed{0};
    std::atomic<std::size_t> unverified{0};
    std::atomic<std::size_t> skipped{0};
    std::atomic<std::size_t> revalidations{0};
    std::atomic<std::size_t> pack_revalidations{0};
    std::atomic<std::size_t> revalidate_rejects{0};
    std::atomic<std::size_t> recomputes{0};
    std::atomic<double> max_fidelity_error{0.0};

    /// The counts so far, at `level`; the error budget is the caller's.
    VerifySummary summary(VerifyLevel level) const;
};

/// Thread-safe, stateless auditor: it holds only its options, so one
/// instance serves every concurrent compile of a compiler. Every check
/// method is noexcept-in-spirit: internal failures (including the verify.*
/// fault-injection sites) surface as Outcome::unverified, never as an
/// exception.
class Verifier {
public:
    explicit Verifier(VerifyOptions opt = {});

    /// False at level off: call sites skip all verify work (and cost).
    bool enabled() const { return opt_.level >= VerifyLevel::sampled; }
    bool full() const { return opt_.level == VerifyLevel::full; }
    const VerifyOptions& options() const { return opt_; }

    /// Deterministic sampling verdicts: full -> always; sampled -> a hash of
    /// the id/key/unitary fingerprint, invariant under thread count.
    bool should_check(std::uint64_t stable_id) const;
    bool should_check_key(const std::string& key) const;
    bool should_check_unitary(const linalg::Matrix& u) const;

    /// Oracle: `after` implements `before` up to global phase (width-gated).
    /// In full mode, additionally cross-checked against the ZX tensor
    /// semantics of `after`'s diagram when that diagram is small enough.
    /// `what` labels the span ("zx", ...).
    Outcome check_circuit_equiv(VerifyTally& tally, const circuit::Circuit& before,
                                const circuit::Circuit& after, const char* what) const;

    /// Oracle: the block list reproduces `segment` — the product of the
    /// embedded block unitaries equals the segment's unitary up to global
    /// phase (width-gated).
    Outcome check_blocks_equiv(VerifyTally& tally, const circuit::Circuit& segment,
                               const std::vector<partition::CircuitBlock>& blocks,
                               const char* what) const;

    /// Oracle: the synthesized local circuit realises `target` within
    /// `distance_tol` (phase-invariant distance; pass the synthesis
    /// threshold with slack).
    Outcome check_synthesized_block(VerifyTally& tally, const linalg::Matrix& target,
                                    const circuit::Circuit& local,
                                    double distance_tol) const;

    /// Schedule audit: forward-simulate `lr`'s pulse under `h` and cross-
    /// check against the recorded fidelity. On any verdict, `abs_error`
    /// receives |recorded - re-simulated| (0 when unverified) and
    /// `resim_fidelity` the re-simulated value clamped finite — the number
    /// to ship when the recorded one is proven untrustworthy.
    Outcome audit_pulse(VerifyTally& tally, const qoc::BlockHamiltonian& h,
                        const linalg::Matrix& target, const qoc::LatencyResult& lr,
                        double* abs_error = nullptr,
                        double* resim_fidelity = nullptr) const;

    /// Store-revalidation oracle (the pipeline's PulseLibrary revalidation
    /// hook): true accepts the entry. Sampling (should_check_key) is the
    /// caller's job; a verifier-side failure accepts — degrade to
    /// unverified, never reject a good store on a broken verifier. `foreign`
    /// marks pack-tier entries (counted separately; see
    /// VerifySummary::pack_revalidations). Works at every verify level,
    /// `off` included — foreign-byte ingest must not depend on the audit
    /// knob.
    bool revalidate(VerifyTally& tally, const qoc::BlockHamiltonian& h,
                    const linalg::Matrix& target, const qoc::LatencyResult& lr,
                    bool foreign = false) const;

private:
    VerifyOptions opt_;
};

} // namespace epoc::verify
