#include "verify/verify.h"

#include "circuit/unitary.h"
#include "linalg/phase.h"
#include "qoc/grape.h"
#include "qoc/pulse_io.h"
#include "util/fault_injection.h"
#include "zx/circuit_to_zx.h"
#include "zx/tensor.h"

#include <cmath>
#include <stdexcept>

namespace epoc::verify {

namespace {

void update_max(std::atomic<double>& slot, double v) {
    double cur = slot.load(std::memory_order_relaxed);
    while (v > cur &&
           !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

// |tr(a^dagger b)| / (||a||_F ||b||_F): 1 iff b is a nonzero scalar multiple
// of a. The ZX tensor evaluator keeps sqrt(2) factors from Hadamard edges, so
// the cross-check must be invariant under arbitrary scalars, not just unit
// phases — hs_fidelity is not enough here.
double cosine_similarity(const linalg::Matrix& a, const linalg::Matrix& b) {
    const linalg::cplx tr = linalg::overlap(a, b);
    const double na = a.frobenius_norm(), nb = b.frobenius_norm();
    if (na <= 0.0 || nb <= 0.0) return 0.0;
    return std::abs(tr) / (na * nb);
}

int interior_spiders(const zx::ZxGraph& g) {
    int n = 0;
    for (int v : g.vertices())
        if (g.is_interior(v)) ++n;
    return n;
}

/// Counts one verdict into `t` and hands it back.
Outcome record(VerifyTally& t, Outcome o) {
    t.checks.fetch_add(1, std::memory_order_relaxed);
    switch (o) {
    case Outcome::passed: t.passed.fetch_add(1, std::memory_order_relaxed); break;
    case Outcome::failed: t.failed.fetch_add(1, std::memory_order_relaxed); break;
    case Outcome::unverified: t.unverified.fetch_add(1, std::memory_order_relaxed); break;
    case Outcome::not_checked: break;
    }
    return o;
}

/// A width-gated check that did not run.
Outcome skip(VerifyTally& t) {
    t.skipped.fetch_add(1, std::memory_order_relaxed);
    return Outcome::not_checked;
}

/// The check's span in the tally's trace (inert without one).
util::Tracer::Span span(const VerifyTally& t, std::string name) {
    return t.trace != nullptr ? t.trace->span(std::move(name), "verify") : util::Tracer::Span();
}

} // namespace

const char* level_name(VerifyLevel level) {
    switch (level) {
    case VerifyLevel::off: return "off";
    case VerifyLevel::sampled: return "sampled";
    case VerifyLevel::full: return "full";
    }
    return "?";
}

VerifyLevel level_from_name(const std::string& name) {
    if (name == "off") return VerifyLevel::off;
    if (name == "sampled") return VerifyLevel::sampled;
    if (name == "full") return VerifyLevel::full;
    throw std::invalid_argument("unknown verify level '" + name +
                                "' (expected off|sampled|full)");
}

const char* outcome_name(Outcome o) {
    switch (o) {
    case Outcome::not_checked: return "not_checked";
    case Outcome::passed: return "passed";
    case Outcome::failed: return "failed";
    case Outcome::unverified: return "unverified";
    }
    return "?";
}

VerifySummary VerifyTally::summary(VerifyLevel level) const {
    VerifySummary s;
    s.level = level;
    s.checks = checks.load(std::memory_order_relaxed);
    s.passed = passed.load(std::memory_order_relaxed);
    s.failed = failed.load(std::memory_order_relaxed);
    s.unverified = unverified.load(std::memory_order_relaxed);
    s.skipped = skipped.load(std::memory_order_relaxed);
    s.revalidations = revalidations.load(std::memory_order_relaxed);
    s.pack_revalidations = pack_revalidations.load(std::memory_order_relaxed);
    s.revalidate_rejects = revalidate_rejects.load(std::memory_order_relaxed);
    s.recomputes = recomputes.load(std::memory_order_relaxed);
    s.max_fidelity_error = max_fidelity_error.load(std::memory_order_relaxed);
    return s;
}

Verifier::Verifier(VerifyOptions opt) : opt_(opt) {
    if (opt_.sample_period < 1) opt_.sample_period = 1;
}

bool Verifier::should_check(std::uint64_t stable_id) const {
    if (!enabled()) return false;
    if (full() || opt_.sample_period <= 1) return true;
    return util::splitmix64(opt_.sample_seed ^ stable_id) %
               static_cast<std::uint64_t>(opt_.sample_period) ==
           0;
}

bool Verifier::should_check_key(const std::string& key) const {
    if (!enabled()) return false;
    return should_check(qoc::fnv1a64(key));
}

bool Verifier::should_check_unitary(const linalg::Matrix& u) const {
    if (!enabled()) return false;
    if (full()) return true; // skip the fingerprint cost when always checking
    return should_check(qoc::fnv1a64(linalg::phase_canonical_key(u, 6)));
}

Outcome Verifier::check_circuit_equiv(VerifyTally& tally, const circuit::Circuit& before,
                                      const circuit::Circuit& after,
                                      const char* what) const {
    if (!enabled()) return Outcome::not_checked;
    if (before.num_qubits() > opt_.max_equiv_qubits ||
        after.num_qubits() > opt_.max_equiv_qubits)
        return skip(tally);
    const util::Tracer::Span s = span(tally, std::string("verify.equiv ") + what);
    try {
        util::fault::maybe_throw("verify.equiv");
        const linalg::Matrix ub = circuit::circuit_unitary(before);
        const linalg::Matrix ua = circuit::circuit_unitary(after);
        bool ok = ub.rows() == ua.rows() &&
                  linalg::phase_invariant_distance(ub, ua) <= opt_.equiv_tol;
        // Third, independent evaluator: the brute-force ZX tensor semantics.
        // Exponential in interior spiders, so full mode only and tiny
        // diagrams only; a disagreement here flags a bug in circuit_unitary
        // itself, which the two-way check above cannot see.
        if (ok && full()) {
            const zx::ZxGraph g = zx::circuit_to_zx(after);
            if (interior_spiders(g) <= opt_.max_tensor_interior) {
                const linalg::Matrix m = zx::zx_to_matrix(g);
                ok = m.rows() == ua.rows() &&
                     cosine_similarity(ua, m) >= 1.0 - opt_.equiv_tol;
            }
        }
        return record(tally, ok ? Outcome::passed : Outcome::failed);
    } catch (...) {
        return record(tally, Outcome::unverified);
    }
}

Outcome Verifier::check_blocks_equiv(VerifyTally& tally, const circuit::Circuit& segment,
                                     const std::vector<partition::CircuitBlock>& blocks,
                                     const char* what) const {
    if (!enabled()) return Outcome::not_checked;
    const int n = segment.num_qubits();
    if (n > opt_.max_equiv_qubits) return skip(tally);
    const util::Tracer::Span s = span(tally, std::string("verify.equiv ") + what);
    try {
        util::fault::maybe_throw("verify.equiv");
        linalg::Matrix u = linalg::Matrix::identity(std::size_t{1} << n);
        for (const partition::CircuitBlock& blk : blocks)
            circuit::apply_gate(u, partition::block_unitary(blk), blk.qubits, n);
        const linalg::Matrix ref = circuit::circuit_unitary(segment);
        const bool ok = linalg::phase_invariant_distance(ref, u) <= opt_.equiv_tol;
        return record(tally, ok ? Outcome::passed : Outcome::failed);
    } catch (...) {
        return record(tally, Outcome::unverified);
    }
}

Outcome Verifier::check_synthesized_block(VerifyTally& tally, const linalg::Matrix& target,
                                          const circuit::Circuit& local,
                                          double distance_tol) const {
    if (!enabled()) return Outcome::not_checked;
    if (local.num_qubits() > opt_.max_equiv_qubits) return skip(tally);
    const util::Tracer::Span s = span(tally, "verify.equiv synth");
    try {
        util::fault::maybe_throw("verify.equiv");
        const linalg::Matrix u = circuit::circuit_unitary(local);
        const bool ok = u.rows() == target.rows() &&
                        linalg::phase_invariant_distance(target, u) <= distance_tol;
        return record(tally, ok ? Outcome::passed : Outcome::failed);
    } catch (...) {
        return record(tally, Outcome::unverified);
    }
}

Outcome Verifier::audit_pulse(VerifyTally& tally, const qoc::BlockHamiltonian& h,
                              const linalg::Matrix& target, const qoc::LatencyResult& lr,
                              double* abs_error, double* resim_fidelity) const {
    if (abs_error != nullptr) *abs_error = 0.0;
    if (resim_fidelity != nullptr) *resim_fidelity = lr.pulse.fidelity;
    if (!enabled()) return Outcome::not_checked;
    const util::Tracer::Span s = span(tally, "verify.simulate");
    try {
        util::fault::maybe_throw("verify.simulate");
        const linalg::Matrix u = qoc::pulse_unitary(h, lr.pulse);
        double f = linalg::hs_fidelity(target, u);
        if (!std::isfinite(f)) f = 0.0;
        const double err = std::abs(lr.pulse.fidelity - f);
        if (abs_error != nullptr) *abs_error = err;
        if (resim_fidelity != nullptr) *resim_fidelity = f;
        update_max(tally.max_fidelity_error, err);
        return record(tally, err <= opt_.fidelity_tol ? Outcome::passed : Outcome::failed);
    } catch (...) {
        return record(tally, Outcome::unverified);
    }
}

bool Verifier::revalidate(VerifyTally& tally, const qoc::BlockHamiltonian& h,
                          const linalg::Matrix& target, const qoc::LatencyResult& lr,
                          bool foreign) const {
    tally.revalidations.fetch_add(1, std::memory_order_relaxed);
    // Foreign entries (pack-tier hits — bytes from another machine or build)
    // are tallied separately: unlike sampled local revalidation, *every* pack
    // hit passes through here, so this counter is the per-compile cost of
    // trust-but-verify ingest.
    if (foreign) tally.pack_revalidations.fetch_add(1, std::memory_order_relaxed);
    const util::Tracer::Span s = span(tally, "verify.revalidate");
    try {
        util::fault::maybe_throw("verify.revalidate");
        const linalg::Matrix u = qoc::pulse_unitary(h, lr.pulse);
        double f = linalg::hs_fidelity(target, u);
        if (!std::isfinite(f)) f = 0.0;
        const bool ok = std::abs(lr.pulse.fidelity - f) <= opt_.fidelity_tol;
        if (!ok) tally.revalidate_rejects.fetch_add(1, std::memory_order_relaxed);
        return ok;
    } catch (...) {
        // A broken verifier must never reject a good store entry: accept and
        // count the entry as explicitly unaudited.
        tally.unverified.fetch_add(1, std::memory_order_relaxed);
        return true;
    }
}

} // namespace epoc::verify
