#include "qoc/pulse_library.h"

#include "linalg/phase.h"
#include "qoc/pulse_io.h"

#include <sstream>

namespace epoc::qoc {

std::string PulseLibrary::key_of(const BlockHamiltonian& h, const Matrix& m,
                                 const LatencySearchOptions& opt) const {
    // Unitary part, quantized at 6 decimals: distinct gates stay distinct,
    // float jitter from equal unitaries does not split entries. This is the
    // one deliberately *lossy* component of the key.
    std::ostringstream os;
    os << (phase_aware_ ? linalg::phase_canonical_key(m, 6) : linalg::raw_key(m, 6));

    // Hamiltonian fingerprint: dimension, slot width and each control line's
    // label/bound, plus the builder's `variant` below (device name, levels,
    // drift), pin down the device model a pulse was optimized against;
    // custom Hamiltonians with equal lines and variant are treated as equal.
    //
    // All doubles below are encoded exactly (IEEE-754 bit pattern, see
    // pulse_io.h), never via decimal formatting: the historical precision(12)
    // ostream rendering collided option values that differed past 12
    // significant digits — e.g. two learning rates one ulp apart shared a
    // cache entry, and with the persistent store the collision would have
    // crossed process boundaries. The same encoding feeds the store's
    // content-addressed filenames, so the disk tier inherits the exactness.
    os << "|H:" << h.num_qubits << ":" << exact_double(h.dt);
    for (const ControlLine& c : h.controls)
        os << ":" << c.label << "=" << exact_double(c.bound);
    // Drift variant: control lines alone leave the drift ambiguous (ZZ
    // strengths, crosstalk terms, level structure) and name no device; the
    // builder fingerprints those here.
    os << "|V:" << h.variant;

    // Effective search options. warm_amplitudes is intentionally absent (see
    // header): it seeds the optimizer on a miss but does not define the entry.
    // The deadline pointer is likewise absent: a deadline shapes *whether* a
    // result is authoritative (non-authoritative ones are never cached), not
    // which entry it belongs to.
    os << "|O:" << exact_double(opt.fidelity_threshold) << ":" << opt.min_slots << ":"
       << opt.max_slots << ":" << opt.slot_granularity << "|G:"
       << opt.grape.max_iterations << ":" << exact_double(opt.grape.learning_rate)
       << ":" << opt.grape.seed << ":" << exact_double(opt.grape.init_scale) << ":"
       << opt.grape.nonfinite_retries << "|" << kGeneratorTag;
    return os.str();
}

std::shared_ptr<const LatencyResult> PulseLibrary::get_or_generate(
    const BlockHamiltonian& h, const Matrix& target, const LatencySearchOptions& opt,
    const PulseLookup& lookup) {
    util::Tracer* const trace = lookup.trace;
    const std::string key = key_of(h, target, opt);
    // A waiter that inherits a degraded (non-authoritative) result from a
    // losing leader re-enters the cache while its own budget is intact, so a
    // healthy caller never ships another caller's degradation.
    return cache_.get_or_compute_retrying(
        key,
        [&] {
            // Single-flight: this body runs exactly once per entry, on the
            // worker thread that won the miss — so the span lands under that
            // worker's row, the counters aggregate the same totals for any
            // thread count, and the store sees at most one read and one write
            // per key however many threads raced here.
            if (store_ != nullptr) {
                bool rejected = false;
                bool from_pack = false;
                if (std::optional<LatencyResult> stored =
                        store_->load(key, &from_pack)) {
                    if (!lookup.revalidate ||
                        lookup.revalidate(key, h, target, *stored, from_pack)) {
                        // L2 hit: promote to memory verbatim. No GRAPE ran,
                        // so none of the qoc.* generation counters move.
                        store_hits_.fetch_add(1, std::memory_order_relaxed);
                        if (from_pack) {
                            store_pack_hits_.fetch_add(1,
                                                       std::memory_order_relaxed);
                            if (trace != nullptr)
                                trace->add_counter("qoc.store_pack_promotions");
                        }
                        if (trace != nullptr)
                            trace->add_counter("qoc.store_promotions");
                        return std::move(*stored);
                    }
                    // Revalidation rejected the entry: its bytes were intact
                    // (the load passed the checksum) but its physics is
                    // wrong. Quarantine it in the tier and fall through to
                    // GRAPE exactly as if the probe had missed — but count it
                    // *only* as a rejection: hits + misses + rejections must
                    // partition the probes (the historical double count of
                    // rejections as misses made per-tenant dashboards
                    // irreconcilable: counted outcomes exceeded probes).
                    rejected = true;
                    store_rejected_.fetch_add(1, std::memory_order_relaxed);
                    if (trace != nullptr)
                        trace->add_counter("qoc.store_rejections");
                    store_->invalidate(key);
                }
                if (!rejected) store_misses_.fetch_add(1, std::memory_order_relaxed);
            }
            util::Tracer::Span span;
            if (trace != nullptr)
                span = trace->span("grape " + std::to_string(h.num_qubits) + "q g" +
                                         std::to_string(opt.slot_granularity),
                                     "qoc");
            LatencyResult res = find_minimal_latency_pulse(h, target, opt);
            if (trace != nullptr) {
                trace->add_counter("qoc.grape_runs",
                                     static_cast<std::uint64_t>(res.grape_runs));
                trace->add_counter(
                    "qoc.grape_iterations",
                    static_cast<std::uint64_t>(res.pulse.grape_iterations));
                trace->add_counter("qoc.pulse_slots",
                                     static_cast<std::uint64_t>(res.pulse.num_slots()));
                if (!res.feasible) trace->add_counter("qoc.infeasible_searches");
                if (res.pulse.warm_start_mismatch)
                    trace->add_counter("qoc.warm_start_mismatches");
                if (res.pulse.nonfinite_reseeds > 0)
                    trace->add_counter(
                        "qoc.grape_reseeds",
                        static_cast<std::uint64_t>(res.pulse.nonfinite_reseeds));
                if (res.pulse.nonfinite_aborted)
                    trace->add_counter("qoc.grape_nonfinite_aborts");
                if (res.timed_out) trace->add_counter("qoc.timed_out_searches");
                if (!res.authoritative())
                    trace->add_counter("robust.uncached_degraded_pulses");
            }
            // Write-back: only authoritative results reach disk — the same
            // poisoning rule the `cacheable` predicate enforces for memory,
            // applied before the entry can outlive the process. Warm-started
            // results additionally stay process-local: their trajectory
            // depended on seed amplitudes the key does not encode, so
            // persisting them would hand a later cold process a
            // seed-dependent pulse under a seed-independent key.
            if (store_ != nullptr && res.authoritative()) {
                if (res.pulse.warm_start_applied) {
                    store_warm_skipped_.fetch_add(1, std::memory_order_relaxed);
                    if (trace != nullptr)
                        trace->add_counter("qoc.store_warm_skips");
                } else {
                    store_->store(key, res);
                    store_writes_.fetch_add(1, std::memory_order_relaxed);
                }
            }
            return res;
        },
        // Cache-poisoning rule: degraded results are handed to the caller
        // but evicted, so a later compile with slack (or without injected
        // faults) re-attempts instead of being served a degraded "hit".
        [](const LatencyResult& r) { return r.authoritative(); }, opt.deadline,
        [&] {
            if (trace != nullptr) trace->add_counter("qoc.waiter_retries");
        });
}

std::shared_ptr<const LatencyResult> PulseLibrary::regenerate(
    const BlockHamiltonian& h, const Matrix& target, const LatencySearchOptions& opt,
    const std::shared_ptr<const LatencyResult>& bad, const PulseLookup& lookup) {
    const std::string key = key_of(h, target, opt);
    // Only the eviction winner touches the tier: a loser arriving after the
    // winner's fresh result was written back must not quarantine that fresh
    // entry. Losers fall straight through to get_or_generate, which waits on
    // or hits the winner's replacement.
    if (cache_.erase_if(key, bad) && store_ != nullptr) store_->invalidate(key);
    return get_or_generate(h, target, opt, lookup);
}

std::shared_ptr<const LatencyResult> PulseLibrary::peek(
    const BlockHamiltonian& h, const Matrix& target,
    const LatencySearchOptions& opt) const {
    return cache_.peek(key_of(h, target, opt));
}

} // namespace epoc::qoc
