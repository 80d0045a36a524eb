// Pulse library: the lookup table of Section 3.4.
//
// Entries are keyed on the *full generation context*, not the unitary alone:
//
//   (canonical unitary, Hamiltonian fingerprint, latency-search options)
//
// The unitary key is global-phase-aware in EPOC mode (two unitaries differing
// only by e^{i*phi} share one entry, raising the hit rate; the phase-oblivious
// mode exists for the ablation benchmark). The Hamiltonian fingerprint covers
// dimension, slot width, every control line's bound and the builder's
// variant (device name, levels, drift), so two device models never trade
// pulses. The options fingerprint covers the search parameters
// that shape the result — fidelity_threshold, min/max_slots, slot_granularity
// and the GRAPE hyperparameters — so e.g. the pipeline's coarse-granularity
// regrouped arm can never receive a fine-granularity pulse generated earlier
// for the same unitary (the historical collision: key_of ignored the options,
// and the wide-block slot coarsening silently never applied on hits).
// GrapeOptions::warm_amplitudes is deliberately *excluded*: a warm start only
// seeds the optimizer on a miss, and AccQOC-style MST construction relies on
// later exact-option lookups hitting the warm-started entry. The flip side of
// that exclusion is a persistence rule: warm-started results stay in memory
// (the MST reliance above) but are never written to the L2 tier — a pulse
// whose trajectory depended on seed amplitudes that are not part of its key
// must not outlive the process under a key that promises seed-independence.
// A later cold process would load it where a cold generation was promised.
//
// The library is thread-safe: the parallel pipeline stages hammer it from
// every worker. Lookups are sharded-lock reads; misses are single-flight (two
// threads missing on the same equivalence class run exactly one GRAPE latency
// search — the second blocks and reuses the first's result). Entries are
// returned as shared_ptr, so they stay valid however the underlying table
// rehashes under concurrent insertion.
//
// An optional second (L2) tier — in practice store::PulseStore, the on-disk
// artifact store — slots in behind the memory table: a memory miss first
// probes the tier and only falls through to GRAPE when the tier misses too;
// generated authoritative results are written back. The probe and write-back
// run inside the single-flight slot, so N threads missing on one key still do
// at most one disk read and one GRAPE search between them. Degraded results
// are never offered to the tier (the PR 3 cache-poisoning rule extends to
// disk), and the tier sees the exact same key string as the memory table.
#pragma once

#include "qoc/latency_search.h"
#include "util/sharded_cache.h"
#include "util/trace.h"

#include <atomic>
#include <functional>
#include <memory>
#include <optional>

namespace epoc::qoc {

/// Generator version, the last component of every pulse key. Bump it with
/// any change to GRAPE, the latency search or Hamiltonian numerics: stored
/// and packed pulses from an older generator then miss instead of silently
/// hitting where a fresh run would produce different bits.
inline constexpr char kGeneratorTag[] = "gen:1";

/// Secondary pulse tier: a key-value backend consulted on memory misses and
/// fed authoritative results. Implementations must be thread-safe (the
/// parallel pipeline calls from every worker, though never twice concurrently
/// for one key — single-flight covers the tier) and must treat every failure
/// as a miss/no-op: a broken tier degrades the cache, never the compile.
class PulseTier {
public:
    virtual ~PulseTier() = default;
    /// The stored result for `key`, or nullopt on a miss (including any I/O
    /// or integrity failure). Must not throw. Tiers with layered backends set
    /// `*from_pack` (when non-null) to true when the hit came from a
    /// read-only shared pack segment rather than the local read-write tier —
    /// foreign bytes the caller may want to revalidate unconditionally.
    virtual std::optional<LatencyResult> load(const std::string& key,
                                              bool* from_pack = nullptr) = 0;
    /// Persist an authoritative result under `key` (best effort; callers
    /// never learn of a failed write). Must not throw.
    virtual void store(const std::string& key, const LatencyResult& result) = 0;
    /// Drop (or quarantine) the entry under `key` so a later load misses.
    /// Best effort; must not throw. Called when revalidation rejects an
    /// entry whose bytes are intact but whose physics is wrong — damage a
    /// checksum cannot see. Default: no-op, for tiers without eviction.
    virtual void invalidate(const std::string& key) { (void)key; }
};

struct PulseLibraryStats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    /// Lookups that found another thread mid-generation on their key and
    /// blocked for its result (a subset of `hits`). Zero when single-threaded;
    /// the benchmarks report it as the cache-contention measure.
    std::size_t single_flight_waits = 0;
    /// Generated results that were degraded (timed-out / fault-injected /
    /// non-finite-aborted) and therefore returned but *not* stored: a later
    /// compile with more slack re-attempts them. Zero on clean runs.
    std::size_t uncached_degraded = 0;
    /// L2-tier activity, all zero when no tier is attached. Every memory miss
    /// is exactly one tier probe, and probes partition exactly:
    ///   misses == store_hits + store_misses + store_rejected
    /// (the reconciliation invariant per-tenant dashboards sum over). Every
    /// tier miss or rejection that generated an authoritative result is one
    /// tier write. A tier hit means the GRAPE latency search was skipped
    /// entirely for that entry.
    std::size_t store_hits = 0;
    std::size_t store_misses = 0;
    std::size_t store_writes = 0;
    /// Tier hits served from a read-only shared pack segment rather than the
    /// local read-write tier (a subset of `store_hits`). Nonzero means a
    /// shipped library is actually paying for itself on this machine.
    std::size_t store_pack_hits = 0;
    /// Tier hits the revalidation hook rejected: invalidated in the tier and
    /// regenerated. Disjoint from store_misses (a probe is a hit, a miss, or
    /// a rejection — never two of them). Zero without a revalidation hook.
    std::size_t store_rejected = 0;
    /// Authoritative results withheld from the tier because the GRAPE run was
    /// warm-started: warm seeds are not part of the key, so seed-dependent
    /// pulses never persist across processes (see header). Zero when warm
    /// starting is off or every warm run was cold-rescued.
    std::size_t store_warm_skipped = 0;
    double hit_rate() const {
        const std::size_t total = hits + misses;
        return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }

    /// Calls `f(name, value)` for every counter above under its exported
    /// `qoc.*` name: the one list the trace and the epocd status share.
    template <typename F>
    void for_each_counter(F&& f) const {
        f("qoc.library_hits", hits);
        f("qoc.library_misses", misses);
        f("qoc.single_flight_waits", single_flight_waits);
        f("qoc.uncached_degraded", uncached_degraded);
        f("qoc.store_hits", store_hits);
        f("qoc.store_pack_hits", store_pack_hits);
        f("qoc.store_misses", store_misses);
        f("qoc.store_rejected", store_rejected);
        f("qoc.store_writes", store_writes);
        f("qoc.store_warm_skipped", store_warm_skipped);
    }
};

/// Revalidation hook consulted on every L2 hit before it is promoted to
/// memory: return false to reject the entry (it is invalidated in the
/// tier, counted in `store_rejected`, and regenerated by GRAPE). Sampling policy
/// belongs to the hook — it sees the exact key, plus `foreign`: true when
/// the hit came from a read-only shared pack segment (bytes from another
/// machine or build, which callers typically re-simulate unconditionally
/// rather than sample). Must not throw; runs inside the single-flight
/// slot, so at most once per key per miss. Kept as a std::function so qoc
/// stays independent of the verify layer.
using Revalidator =
    std::function<bool(const std::string& key, const BlockHamiltonian& h,
                       const Matrix& target, const LatencyResult& result,
                       bool foreign)>;

/// What a lookup brings from its caller; both parts are optional. A miss
/// records its `grape` span and the `qoc.grape_runs` /
/// `qoc.grape_iterations` / `qoc.pulse_slots` / `qoc.infeasible_searches`
/// counters into `trace`, and an L2 hit passes `revalidate` before it is
/// promoted. Both belong to the caller that runs the single-flight
/// generation: a waiter's own lookup records nothing of it.
struct PulseLookup {
    util::Tracer* trace = nullptr;
    Revalidator revalidate;
};

class PulseLibrary {
public:
    /// `phase_aware` selects the EPOC behaviour; false reproduces the
    /// AccQOC/PAQOC exact-matrix lookup (ablation).
    explicit PulseLibrary(bool phase_aware = true) : phase_aware_(phase_aware) {}

    /// Fetch the pulse for `target` generated against `h` under `opt`,
    /// running a minimal-latency search on a miss. `h` must match the target
    /// dimension. The returned pointer is never null and remains valid for
    /// the library's lifetime and beyond (entries are immutable and
    /// refcounted).
    std::shared_ptr<const LatencyResult> get_or_generate(const BlockHamiltonian& h,
                                                         const Matrix& target,
                                                         const LatencySearchOptions& opt,
                                                         const PulseLookup& lookup = {});

    /// Lookup only; nullptr on miss (or while another thread is still
    /// generating the entry). Keyed exactly like get_or_generate, so `h` and
    /// `opt` must match the generating call. Does not touch the statistics.
    std::shared_ptr<const LatencyResult> peek(const BlockHamiltonian& h,
                                              const Matrix& target,
                                              const LatencySearchOptions& opt) const;

    /// Attach the L2 tier (non-owning; must outlive every subsequent
    /// get_or_generate call, nullptr to detach). See the header comment for
    /// the probe/write-back protocol.
    void set_store(PulseTier* store) { store_ = store; }

    /// Verify-triggered recompute: evict `bad` — the exact value an audit
    /// rejected — from memory and the tier, then regenerate. Compare-and-
    /// evict semantics: of N concurrent callers holding the same bad value,
    /// one wins the eviction (and alone invalidates the tier, so a fresh
    /// write-back is never quarantined by a straggler); the rest reuse the
    /// winner's replacement via the ordinary single-flight path.
    std::shared_ptr<const LatencyResult> regenerate(
        const BlockHamiltonian& h, const Matrix& target, const LatencySearchOptions& opt,
        const std::shared_ptr<const LatencyResult>& bad, const PulseLookup& lookup = {});

    std::size_t size() const { return cache_.size(); }
    PulseLibraryStats stats() const {
        const util::CacheStats s = cache_.stats();
        PulseLibraryStats out{s.hits, s.misses, s.waits, s.uncacheable, 0, 0, 0, 0};
        out.store_hits = store_hits_.load(std::memory_order_relaxed);
        out.store_pack_hits = store_pack_hits_.load(std::memory_order_relaxed);
        out.store_misses = store_misses_.load(std::memory_order_relaxed);
        out.store_writes = store_writes_.load(std::memory_order_relaxed);
        out.store_rejected = store_rejected_.load(std::memory_order_relaxed);
        out.store_warm_skipped = store_warm_skipped_.load(std::memory_order_relaxed);
        return out;
    }

private:
    std::string key_of(const BlockHamiltonian& h, const Matrix& m,
                       const LatencySearchOptions& opt) const;

    bool phase_aware_;
    PulseTier* store_ = nullptr;
    std::atomic<std::size_t> store_hits_{0};
    std::atomic<std::size_t> store_pack_hits_{0};
    std::atomic<std::size_t> store_misses_{0};
    std::atomic<std::size_t> store_writes_{0};
    std::atomic<std::size_t> store_rejected_{0};
    std::atomic<std::size_t> store_warm_skipped_{0};
    util::ShardedFlightCache<LatencyResult> cache_;
};

} // namespace epoc::qoc
