// Persistent on-disk pulse artifact store: the crash-safe L2 tier behind
// qoc::PulseLibrary.
//
// The pulse library is EPOC's amortization engine (paper Section 3.4): the
// compile-time wins of Figure 9 assume repeated unitaries hit a cache instead
// of re-running GRAPE. In-memory, that amortization dies with the process.
// This store persists each authoritative latency-search result as one
// content-addressed file, so a fresh compiler — or a concurrent one sharing
// the directory — re-pays zero optimal-control cost for anything any prior
// run already solved. A warm run from a populated store is bit-identical to
// the cold run that filled it (the codec round-trips doubles exactly).
//
// On-disk format (one entry per file, `<fnv1a64(key) as 16 hex>.pulse`):
//
//   offset  size  field
//   ------  ----  -----
//        0     8  magic "EPOCPULS"
//        8     4  format version (little-endian u32; readers reject != ours)
//       12     8  key length (u64)
//       20     K  the full generation key, verbatim — the content address is
//                 a *hash* of this, so readers compare the key byte-for-byte
//                 and treat a mismatch as a hash collision (a miss for our
//                 key), never as our entry
//    20+K      8  payload length (u64)
//    28+K      P  qoc::encode_latency_result payload (pulse_io.h)
//  28+K+P      8  FNV-1a64 of bytes [0, 28+K+P) — integrity checksum
//
// Crash safety is by atomic publish: writes go to a unique temp file in the
// same directory, then std::filesystem::rename onto the final name. POSIX
// rename is atomic, so a reader (or a concurrent writer) sees either the old
// complete entry or the new complete entry, never a torn one; a crash leaves
// at most an unreferenced temp file (cleaned opportunistically on
// compaction). Writers racing on one name last-wins with identical bytes
// (generation is deterministic), which is idempotent.
//
// Corruption is never fatal: a truncated, bit-flipped, wrong-magic,
// wrong-version or undecodable file is *quarantined* (renamed into
// `quarantine/` for post-mortem) and reported as a miss, so the library
// transparently recomputes and the next write re-publishes a good entry.
//
// The directory is size-bounded: when the payload bytes exceed
// PulseStoreOptions::max_bytes, a compaction pass deletes entries
// oldest-mtime-first (LRU approximation: loads re-touch mtime) until the
// directory is back under `compact_to * max_bytes`.
//
// Fault-injection sites (util/fault_injection.h): `store.read`,
// `store.write`, `store.rename` — each fires as an I/O failure at that stage;
// the store must degrade to miss/no-op with no torn or degraded entry ever
// published. Real filesystem errors (ENOSPC, EPERM, ...) take the same paths.
//
// Disk-full protection: the first write failure whose errno is in the
// ENOSPC class (ENOSPC, EDQUOT, EROFS, EACCES, EPERM — or the `store.enospc`
// fault site) trips the store into *memory-only mode*: loads keep serving
// whatever is already on disk, but writes are skipped from then on
// (stats counters `disabled_enospc` / `skipped_disabled`) instead of
// hammering a full or read-only filesystem on every compile. The trip is
// one-way for the store's lifetime — recovering disk space needs an
// operator anyway, and a process restart re-arms the writer.
//
// Pack tier (pack.h): behind the loose one-file-per-entry tier sits an
// ordered list of immutable pack segments — `*.pack` files in the store
// directory itself (placed there by an operator, e.g. with `epoc_pack`)
// followed by every directory in PulseStoreOptions::pack_dirs (read-only
// shared libraries, e.g. a fleet-wide warm artifact). Lookup order is
//
//   loose entry  →  local packs (filename order)  →  shared packs
//                                                    (dir order, then filename)
//
// so a locally regenerated entry always shadows a pack. Pack bytes do NOT
// count toward `max_bytes` — packs are immutable operator-managed artifacts,
// and evicting one to make room for loose churn would throw away exactly the
// cold tail compaction worked to preserve. Every integrity failure inside a
// pack (malformed index at open, checksum mismatch, embedded key disagreeing
// with the index, torn mmap page) marks that pack *suspect* — it answers
// every later probe with a miss — and quarantines the file (best-effort
// rename into its own directory's `quarantine/`; a read-only share that
// refuses the rename is left in place, the in-memory suspect flag still
// protects this process). Entries revalidation rejects land in an in-memory
// *denylist* instead: the read-only file is never touched, the key just
// stops resolving through packs, and the regenerated loose entry shadows it.
#pragma once

#include "qoc/pulse_library.h"
#include "store/pack.h"

#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

namespace epoc::store {

struct PulseStoreOptions {
    /// Directory holding the entries (created, with parents, on
    /// construction). One directory may be shared by any number of stores in
    /// any number of processes.
    std::string dir;
    /// Byte budget for the entry files. <= 0 disables compaction entirely.
    std::uint64_t max_bytes = 256ull << 20;
    /// Compaction target: evict down to this fraction of max_bytes, so one
    /// pass buys headroom instead of thrashing at the boundary.
    double compact_to = 0.8;
    /// Read-only shared pack directories, probed after the local tier in this
    /// order (see header). Missing directories are tolerated (a share that is
    /// not mounted is a cold tier, not an error).
    std::vector<std::string> pack_dirs;
};

struct PulseStoreStats {
    std::size_t hits = 0;       ///< loads that returned an entry
    std::size_t misses = 0;     ///< loads that found no (usable) entry
    std::size_t writes = 0;     ///< entries successfully published
    std::size_t corrupt = 0;    ///< files quarantined (bad magic/version/checksum/decode)
    std::size_t collisions = 0; ///< hash matched, key differed (counted in misses)
    std::size_t evicted = 0;    ///< entries deleted by compaction
    std::size_t io_errors = 0;  ///< read/write/rename failures (incl. injected)
    /// Entries quarantined by invalidate(): bytes were intact (the load
    /// passed every integrity check) but revalidation proved the physics
    /// wrong. Disjoint from `corrupt`, which counts structural damage.
    std::size_t invalidated = 0;
    /// Times the write path tripped into memory-only mode on an
    /// ENOSPC-class failure (0 or 1 — the trip is one-way; see header).
    std::size_t disabled_enospc = 0;
    /// Writes skipped because the store is in memory-only mode.
    std::size_t skipped_disabled = 0;
    /// Quarantined files deleted by compaction to honor the byte budget —
    /// quarantine/ shares `max_bytes` and is evicted before live entries.
    std::size_t quarantine_evicted = 0;
    /// Budgeted bytes on disk as last accounted: loose entries plus
    /// quarantined files (which share `max_bytes`); packs are excluded.
    std::uint64_t bytes = 0;
    // Pack tier (all zero when no packs are configured):
    std::size_t pack_hits = 0;    ///< loads served from a pack (subset of hits)
    std::size_t pack_denied = 0;  ///< pack probes blocked by the denylist
    std::size_t pack_corrupt = 0; ///< entry integrity failures inside packs
    /// Packs marked suspect (open-time rejection or a lookup integrity
    /// failure) and quarantined. Each pack counts once.
    std::size_t pack_suspect = 0;
    std::size_t packs_open = 0;   ///< packs currently open and probed
    std::size_t pack_entries = 0; ///< entries indexed across open packs
    std::uint64_t pack_bytes = 0; ///< bytes across open packs (outside the budget)

    /// Calls `f(name, value)` for every counter above under its exported
    /// `store.*` name: the one list the trace and the epocd status share.
    template <typename F>
    void for_each_counter(F&& f) const {
        f("store.hits", hits);
        f("store.misses", misses);
        f("store.writes", writes);
        f("store.corrupt", corrupt);
        f("store.collisions", collisions);
        f("store.evicted", evicted);
        f("store.invalidated", invalidated);
        f("store.io_errors", io_errors);
        f("store.disabled_enospc", disabled_enospc);
        f("store.skipped_disabled", skipped_disabled);
        f("store.quarantine_evicted", quarantine_evicted);
        f("store.bytes", bytes);
        f("store.pack.hits", pack_hits);
        f("store.pack.denied", pack_denied);
        f("store.pack.corrupt", pack_corrupt);
        f("store.pack.suspect", pack_suspect);
        f("store.pack.open", packs_open);
        f("store.pack.entries", pack_entries);
        f("store.pack.bytes", pack_bytes);
    }
};

class PulseStore final : public qoc::PulseTier {
public:
    /// Opens (creating if needed) the store directory and accounts existing
    /// entries toward the byte budget. Throws std::runtime_error when the
    /// directory cannot be created — a store you explicitly configured but
    /// cannot use is a setup error, not something to paper over.
    explicit PulseStore(PulseStoreOptions opt);

    /// qoc::PulseTier: verify-and-load the entry for `key` — loose tier
    /// first, then the ordered pack list (see header). Any failure — missing
    /// file, I/O error, corruption (quarantined), version mismatch
    /// (quarantined), hash collision, suspect or denylisted pack entry — is a
    /// miss. `*from_pack` (when non-null) reports whether the hit came from a
    /// pack segment rather than a loose entry. Never throws.
    std::optional<qoc::LatencyResult> load(const std::string& key,
                                           bool* from_pack = nullptr) override;

    /// qoc::PulseTier: atomically publish `result` under `key`. Refuses
    /// non-authoritative results outright (degraded pulses must never
    /// outlive the process, whatever the caller thinks). Never throws;
    /// failures count as io_errors and leave no partial file behind.
    void store(const std::string& key, const qoc::LatencyResult& result) override;

    /// qoc::PulseTier: quarantine the loose entry for `key` (same post-mortem
    /// directory the corruption path uses) so later loads miss and the next
    /// authoritative write re-publishes. When any open pack indexes the key,
    /// it is also added to the in-memory denylist, so the rejected entry
    /// cannot keep resolving through the read-only tier (the pack file itself
    /// is never modified). Called when store revalidation rejects an entry
    /// whose bytes are intact but whose physics is wrong. Never throws; a
    /// missing entry is a no-op.
    void invalidate(const std::string& key) override;

    /// Test hook: rewrite every entry in place with zeroed pulse amplitudes
    /// but the original recorded fidelity — then re-checksum. The result is
    /// *post-checksum* corruption: magic, version, key, codec and checksum
    /// all verify, so load() serves it as a clean hit and only re-simulation
    /// (verify-layer revalidation) can catch it. Returns how many entries
    /// were rewritten. Exists so tests and CI can prove that detection,
    /// quarantine and recompute actually happen; never call it otherwise.
    std::size_t corrupt_all_entries_for_test();

    /// Force a compaction pass now (also run automatically when a write
    /// pushes the directory over budget). Sweeps stale temp files (loose and
    /// pack), evicts quarantined files oldest-mtime-first, then loose entries
    /// oldest-mtime-first, until under `compact_to * max_bytes`, and
    /// refreshes the byte accounting. Returns the number of loose entries
    /// removed.
    std::size_t compact();

    /// Parse one loose entry file into its (key, payload) pair, fully
    /// validated (magic, version, checksum, decodability). Empty optional for
    /// anything else — including valid entries of a future format version.
    /// The ingest primitive behind `epoc_pack create`; quarantines nothing
    /// (tooling reports, the store decides).
    static std::optional<PackEntry> read_entry_file(const std::filesystem::path& p);

    /// Path the entry for `key` lives at (exposed for tests and tooling).
    std::filesystem::path entry_path(const std::string& key) const;

    /// The open pack list in probe order (exposed for tests and tooling;
    /// readers are immutable and thread-safe, see pack.h).
    std::vector<std::shared_ptr<PackReader>> packs() const;

    PulseStoreStats stats() const;
    const PulseStoreOptions& options() const { return opt_; }

    /// True once an ENOSPC-class write failure tripped the store into
    /// memory-only mode (loads serve, writes skip).
    bool memory_only() const;

private:
    std::optional<qoc::LatencyResult> load_impl(const std::string& key,
                                                bool* from_pack);
    /// `disk_full` is set when the failure was ENOSPC-class (caller trips
    /// memory-only mode); untouched on success and on other failures.
    bool write_impl(const std::string& key, const qoc::LatencyResult& result,
                    bool& disk_full);
    void quarantine(const std::filesystem::path& p);
    /// Mark suspect, account, and best-effort move the file into its own
    /// directory's quarantine/ (a read-only share that refuses stays put —
    /// the suspect flag alone protects this process). Idempotent per pack.
    void quarantine_pack(const std::shared_ptr<PackReader>& pack);
    /// Open every `*.pack` in the local dir then each pack_dirs entry
    /// (construction-time; packs are immutable, so no re-scan afterward).
    void open_packs();
    /// Delete stale temp files (`tmp-*` loose, `*.pack.tmp` pack) older than
    /// kStaleTempAge — crash leftovers. Run at startup and each compaction.
    std::size_t sweep_stale_temps();
    std::uint64_t scan_bytes() const;

    PulseStoreOptions opt_;
    std::filesystem::path dir_;

    mutable std::mutex mutex_; ///< guards stats_, disabled_, temp_serial_,
                               ///< packs_, denylist_
    PulseStoreStats stats_;
    bool disabled_ = false; ///< memory-only mode (ENOSPC-class trip)
    std::uint64_t temp_serial_ = 0;
    /// Probe-ordered open packs. The vector is copied out under the lock and
    /// probed without it (readers are internally thread-safe).
    std::vector<std::shared_ptr<PackReader>> packs_;
    /// Keys revalidation rejected out of the read-only tier (see header).
    std::unordered_set<std::string> denylist_;
};

} // namespace epoc::store
