// Immutable pack segments: many pulse entries in one shareable file.
//
// The one-file-per-entry store (pulse_store.h) amortizes GRAPE per machine;
// pack segments amortize it per *fleet*. A pack is a single read-only file
// holding any number of (key, payload) pulse entries behind a sorted key
// index, built once (by compaction or the `epoc_pack` CLI) and then shipped,
// mounted and shared — the AccQOC pay-once-reuse-forever economics at
// artifact granularity. PulseStore layers an ordered list of packs behind
// its loose-entry tier, so a fresh machine with a shipped pack cold-starts
// at warm-run speed.
//
// On-disk format (all integers little-endian; doubles never appear — the
// payload is the opaque qoc::encode_latency_result byte string, so pulses
// round-trip exactly to the bit):
//
//   offset          size  field
//   ------          ----  -----
//        0             8  magic "EPOCPACK"
//        8             4  format version (readers reject != ours)
//       12             8  entry count N (u64)
//       20             8  index offset I (u64)
//       28       I - 28   entry records, back to back:
//                           key length (u64), key bytes,
//                           payload length (u64), payload bytes,
//                           FNV-1a64 of the record bytes before this field
//        I        24 * N  index rows sorted by (key hash, offset):
//                           fnv1a64(key) (u64), record offset (u64),
//                           record size incl. its checksum (u64)
//   I+24N             8  index checksum: FNV-1a64 over the header bytes
//                         [0, 28) continued over the index bytes [I, I+24N)
//   I+24N+8           8  whole-file checksum: FNV-1a64 over [0, filesize-8)
//
// Trust model — every byte is foreign. A pack may come from another machine,
// another build, or an adversarial artifact registry, so the reader never
// extends trust it has not checked:
//
//   * open() validates structure (magic, version, size arithmetic), the
//     index checksum, and every index row's bounds + sort order before the
//     pack is consulted at all — a malformed or doctored index is rejected
//     in O(N) without touching a single entry;
//   * every lookup re-verifies the hit's per-entry checksum, that the
//     embedded key hashes to its index row (a doctored record cannot ride a
//     valid-looking row), and that it equals the probe key byte-for-byte
//     (same-hash different-key is an honest collision: a miss, not damage);
//   * the whole-file checksum is the `epoc_pack verify` / deep_verify()
//     gate — too expensive per open, exactly right for ingest tooling.
//
// Any integrity failure marks the pack *suspect*: it answers every later
// probe with a miss (the caller recomputes — never a crash, never a wrong
// pulse) and PulseStore quarantines the file. Reads go through mmap where
// available (the index probe touches O(log N) pages, not the file) with a
// whole-file buffered fallback; a torn page surfaces as a checksum mismatch
// and takes the same suspect path.
//
// Fault-injection sites (util/fault_injection.h): `store.pack.open` (open
// fails), `store.pack.index` (index validation fails), `store.pack.mmap`
// (a torn mapping detected at lookup), `store.pack.read` (entry bytes fail
// integrity at lookup). All four degrade to miss-and-recompute.
//
// Writing is fsync-temp-then-rename, same as loose entries: the temp name
// ends in ".pack.tmp" (swept on store startup and compaction), so a crash
// mid-build never publishes a torn pack and never leaks disk.
#pragma once

#include "qoc/latency_search.h"

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace epoc::store {

/// One pulse entry as pack tooling sees it: the full generation key and the
/// opaque encoded payload (qoc::encode_latency_result bytes, verbatim).
struct PackEntry {
    std::string key;
    std::string payload;
};

/// Build a pack at `path` from `entries` (deduplicated first-wins on key —
/// merge order is precedence order) via fsync-temp-then-rename. False on any
/// failure (nothing published, temp removed; `error`, when non-null, gets a
/// one-line diagnosis).
bool write_pack(const std::filesystem::path& path, std::vector<PackEntry> entries,
                std::string* error = nullptr);

/// A mapped, validated, read-only pack. Immutable after open() (quarantine
/// renames do not disturb an open mapping); safe to probe from any number of
/// threads concurrently. mark_suspect() is the one mutation: a relaxed
/// atomic flag every probe checks first.
class PackReader {
public:
    /// Map and structurally validate the pack. nullptr on any failure
    /// (missing file, bad magic/version/size arithmetic, malformed or
    /// unsorted index, index checksum mismatch); `error`, when non-null,
    /// gets the reason. An open pack has a fully-trusted *index*; entries
    /// stay trust-but-verify per lookup.
    static std::shared_ptr<PackReader> open(const std::filesystem::path& path,
                                            std::string* error = nullptr);

    ~PackReader();
    PackReader(const PackReader&) = delete;
    PackReader& operator=(const PackReader&) = delete;

    /// The decoded entry for `key`, or nullopt on a miss. Misses include:
    /// key absent, hash collision (embedded key differs), suspect pack, and
    /// every integrity failure — the latter also set `*corrupt` (when
    /// non-null) and mark the pack suspect, so the caller can quarantine.
    std::optional<qoc::LatencyResult> find(const std::string& key,
                                           bool* corrupt = nullptr);

    /// True when the index holds `hash` — a constant-time-ish pre-check so
    /// PulseStore's denylist only grows for keys a pack could actually serve.
    bool contains_hash(std::uint64_t hash) const;

    /// Visit every entry in file order, fully validated (checksum + embedded
    /// key vs index). Returns false (after visiting the valid prefix of the
    /// iteration) when any entry fails integrity, and marks the pack
    /// suspect. `fn` returning false stops early (iteration still counts as
    /// clean). The enumeration backbone of list/merge/extract.
    bool for_each(const std::function<bool(const std::string& key,
                                           const std::string& payload)>& fn);

    /// Everything open() checks, plus the whole-file checksum and every
    /// entry's record — the `epoc_pack verify` gate. Marks suspect on
    /// failure.
    bool deep_verify(std::string* error = nullptr);

    std::size_t entry_count() const { return index_.size(); }
    std::size_t size_bytes() const { return size_; } ///< whole-file size
    const std::filesystem::path& path() const { return path_; }
    bool mapped() const { return mapped_; } ///< mmap vs buffered fallback

    bool suspect() const { return suspect_.load(std::memory_order_relaxed); }
    void mark_suspect() { suspect_.store(true, std::memory_order_relaxed); }

private:
    struct IndexRow {
        std::uint64_t hash;
        std::uint64_t offset;
        std::uint64_t size;
    };

    PackReader() = default;
    /// Validate + read the record at `row`; empty optional (and suspect) on
    /// any integrity failure, `key`/`payload` filled on success.
    bool read_record(const IndexRow& row, std::string& key, std::string& payload);

    const unsigned char* data() const { return data_; }

    std::filesystem::path path_;
    const unsigned char* data_ = nullptr;
    std::size_t size_ = 0;
    bool mapped_ = false;
    std::string fallback_; ///< owns the bytes when mmap was unavailable
    std::vector<IndexRow> index_;
    std::atomic<bool> suspect_{false};
};

} // namespace epoc::store
