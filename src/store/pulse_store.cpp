#include "store/pulse_store.h"

#include "qoc/pulse_io.h"
#include "store/file_io.h"
#include "util/fault_injection.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <vector>

#ifdef __unix__
#include <unistd.h>
#endif

namespace epoc::store {

namespace {

using detail::is_disk_full_errno;
using detail::write_file_synced;

constexpr char kMagic[8] = {'E', 'P', 'O', 'C', 'P', 'U', 'L', 'S'};
constexpr std::uint32_t kFormatVersion = 1;
constexpr const char* kEntrySuffix = ".pulse";
constexpr const char* kPackSuffix = ".pack";
constexpr const char* kPackTempSuffix = ".pack.tmp";
constexpr const char* kTempPrefix = "tmp-";
constexpr const char* kQuarantineDir = "quarantine";
/// Temp files older than this are crash leftovers, safe to sweep: a live
/// writer holds its temp for milliseconds between create and rename.
constexpr auto kStaleTempAge = std::chrono::minutes(10);
/// Minimum entry size: magic + version + key length + payload length +
/// checksum around an empty key and payload.
constexpr std::uint64_t kMinEntrySize = 8 + 4 + 8 + 8 + 8;

std::uint64_t process_id() {
#ifdef __unix__
    return static_cast<std::uint64_t>(::getpid());
#else
    return 0;
#endif
}

/// Whole-file read; empty optional when the file cannot be opened (the
/// common miss path) or cannot be read.
std::optional<std::string> slurp(const std::filesystem::path& p) {
    std::ifstream in(p, std::ios::binary);
    if (!in) return std::nullopt;
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    if (in.bad()) return std::nullopt;
    return bytes;
}

/// A loose entry's (key, payload) after the framing checks: size, magic,
/// version, key length, whole-file checksum, payload length. Empty optional
/// when any fails. Neither the key's identity nor the payload's codec is
/// checked here.
std::optional<PackEntry> parse_entry(const std::string& bytes) {
    // Structure before integrity: a version mismatch is detected before the
    // checksum so future format revisions are reported as such even if they
    // also moved the trailer.
    if (bytes.size() < kMinEntrySize) return std::nullopt;
    if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) return std::nullopt;
    qoc::ByteReader in(bytes.data() + sizeof(kMagic), bytes.size() - sizeof(kMagic) - 8);
    std::uint32_t version;
    std::uint64_t key_len;
    if (!in.get_u32(version) || version != kFormatVersion) return std::nullopt;
    if (!in.get_u64(key_len) || key_len > detail::kMaxKeyBytes || key_len > in.remaining())
        return std::nullopt;
    qoc::ByteReader trailer(bytes.data() + bytes.size() - 8, 8);
    std::uint64_t checksum;
    trailer.get_u64(checksum);
    if (qoc::fnv1a64(bytes.data(), bytes.size() - 8) != checksum) return std::nullopt;
    PackEntry e;
    std::uint64_t payload_len;
    if (!in.get_bytes(e.key, static_cast<std::size_t>(key_len)) || !in.get_u64(payload_len) ||
        payload_len != in.remaining() ||
        !in.get_bytes(e.payload, static_cast<std::size_t>(payload_len)))
        return std::nullopt;
    return e;
}

bool is_entry_file(const std::filesystem::directory_entry& e) {
    return e.is_regular_file() && e.path().extension() == kEntrySuffix;
}

bool has_suffix(const std::string& name, const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
}

bool is_temp_file(const std::filesystem::directory_entry& e) {
    if (!e.is_regular_file()) return false;
    const std::string name = e.path().filename().string();
    return name.rfind(kTempPrefix, 0) == 0 || has_suffix(name, kPackTempSuffix);
}

bool is_pack_file(const std::filesystem::directory_entry& e) {
    return e.is_regular_file() && !is_temp_file(e) &&
           e.path().extension() == kPackSuffix;
}

/// Best-effort move of a damaged or rejected pack file into its *own*
/// directory's quarantine/. Unlike loose-entry quarantine this never deletes
/// on failure: a pack may be a fleet-shared read-only artifact, and one
/// machine's mmap hiccup must not destroy it for the fleet — the caller's
/// in-memory suspect flag protects this process either way. Returns the
/// number of I/O errors for the caller to account.
std::size_t quarantine_pack_file(const std::filesystem::path& p) {
    static std::atomic<std::uint64_t> serial{0};
    std::size_t io_errs = 0;
    std::error_code ec;
    const std::filesystem::path qdir = p.parent_path() / kQuarantineDir;
    std::filesystem::create_directories(qdir, ec);
    if (ec) ++io_errs;
    std::filesystem::rename(
        p,
        qdir / (p.filename().string() + "." + std::to_string(process_id()) + "-" +
                std::to_string(serial.fetch_add(1, std::memory_order_relaxed))),
        ec);
    if (ec) ++io_errs; // likely a read-only share; the file stays in place
    return io_errs;
}

} // namespace

PulseStore::PulseStore(PulseStoreOptions opt) : opt_(std::move(opt)), dir_(opt_.dir) {
    if (opt_.dir.empty())
        throw std::runtime_error("PulseStore: empty store directory");
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec || !std::filesystem::is_directory(dir_))
        throw std::runtime_error("PulseStore: cannot create store directory '" +
                                 opt_.dir + "': " + ec.message());
    sweep_stale_temps();
    stats_.bytes = scan_bytes();
    open_packs();
}

std::filesystem::path PulseStore::entry_path(const std::string& key) const {
    static const char* hex = "0123456789abcdef";
    const std::uint64_t h = qoc::fnv1a64(key);
    std::string name(16, '0');
    for (int i = 0; i < 16; ++i)
        name[static_cast<std::size_t>(i)] = hex[(h >> (60 - 4 * i)) & 0xf];
    return dir_ / (name + kEntrySuffix);
}

void PulseStore::open_packs() {
    // Local packs (compaction output) first — they shadow shared ones for
    // keys present in both — then each configured shared directory in order.
    std::vector<std::filesystem::path> dirs{dir_};
    for (const std::string& d : opt_.pack_dirs)
        if (!d.empty()) dirs.emplace_back(d);

    std::vector<std::shared_ptr<PackReader>> opened;
    std::size_t suspect = 0, io_errs = 0;
    for (const std::filesystem::path& dir : dirs) {
        std::vector<std::filesystem::path> files;
        std::error_code ec;
        for (std::filesystem::directory_iterator it(dir, ec), end; !ec && it != end;
             it.increment(ec))
            if (is_pack_file(*it)) files.push_back(it->path());
        // A missing shared directory is a cold tier, not an error; a failed
        // walk of an existing one is worth surfacing.
        if (ec && std::filesystem::exists(dir)) ++io_errs;
        std::sort(files.begin(), files.end());
        for (const std::filesystem::path& p : files) {
            if (std::shared_ptr<PackReader> pack = PackReader::open(p)) {
                opened.push_back(std::move(pack));
            } else {
                // Structurally invalid (or injected open failure): a pack
                // the index of which cannot be trusted serves nothing.
                ++suspect;
                io_errs += quarantine_pack_file(p);
            }
        }
    }

    std::lock_guard<std::mutex> lock(mutex_);
    packs_ = std::move(opened);
    stats_.pack_suspect += suspect;
    stats_.io_errors += io_errs;
    stats_.packs_open = packs_.size();
    stats_.pack_entries = 0;
    stats_.pack_bytes = 0;
    for (const std::shared_ptr<PackReader>& pack : packs_) {
        stats_.pack_entries += pack->entry_count();
        stats_.pack_bytes += pack->size_bytes();
    }
}

std::vector<std::shared_ptr<PackReader>> PulseStore::packs() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return packs_;
}

void PulseStore::quarantine_pack(const std::shared_ptr<PackReader>& pack) {
    pack->mark_suspect();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = std::find(packs_.begin(), packs_.end(), pack);
        if (it == packs_.end()) return; // another thread already quarantined it
        packs_.erase(it);
        ++stats_.pack_suspect;
        stats_.packs_open = packs_.size();
        stats_.pack_entries = 0;
        stats_.pack_bytes = 0;
        for (const std::shared_ptr<PackReader>& open : packs_) {
            stats_.pack_entries += open->entry_count();
            stats_.pack_bytes += open->size_bytes();
        }
    }
    // The rename happens after the list removal, so only the removing thread
    // touches the filesystem. An open mmap survives the rename.
    const std::size_t io_errs = quarantine_pack_file(pack->path());
    if (io_errs > 0) {
        std::lock_guard<std::mutex> lock(mutex_);
        stats_.io_errors += io_errs;
    }
}

std::optional<qoc::LatencyResult> PulseStore::load(const std::string& key,
                                                   bool* from_pack) {
    if (from_pack != nullptr) *from_pack = false;
    try {
        util::fault::maybe_throw("store.read");
        std::optional<qoc::LatencyResult> r = load_impl(key, from_pack);
        std::lock_guard<std::mutex> lock(mutex_);
        if (r)
            ++stats_.hits;
        else
            ++stats_.misses;
        return r;
    } catch (...) {
        // An unreadable store is a cold store, never a failed compile.
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.io_errors;
        ++stats_.misses;
        return std::nullopt;
    }
}

std::optional<qoc::LatencyResult> PulseStore::load_impl(const std::string& key,
                                                        bool* from_pack) {
    const std::filesystem::path p = entry_path(key);
    const std::optional<std::string> bytes = slurp(p);

    const auto probe_packs = [&]() -> std::optional<qoc::LatencyResult> {
        std::vector<std::shared_ptr<PackReader>> packs;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (packs_.empty()) return std::nullopt;
            if (denylist_.count(key) != 0) {
                ++stats_.pack_denied;
                return std::nullopt;
            }
            packs = packs_;
        }
        for (const std::shared_ptr<PackReader>& pack : packs) {
            bool corrupt = false;
            if (std::optional<qoc::LatencyResult> r = pack->find(key, &corrupt)) {
                std::lock_guard<std::mutex> lock(mutex_);
                ++stats_.pack_hits;
                if (from_pack != nullptr) *from_pack = true;
                return r;
            }
            if (corrupt) {
                // Integrity failure inside this pack: it answers nothing any
                // more (suspect), gets quarantined, and the probe continues
                // down the tier list — a later pack may still hold the key.
                {
                    std::lock_guard<std::mutex> lock(mutex_);
                    ++stats_.pack_corrupt;
                }
                quarantine_pack(pack);
            }
        }
        return std::nullopt;
    };

    if (!bytes) return probe_packs(); // loose miss: fall through to the packs

    const auto corrupt = [&]() -> std::optional<qoc::LatencyResult> {
        quarantine(p);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.corrupt;
        }
        // The damaged loose entry is gone; a pack may still serve the key.
        return probe_packs();
    };

    // Framing (structure, then integrity), then identity, then the codec.
    const std::optional<PackEntry> entry = parse_entry(*bytes);
    if (!entry) return corrupt();
    if (entry->key != key) {
        // Hash collision: a *valid* entry for some other key lives at our
        // content address. It is not corrupt — leave it in place (last
        // writer wins the name; see header) and report a miss for the loose
        // tier; a pack indexes by the full key hash too but validates the
        // embedded key, so the probe below is still exact.
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.collisions;
        }
        return probe_packs();
    }
    std::optional<qoc::LatencyResult> result = qoc::decode_latency_result(entry->payload);
    if (!result) return corrupt();

    // LRU touch: a hit makes the entry recent, so hot pulses survive
    // compaction. Best effort — a read-only store still serves hits.
    std::error_code ec;
    std::filesystem::last_write_time(
        p, std::filesystem::file_time_type::clock::now(), ec);
    return result;
}

std::optional<PackEntry> PulseStore::read_entry_file(const std::filesystem::path& p) {
    const std::optional<std::string> bytes = slurp(p);
    if (!bytes) return std::nullopt;
    std::optional<PackEntry> e = parse_entry(*bytes);
    // The payload must decode: a pack must never be built from an entry the
    // reader would reject, or `verify` and `extract` break on a good pack.
    if (!e || !qoc::decode_latency_result(e->payload)) return std::nullopt;
    return e;
}

void PulseStore::store(const std::string& key, const qoc::LatencyResult& result) {
    // The poisoning rule, enforced at the last line of defense: a degraded
    // result must never outlive the process, whatever the caller believed.
    if (!result.authoritative()) return;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (disabled_) {
            ++stats_.skipped_disabled;
            return;
        }
    }
    // store.enospc: deterministic stand-in for a full disk (tests often run
    // as root, where permission tricks cannot make a write fail).
    bool disk_full = util::fault::maybe_fail("store.enospc");
    bool wrote = false;
    if (!disk_full) {
        try {
            wrote = write_impl(key, result, disk_full);
        } catch (...) {
            wrote = false;
        }
    }
    std::uint64_t over_budget = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (wrote) {
            ++stats_.writes;
            // A fresh local write shadows any pack entry, so the key has no
            // business staying denylisted (the deny exists only to stop a
            // rejected pack entry from resolving; the loose tier now wins).
            denylist_.erase(key);
            if (opt_.max_bytes > 0 && stats_.bytes > opt_.max_bytes)
                over_budget = stats_.bytes;
        } else {
            ++stats_.io_errors;
            if (disk_full && !disabled_) {
                disabled_ = true;
                ++stats_.disabled_enospc;
            }
        }
    }
    if (over_budget > 0) compact();
}

bool PulseStore::memory_only() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return disabled_;
}

void PulseStore::invalidate(const std::string& key) {
    const std::filesystem::path p = entry_path(key);
    std::error_code ec;
    const bool had_loose = std::filesystem::exists(p, ec) && !ec;
    if (had_loose) quarantine(p);
    // Pack entries cannot be quarantined individually (the file is immutable
    // and possibly shared): deny the key in memory instead, but only when
    // some open pack could actually serve it — an unbounded denylist of
    // never-packed keys would just leak.
    const std::uint64_t h = qoc::fnv1a64(key);
    std::lock_guard<std::mutex> lock(mutex_);
    bool denied = false;
    for (const std::shared_ptr<PackReader>& pack : packs_) {
        if (pack->suspect() || !pack->contains_hash(h)) continue;
        denied = denylist_.insert(key).second;
        break;
    }
    if (had_loose || denied) ++stats_.invalidated;
}

std::size_t PulseStore::corrupt_all_entries_for_test() {
    std::size_t corrupted = 0;
    std::error_code ec;
    for (std::filesystem::directory_iterator it(dir_, ec), end; !ec && it != end;
         it.increment(ec)) {
        if (!is_entry_file(*it)) continue;
        const std::optional<PackEntry> entry = read_entry_file(it->path());
        if (!entry) continue;
        std::optional<qoc::LatencyResult> result =
            qoc::decode_latency_result(entry->payload);
        if (!result) continue;
        // Zero the amplitudes, keep the recorded fidelity and every flag,
        // republish through the ordinary writer: a valid, checksummed entry
        // whose physics no longer matches its own metadata.
        for (std::vector<double>& line : result->pulse.amplitudes)
            std::fill(line.begin(), line.end(), 0.0);
        bool disk_full = false;
        if (write_impl(entry->key, *result, disk_full)) ++corrupted;
    }
    return corrupted;
}

bool PulseStore::write_impl(const std::string& key, const qoc::LatencyResult& result,
                            bool& disk_full) {
    std::string blob;
    blob.append(kMagic, sizeof(kMagic));
    qoc::put_u32(blob, kFormatVersion);
    qoc::put_u64(blob, key.size());
    blob += key;
    const std::string payload = qoc::encode_latency_result(result);
    qoc::put_u64(blob, payload.size());
    blob += payload;
    qoc::put_u64(blob, qoc::fnv1a64(blob));

    std::uint64_t serial;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        serial = ++temp_serial_;
    }
    const std::filesystem::path final_path = entry_path(key);
    const std::filesystem::path tmp =
        dir_ / (std::string(kTempPrefix) + std::to_string(process_id()) + "-" +
                std::to_string(serial) + "-" + final_path.stem().string());
    try {
        util::fault::maybe_throw("store.write");
        int err = 0;
        if (!write_file_synced(tmp, blob, err)) {
            disk_full = is_disk_full_errno(err);
            std::error_code ec;
            std::filesystem::remove(tmp, ec);
            return false;
        }
        util::fault::maybe_throw("store.rename");
        // The atomic publish: readers see the old entry or the new one,
        // never a prefix.
        std::error_code rec;
        std::filesystem::rename(tmp, final_path, rec);
        if (rec) {
            disk_full = is_disk_full_errno(rec.value());
            std::error_code ec;
            std::filesystem::remove(tmp, ec);
            return false;
        }
    } catch (...) {
        std::error_code ec;
        std::filesystem::remove(tmp, ec);
        return false;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.bytes += blob.size();
    return true;
}

void PulseStore::quarantine(const std::filesystem::path& p) {
    std::error_code ec;
    std::size_t io_errs = 0;
    const std::filesystem::path qdir = dir_ / kQuarantineDir;
    std::filesystem::create_directories(qdir, ec);
    if (ec) ++io_errs; // post-mortem copy lost; the delete below still protects
    std::uint64_t serial;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        serial = ++temp_serial_;
    }
    std::filesystem::rename(p,
                            qdir / (p.filename().string() + "." +
                                    std::to_string(process_id()) + "-" +
                                    std::to_string(serial)),
                            ec);
    // If even the rename fails, delete: a corrupt entry must not be served
    // (or quarantined+requarantined) forever.
    if (ec) {
        ++io_errs;
        std::filesystem::remove(p, ec);
        if (ec) ++io_errs; // entry is stuck in place — operators must see this
    }
    if (io_errs > 0) {
        std::lock_guard<std::mutex> lock(mutex_);
        stats_.io_errors += io_errs;
    }
}

std::size_t PulseStore::sweep_stale_temps() {
    // Crash leftovers only: both the loose writer ("tmp-*") and the pack
    // builder ("*.pack.tmp") hold their temps for milliseconds between
    // create and rename, so anything past kStaleTempAge has no live owner.
    std::size_t swept = 0, io_errs = 0;
    std::error_code ec;
    const auto now = std::filesystem::file_time_type::clock::now();
    for (std::filesystem::directory_iterator it(dir_, ec), end; !ec && it != end;
         it.increment(ec)) {
        if (!is_temp_file(*it)) continue;
        std::error_code fec;
        const auto mtime = it->last_write_time(fec);
        if (fec || mtime + kStaleTempAge >= now) continue;
        std::filesystem::remove(it->path(), fec);
        if (fec)
            ++io_errs;
        else
            ++swept;
    }
    if (io_errs > 0) {
        std::lock_guard<std::mutex> lock(mutex_);
        stats_.io_errors += io_errs;
    }
    return swept;
}

std::uint64_t PulseStore::scan_bytes() const {
    // Loose entries plus quarantined files: quarantine/ shares the byte
    // budget (it exists for post-mortems, not as a free second store).
    std::uint64_t total = 0;
    std::error_code ec;
    for (std::filesystem::directory_iterator it(dir_, ec), end; !ec && it != end;
         it.increment(ec)) {
        std::error_code fec;
        if (is_entry_file(*it)) total += it->file_size(fec);
    }
    for (std::filesystem::directory_iterator it(dir_ / kQuarantineDir, ec), end;
         !ec && it != end; it.increment(ec)) {
        std::error_code fec;
        if (it->is_regular_file()) total += it->file_size(fec);
    }
    return total;
}

std::size_t PulseStore::compact() {
    sweep_stale_temps();

    struct Entry {
        std::filesystem::path path;
        std::uint64_t size;
        std::filesystem::file_time_type mtime;
    };
    const auto collect = [](const std::filesystem::path& dir, bool entries_only,
                            std::vector<Entry>& out, std::uint64_t& total,
                            std::size_t& io_errs, bool surface_walk_failure) {
        std::error_code ec;
        for (std::filesystem::directory_iterator it(dir, ec), end; !ec && it != end;
             it.increment(ec)) {
            if (entries_only ? !is_entry_file(*it)
                             : (!it->is_regular_file() || is_temp_file(*it)))
                continue;
            std::error_code fec;
            Entry e{it->path(), it->file_size(fec), it->last_write_time(fec)};
            if (fec) continue; // vanished under a concurrent eviction
            total += e.size;
            out.push_back(std::move(e));
        }
        // A failed directory walk means the byte accounting below is a lie
        // by omission — surface it rather than silently trusting a partial
        // scan. (The quarantine dir legitimately may not exist yet.)
        if (ec && surface_walk_failure) ++io_errs;
    };
    const auto oldest_first = [](std::vector<Entry>& v) {
        // Oldest first; filename tiebreak keeps the order deterministic when
        // the filesystem's mtime granularity lumps a burst of writes.
        std::sort(v.begin(), v.end(), [](const Entry& a, const Entry& b) {
            return a.mtime != b.mtime ? a.mtime < b.mtime : a.path < b.path;
        });
    };

    std::vector<Entry> entries, quarantined;
    std::uint64_t total = 0;
    std::size_t io_errs = 0;
    collect(dir_, /*entries_only=*/true, entries, total, io_errs, true);
    collect(dir_ / kQuarantineDir, /*entries_only=*/false, quarantined, total,
            io_errs, false);

    std::size_t evicted = 0, q_evicted = 0;
    if (opt_.max_bytes > 0 && total > opt_.max_bytes) {
        const std::uint64_t target = static_cast<std::uint64_t>(
            static_cast<double>(opt_.max_bytes) *
            std::clamp(opt_.compact_to, 0.0, 1.0));
        // Quarantined files go first: they serve no lookups, they exist only
        // for post-mortems, and every byte they hold is a byte a live entry
        // cannot use.
        oldest_first(quarantined);
        for (const Entry& e : quarantined) {
            if (total <= target) break;
            std::error_code rec;
            if (std::filesystem::remove(e.path, rec) && !rec) {
                total -= e.size;
                ++q_evicted;
            } else if (rec) {
                ++io_errs;
            }
        }
        oldest_first(entries);
        for (const Entry& e : entries) {
            if (total <= target) break;
            std::error_code rec;
            if (std::filesystem::remove(e.path, rec) && !rec) {
                total -= e.size;
                ++evicted;
            } else if (rec) {
                ++io_errs; // undeletable entry: budget cannot be honored
            }
        }
    }

    std::lock_guard<std::mutex> lock(mutex_);
    stats_.evicted += evicted;
    stats_.quarantine_evicted += q_evicted;
    stats_.io_errors += io_errs;
    stats_.bytes = total;
    return evicted;
}

PulseStoreStats PulseStore::stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace epoc::store
