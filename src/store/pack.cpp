#include "store/pack.h"

#include "qoc/pulse_io.h"
#include "store/file_io.h"
#include "util/fault_injection.h"

#include <algorithm>
#include <cstring>
#include <fstream>

#ifdef __unix__
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace epoc::store {

namespace {

using detail::kMaxKeyBytes;
using detail::write_file_synced;

constexpr char kPackMagic[8] = {'E', 'P', 'O', 'C', 'P', 'A', 'C', 'K'};
constexpr std::uint32_t kPackVersion = 1;
/// Header: magic + version + entry count + index offset.
constexpr std::uint64_t kHeaderSize = 8 + 4 + 8 + 8;
/// Index row: key hash + record offset + record size.
constexpr std::uint64_t kIndexRowSize = 24;
/// Trailer: index checksum + whole-file checksum.
constexpr std::uint64_t kTrailerSize = 16;
/// Smallest possible record: empty key + empty payload + checksum.
constexpr std::uint64_t kMinRecordSize = 8 + 8 + 8;

std::uint64_t read_u64(const unsigned char* p) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

std::uint32_t read_u32(const unsigned char* p) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

void set_error(std::string* error, const std::string& what) {
    if (error != nullptr) *error = what;
}

} // namespace

bool write_pack(const std::filesystem::path& path, std::vector<PackEntry> entries,
                std::string* error) {
    // First-wins dedup in input order: merge precedence is argument order,
    // and a pack must never hold two records for one key (the index search
    // would serve whichever sorts first — ambiguity, not redundancy).
    {
        std::vector<PackEntry> unique;
        unique.reserve(entries.size());
        std::vector<std::string> seen;
        for (PackEntry& e : entries) {
            if (e.key.size() > kMaxKeyBytes) {
                set_error(error, "entry key exceeds the key-size cap");
                return false;
            }
            if (std::find(seen.begin(), seen.end(), e.key) != seen.end()) continue;
            seen.push_back(e.key);
            unique.push_back(std::move(e));
        }
        entries = std::move(unique);
    }

    struct Row {
        std::uint64_t hash, offset, size;
    };
    std::string blob;
    blob.append(kPackMagic, sizeof(kPackMagic));
    qoc::put_u32(blob, kPackVersion);
    qoc::put_u64(blob, entries.size());
    qoc::put_u64(blob, 0); // index offset, patched below

    std::vector<Row> rows;
    rows.reserve(entries.size());
    for (const PackEntry& e : entries) {
        const std::uint64_t offset = blob.size();
        qoc::put_u64(blob, e.key.size());
        blob += e.key;
        qoc::put_u64(blob, e.payload.size());
        blob += e.payload;
        qoc::put_u64(blob, qoc::fnv1a64(blob.data() + offset, blob.size() - offset));
        rows.push_back(Row{qoc::fnv1a64(e.key), offset, blob.size() - offset});
    }

    const std::uint64_t index_offset = blob.size();
    {
        // Patch the header's index-offset field in place.
        std::string patched;
        qoc::put_u64(patched, index_offset);
        std::memcpy(&blob[20], patched.data(), 8);
    }
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
        return a.hash != b.hash ? a.hash < b.hash : a.offset < b.offset;
    });
    for (const Row& r : rows) {
        qoc::put_u64(blob, r.hash);
        qoc::put_u64(blob, r.offset);
        qoc::put_u64(blob, r.size);
    }
    // Index checksum: header bytes chained with index bytes, so a doctored
    // header (wrong count, shifted offset) fails the same check a doctored
    // index row does.
    std::uint64_t index_ck = qoc::fnv1a64(blob.data(), kHeaderSize);
    index_ck = qoc::fnv1a64(blob.data() + index_offset, blob.size() - index_offset,
                            index_ck);
    qoc::put_u64(blob, index_ck);
    qoc::put_u64(blob, qoc::fnv1a64(blob));

    // Atomic publish: build next to the target (rename must not cross
    // filesystems), fsync, rename. The ".pack.tmp" suffix is the sweep
    // contract — startup and compaction delete stale ones.
    const std::filesystem::path tmp =
        path.parent_path() /
        (path.filename().string() + "." + std::to_string(
#ifdef __unix__
                                              static_cast<std::uint64_t>(::getpid())
#else
                                              0
#endif
                                              ) +
         ".pack.tmp");
    int err = 0;
    if (!write_file_synced(tmp, blob, err)) {
        set_error(error, "cannot write pack temp file: " +
                             std::error_code(err, std::generic_category()).message());
        std::error_code ec;
        std::filesystem::remove(tmp, ec);
        return false;
    }
    std::error_code rec;
    std::filesystem::rename(tmp, path, rec);
    if (rec) {
        set_error(error, "cannot publish pack: " + rec.message());
        std::error_code ec;
        std::filesystem::remove(tmp, ec);
        return false;
    }
    return true;
}

std::shared_ptr<PackReader> PackReader::open(const std::filesystem::path& path,
                                             std::string* error) {
    std::shared_ptr<PackReader> pack(new PackReader());
    pack->path_ = path;
    try {
        util::fault::maybe_throw("store.pack.open");
    } catch (...) {
        set_error(error, "injected open failure");
        return nullptr;
    }

#ifdef __unix__
    // mmap preferred: a lookup touches O(log N) index pages plus the hit's
    // record, not the whole file — the point of shipping multi-GB libraries.
    {
        const int fd = ::open(path.c_str(), O_RDONLY);
        if (fd >= 0) {
            struct stat st{};
            if (::fstat(fd, &st) == 0 && st.st_size > 0) {
                void* m = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                                 PROT_READ, MAP_PRIVATE, fd, 0);
                if (m != MAP_FAILED) {
                    pack->data_ = static_cast<const unsigned char*>(m);
                    pack->size_ = static_cast<std::size_t>(st.st_size);
                    pack->mapped_ = true;
                }
            }
            ::close(fd); // the mapping outlives the descriptor
        }
    }
#endif
    if (!pack->mapped_) {
        // Buffered fallback: whole-file slurp. Correctness-equivalent; only
        // the paging economics differ.
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            set_error(error, "cannot open pack file");
            return nullptr;
        }
        pack->fallback_.assign((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
        if (in.bad()) {
            set_error(error, "cannot read pack file");
            return nullptr;
        }
        pack->data_ = reinterpret_cast<const unsigned char*>(pack->fallback_.data());
        pack->size_ = pack->fallback_.size();
    }

    // Structural validation. Everything below is arithmetic over untrusted
    // numbers, so every derived quantity is checked before use and every
    // multiply is guarded against overflow.
    const unsigned char* d = pack->data();
    const std::uint64_t size = pack->size_;
    if (size < kHeaderSize + kTrailerSize) {
        set_error(error, "pack too small for header and trailer");
        return nullptr;
    }
    if (std::memcmp(d, kPackMagic, sizeof(kPackMagic)) != 0) {
        set_error(error, "bad pack magic");
        return nullptr;
    }
    if (read_u32(d + 8) != kPackVersion) {
        set_error(error, "unsupported pack format version");
        return nullptr;
    }
    const std::uint64_t count = read_u64(d + 12);
    const std::uint64_t index_offset = read_u64(d + 20);
    if (util::fault::maybe_fail("store.pack.index") ||
        count > (size - kHeaderSize - kTrailerSize) / kIndexRowSize ||
        index_offset < kHeaderSize || index_offset > size ||
        index_offset + count * kIndexRowSize + kTrailerSize != size) {
        set_error(error, "malformed pack index geometry");
        return nullptr;
    }
    std::uint64_t index_ck = qoc::fnv1a64(d, kHeaderSize);
    index_ck = qoc::fnv1a64(d + index_offset, count * kIndexRowSize, index_ck);
    if (index_ck != read_u64(d + size - 16)) {
        set_error(error, "pack index checksum mismatch");
        return nullptr;
    }
    pack->index_.reserve(static_cast<std::size_t>(count));
    std::uint64_t prev_hash = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        const unsigned char* row = d + index_offset + i * kIndexRowSize;
        IndexRow r{read_u64(row), read_u64(row + 8), read_u64(row + 16)};
        // Rows must stay sorted (binary search depends on it) and point at
        // plausible records strictly inside the entry region.
        if ((i > 0 && r.hash < prev_hash) || r.offset < kHeaderSize ||
            r.size < kMinRecordSize || r.size > index_offset ||
            r.offset > index_offset - r.size) {
            set_error(error, "pack index row out of bounds or unsorted");
            return nullptr;
        }
        prev_hash = r.hash;
        pack->index_.push_back(r);
    }
    return pack;
}

PackReader::~PackReader() {
#ifdef __unix__
    if (mapped_ && data_ != nullptr)
        ::munmap(const_cast<unsigned char*>(data_), size_);
#endif
}

bool PackReader::contains_hash(std::uint64_t hash) const {
    const auto it = std::lower_bound(
        index_.begin(), index_.end(), hash,
        [](const IndexRow& r, std::uint64_t h) { return r.hash < h; });
    return it != index_.end() && it->hash == hash;
}

bool PackReader::read_record(const IndexRow& row, std::string& key,
                             std::string& payload) {
    // Injected torn-page / rotten-read stand-ins: real damage of either kind
    // lands on the identical checksum-mismatch path below.
    if (util::fault::maybe_fail("store.pack.mmap") ||
        util::fault::maybe_fail("store.pack.read"))
        return false;
    const unsigned char* rec = data() + row.offset;
    if (qoc::fnv1a64(rec, static_cast<std::size_t>(row.size - 8)) !=
        read_u64(rec + row.size - 8))
        return false;
    qoc::ByteReader in(rec, static_cast<std::size_t>(row.size - 8));
    std::uint64_t key_len;
    if (!in.get_u64(key_len) || key_len > kMaxKeyBytes || key_len > in.remaining() ||
        !in.get_bytes(key, static_cast<std::size_t>(key_len)))
        return false;
    std::uint64_t payload_len;
    if (!in.get_u64(payload_len) || payload_len != in.remaining() ||
        !in.get_bytes(payload, static_cast<std::size_t>(payload_len)))
        return false;
    // The record must hash to its own index row: a doctored record cannot
    // ride a row that was validated at open time.
    return qoc::fnv1a64(key) == row.hash;
}

std::optional<qoc::LatencyResult> PackReader::find(const std::string& key,
                                                   bool* corrupt) {
    if (suspect()) return std::nullopt;
    const std::uint64_t hash = qoc::fnv1a64(key);
    auto it = std::lower_bound(
        index_.begin(), index_.end(), hash,
        [](const IndexRow& r, std::uint64_t h) { return r.hash < h; });
    for (; it != index_.end() && it->hash == hash; ++it) {
        std::string record_key, payload;
        if (!read_record(*it, record_key, payload)) {
            mark_suspect();
            if (corrupt != nullptr) *corrupt = true;
            return std::nullopt;
        }
        // Hash matched, key differs: an honest collision — some other key's
        // valid entry. Keep scanning same-hash rows, then miss.
        if (record_key != key) continue;
        std::optional<qoc::LatencyResult> result = qoc::decode_latency_result(payload);
        if (!result) {
            // Checksum-valid but undecodable: the pack was built wrong (or
            // doctored checksum-consistently). Same damage class.
            mark_suspect();
            if (corrupt != nullptr) *corrupt = true;
            return std::nullopt;
        }
        return result;
    }
    return std::nullopt;
}

bool PackReader::for_each(
    const std::function<bool(const std::string& key, const std::string& payload)>& fn) {
    if (suspect()) return false;
    // File order == offset order; re-sort a copy rather than trusting the
    // hash-ordered index to happen to match.
    std::vector<IndexRow> rows = index_;
    std::sort(rows.begin(), rows.end(),
              [](const IndexRow& a, const IndexRow& b) { return a.offset < b.offset; });
    for (const IndexRow& row : rows) {
        std::string key, payload;
        if (!read_record(row, key, payload)) {
            mark_suspect();
            return false;
        }
        if (!fn(key, payload)) break;
    }
    return true;
}

bool PackReader::deep_verify(std::string* error) {
    if (suspect()) {
        set_error(error, "pack already marked suspect");
        return false;
    }
    if (qoc::fnv1a64(data(), size_ - 8) != read_u64(data() + size_ - 8)) {
        mark_suspect();
        set_error(error, "whole-file checksum mismatch");
        return false;
    }
    std::size_t visited = 0;
    if (!for_each([&](const std::string&, const std::string&) {
            ++visited;
            return true;
        })) {
        set_error(error, "entry " + std::to_string(visited) + " failed integrity");
        return false;
    }
    return true;
}

} // namespace epoc::store
