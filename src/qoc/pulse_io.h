// Binary serialization of Pulse / LatencyResult for the on-disk pulse store.
//
// The format is fixed little-endian and versioned by the store's header (see
// store/pulse_store.h); this layer only defines the payload codec plus the
// exact-double primitives the cache keys and checksums are built on:
//
//   * Doubles are encoded as their IEEE-754 bit pattern (a 64-bit integer),
//     never via decimal formatting. Round-trips are exact to the bit — NaN
//     payloads, signed zeros and subnormals included — which is what makes a
//     warm run from the store bit-identical to the cold run that wrote it.
//   * exact_double() is the textual form of the same idea: 16 lowercase hex
//     digits of the bit pattern. PulseLibrary::key_of uses it so two option
//     values differing in the last ulp key distinct entries (the historical
//     precision(12) ostream formatting collided them), and the store derives
//     entry filenames from a hash of that key.
//   * fnv1a64() is the checksum/content-address hash: dependency-free,
//     deterministic across platforms, good enough dispersion for file names
//     and corruption detection (crash-safety comes from atomic rename, not
//     from the checksum; the checksum catches torn/bit-rotted *old* files).
//
// Decoding is defensive: every read is bounds-checked against the buffer and
// length fields are sanity-capped, so a corrupt (even checksum-valid but
// hand-crafted) payload yields nullopt, never UB or an allocation bomb.
#pragma once

#include "qoc/latency_search.h"
#include "util/hash.h"

#include <cstdint>
#include <optional>
#include <string>

namespace epoc::qoc {

/// IEEE-754 bit pattern of `x` as 16 lowercase hex digits. Injective on
/// doubles (distinct bit patterns give distinct strings), so it is safe as a
/// cache-key component where decimal formatting would round-collide.
std::string exact_double(double x);

/// util/hash.h's FNV-1a, the hash the codec's checksums are built on.
using util::fnv1a64;

/// 64-bit FNV-1a over the first `limit` bytes of the file at `path` (the
/// whole file when `limit` is SIZE_MAX), streamed in fixed chunks so pack
/// tooling can fingerprint multi-GB artifacts without buffering them. Empty
/// optional when the file cannot be opened, read, or is shorter than a
/// finite `limit`.
std::optional<std::uint64_t> fnv1a64_file(const std::string& path,
                                          std::size_t limit = SIZE_MAX);

// --- little-endian primitives (appended to a std::string byte buffer) ---
void put_u8(std::string& out, std::uint8_t v);
void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
void put_f64(std::string& out, double v); ///< bit pattern, exact

/// Bounds-checked cursor over a byte buffer. Every get_* returns false (and
/// leaves the output untouched) instead of reading past the end.
class ByteReader {
public:
    ByteReader(const void* data, std::size_t size)
        : data_(static_cast<const unsigned char*>(data)), size_(size) {}

    bool get_u8(std::uint8_t& v);
    bool get_u32(std::uint32_t& v);
    bool get_u64(std::uint64_t& v);
    bool get_f64(double& v);
    /// Copy the next `n` raw bytes into `out` (replacing its contents).
    /// False without consuming anything when fewer than `n` remain — the
    /// caller's length field must be validated against the actual buffer.
    bool get_bytes(std::string& out, std::size_t n);

    std::size_t remaining() const { return size_ - pos_; }
    bool done() const { return pos_ == size_; }

private:
    const unsigned char* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/// Serialize a pulse (all fields, including the degradation flags — the store
/// refuses non-authoritative *entries*, but the codec itself is total).
void encode_pulse(std::string& out, const Pulse& p);
/// Deserialize; false on truncation, absurd lengths, or trailing garbage
/// handled by the caller via ByteReader::done().
bool decode_pulse(ByteReader& in, Pulse& p);

/// Serialize a full latency-search result (pulse + search metadata).
std::string encode_latency_result(const LatencyResult& r);
/// Exact inverse; nullopt on any structural problem. The input must contain
/// exactly one encoded result (trailing bytes are rejected).
std::optional<LatencyResult> decode_latency_result(const std::string& bytes);

} // namespace epoc::qoc
