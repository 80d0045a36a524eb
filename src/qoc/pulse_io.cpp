#include "qoc/pulse_io.h"

#include <algorithm>
#include <cstring>
#include <fstream>

namespace epoc::qoc {

namespace {

/// Upper bounds on decoded vector lengths: far beyond anything the pipeline
/// produces (max_slots defaults to 512; control counts are O(qubits^2) for
/// dimension <= 2^8 blocks), but small enough that a corrupt length field can
/// never turn into a multi-gigabyte allocation.
constexpr std::uint32_t kMaxControlLines = 1u << 16;
constexpr std::uint32_t kMaxSlots = 1u << 24;

std::uint64_t double_bits(double x) {
    std::uint64_t b;
    static_assert(sizeof(b) == sizeof(x));
    std::memcpy(&b, &x, sizeof(b));
    return b;
}

double bits_double(std::uint64_t b) {
    double x;
    std::memcpy(&x, &b, sizeof(x));
    return x;
}

} // namespace

std::string exact_double(double x) {
    static const char* hex = "0123456789abcdef";
    const std::uint64_t b = double_bits(x);
    std::string s(16, '0');
    for (int i = 0; i < 16; ++i) s[static_cast<std::size_t>(i)] = hex[(b >> (60 - 4 * i)) & 0xf];
    return s;
}

std::optional<std::uint64_t> fnv1a64_file(const std::string& path, std::size_t limit) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return std::nullopt;
    std::uint64_t state = util::kFnv1a64Offset;
    char chunk[1 << 16];
    std::size_t left = limit;
    while (left > 0) {
        in.read(chunk, static_cast<std::streamsize>(
                           std::min(left, static_cast<std::size_t>(sizeof(chunk)))));
        const std::size_t got = static_cast<std::size_t>(in.gcount());
        if (in.bad()) return std::nullopt;
        state = fnv1a64(chunk, got, state);
        left -= got;
        if (in.eof()) {
            // A finite limit that outruns the file is a caller error (the
            // pack trailer math said the file was longer than it is).
            if (left > 0 && limit != SIZE_MAX) return std::nullopt;
            break;
        }
    }
    return state;
}

void put_u8(std::string& out, std::uint8_t v) { out.push_back(static_cast<char>(v)); }

void put_u32(std::string& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_f64(std::string& out, double v) { put_u64(out, double_bits(v)); }

bool ByteReader::get_u8(std::uint8_t& v) {
    if (remaining() < 1) return false;
    v = data_[pos_++];
    return true;
}

bool ByteReader::get_u32(std::uint32_t& v) {
    if (remaining() < 4) return false;
    std::uint32_t r = 0;
    for (int i = 0; i < 4; ++i) r |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)]) << (8 * i);
    pos_ += 4;
    v = r;
    return true;
}

bool ByteReader::get_u64(std::uint64_t& v) {
    if (remaining() < 8) return false;
    std::uint64_t r = 0;
    for (int i = 0; i < 8; ++i) r |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)]) << (8 * i);
    pos_ += 8;
    v = r;
    return true;
}

bool ByteReader::get_f64(double& v) {
    std::uint64_t b;
    if (!get_u64(b)) return false;
    v = bits_double(b);
    return true;
}

bool ByteReader::get_bytes(std::string& out, std::size_t n) {
    if (remaining() < n) return false;
    out.assign(reinterpret_cast<const char*>(data_) + pos_, n);
    pos_ += n;
    return true;
}

void encode_pulse(std::string& out, const Pulse& p) {
    put_u32(out, static_cast<std::uint32_t>(p.amplitudes.size()));
    for (const std::vector<double>& line : p.amplitudes) {
        put_u32(out, static_cast<std::uint32_t>(line.size()));
        for (const double a : line) put_f64(out, a);
    }
    put_f64(out, p.dt);
    put_f64(out, p.fidelity);
    put_u32(out, static_cast<std::uint32_t>(p.grape_iterations));
    put_u32(out, static_cast<std::uint32_t>(p.nonfinite_reseeds));
    std::uint8_t flags = 0;
    if (p.warm_start_applied) flags |= 1u << 0;
    if (p.warm_start_mismatch) flags |= 1u << 1;
    if (p.timed_out) flags |= 1u << 2;
    if (p.nonfinite_aborted) flags |= 1u << 3;
    put_u8(out, flags);
}

bool decode_pulse(ByteReader& in, Pulse& p) {
    std::uint32_t nlines;
    if (!in.get_u32(nlines) || nlines > kMaxControlLines) return false;
    Pulse out;
    out.amplitudes.resize(nlines);
    for (std::uint32_t j = 0; j < nlines; ++j) {
        std::uint32_t nslots;
        if (!in.get_u32(nslots) || nslots > kMaxSlots) return false;
        // A truncated buffer must fail before the resize, not allocate first:
        // each slot is 8 bytes, so the remaining byte count bounds nslots.
        if (in.remaining() / 8 < nslots) return false;
        std::vector<double>& line = out.amplitudes[j];
        line.resize(nslots);
        for (std::uint32_t k = 0; k < nslots; ++k)
            if (!in.get_f64(line[k])) return false;
    }
    std::uint32_t iters, reseeds;
    std::uint8_t flags;
    if (!in.get_f64(out.dt) || !in.get_f64(out.fidelity) || !in.get_u32(iters) ||
        !in.get_u32(reseeds) || !in.get_u8(flags))
        return false;
    out.grape_iterations = static_cast<int>(iters);
    out.nonfinite_reseeds = static_cast<int>(reseeds);
    out.warm_start_applied = (flags & (1u << 0)) != 0;
    out.warm_start_mismatch = (flags & (1u << 1)) != 0;
    out.timed_out = (flags & (1u << 2)) != 0;
    out.nonfinite_aborted = (flags & (1u << 3)) != 0;
    p = std::move(out);
    return true;
}

std::string encode_latency_result(const LatencyResult& r) {
    std::string out;
    encode_pulse(out, r.pulse);
    put_u32(out, static_cast<std::uint32_t>(r.grape_runs));
    std::uint8_t flags = 0;
    if (r.feasible) flags |= 1u << 0;
    if (r.timed_out) flags |= 1u << 1;
    if (r.injected) flags |= 1u << 2;
    put_u8(out, flags);
    return out;
}

std::optional<LatencyResult> decode_latency_result(const std::string& bytes) {
    ByteReader in(bytes.data(), bytes.size());
    LatencyResult r;
    std::uint32_t runs;
    std::uint8_t flags;
    if (!decode_pulse(in, r.pulse) || !in.get_u32(runs) || !in.get_u8(flags) ||
        !in.done())
        return std::nullopt;
    r.grape_runs = static_cast<int>(runs);
    r.feasible = (flags & (1u << 0)) != 0;
    r.timed_out = (flags & (1u << 1)) != 0;
    r.injected = (flags & (1u << 2)) != 0;
    return r;
}

} // namespace epoc::qoc
