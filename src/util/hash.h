// 64-bit FNV-1a, the project's one content hash: store checksums and entry
// file names, schedule digests, and the plan cache's structure keys.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace epoc::util {

inline constexpr std::uint64_t kFnv1a64Offset = 14695981039346656037ULL;

/// 64-bit FNV-1a over `n` bytes, continuing from `state` (pass the default to
/// start a fresh hash; chain calls to hash discontiguous pieces).
inline std::uint64_t fnv1a64(const void* data, std::size_t n,
                             std::uint64_t state = kFnv1a64Offset) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        state ^= p[i];
        state *= 1099511628211ULL;
    }
    return state;
}

inline std::uint64_t fnv1a64(const std::string& s) { return fnv1a64(s.data(), s.size()); }

} // namespace epoc::util
