// File helpers shared by the loose store (pulse_store.cpp) and the pack tier
// (pack.cpp): the key-size cap both formats enforce, durable writes, and the
// errno classes that trip the store into memory-only mode. Internal to
// src/store; not part of the store's interface.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>

#ifdef __unix__
#include <unistd.h>
#endif

namespace epoc::store::detail {

/// Keys are short generated cache-key strings; a length field beyond this is
/// garbage.
inline constexpr std::uint64_t kMaxKeyBytes = 1ull << 24;

/// Durably write `bytes` to `p` (fsync before close, so a crash after the
/// subsequent rename cannot publish a file whose data never hit the disk).
/// On failure `err` holds the errno of the first failing step.
inline bool write_file_synced(const std::filesystem::path& p, const std::string& bytes,
                              int& err) {
    errno = 0;
    std::FILE* f = std::fopen(p.c_str(), "wb");
    if (f == nullptr) {
        err = errno;
        return false;
    }
    bool ok = bytes.empty() ||
              std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    if (!ok) err = errno;
    if (std::fflush(f) != 0) {
        if (ok) err = errno;
        ok = false;
    }
#ifdef __unix__
    if (::fsync(::fileno(f)) != 0) {
        if (ok) err = errno;
        ok = false;
    }
#endif
    if (std::fclose(f) != 0) {
        if (ok) err = errno;
        ok = false;
    }
    return ok;
}

/// ENOSPC-class: failures that mean "this filesystem will keep refusing
/// writes" — retrying per-compile only burns syscalls and log lines.
inline bool is_disk_full_errno(int err) {
    return err == ENOSPC || err == EROFS || err == EACCES || err == EPERM
#ifdef EDQUOT
           || err == EDQUOT
#endif
        ;
}

} // namespace epoc::store::detail
