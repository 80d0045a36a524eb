// epoc_pack: build, inspect, verify, merge and unpack immutable pulse-pack
// segments (store/pack.h) — the tooling side of shipping a warm library.
//
// The workflow: run any compiler with --store DIR until the store is warm,
// `epoc_pack create DIR lib.pack` to fold the loose entries into one
// artifact, `epoc_pack verify lib.pack` as the ingest gate, then mount the
// pack's directory on other machines via compare_compilers --packs /
// epocd --pack-dir. Fleets with several warm stores `merge` them (first pack
// wins on duplicate keys, matching the store's probe order).
//
// Usage:
//   epoc_pack create <store-dir> <out.pack>   fold a store's loose entries
//   epoc_pack list <pack>                     index + per-entry summary
//   epoc_pack verify <pack>                   deep integrity check (exit 1 on
//                                             any damage)
//   epoc_pack merge <out.pack> <in.pack>...   combine packs, first-wins dedup
//   epoc_pack extract <pack> <store-dir>      unpack into loose entries
//   epoc_pack corrupt-for-test <pack>         flip a payload byte in every
//                                             entry, in place (tests/CI only:
//                                             proves quarantine + recompute)
//
// Every subcommand validates what it reads — `create` skips unparseable
// loose entries (reporting them), `merge`/`extract` refuse packs whose
// entries fail integrity — so a pack built here always passes `verify`.
#include "store/pack.h"
#include "store/pulse_store.h"

#include "qoc/pulse_io.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;
using epoc::store::PackEntry;
using epoc::store::PackReader;

int usage() {
    std::fprintf(stderr,
                 "usage: epoc_pack create <store-dir> <out.pack>\n"
                 "       epoc_pack list <pack>\n"
                 "       epoc_pack verify <pack>\n"
                 "       epoc_pack merge <out.pack> <in.pack>...\n"
                 "       epoc_pack extract <pack> <store-dir>\n"
                 "       epoc_pack corrupt-for-test <pack>\n");
    return 2;
}

std::shared_ptr<PackReader> open_or_die(const std::string& path) {
    std::string error;
    std::shared_ptr<PackReader> pack = PackReader::open(path, &error);
    if (pack == nullptr)
        std::fprintf(stderr, "epoc_pack: cannot open %s: %s\n", path.c_str(),
                     error.c_str());
    return pack;
}

bool publish(const std::string& out, std::vector<PackEntry> entries) {
    std::string error;
    if (!epoc::store::write_pack(out, std::move(entries), &error)) {
        std::fprintf(stderr, "epoc_pack: cannot write %s: %s\n", out.c_str(),
                     error.c_str());
        return false;
    }
    return true;
}

int cmd_create(const std::string& store_dir, const std::string& out) {
    std::error_code ec;
    if (!fs::is_directory(store_dir, ec)) {
        std::fprintf(stderr, "epoc_pack: %s is not a directory\n", store_dir.c_str());
        return 1;
    }
    // Deterministic artifact: same store contents -> same pack bytes, so
    // digests of shipped libraries are comparable across builders.
    std::vector<fs::path> files;
    for (fs::directory_iterator it(store_dir, ec), end; !ec && it != end;
         it.increment(ec))
        if (it->is_regular_file() && it->path().extension() == ".pulse")
            files.push_back(it->path());
    std::sort(files.begin(), files.end());
    std::vector<PackEntry> entries;
    std::size_t skipped = 0;
    for (const fs::path& p : files) {
        if (std::optional<PackEntry> e = epoc::store::PulseStore::read_entry_file(p))
            entries.push_back(std::move(*e));
        else
            ++skipped; // damaged or foreign-version entry: report, don't ship
    }
    if (skipped > 0)
        std::fprintf(stderr, "epoc_pack: skipped %zu unparseable entries\n", skipped);
    if (entries.empty()) {
        std::fprintf(stderr, "epoc_pack: no valid entries in %s\n", store_dir.c_str());
        return 1;
    }
    const std::size_t count = entries.size();
    if (!publish(out, std::move(entries))) return 1;
    std::printf("packed %zu entries into %s\n", count, out.c_str());
    return 0;
}

int cmd_list(const std::string& path) {
    std::shared_ptr<PackReader> pack = open_or_die(path);
    if (pack == nullptr) return 1;
    std::printf("%s: %zu entries, %zu bytes, %s\n", path.c_str(),
                pack->entry_count(), pack->size_bytes(),
                pack->mapped() ? "mmap" : "buffered");
    if (const std::optional<std::uint64_t> ck = epoc::qoc::fnv1a64_file(path))
        std::printf("file-checksum: %016llx\n",
                    static_cast<unsigned long long>(*ck));
    const bool clean = pack->for_each([](const std::string& key,
                                         const std::string& payload) {
        std::printf("  %016llx  payload=%zu  key=%.60s%s\n",
                    static_cast<unsigned long long>(epoc::qoc::fnv1a64(key)),
                    payload.size(), key.c_str(), key.size() > 60 ? "..." : "");
        return true;
    });
    if (!clean) {
        std::fprintf(stderr, "epoc_pack: entry integrity failure in %s\n",
                     path.c_str());
        return 1;
    }
    return 0;
}

int cmd_verify(const std::string& path) {
    std::shared_ptr<PackReader> pack = open_or_die(path);
    if (pack == nullptr) return 1;
    std::string error;
    if (!pack->deep_verify(&error)) {
        std::fprintf(stderr, "epoc_pack: %s FAILED verification: %s\n", path.c_str(),
                     error.c_str());
        return 1;
    }
    std::printf("%s: OK (%zu entries)\n", path.c_str(), pack->entry_count());
    return 0;
}

int cmd_merge(const std::string& out, const std::vector<std::string>& inputs) {
    // First-wins on duplicate keys, in argument order — the same precedence
    // the store's probe order gives a pack listed first. write_pack dedups;
    // we only concatenate in order here.
    std::vector<PackEntry> entries;
    for (const std::string& in : inputs) {
        std::shared_ptr<PackReader> pack = open_or_die(in);
        if (pack == nullptr) return 1;
        const bool clean =
            pack->for_each([&](const std::string& key, const std::string& payload) {
                entries.push_back(PackEntry{key, payload});
                return true;
            });
        if (!clean) {
            std::fprintf(stderr, "epoc_pack: entry integrity failure in %s\n",
                         in.c_str());
            return 1;
        }
    }
    const std::size_t total = entries.size();
    if (!publish(out, std::move(entries))) return 1;
    std::shared_ptr<PackReader> merged = open_or_die(out);
    if (merged == nullptr) return 1;
    std::printf("merged %zu inputs (%zu entries, %zu after dedup) into %s\n",
                inputs.size(), total, merged->entry_count(), out.c_str());
    return 0;
}

int cmd_extract(const std::string& path, const std::string& store_dir) {
    std::shared_ptr<PackReader> pack = open_or_die(path);
    if (pack == nullptr) return 1;
    // Publish through a real PulseStore so extraction inherits the atomic
    // rename discipline and the extracted dir is immediately a valid store.
    epoc::store::PulseStoreOptions sopt;
    sopt.dir = store_dir;
    sopt.max_bytes = 0; // tooling must not evict what it just extracted
    std::unique_ptr<epoc::store::PulseStore> store;
    try {
        store = std::make_unique<epoc::store::PulseStore>(std::move(sopt));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "epoc_pack: %s\n", e.what());
        return 1;
    }
    std::size_t extracted = 0, undecodable = 0;
    const bool clean =
        pack->for_each([&](const std::string& key, const std::string& payload) {
            if (const std::optional<epoc::qoc::LatencyResult> r =
                    epoc::qoc::decode_latency_result(payload)) {
                store->store(key, *r);
                ++extracted;
            } else {
                ++undecodable;
            }
            return true;
        });
    if (!clean) {
        std::fprintf(stderr, "epoc_pack: entry integrity failure in %s\n",
                     path.c_str());
        return 1;
    }
    if (undecodable > 0)
        std::fprintf(stderr, "epoc_pack: %zu entries did not decode\n", undecodable);
    const auto ss = store->stats();
    if (ss.writes != extracted) {
        std::fprintf(stderr, "epoc_pack: only %zu of %zu entries written\n",
                     ss.writes, extracted);
        return 1;
    }
    std::printf("extracted %zu entries into %s\n", extracted, store_dir.c_str());
    return 0;
}

int cmd_corrupt_for_test(const std::string& path) {
    // Doctor the pack the way CI needs: flip one payload byte in EVERY entry
    // without touching lengths or re-checksumming. The file still *opens*
    // (header and index are untouched), so whichever entry a compile probes
    // first trips the per-entry checksum -> suspect -> quarantine ->
    // recompute, regardless of probe order.
    std::shared_ptr<PackReader> pack = open_or_die(path);
    if (pack == nullptr) return 1;
    struct Target {
        std::uint64_t offset; // absolute file offset of the byte to flip
    };
    std::vector<Target> targets;
    std::uint64_t cursor = 8 + 4 + 8 + 8; // header size; records follow
    const bool clean =
        pack->for_each([&](const std::string& key, const std::string& payload) {
            // Record layout: key_len u64, key, payload_len u64, payload, ck.
            const std::uint64_t payload_at = cursor + 8 + key.size() + 8;
            if (!payload.empty()) targets.push_back(Target{payload_at});
            cursor = payload_at + payload.size() + 8;
            return true;
        });
    if (!clean) {
        std::fprintf(stderr, "epoc_pack: %s is already damaged\n", path.c_str());
        return 1;
    }
    pack.reset(); // drop the mapping before writing in place
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    if (!f) {
        std::fprintf(stderr, "epoc_pack: cannot reopen %s for writing\n",
                     path.c_str());
        return 1;
    }
    for (const Target& t : targets) {
        f.seekg(static_cast<std::streamoff>(t.offset));
        char b;
        if (!f.read(&b, 1)) break;
        b = static_cast<char>(b ^ 0x5a);
        f.seekp(static_cast<std::streamoff>(t.offset));
        if (!f.write(&b, 1)) break;
    }
    f.flush();
    if (!f) {
        std::fprintf(stderr, "epoc_pack: write failure doctoring %s\n", path.c_str());
        return 1;
    }
    std::printf("doctored %zu entries in %s (payload byte flipped, checksums "
                "left stale)\n",
                targets.size(), path.c_str());
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    const std::string cmd = argv[1];
    if (cmd == "create" && argc == 4) return cmd_create(argv[2], argv[3]);
    if (cmd == "list" && argc == 3) return cmd_list(argv[2]);
    if (cmd == "verify" && argc == 3) return cmd_verify(argv[2]);
    if (cmd == "merge" && argc >= 4)
        return cmd_merge(argv[2], std::vector<std::string>(argv + 3, argv + argc));
    if (cmd == "extract" && argc == 4) return cmd_extract(argv[2], argv[3]);
    if (cmd == "corrupt-for-test" && argc == 3) return cmd_corrupt_for_test(argv[2]);
    return usage();
}
