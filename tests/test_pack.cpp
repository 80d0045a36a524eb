// Pack-segment pulse-store tier (store/pack.h + the PulseStore layering):
//
//   * codec: write_pack round-trips every entry to the bit, first-wins dedup,
//     deterministic bytes, deep_verify as the ingest gate;
//   * corruption robustness: EVERY prefix truncation of a pack file is
//     rejected at open (and quarantined by the store), in-place payload
//     damage opens but trips the per-entry checksum on lookup, an embedded
//     key that disagrees with its index row is corruption — all of it a
//     miss + suspect + quarantine, never UB, never a poisoned hit;
//   * layering: loose entries shadow packs, invalidate() denylists pack keys
//     without touching the read-only file, a fresh write lifts the deny;
//   * compaction: quarantine/ shares the byte budget and is evicted first;
//     stale *.pack.tmp litter is swept at startup;
//   * concurrency: two libraries over one local tier layered on one
//     read-only pack under an 8-thread hammer — the pack file is never
//     modified;
//   * the compile-level guarantee: a cold start with only a pack does zero
//     GRAPE work and is bit-identical to the warm baseline; a doctored pack
//     and chaos over every store.pack.* fault site still end bit-identical
//     to a pack-less cold compile.
#include "store/pack.h"
#include "store/pulse_store.h"

#include "fuzz_mutate.h"

#include "bench_circuits/generators.h"
#include "circuit/gate.h"
#include "epoc/export.h"
#include "epoc/pipeline.h"
#include "qoc/pulse_io.h"
#include "util/fault_injection.h"
#include "util/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <complex>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#ifdef __unix__
#include <unistd.h>
#endif

namespace {

namespace fs = std::filesystem;
using namespace epoc;
using namespace epoc::qoc;
using epoc::linalg::Matrix;
using epoc::store::PackEntry;
using epoc::store::PackReader;
using epoc::store::PulseStore;
using epoc::store::PulseStoreOptions;

std::uint64_t test_pid() {
#ifdef __unix__
    return static_cast<std::uint64_t>(::getpid());
#else
    return 0;
#endif
}

/// Unique per-test scratch directory, removed on destruction. ctest runs the
/// suite in parallel, so names carry the pid plus a process-local counter.
struct TempDir {
    fs::path path;
    TempDir() {
        static std::atomic<int> counter{0};
        path = fs::temp_directory_path() /
               ("epoc-pack-test-" + std::to_string(test_pid()) + "-" +
                std::to_string(counter.fetch_add(1)));
        fs::create_directories(path);
    }
    ~TempDir() {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    std::string str() const { return path.string(); }
};

/// Disarm the fault harness however a test exits.
struct FaultGuard {
    ~FaultGuard() { util::fault::clear(); }
};

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

std::size_t count_entries(const fs::path& dir) {
    std::size_t n = 0;
    for (const auto& e : fs::directory_iterator(dir))
        if (e.is_regular_file() && e.path().extension() == ".pulse") ++n;
    return n;
}

std::size_t quarantined_count(const fs::path& dir) {
    const fs::path q = dir / "quarantine";
    if (!fs::is_directory(q)) return 0;
    std::size_t n = 0;
    for (const auto& e : fs::directory_iterator(q))
        if (e.is_regular_file()) ++n;
    return n;
}

/// A result with every field set to something distinctive (see test_store).
LatencyResult sample_result(double salt = 0.0) {
    LatencyResult r;
    r.pulse.amplitudes = {
        {0.1 + salt, -0.25, 5e-324 /* subnormal */, -0.0},
        {1.0 / 3.0, std::numeric_limits<double>::max(), 0.0, 42.5},
    };
    r.pulse.dt = 2.0000000000000004;
    r.pulse.fidelity = 0.99712345678901234;
    r.pulse.grape_iterations = 137;
    r.grape_runs = 9;
    r.feasible = true;
    return r;
}

void expect_result_bits_equal(const LatencyResult& a, const LatencyResult& b) {
    ASSERT_EQ(a.pulse.amplitudes.size(), b.pulse.amplitudes.size());
    for (std::size_t j = 0; j < a.pulse.amplitudes.size(); ++j) {
        ASSERT_EQ(a.pulse.amplitudes[j].size(), b.pulse.amplitudes[j].size());
        for (std::size_t k = 0; k < a.pulse.amplitudes[j].size(); ++k)
            EXPECT_TRUE(same_bits(a.pulse.amplitudes[j][k], b.pulse.amplitudes[j][k]))
                << "line " << j << " slot " << k;
    }
    EXPECT_TRUE(same_bits(a.pulse.dt, b.pulse.dt));
    EXPECT_TRUE(same_bits(a.pulse.fidelity, b.pulse.fidelity));
    EXPECT_EQ(a.pulse.grape_iterations, b.pulse.grape_iterations);
    EXPECT_EQ(a.grape_runs, b.grape_runs);
    EXPECT_EQ(a.feasible, b.feasible);
}

/// Cheap search settings so tests spend time in the store, not GRAPE.
LatencySearchOptions cheap_search() {
    LatencySearchOptions opt;
    opt.fidelity_threshold = 0.5;
    opt.max_slots = 8;
    opt.grape.max_iterations = 25;
    return opt;
}

/// Member k of phase-equivalence class `cls` (see test_store).
Matrix class_member(int cls, int k) {
    Matrix u = circuit::kind_matrix(circuit::GateKind::RZ, {0.1 + 0.37 * cls});
    u *= std::polar(1.0, 0.211 * k);
    return u;
}

/// The in-process equivalent of `epoc_pack create`: fold a store directory's
/// loose entries into one pack file (sorted for deterministic bytes).
std::size_t build_pack_from_store(const fs::path& store_dir, const fs::path& out) {
    std::vector<fs::path> files;
    for (const auto& e : fs::directory_iterator(store_dir))
        if (e.is_regular_file() && e.path().extension() == ".pulse")
            files.push_back(e.path());
    std::sort(files.begin(), files.end());
    std::vector<PackEntry> entries;
    for (const fs::path& p : files)
        if (std::optional<PackEntry> pe = PulseStore::read_entry_file(p))
            entries.push_back(std::move(*pe));
    const std::size_t count = entries.size();
    EXPECT_TRUE(epoc::store::write_pack(out, std::move(entries)));
    return count;
}

/// The in-process equivalent of `epoc_pack corrupt-for-test`: flip one
/// payload byte in every record without re-checksumming, so the pack still
/// opens but any lookup trips the per-entry checksum.
void doctor_pack(const fs::path& path) {
    std::shared_ptr<PackReader> pack = PackReader::open(path);
    ASSERT_NE(pack, nullptr);
    std::vector<std::uint64_t> targets;
    std::uint64_t cursor = 8 + 4 + 8 + 8; // header; records follow
    const bool clean = pack->for_each([&](const std::string& key,
                                          const std::string& payload) {
        const std::uint64_t payload_at = cursor + 8 + key.size() + 8;
        if (!payload.empty()) targets.push_back(payload_at);
        cursor = payload_at + payload.size() + 8;
        return true;
    });
    ASSERT_TRUE(clean);
    ASSERT_FALSE(targets.empty());
    pack.reset(); // drop the mapping before writing in place
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    for (const std::uint64_t at : targets) {
        f.seekg(static_cast<std::streamoff>(at));
        char b = 0;
        ASSERT_TRUE(static_cast<bool>(f.read(&b, 1)));
        b = static_cast<char>(b ^ 0x5a);
        f.seekp(static_cast<std::streamoff>(at));
        ASSERT_TRUE(static_cast<bool>(f.write(&b, 1)));
    }
}

std::string slurp(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    return bytes;
}

// ------------------------------------------------------------- pack codec

TEST(PackUnit, WriteReadRoundTripsAndDedupsFirstWins) {
    TempDir dir;
    const fs::path out = dir.path / "lib.pack";
    const LatencyResult r0 = sample_result(0.0);
    const LatencyResult r1 = sample_result(1.0);
    const LatencyResult shadow = sample_result(7.0);
    std::vector<PackEntry> entries = {
        {"key|zero", encode_latency_result(r0)},
        {"key|one", encode_latency_result(r1)},
        {"key|zero", encode_latency_result(shadow)}, // duplicate: must lose
    };
    ASSERT_TRUE(epoc::store::write_pack(out, entries));

    std::shared_ptr<PackReader> pack = PackReader::open(out);
    ASSERT_NE(pack, nullptr);
    EXPECT_EQ(pack->entry_count(), 2u) << "duplicate key must dedup first-wins";
    EXPECT_EQ(pack->size_bytes(), fs::file_size(out));
    EXPECT_FALSE(pack->suspect());

    bool corrupt = false;
    const std::optional<LatencyResult> zero = pack->find("key|zero", &corrupt);
    ASSERT_TRUE(zero.has_value());
    EXPECT_FALSE(corrupt);
    expect_result_bits_equal(r0, *zero); // first wins, not the shadow
    const std::optional<LatencyResult> one = pack->find("key|one");
    ASSERT_TRUE(one.has_value());
    expect_result_bits_equal(r1, *one);

    // A missing key is a plain miss: no corruption, no suspect.
    EXPECT_FALSE(pack->find("key|absent", &corrupt).has_value());
    EXPECT_FALSE(corrupt);
    EXPECT_FALSE(pack->suspect());
    EXPECT_TRUE(pack->contains_hash(fnv1a64("key|one")));
    EXPECT_FALSE(pack->contains_hash(fnv1a64("key|absent")));

    // for_each walks records in file (write) order; deep_verify is clean.
    std::vector<std::string> keys;
    EXPECT_TRUE(pack->for_each([&](const std::string& k, const std::string&) {
        keys.push_back(k);
        return true;
    }));
    ASSERT_EQ(keys.size(), 2u);
    EXPECT_EQ(keys[0], "key|zero");
    EXPECT_EQ(keys[1], "key|one");
    EXPECT_TRUE(pack->deep_verify());

    // Same entries -> same bytes: packs are deterministic artifacts.
    const fs::path out2 = dir.path / "lib2.pack";
    ASSERT_TRUE(epoc::store::write_pack(out2, entries));
    EXPECT_EQ(slurp(out), slurp(out2));
}

TEST(PackUnit, EveryPrefixTruncationIsRejectedAtOpenAndQuarantined) {
    // The satellite battery: every prefix of a valid pack — header, index,
    // each record boundary, every byte in between — must be rejected at
    // open time (the geometry equation or a checksum breaks), and the store
    // must quarantine the rejected file. Never UB: ASan/TSan CI runs this.
    TempDir dir;
    const fs::path master = dir.path / "master.pack";
    ASSERT_TRUE(epoc::store::write_pack(
        master, {{"k|a", encode_latency_result(sample_result(0.0))},
                 {"k|b", encode_latency_result(sample_result(1.0))}}));
    const std::string bytes = slurp(master);
    ASSERT_GT(bytes.size(), 44u);
    fs::remove(master); // only truncated copies from here on

    const fs::path pdir = dir.path / "packs";
    const fs::path sdir = dir.path / "store";
    fs::create_directories(pdir);
    for (std::size_t n = 0; n < bytes.size(); ++n) {
        const fs::path p = pdir / "trunc.pack";
        { std::ofstream(p, std::ios::binary).write(bytes.data(),
                                                   static_cast<std::streamsize>(n)); }
        EXPECT_EQ(PackReader::open(p), nullptr) << "prefix of " << n << " bytes opened";

        // Through the store: the failed open is counted, quarantined, and
        // the probe is a clean miss.
        PulseStoreOptions sopt;
        sopt.dir = sdir.string();
        sopt.pack_dirs = {pdir.string()};
        PulseStore store(std::move(sopt));
        const auto st = store.stats();
        EXPECT_EQ(st.packs_open, 0u) << "prefix " << n;
        EXPECT_EQ(st.pack_suspect, 1u) << "prefix " << n;
        EXPECT_FALSE(store.load("k|a").has_value()) << "prefix " << n;
        EXPECT_EQ(quarantined_count(pdir), 1u) << "prefix " << n;
        fs::remove_all(pdir / "quarantine"); // reset for the next prefix
    }

    // Sanity: the untruncated bytes do open.
    const fs::path whole = pdir / "whole.pack";
    { std::ofstream(whole, std::ios::binary) << bytes; }
    EXPECT_NE(PackReader::open(whole), nullptr);
}

TEST(PackUnit, InPlaceDamageOpensButLookupTripsSuspect) {
    TempDir dir;
    const fs::path p = dir.path / "lib.pack";
    const std::string key = "damaged|key";
    ASSERT_TRUE(epoc::store::write_pack(
        p, {{key, encode_latency_result(sample_result())}}));
    doctor_pack(p);

    // Header and index are untouched, so the pack opens...
    std::shared_ptr<PackReader> pack = PackReader::open(p);
    ASSERT_NE(pack, nullptr);
    EXPECT_FALSE(pack->suspect());
    // ...but the first lookup trips the per-entry checksum.
    bool corrupt = false;
    EXPECT_FALSE(pack->find(key, &corrupt).has_value());
    EXPECT_TRUE(corrupt);
    EXPECT_TRUE(pack->suspect());
    // Suspect short-circuits everything afterward, including deep_verify.
    EXPECT_FALSE(pack->find(key).has_value());
    EXPECT_FALSE(pack->deep_verify());
}

TEST(PackUnit, EmbeddedKeyDisagreeingWithIndexIsCorruption) {
    // File surgery: rewrite the record's embedded key bytes (fixing the
    // record checksum so only the key <-> index-row relation is broken).
    // A lookup of the original key finds its index row, decodes a record
    // whose key hashes elsewhere — that is corruption, not a miss.
    TempDir dir;
    const fs::path p = dir.path / "lib.pack";
    const std::string key = "honest-key";
    const std::string payload = encode_latency_result(sample_result());
    ASSERT_TRUE(epoc::store::write_pack(p, {{key, payload}}));

    std::string bytes = slurp(p);
    const std::size_t rec_at = 28; // header: magic 8 + version 4 + count 8 + index 8
    const std::size_t key_at = rec_at + 8;
    ASSERT_EQ(bytes.compare(key_at, key.size(), key), 0);
    const std::string impostor = "hONEST-key"; // same length, different hash
    bytes.replace(key_at, impostor.size(), impostor);
    const std::size_t rec_size = 8 + key.size() + 8 + payload.size() + 8;
    const std::uint64_t ck =
        fnv1a64(bytes.data() + rec_at, rec_size - 8); // re-seal the record
    for (int i = 0; i < 8; ++i) // little-endian, matching the codec
        bytes[rec_at + rec_size - 8 + static_cast<std::size_t>(i)] =
            static_cast<char>((ck >> (8 * i)) & 0xff);
    { std::ofstream(p, std::ios::binary) << bytes; }

    std::shared_ptr<PackReader> pack = PackReader::open(p);
    ASSERT_NE(pack, nullptr) << "index checksum covers header+index only";
    bool corrupt = false;
    EXPECT_FALSE(pack->find(key, &corrupt).has_value());
    EXPECT_TRUE(corrupt) << "embedded key must hash to its index row";
    EXPECT_TRUE(pack->suspect());
}

TEST(PackFuzz, SeededMutantsOpenOrReject) {
    // 2,000 seeded mutants of a valid three-entry pack (tests/fuzz_mutate.h):
    // open() rejects or opens each; on an opened one every find() and the
    // whole for_each() run, answering hit, miss or corruption -- never a
    // crash, and never an index or entry bigger than the file.
    TempDir dir;
    std::vector<PackEntry> entries;
    for (int i = 0; i < 3; ++i)
        entries.push_back({"key|" + std::to_string(i), encode_latency_result(sample_result(i))});
    const fs::path good = dir.path / "good.pack";
    ASSERT_TRUE(epoc::store::write_pack(good, entries));
    const std::string base = slurp(good);
    const fs::path mutant = dir.path / "mutant.pack";
    std::mt19937_64 rng(0x5041434B); // "PACK"
    int opened = 0, rejected = 0;
    for (int i = 0; i < 2000; ++i) {
        const std::string bytes =
            epoc::test::mutate(base, rng, std::string("\x00\x01\x18\x7f\x80\xff", 6));
        std::ofstream(mutant, std::ios::binary | std::ios::trunc) << bytes;
        const std::shared_ptr<PackReader> pack = PackReader::open(mutant);
        if (pack == nullptr) {
            ++rejected;
            continue;
        }
        ++opened;
        EXPECT_LE(pack->entry_count() * 24, bytes.size());
        for (const PackEntry& e : entries) {
            const std::optional<LatencyResult> hit = pack->find(e.key);
            if (!hit) continue;
            std::size_t doubles = 0;
            for (const auto& line : hit->pulse.amplitudes) doubles += line.size();
            EXPECT_LE(8 * doubles, bytes.size());
        }
        pack->for_each([&](const std::string& key, const std::string& payload) {
            EXPECT_LE(key.size() + payload.size(), bytes.size());
            return true;
        });
    }
    EXPECT_GT(opened, 0) << "no mutant kept a valid index, so no lookup ran";
    EXPECT_GT(rejected, 0) << "no mutation ever broke the index";
}

// ------------------------------------------------------- PulseStore layering

TEST(PackStore, LoosEntriesShadowPacksAndPacksServeMisses) {
    TempDir dir;
    const fs::path pdir = dir.path / "packs";
    const fs::path sdir = dir.path / "store";
    fs::create_directories(pdir);
    const LatencyResult packed = sample_result(3.0);
    ASSERT_TRUE(epoc::store::write_pack(
        pdir / "lib.pack", {{"shared|key", encode_latency_result(packed)}}));

    PulseStoreOptions sopt;
    sopt.dir = sdir.string();
    sopt.pack_dirs = {pdir.string()};
    PulseStore store(std::move(sopt));
    EXPECT_EQ(store.stats().packs_open, 1u);
    EXPECT_EQ(store.stats().pack_entries, 1u);
    EXPECT_GT(store.stats().pack_bytes, 0u);

    // Loose miss falls through to the pack; the hit reports its provenance.
    bool from_pack = false;
    std::optional<LatencyResult> hit = store.load("shared|key", &from_pack);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(from_pack);
    expect_result_bits_equal(packed, *hit);
    EXPECT_EQ(store.stats().pack_hits, 1u);
    EXPECT_EQ(store.stats().hits, 1u);

    // A fresh local write shadows the pack entry.
    const LatencyResult fresh = sample_result(9.0);
    store.store("shared|key", fresh);
    hit = store.load("shared|key", &from_pack);
    ASSERT_TRUE(hit.has_value());
    EXPECT_FALSE(from_pack) << "loose tier must win over packs";
    expect_result_bits_equal(fresh, *hit);
    EXPECT_EQ(store.stats().pack_hits, 1u) << "no second pack probe";

    // Remove the loose entry: the pack serves again.
    fs::remove(store.entry_path("shared|key"));
    hit = store.load("shared|key", &from_pack);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(from_pack);
    expect_result_bits_equal(packed, *hit);
}

TEST(PackStore, InvalidateDenylistsPackKeysWithoutTouchingTheFile) {
    TempDir dir;
    const fs::path pdir = dir.path / "packs";
    const fs::path sdir = dir.path / "store";
    fs::create_directories(pdir);
    const fs::path pfile = pdir / "lib.pack";
    ASSERT_TRUE(epoc::store::write_pack(
        pfile, {{"rejected|key", encode_latency_result(sample_result())},
                {"innocent|key", encode_latency_result(sample_result(1.0))}}));
    const std::string pristine = slurp(pfile);

    PulseStoreOptions sopt;
    sopt.dir = sdir.string();
    sopt.pack_dirs = {pdir.string()};
    PulseStore store(std::move(sopt));

    // Revalidation rejected the pack entry: the deny is in-memory only.
    store.invalidate("rejected|key");
    EXPECT_EQ(store.stats().invalidated, 1u);
    EXPECT_FALSE(store.load("rejected|key").has_value());
    EXPECT_EQ(store.stats().pack_denied, 1u);
    EXPECT_EQ(store.stats().pack_hits, 0u);
    // The neighbour is untouched, and so is the read-only file.
    EXPECT_TRUE(store.load("innocent|key").has_value());
    EXPECT_EQ(slurp(pfile), pristine) << "invalidate must never modify a pack";
    EXPECT_EQ(quarantined_count(pdir), 0u);

    // Invalidating a key no pack indexes must not grow the denylist count.
    store.invalidate("unknown|key");
    EXPECT_EQ(store.stats().invalidated, 1u);

    // A fresh authoritative write lifts the deny by shadowing it.
    const LatencyResult regenerated = sample_result(5.0);
    store.store("rejected|key", regenerated);
    bool from_pack = true;
    const std::optional<LatencyResult> back =
        store.load("rejected|key", &from_pack);
    ASSERT_TRUE(back.has_value());
    EXPECT_FALSE(from_pack);
    expect_result_bits_equal(regenerated, *back);
}

TEST(PackStore, CorruptPackIsQuarantinedAndNeighboursKeepServing) {
    TempDir dir;
    const fs::path pdir = dir.path / "packs";
    const fs::path sdir = dir.path / "store";
    fs::create_directories(pdir);
    // Two packs: the first is doctored, the second holds the same key clean.
    const LatencyResult good = sample_result(2.0);
    ASSERT_TRUE(epoc::store::write_pack(
        pdir / "a-bad.pack", {{"k", encode_latency_result(sample_result())}}));
    doctor_pack(pdir / "a-bad.pack");
    ASSERT_TRUE(epoc::store::write_pack(
        pdir / "b-good.pack", {{"k", encode_latency_result(good)}}));

    PulseStoreOptions sopt;
    sopt.dir = sdir.string();
    sopt.pack_dirs = {pdir.string()};
    PulseStore store(std::move(sopt));
    EXPECT_EQ(store.stats().packs_open, 2u) << "a doctored pack still opens";

    // The probe walks filename order: the bad pack trips its checksum, is
    // quarantined, and the clean neighbour answers the SAME lookup.
    bool from_pack = false;
    const std::optional<LatencyResult> hit = store.load("k", &from_pack);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(from_pack);
    expect_result_bits_equal(good, *hit);
    const auto st = store.stats();
    EXPECT_EQ(st.pack_corrupt, 1u);
    EXPECT_EQ(st.pack_suspect, 1u);
    EXPECT_EQ(st.packs_open, 1u);
    EXPECT_EQ(st.pack_hits, 1u);
    EXPECT_EQ(quarantined_count(pdir), 1u);
    EXPECT_TRUE(fs::exists(pdir / "b-good.pack"));
}

TEST(PackStore, QuarantineSharesTheBudgetAndIsEvictedFirst) {
    TempDir dir;
    PulseStoreOptions sopt;
    sopt.dir = dir.str();
    sopt.max_bytes = 0; // no compaction while we stage the scenario
    auto staged = std::make_unique<PulseStore>(std::move(sopt));
    for (int i = 0; i < 3; ++i)
        staged->store("live|" + std::to_string(i), sample_result(i));
    // Corrupt two entries and load them: both land in quarantine/.
    fs::resize_file(staged->entry_path("live|0"), 10);
    fs::resize_file(staged->entry_path("live|1"), 10);
    EXPECT_FALSE(staged->load("live|0").has_value());
    EXPECT_FALSE(staged->load("live|1").has_value());
    EXPECT_EQ(quarantined_count(dir.path), 2u);
    const std::uint64_t live_bytes = fs::file_size(staged->entry_path("live|2"));
    staged.reset();

    // Reopen with a budget only the surviving live entry fits in: compaction
    // must delete the quarantined files before touching live entries.
    PulseStoreOptions tight;
    tight.dir = dir.str();
    tight.max_bytes = live_bytes + 8;
    tight.compact_to = 1.0;
    PulseStore store(std::move(tight));
    store.compact();
    const auto st = store.stats();
    EXPECT_EQ(st.quarantine_evicted, 2u);
    EXPECT_EQ(st.evicted, 0u) << "live entries must outlive quarantined junk";
    EXPECT_EQ(quarantined_count(dir.path), 0u);
    EXPECT_EQ(count_entries(dir.path), 1u);
    EXPECT_TRUE(store.load("live|2").has_value());
}

TEST(PackStore, StartupSweepsStalePackTempsAlongsideLooseTemps) {
    TempDir dir;
    const fs::path stale_loose = dir.path / "tmp-123-old";
    const fs::path stale_pack = dir.path / "orphan.pack.tmp";
    const fs::path fresh_pack = dir.path / "inflight.pack.tmp";
    { std::ofstream(stale_loose) << "crash leftover"; }
    { std::ofstream(stale_pack) << "crash leftover"; }
    { std::ofstream(fresh_pack) << "another process, mid-publish"; }
    const auto old = fs::file_time_type::clock::now() - std::chrono::hours(2);
    fs::last_write_time(stale_loose, old);
    fs::last_write_time(stale_pack, old);

    PulseStore store({dir.str()});
    EXPECT_FALSE(fs::exists(stale_loose)) << "stale loose temp must be swept";
    EXPECT_FALSE(fs::exists(stale_pack)) << "stale pack temp must be swept";
    EXPECT_TRUE(fs::exists(fresh_pack))
        << "a fresh temp may be another process mid-publish";
    EXPECT_EQ(store.stats().packs_open, 0u) << "temps are not packs";
}

// ----------------------------------------------------- PulseLibrary layering

TEST(PackLibrary, PackHitsRevalidateAsForeignAndSkipGrape) {
    TempDir dir;
    const fs::path seed_dir = dir.path / "seed";
    const fs::path pdir = dir.path / "packs";
    const fs::path sdir = dir.path / "store";
    fs::create_directories(pdir);
    const auto h = make_block_hamiltonian(1);
    const LatencySearchOptions opt = cheap_search();

    {
        PulseStore seed_store({seed_dir.string()});
        PulseLibrary seeder(true);
        seeder.set_store(&seed_store);
        seeder.get_or_generate(h, circuit::hadamard(), opt);
    }
    ASSERT_EQ(build_pack_from_store(seed_dir, pdir / "lib.pack"), 1u);

    PulseStoreOptions sopt;
    sopt.dir = sdir.string();
    sopt.pack_dirs = {pdir.string()};
    PulseStore store(std::move(sopt));
    PulseLibrary lib(true);
    lib.set_store(&store);
    util::Tracer tracer(true);
    std::atomic<int> foreign_seen{0};
    const PulseLookup lookup{&tracer, [&](const std::string&, const BlockHamiltonian&,
                                          const Matrix&, const LatencyResult&, bool foreign) {
                                 if (foreign) foreign_seen.fetch_add(1);
                                 return true;
                             }};

    const auto r = lib.get_or_generate(h, circuit::hadamard(), opt, lookup);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(foreign_seen.load(), 1) << "a pack hit must revalidate as foreign";
    EXPECT_EQ(lib.stats().store_hits, 1u);
    EXPECT_EQ(lib.stats().store_pack_hits, 1u);
    EXPECT_EQ(tracer.report().counter("qoc.grape_runs"), 0u)
        << "a pack hit must skip the latency search entirely";
    EXPECT_EQ(tracer.report().counter("qoc.store_pack_promotions"), 1u);
    EXPECT_EQ(count_entries(sdir), 0u)
        << "a pack hit promotes to memory, not back to the loose tier";

    // A local (non-foreign) hit through the same library keeps foreign=false.
    PulseLibrary second(true);
    second.set_store(&store);
    std::atomic<int> local_foreign{0};
    second.get_or_generate(h, circuit::hadamard(), opt,
                           {nullptr, [&](const std::string&, const BlockHamiltonian&,
                                         const Matrix&, const LatencyResult&, bool foreign) {
                                local_foreign.fetch_add(foreign ? 1 : 0);
                                return true;
                            }});
    EXPECT_EQ(local_foreign.load(), 1) << "still the pack: foreign again";
}

TEST(PackLibrary, RejectedForeignHitRegeneratesAndShadowsThePack) {
    TempDir dir;
    const fs::path seed_dir = dir.path / "seed";
    const fs::path pdir = dir.path / "packs";
    const fs::path sdir = dir.path / "store";
    fs::create_directories(pdir);
    const auto h = make_block_hamiltonian(1);
    const LatencySearchOptions opt = cheap_search();
    {
        PulseStore seed_store({seed_dir.string()});
        PulseLibrary seeder(true);
        seeder.set_store(&seed_store);
        seeder.get_or_generate(h, circuit::hadamard(), opt);
    }
    ASSERT_EQ(build_pack_from_store(seed_dir, pdir / "lib.pack"), 1u);
    const std::string pristine = slurp(pdir / "lib.pack");

    PulseStoreOptions sopt;
    sopt.dir = sdir.string();
    sopt.pack_dirs = {pdir.string()};
    PulseStore store(std::move(sopt));
    PulseLibrary lib(true);
    lib.set_store(&store);
    const PulseLookup refuse_foreign{nullptr, [](const std::string&, const BlockHamiltonian&,
                                                 const Matrix&, const LatencyResult&,
                                                 bool foreign) {
                                         return !foreign; // refuse everything a pack serves
                                     }};
    const auto r = lib.get_or_generate(h, circuit::hadamard(), opt, refuse_foreign);
    ASSERT_NE(r, nullptr);
    EXPECT_GT(r->pulse.num_slots(), 0);
    EXPECT_EQ(lib.stats().store_rejected, 1u);
    EXPECT_EQ(lib.stats().store_hits, 0u);
    EXPECT_EQ(store.stats().invalidated, 1u) << "the reject must denylist";
    // The regenerated entry published locally and now shadows the pack; the
    // read-only file itself is bit-untouched.
    EXPECT_EQ(count_entries(sdir), 1u);
    EXPECT_EQ(slurp(pdir / "lib.pack"), pristine);
    EXPECT_EQ(quarantined_count(pdir), 0u);

    // A fresh library with the same refuse-foreign policy now resolves from
    // the loose tier — no foreign hit, no rejection, no GRAPE.
    PulseLibrary after(true);
    after.set_store(&store);
    const auto local = after.get_or_generate(h, circuit::hadamard(), opt, refuse_foreign);
    ASSERT_NE(local, nullptr);
    EXPECT_EQ(after.stats().store_hits, 1u);
    EXPECT_EQ(after.stats().store_pack_hits, 0u);
    EXPECT_EQ(after.stats().store_rejected, 0u);
    expect_result_bits_equal(*r, *local);
}

TEST(PackLibrary, TwoLibrariesOneLocalTierOneReadOnlyPackUnderHammer) {
    TempDir dir;
    const fs::path seed_dir = dir.path / "seed";
    const fs::path pdir = dir.path / "packs";
    const fs::path sdir = dir.path / "store";
    fs::create_directories(pdir);
    const auto h = make_block_hamiltonian(1);
    const LatencySearchOptions opt = cheap_search();
    const int kClasses = 5;
    const int kThreads = 8;
    const int kLookupsPerThread = 4 * kClasses;

    // Seed ALL classes into a store, fold them into one read-only pack.
    {
        PulseStore seed_store({seed_dir.string()});
        PulseLibrary seeder(true);
        seeder.set_store(&seed_store);
        for (int cls = 0; cls < kClasses; ++cls)
            seeder.get_or_generate(h, class_member(cls, 0), opt);
    }
    const fs::path pfile = pdir / "warm.pack";
    ASSERT_EQ(build_pack_from_store(seed_dir, pfile),
              static_cast<std::size_t>(kClasses));
    const std::optional<std::uint64_t> checksum_before = fnv1a64_file(pfile.string());
    ASSERT_TRUE(checksum_before.has_value());

    // Two libraries share one local tier layered over the read-only pack.
    PulseStoreOptions sopt;
    sopt.dir = sdir.string();
    sopt.pack_dirs = {pdir.string()};
    PulseStore store(std::move(sopt));
    PulseLibrary lib_a(true), lib_b(true);
    lib_a.set_store(&store);
    lib_b.set_store(&store);

    std::atomic<int> start_gate{kThreads};
    std::atomic<std::size_t> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start_gate.fetch_sub(1);
            while (start_gate.load() > 0) std::this_thread::yield();
            for (int i = 0; i < kLookupsPerThread; ++i) {
                const int cls = (i + t) % kClasses;
                PulseLibrary& lib = ((i + t) % 2 == 0) ? lib_a : lib_b;
                const auto r = lib.get_or_generate(h, class_member(cls, 0), opt);
                if (r == nullptr || r->pulse.num_slots() <= 0) failures.fetch_add(1);
            }
        });
    }
    for (std::thread& th : threads) th.join();

    EXPECT_EQ(failures.load(), 0u);
    // Every class was warm in the pack: nothing was generated, nothing was
    // re-published to the loose tier, and the pack file is bit-untouched.
    EXPECT_EQ(lib_a.stats().store_misses + lib_b.stats().store_misses, 0u);
    EXPECT_GT(store.stats().pack_hits, 0u);
    EXPECT_EQ(count_entries(sdir), 0u);
    EXPECT_EQ(store.stats().pack_corrupt, 0u);
    EXPECT_EQ(quarantined_count(pdir), 0u);
    const std::optional<std::uint64_t> checksum_after = fnv1a64_file(pfile.string());
    ASSERT_TRUE(checksum_after.has_value());
    EXPECT_EQ(*checksum_after, *checksum_before)
        << "a read-only pack must never be modified by readers";
    // Whatever the interleaving, both libraries agree bit-for-bit.
    for (int cls = 0; cls < kClasses; ++cls) {
        const auto ra = lib_a.get_or_generate(h, class_member(cls, 0), opt);
        const auto rb = lib_b.get_or_generate(h, class_member(cls, 0), opt);
        expect_result_bits_equal(*ra, *rb);
    }
}

// -------------------------------------------------------------- compile level

core::EpocOptions cheap_compile_options(int num_threads, const std::string& store_dir) {
    core::EpocOptions opt;
    opt.latency.fidelity_threshold = 0.99;
    opt.latency.grape.max_iterations = 120;
    opt.qsearch.threshold = 1e-4;
    opt.qsearch.instantiate.restarts = 2;
    opt.num_threads = num_threads;
    opt.trace_enabled = true;
    opt.pulse_store_dir = store_dir;
    return opt;
}

TEST(PackCompile, ColdStartWithOnlyAPackIsGrapeFreeAndBitIdentical) {
    TempDir dir;
    const circuit::Circuit c = bench::ghz(3);
    const fs::path warm_dir = dir.path / "warm";
    const fs::path pdir = dir.path / "packs";
    fs::create_directories(pdir);

    // Warm a store the usual way, then fold it into a shippable pack.
    core::EpocCompiler warm(cheap_compile_options(1, warm_dir.string()));
    const core::EpocResult rw = warm.compile(c);
    ASSERT_FALSE(rw.degraded);
    ASSERT_GT(rw.store_stats.writes, 0u);
    const std::string warm_json = core::schedule_to_json(rw.schedule);
    ASSERT_GT(build_pack_from_store(warm_dir, pdir / "ghz.pack"), 0u);

    // A fresh machine: empty store directory, only the pack behind it.
    const fs::path cold_dir = dir.path / "cold";
    core::EpocOptions opt = cheap_compile_options(2, cold_dir.string());
    opt.pulse_pack_dirs = {pdir.string()};
    core::EpocCompiler cold(opt);
    const core::EpocResult rc = cold.compile(c);
    ASSERT_FALSE(rc.degraded);
    EXPECT_EQ(rc.trace.counter("qoc.grape_runs"), 0u)
        << "a pack-backed cold start must do no GRAPE work";
    EXPECT_EQ(rc.library_stats.store_misses, 0u);
    EXPECT_GT(rc.library_stats.store_pack_hits, 0u);
    EXPECT_GT(rc.store_stats.pack_hits, 0u);
    EXPECT_EQ(rc.store_stats.pack_corrupt, 0u);
    EXPECT_GT(rc.verify.pack_revalidations, 0u)
        << "every pack hit must be re-simulated, whatever the verify level";
    EXPECT_EQ(core::schedule_to_json(rc.schedule), warm_json);
    EXPECT_TRUE(same_bits(rc.latency_ns, rw.latency_ns));
    EXPECT_TRUE(same_bits(rc.esp, rw.esp));
}

TEST(PackCompile, DoctoredPackQuarantinesRecomputesAndStaysBitIdentical) {
    TempDir dir;
    const circuit::Circuit c = bench::ghz(3);

    // The reference: a pack-less cold compile.
    const fs::path ref_dir = dir.path / "ref";
    core::EpocCompiler ref(cheap_compile_options(1, ref_dir.string()));
    const core::EpocResult rr = ref.compile(c);
    ASSERT_FALSE(rr.degraded);
    const std::string ref_json = core::schedule_to_json(rr.schedule);

    // Fold the reference store into a pack, then doctor every entry.
    const fs::path pdir = dir.path / "packs";
    fs::create_directories(pdir);
    ASSERT_GT(build_pack_from_store(ref_dir, pdir / "ghz.pack"), 0u);
    doctor_pack(pdir / "ghz.pack");

    const fs::path cold_dir = dir.path / "cold";
    core::EpocOptions opt = cheap_compile_options(2, cold_dir.string());
    opt.pulse_pack_dirs = {pdir.string()};
    core::EpocCompiler cold(opt);
    const core::EpocResult rc = cold.compile(c);
    EXPECT_FALSE(rc.degraded)
        << "a damaged pack is a cold pack, never a degraded compile";
    EXPECT_GT(rc.trace.counter("qoc.grape_runs"), 0u) << "the miss recomputes";
    EXPECT_GT(rc.store_stats.pack_corrupt, 0u);
    EXPECT_GE(rc.store_stats.pack_suspect, 1u);
    EXPECT_EQ(rc.store_stats.pack_hits, 0u);
    EXPECT_EQ(quarantined_count(pdir), 1u) << "the doctored pack moves aside";
    EXPECT_EQ(core::schedule_to_json(rc.schedule), ref_json)
        << "recompute must be bit-identical to the pack-less cold compile";
    EXPECT_GT(rc.store_stats.writes, 0u) << "the recompute re-publishes locally";
}

TEST(PackCompile, PackFaultSitesNeverDegradeAndStayBitIdentical) {
    FaultGuard guard;
    TempDir dir;
    const circuit::Circuit c = bench::ghz(3);

    const fs::path ref_dir = dir.path / "ref";
    core::EpocCompiler ref(cheap_compile_options(1, ref_dir.string()));
    const core::EpocResult rr = ref.compile(c);
    ASSERT_FALSE(rr.degraded);
    const std::string ref_json = core::schedule_to_json(rr.schedule);

    const fs::path master = dir.path / "master.pack";
    ASSERT_GT(build_pack_from_store(ref_dir, master), 0u);

    int run = 0;
    for (const char* site : {"store.pack.open=*", "store.pack.index=*",
                             "store.pack.read=*", "store.pack.mmap=*"}) {
        // Fresh pack copy per site: quarantine consumes the file.
        const fs::path pdir = dir.path / ("packs-" + std::to_string(run));
        fs::create_directories(pdir);
        fs::copy_file(master, pdir / "ghz.pack");
        const fs::path cold_dir = dir.path / ("cold-" + std::to_string(run));
        ++run;
        util::fault::configure(site);
        core::EpocOptions opt = cheap_compile_options(2, cold_dir.string());
        opt.pulse_pack_dirs = {pdir.string()};
        core::EpocCompiler cold(opt);
        const core::EpocResult rc = cold.compile(c);
        util::fault::clear();
        EXPECT_FALSE(rc.degraded)
            << site << ": a broken pack tier is a cold tier, never a "
                       "degraded compile";
        EXPECT_EQ(core::schedule_to_json(rc.schedule), ref_json) << site;
        EXPECT_TRUE(same_bits(rc.latency_ns, rr.latency_ns)) << site;
        EXPECT_GT(rc.store_stats.pack_suspect + rc.store_stats.pack_corrupt, 0u)
            << site << ": the fault must actually have fired";
    }
}

} // namespace
