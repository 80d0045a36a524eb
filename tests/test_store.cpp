// Persistent pulse store (store/pulse_store.h) and its codec (qoc/pulse_io.h):
//
//   * exact round-trip of every Pulse / LatencyResult field, doubles to the
//     bit (NaN payloads included);
//   * corruption robustness: truncated, bit-flipped, zero-length and
//     wrong-version files are quarantined and transparently recomputed,
//     never fatal; a hash collision (same content address, different key) is
//     a miss, not a poisoned hit;
//   * the L2 protocol through PulseLibrary: memory miss -> store probe ->
//     promote, authoritative write-back, degraded results never persisted;
//   * concurrency: two libraries sharing one store under a thread hammer;
//   * the compile-level guarantee: a warm run from a populated store does
//     zero GRAPE work and is bit-identical to the cold run, at every thread
//     count;
//   * store I/O fault injection (store.read / store.write / store.rename)
//     degrades to a cold store, never to a degraded compile or a torn file.
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
#include <cmath>
#include <complex>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
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
               ("epoc-store-test-" + std::to_string(test_pid()) + "-" +
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

std::uint64_t entry_bytes(const fs::path& dir) {
    std::uint64_t total = 0;
    for (const auto& e : fs::directory_iterator(dir))
        if (e.is_regular_file() && e.path().extension() == ".pulse")
            total += e.file_size();
    return total;
}

std::size_t quarantined_count(const fs::path& dir) {
    const fs::path q = dir / "quarantine";
    if (!fs::is_directory(q)) return 0;
    std::size_t n = 0;
    for (const auto& e : fs::directory_iterator(q))
        if (e.is_regular_file()) ++n;
    return n;
}

/// A result with every field set to something distinctive (including the
/// degradation flags — the codec is total even though the store refuses
/// non-authoritative entries).
LatencyResult sample_result() {
    LatencyResult r;
    r.pulse.amplitudes = {
        {0.1, -0.25, 5e-324 /* subnormal */, -0.0},
        {1.0 / 3.0, std::numeric_limits<double>::max(), 0.0, 42.5},
        {-1e-300, 2.0, 3.0, 4.0},
    };
    r.pulse.dt = 2.0000000000000004; // not exactly representable as "2"
    r.pulse.fidelity = 0.99712345678901234;
    r.pulse.grape_iterations = 137;
    r.pulse.warm_start_applied = true;
    r.pulse.warm_start_mismatch = true;
    r.pulse.nonfinite_reseeds = 2;
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
    EXPECT_EQ(a.pulse.warm_start_applied, b.pulse.warm_start_applied);
    EXPECT_EQ(a.pulse.warm_start_mismatch, b.pulse.warm_start_mismatch);
    EXPECT_EQ(a.pulse.timed_out, b.pulse.timed_out);
    EXPECT_EQ(a.pulse.nonfinite_reseeds, b.pulse.nonfinite_reseeds);
    EXPECT_EQ(a.pulse.nonfinite_aborted, b.pulse.nonfinite_aborted);
    EXPECT_EQ(a.grape_runs, b.grape_runs);
    EXPECT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.timed_out, b.timed_out);
    EXPECT_EQ(a.injected, b.injected);
}

/// Cheap search settings so unit tests spend time in the store, not GRAPE.
LatencySearchOptions cheap_search() {
    LatencySearchOptions opt;
    opt.fidelity_threshold = 0.5;
    opt.max_slots = 8;
    opt.grape.max_iterations = 25;
    return opt;
}

/// Member k of phase-equivalence class `cls` (see the concurrent-library
/// tests): same operation, class-dependent angle, k-dependent global phase.
Matrix class_member(int cls, int k) {
    Matrix u = circuit::kind_matrix(circuit::GateKind::RZ, {0.1 + 0.37 * cls});
    u *= std::polar(1.0, 0.211 * k);
    return u;
}

// ---------------------------------------------------------------- pulse_io

TEST(PulseIo, ExactDoubleIsInjectiveAndStable) {
    EXPECT_EQ(exact_double(0.0).size(), 16u);
    EXPECT_NE(exact_double(0.0), exact_double(-0.0));
    const double lr = 0.003;
    EXPECT_NE(exact_double(lr), exact_double(std::nextafter(lr, 1.0)))
        << "one-ulp differences must produce distinct keys";
    EXPECT_EQ(exact_double(lr), exact_double(0.003));
    // Non-finite values have well-defined encodings too.
    EXPECT_NE(exact_double(std::numeric_limits<double>::quiet_NaN()),
              exact_double(std::numeric_limits<double>::infinity()));
}

TEST(PulseIo, Fnv1a64MatchesReferenceVectors) {
    // Published FNV-1a test vectors.
    EXPECT_EQ(fnv1a64("", 0), 14695981039346656037ULL);
    EXPECT_EQ(fnv1a64("a", 1), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a64(std::string("foobar")), 0x85944171f73967e8ULL);
}

TEST(PulseIo, LatencyResultRoundTripsEveryFieldExactly) {
    const LatencyResult r = sample_result();
    const std::optional<LatencyResult> back =
        decode_latency_result(encode_latency_result(r));
    ASSERT_TRUE(back.has_value());
    expect_result_bits_equal(r, *back);
}

TEST(PulseIo, NonFiniteAndFlaggedFieldsRoundTrip) {
    LatencyResult r = sample_result();
    r.pulse.fidelity = std::numeric_limits<double>::quiet_NaN();
    r.pulse.amplitudes[0][1] = std::numeric_limits<double>::infinity();
    r.pulse.timed_out = true;
    r.pulse.nonfinite_aborted = true;
    r.feasible = false;
    r.timed_out = true;
    r.injected = true;
    const std::optional<LatencyResult> back =
        decode_latency_result(encode_latency_result(r));
    ASSERT_TRUE(back.has_value());
    expect_result_bits_equal(r, *back);
}

TEST(PulseIo, EmptyPulseRoundTrips) {
    LatencyResult r; // default: no amplitudes, zero slots
    const std::optional<LatencyResult> back =
        decode_latency_result(encode_latency_result(r));
    ASSERT_TRUE(back.has_value());
    expect_result_bits_equal(r, *back);
}

TEST(PulseIo, EveryTruncationIsRejectedCleanly) {
    const std::string bytes = encode_latency_result(sample_result());
    for (std::size_t n = 0; n < bytes.size(); ++n)
        EXPECT_FALSE(decode_latency_result(bytes.substr(0, n)).has_value())
            << "prefix of " << n << " bytes decoded";
    EXPECT_TRUE(decode_latency_result(bytes).has_value());
    EXPECT_FALSE(decode_latency_result(bytes + 'x').has_value())
        << "trailing garbage accepted";
}

TEST(PulseIo, AbsurdLengthFieldsDoNotAllocate) {
    // A crafted buffer claiming 2^32-1 control lines must fail fast, not
    // attempt the allocation.
    std::string bytes;
    put_u32(bytes, 0xffffffffu);
    ByteReader in(bytes.data(), bytes.size());
    Pulse p;
    EXPECT_FALSE(decode_pulse(in, p));
    // And a plausible line count with an absurd slot count likewise.
    bytes.clear();
    put_u32(bytes, 1);
    put_u32(bytes, 0x00ffffffu); // kMaxSlots boundary, but no data behind it
    ByteReader in2(bytes.data(), bytes.size());
    EXPECT_FALSE(decode_pulse(in2, p));
}

// --------------------------------------------------------------- PulseStore

TEST(PulseStoreUnit, StoreAndLoadRoundTrips) {
    TempDir dir;
    PulseStore store({dir.str()});
    const LatencyResult r = sample_result();
    store.store("some|key", r);
    EXPECT_EQ(store.stats().writes, 1u);
    EXPECT_TRUE(fs::exists(store.entry_path("some|key")));

    const std::optional<LatencyResult> back = store.load("some|key");
    ASSERT_TRUE(back.has_value());
    expect_result_bits_equal(r, *back);
    EXPECT_EQ(store.stats().hits, 1u);

    EXPECT_FALSE(store.load("other|key").has_value());
    EXPECT_EQ(store.stats().misses, 1u);
}

TEST(PulseStoreUnit, SurvivesReopen) {
    TempDir dir;
    const LatencyResult r = sample_result();
    {
        PulseStore store({dir.str()});
        store.store("k", r);
    }
    PulseStore reopened({dir.str()});
    EXPECT_GT(reopened.stats().bytes, 0u) << "existing entries must be accounted";
    const std::optional<LatencyResult> back = reopened.load("k");
    ASSERT_TRUE(back.has_value());
    expect_result_bits_equal(r, *back);
}

TEST(PulseStoreUnit, RefusesDegradedResults) {
    TempDir dir;
    PulseStore store({dir.str()});
    LatencyResult timed = sample_result();
    timed.timed_out = true;
    LatencyResult injected = sample_result();
    injected.injected = true;
    LatencyResult aborted = sample_result();
    aborted.pulse.nonfinite_aborted = true;
    store.store("a", timed);
    store.store("b", injected);
    store.store("c", aborted);
    EXPECT_EQ(store.stats().writes, 0u);
    EXPECT_EQ(count_entries(dir.path), 0u);

    // Deterministic infeasibility, by contrast, is authoritative and persists.
    LatencyResult infeasible = sample_result();
    infeasible.feasible = false;
    store.store("d", infeasible);
    EXPECT_EQ(store.stats().writes, 1u);
    const auto back = store.load("d");
    ASSERT_TRUE(back.has_value());
    EXPECT_FALSE(back->feasible);
}

TEST(PulseStoreUnit, TruncatedFileQuarantinedAndRecomputable) {
    TempDir dir;
    PulseStore store({dir.str()});
    store.store("k", sample_result());
    const fs::path p = store.entry_path("k");
    fs::resize_file(p, fs::file_size(p) - 7); // tear the checksum trailer

    EXPECT_FALSE(store.load("k").has_value());
    EXPECT_EQ(store.stats().corrupt, 1u);
    EXPECT_FALSE(fs::exists(p)) << "corrupt file must be moved aside";
    EXPECT_EQ(quarantined_count(dir.path), 1u);

    // Second probe is a plain miss; a re-publish heals the entry.
    EXPECT_FALSE(store.load("k").has_value());
    EXPECT_EQ(store.stats().corrupt, 1u);
    store.store("k", sample_result());
    EXPECT_TRUE(store.load("k").has_value());
}

TEST(PulseStoreUnit, BitFlipQuarantined) {
    TempDir dir;
    PulseStore store({dir.str()});
    store.store("k", sample_result());
    const fs::path p = store.entry_path("k");
    {
        std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(static_cast<std::streamoff>(fs::file_size(p) / 2));
        f.put('\x7f');
    }
    EXPECT_FALSE(store.load("k").has_value());
    EXPECT_EQ(store.stats().corrupt, 1u);
    EXPECT_EQ(quarantined_count(dir.path), 1u);
}

TEST(PulseStoreUnit, ZeroLengthFileQuarantined) {
    TempDir dir;
    PulseStore store({dir.str()});
    { std::ofstream(store.entry_path("k"), std::ios::binary); }
    EXPECT_FALSE(store.load("k").has_value());
    EXPECT_EQ(store.stats().corrupt, 1u);
    EXPECT_EQ(quarantined_count(dir.path), 1u);
}

TEST(PulseStoreUnit, WrongVersionQuarantined) {
    TempDir dir;
    PulseStore store({dir.str()});
    store.store("k", sample_result());
    const fs::path p = store.entry_path("k");
    {
        // The format version lives at offset 8, right after the magic.
        std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(8);
        f.put('\x63');
    }
    EXPECT_FALSE(store.load("k").has_value());
    EXPECT_EQ(store.stats().corrupt, 1u);
    EXPECT_EQ(quarantined_count(dir.path), 1u);
}

TEST(PulseStoreUnit, HashCollisionIsMissNotPoison) {
    TempDir dir;
    PulseStore store({dir.str()});
    store.store("key-one", sample_result());
    // Simulate fnv1a64("key-two") == fnv1a64("key-one") by planting key-one's
    // (fully valid) entry at key-two's content address.
    fs::copy_file(store.entry_path("key-one"), store.entry_path("key-two"));

    EXPECT_FALSE(store.load("key-two").has_value())
        << "an entry for a different key must never be served";
    EXPECT_EQ(store.stats().collisions, 1u);
    EXPECT_EQ(store.stats().corrupt, 0u) << "a collision is not corruption";
    EXPECT_TRUE(fs::exists(store.entry_path("key-two"))) << "not quarantined";
    EXPECT_TRUE(store.load("key-one").has_value());
}

TEST(StoreFuzz, SeededEntryMutantsParseOrReject) {
    // 2,000 seeded mutants of one valid loose entry (tests/fuzz_mutate.h),
    // each written over the entry's own path, then read by the ingest
    // primitive and served through load(): rejected or parsed, never a
    // crash, and never a key, payload or pulse bigger than the file.
    TempDir dir;
    PulseStoreOptions sopt;
    sopt.dir = dir.str();
    PulseStore store(sopt);
    store.store("k", sample_result());
    const fs::path p = store.entry_path("k");
    std::string base;
    {
        std::ifstream in(p, std::ios::binary);
        base.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
    ASSERT_FALSE(base.empty());
    std::mt19937_64 rng(0x454E545259); // "ENTRY"
    int parsed = 0, rejected = 0;
    for (int i = 0; i < 2000; ++i) {
        const std::string bytes =
            epoc::test::mutate(base, rng, std::string("\x00\x01\x08\x7f\x80\xff", 6));
        std::ofstream(p, std::ios::binary | std::ios::trunc) << bytes;
        if (const auto entry = PulseStore::read_entry_file(p)) {
            ++parsed;
            EXPECT_LE(entry->key.size() + entry->payload.size(), bytes.size());
        } else {
            ++rejected;
        }
        if (const auto loaded = store.load("k")) {
            std::size_t doubles = 0;
            for (const auto& line : loaded->pulse.amplitudes) doubles += line.size();
            EXPECT_LE(8 * doubles, bytes.size());
        }
    }
    EXPECT_GT(parsed, 0) << "every mutation broke the entry";
    EXPECT_GT(rejected, 0) << "no mutation ever broke the entry";
    // The unmutated entry still round-trips after the barrage.
    store.store("k", sample_result());
    const auto back = store.load("k");
    ASSERT_TRUE(back.has_value());
    expect_result_bits_equal(sample_result(), *back);
}

TEST(PulseStoreUnit, EvictionRespectsByteBudget) {
    TempDir dir;
    PulseStoreOptions opt;
    opt.dir = dir.str();
    opt.max_bytes = 2048;
    PulseStore store(opt);
    for (int i = 0; i < 40; ++i)
        store.store("key-" + std::to_string(i), sample_result());
    EXPECT_GT(store.stats().evicted, 0u);
    EXPECT_LE(store.stats().bytes, opt.max_bytes);
    EXPECT_LE(entry_bytes(dir.path), opt.max_bytes);
    EXPECT_GT(count_entries(dir.path), 0u) << "compaction must not empty the store";
}

TEST(PulseStoreUnit, UnlimitedBudgetNeverEvicts) {
    TempDir dir;
    PulseStoreOptions opt;
    opt.dir = dir.str();
    opt.max_bytes = 0; // disables compaction
    PulseStore store(opt);
    for (int i = 0; i < 20; ++i)
        store.store("key-" + std::to_string(i), sample_result());
    store.compact();
    EXPECT_EQ(store.stats().evicted, 0u);
    EXPECT_EQ(count_entries(dir.path), 20u);
}

TEST(PulseStoreUnit, UncreatableDirectoryThrows) {
    TempDir dir;
    const fs::path blocker = dir.path / "file";
    { std::ofstream(blocker) << "x"; }
    EXPECT_THROW(PulseStore({(blocker / "sub").string()}), std::runtime_error);
    EXPECT_THROW(PulseStore({""}), std::runtime_error);
}

TEST(PulseStoreUnit, EnospcTripsMemoryOnlyModeOnce) {
    // The store.enospc site stands in for a full disk (these tests often run
    // as root, where permission tricks cannot make a write fail): the first
    // ENOSPC-class failure trips memory-only mode — loads keep serving,
    // writes skip from then on, and the trip is counted exactly once.
    TempDir dir;
    FaultGuard guard;
    PulseStore store({dir.str()});
    const LatencyResult r = sample_result();
    store.store("key-a", r); // clean write before the disk "fills"
    ASSERT_TRUE(store.load("key-a").has_value());

    util::fault::configure("store.enospc=1");
    store.store("key-b", r);
    EXPECT_TRUE(store.memory_only());
    {
        const auto st = store.stats();
        EXPECT_EQ(st.disabled_enospc, 1u);
        EXPECT_EQ(st.io_errors, 1u);
        EXPECT_EQ(st.writes, 1u);
    }

    // Even with the fault disarmed (disk "recovered"), the trip is one-way:
    // writes skip with their own counter, nothing lands on disk.
    util::fault::clear();
    store.store("key-c", r);
    store.store("key-d", r);
    {
        const auto st = store.stats();
        EXPECT_EQ(st.skipped_disabled, 2u);
        EXPECT_EQ(st.disabled_enospc, 1u);
        EXPECT_EQ(st.writes, 1u);
    }
    EXPECT_FALSE(fs::exists(store.entry_path("key-c")));
    // Loads keep serving what made it to disk before the trip.
    ASSERT_TRUE(store.load("key-a").has_value());
}

TEST(PulseStoreUnit, QuarantineFailureIsCountedNotFatal) {
    // S3: squat the quarantine name with a regular file so the corruption
    // path's create_directories and rename both fail — the error_codes must
    // land in io_errors, the corrupt entry must still be removed (deleted
    // when it cannot be moved aside), and nothing throws.
    TempDir dir;
    PulseStore store({dir.str()});
    store.store("k", sample_result());
    { std::ofstream(dir.path / "quarantine") << "squatter"; }
    fs::resize_file(store.entry_path("k"), 10); // below the minimum entry size

    EXPECT_FALSE(store.load("k").has_value());
    const auto st = store.stats();
    EXPECT_EQ(st.corrupt, 1u);
    EXPECT_GE(st.io_errors, 2u); // create_directories + rename both failed
    EXPECT_FALSE(fs::exists(store.entry_path("k")))
        << "unquarantinable corrupt entry must be deleted, not served forever";
}

// ------------------------------------------------- PulseLibrary integration

TEST(PulseLibraryStore, MemoryMissPromotesFromDiskWithoutGrape) {
    TempDir dir;
    PulseStore store({dir.str()});
    const auto h = make_block_hamiltonian(1);
    const LatencySearchOptions opt = cheap_search();

    PulseLibrary cold(true);
    cold.set_store(&store);
    const auto generated = cold.get_or_generate(h, circuit::hadamard(), opt);
    EXPECT_EQ(cold.stats().store_misses, 1u);
    EXPECT_EQ(cold.stats().store_writes, 1u);
    EXPECT_EQ(store.stats().writes, 1u);

    // Fresh library, same store: the probe must hit and GRAPE must not run.
    PulseLibrary warm(true);
    warm.set_store(&store);
    util::Tracer tracer(true);
    const auto promoted = warm.get_or_generate(h, circuit::hadamard(), opt, {&tracer, {}});
    EXPECT_EQ(warm.stats().store_hits, 1u);
    EXPECT_EQ(warm.stats().store_misses, 0u);
    EXPECT_EQ(tracer.report().counter("qoc.grape_runs"), 0u)
        << "a store hit must skip the latency search entirely";
    EXPECT_EQ(tracer.report().counter("qoc.store_promotions"), 1u);
    expect_result_bits_equal(*generated, *promoted);

    // Promotion is into memory: the next lookup is a pure L1 hit.
    warm.get_or_generate(h, circuit::hadamard(), opt);
    EXPECT_EQ(warm.stats().hits, 1u);
    EXPECT_EQ(warm.stats().store_hits, 1u);
}

TEST(PulseLibraryStore, DegradedResultsNeverReachDisk) {
    FaultGuard guard;
    TempDir dir;
    PulseStore store({dir.str()});
    const auto h = make_block_hamiltonian(1);
    PulseLibrary lib(true);
    lib.set_store(&store);

    util::fault::configure("latency.infeasible=*"); // injected => degraded
    const auto degraded = lib.get_or_generate(h, circuit::pauli_x(), cheap_search());
    EXPECT_TRUE(degraded->injected);
    EXPECT_FALSE(degraded->authoritative());
    EXPECT_EQ(store.stats().writes, 0u);
    EXPECT_EQ(count_entries(dir.path), 0u) << "no degraded entry may be persisted";
    EXPECT_EQ(lib.stats().store_writes, 0u);

    // With the fault gone the entry regenerates clean and then persists.
    util::fault::clear();
    const auto clean = lib.get_or_generate(h, circuit::pauli_x(), cheap_search());
    EXPECT_TRUE(clean->authoritative());
    EXPECT_EQ(count_entries(dir.path), 1u);
}

TEST(PulseLibraryStore, CorruptEntryRecomputedTransparently) {
    TempDir dir;
    PulseStore store({dir.str()});
    const auto h = make_block_hamiltonian(1);
    const LatencySearchOptions opt = cheap_search();
    {
        PulseLibrary lib(true);
        lib.set_store(&store);
        lib.get_or_generate(h, circuit::hadamard(), opt);
    }
    // Corrupt the single entry on disk.
    for (const auto& e : fs::directory_iterator(dir.path)) {
        if (e.path().extension() != ".pulse") continue;
        fs::resize_file(e.path(), fs::file_size(e.path()) / 2);
    }
    PulseLibrary lib(true);
    lib.set_store(&store);
    const auto r = lib.get_or_generate(h, circuit::hadamard(), opt);
    EXPECT_GT(r->pulse.num_slots(), 0);
    EXPECT_TRUE(r->authoritative());
    EXPECT_EQ(store.stats().corrupt, 1u);
    EXPECT_EQ(lib.stats().store_misses, 1u);
    EXPECT_EQ(count_entries(dir.path), 1u) << "the recompute must re-publish";
}

TEST(PulseLibraryStore, OtherGeneratorTagMissesAndRunsGrape) {
    TempDir dir;
    PulseStore store({dir.str()});
    const auto h = make_block_hamiltonian(1);
    const LatencySearchOptions opt = cheap_search();
    {
        PulseLibrary lib(true);
        lib.set_store(&store);
        lib.get_or_generate(h, circuit::hadamard(), opt);
    }
    // What another generator version would have left behind: the same entry
    // under its key with a different tag, and no entry under this one's.
    fs::path original;
    for (const auto& e : fs::directory_iterator(dir.path))
        if (e.path().extension() == ".pulse") original = e.path();
    const std::optional<store::PackEntry> entry = PulseStore::read_entry_file(original);
    ASSERT_TRUE(entry.has_value());
    const std::string tag = std::string("|") + kGeneratorTag;
    ASSERT_GE(entry->key.size(), tag.size());
    ASSERT_EQ(entry->key.substr(entry->key.size() - tag.size()), tag) << entry->key;
    const std::optional<LatencyResult> stored = decode_latency_result(entry->payload);
    ASSERT_TRUE(stored.has_value());
    store.store(entry->key.substr(0, entry->key.size() - tag.size()) + "|gen:0", *stored);
    ASSERT_TRUE(fs::remove(original));
    ASSERT_EQ(count_entries(dir.path), 1u);

    PulseLibrary fresh(true);
    fresh.set_store(&store);
    util::Tracer tracer(true);
    fresh.get_or_generate(h, circuit::hadamard(), opt, {&tracer, {}});
    EXPECT_EQ(fresh.stats().store_hits, 0u);
    EXPECT_EQ(fresh.stats().store_misses, 1u);
    EXPECT_GT(tracer.report().counter("qoc.grape_runs"), 0u)
        << "a pulse from another generator version was served";
}

TEST(PulseLibraryStore, TwoLibrariesShareOneStoreUnderHammer) {
    TempDir dir;
    PulseStore store({dir.str()});
    const auto h = make_block_hamiltonian(1);
    const LatencySearchOptions opt = cheap_search();
    const int kClasses = 5;
    const int kThreads = 8;
    const int kLookupsPerThread = 4 * kClasses;

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
                // One fixed representative per class: bit-identity across the
                // libraries is only promised for bit-identical generation
                // inputs (a phase-rotated member of the same class generates
                // an equal-up-to-ulp, not bit-equal, pulse — and which member
                // wins the single-flight race is scheduling-dependent).
                const auto r = lib.get_or_generate(h, class_member(cls, 0), opt);
                if (r == nullptr || r->pulse.num_slots() <= 0) failures.fetch_add(1);
            }
        });
    }
    for (std::thread& th : threads) th.join();

    EXPECT_EQ(failures.load(), 0u);
    EXPECT_EQ(count_entries(dir.path), static_cast<std::size_t>(kClasses));
    // Whatever the interleaving, the two libraries agree bit-for-bit on every
    // class: either one generated and the other promoted from disk, or both
    // generated the same deterministic result.
    for (int cls = 0; cls < kClasses; ++cls) {
        const auto ra = lib_a.get_or_generate(h, class_member(cls, 0), opt);
        const auto rb = lib_b.get_or_generate(h, class_member(cls, 0), opt);
        expect_result_bits_equal(*ra, *rb);
    }
    // Every memory miss resolved through the store, one way or the other.
    const auto sa = lib_a.stats(), sb = lib_b.stats();
    EXPECT_EQ(sa.misses, sa.store_hits + sa.store_misses);
    EXPECT_EQ(sb.misses, sb.store_hits + sb.store_misses);
}

TEST(PulseLibraryStore, ProbeOutcomesPartitionExactly) {
    // Regression: a revalidation rejection used to bump BOTH store_rejected
    // and store_misses, so counted probe outcomes exceeded probes and the
    // reconciliation invariant
    //     misses == store_hits + store_misses + store_rejected
    // never balanced on any run with rejections. A probe is a hit, a miss, or
    // a rejection — exactly one of them.
    TempDir dir;
    PulseStore store({dir.str()});
    const auto h = make_block_hamiltonian(1);
    const LatencySearchOptions opt = cheap_search();

    {
        // Seed the store so a later probe can find an entry to reject.
        PulseLibrary seed(true);
        seed.set_store(&store);
        seed.get_or_generate(h, circuit::hadamard(), opt);
        const auto s = seed.stats();
        EXPECT_EQ(s.store_misses, 1u);
        EXPECT_EQ(s.store_rejected, 0u);
        EXPECT_EQ(s.misses, s.store_hits + s.store_misses + s.store_rejected);
    }

    PulseLibrary lib(true);
    lib.set_store(&store);
    int revalidations = 0;
    const PulseLookup lookup{nullptr, [&](const std::string&, const BlockHamiltonian&,
                                          const Matrix&, const LatencyResult&, bool) {
                                 ++revalidations;
                                 return false; // reject everything the tier offers
                             }};
    // Probe finds the seeded entry, revalidation rejects it, GRAPE
    // regenerates: one probe, one rejection, zero misses.
    lib.get_or_generate(h, circuit::hadamard(), opt, lookup);
    // Nothing stored for this key: one probe, one clean miss.
    lib.get_or_generate(h, circuit::pauli_x(), opt, lookup);
    // Pure L1 hit: no probe at all.
    lib.get_or_generate(h, circuit::hadamard(), opt, lookup);

    const auto s = lib.stats();
    EXPECT_EQ(revalidations, 1);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.store_hits, 0u);
    EXPECT_EQ(s.store_rejected, 1u);
    EXPECT_EQ(s.store_misses, 1u); // the historical double count made this 2
    EXPECT_EQ(s.misses, s.store_hits + s.store_misses + s.store_rejected);
}

// ------------------------------------------------------ compile-level tests

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

TEST(StoreCompile, WarmRunIsBitIdenticalAndGrapeFree) {
    TempDir dir;
    const circuit::Circuit c = bench::ghz(3);

    // Cold run populates the store.
    core::EpocCompiler cold(cheap_compile_options(1, dir.str()));
    const core::EpocResult rc = cold.compile(c);
    ASSERT_FALSE(rc.degraded);
    ASSERT_TRUE(rc.store_enabled);
    EXPECT_GT(rc.store_stats.writes, 0u);
    EXPECT_GT(rc.trace.counter("qoc.grape_runs"), 0u);
    const std::string cold_json = core::schedule_to_json(rc.schedule);

    // Warm runs from fresh compilers (fresh pulse libraries): zero GRAPE,
    // bit-identical output, at every thread count.
    for (const int nt : {1, 2, 8}) {
        core::EpocCompiler warm(cheap_compile_options(nt, dir.str()));
        const core::EpocResult rw = warm.compile(c);
        ASSERT_FALSE(rw.degraded) << "threads=" << nt;
        EXPECT_EQ(rw.trace.counter("qoc.grape_runs"), 0u)
            << "threads=" << nt << ": warm compile must do no GRAPE work";
        EXPECT_EQ(rw.library_stats.store_misses, 0u) << "threads=" << nt;
        EXPECT_GT(rw.library_stats.store_hits, 0u) << "threads=" << nt;
        EXPECT_EQ(core::schedule_to_json(rw.schedule), cold_json)
            << "threads=" << nt;
        EXPECT_TRUE(same_bits(rw.latency_ns, rc.latency_ns)) << "threads=" << nt;
        EXPECT_TRUE(same_bits(rw.esp, rc.esp)) << "threads=" << nt;
        EXPECT_EQ(rw.num_pulses, rc.num_pulses) << "threads=" << nt;
    }
}

TEST(StoreCompile, EnvironmentConfiguresNothing) {
    // EpocOptions is the compiler's only configuration: exported store, pack
    // and verify variables arm nothing and create nothing.
    TempDir dir;
    const fs::path store_dir = dir.path / "store";
    const fs::path pack_dir = dir.path / "packs";
    fs::create_directories(pack_dir);
    const std::vector<std::pair<const char*, std::string>> vars = {
        {"EPOC_PULSE_STORE", store_dir.string()},
        {"EPOC_PULSE_PACKS", pack_dir.string()},
        {"EPOC_VERIFY", "full"}};
    for (const auto& [name, value] : vars) ::setenv(name, value.c_str(), 1);
    core::EpocCompiler compiler(core::EpocOptions{});
    for (const auto& [name, value] : vars) ::unsetenv(name);
    EXPECT_EQ(compiler.store(), nullptr);
    EXPECT_EQ(compiler.verifier().options().level, verify::VerifyLevel::off);
    EXPECT_FALSE(fs::exists(store_dir));
    EXPECT_TRUE(fs::is_empty(pack_dir));
}

TEST(StoreCompile, StoreIoFaultsNeverDegradeTheCompile) {
    FaultGuard guard;
    const circuit::Circuit c = bench::ghz(3);
    for (const char* site : {"store.read=*", "store.write=*", "store.rename=*"}) {
        TempDir dir;
        util::fault::configure(site);
        core::EpocCompiler compiler(cheap_compile_options(2, dir.str()));
        const core::EpocResult r = compiler.compile(c);
        EXPECT_FALSE(r.degraded) << site << ": a broken store is a cold store, "
                                            "never a degraded compile";
        EXPECT_GT(r.latency_ns, 0.0) << site;
        EXPECT_GT(r.store_stats.io_errors, 0u) << site;
        if (std::strcmp(site, "store.read=*") == 0) {
            // Probes fail but publishes still land: the store heals for the
            // next (read-capable) process.
            EXPECT_GT(count_entries(dir.path), 0u) << site;
        } else {
            // Failed publishes must leave neither entries nor torn temp
            // files behind.
            EXPECT_EQ(count_entries(dir.path), 0u) << site;
            std::size_t stray = 0;
            for (const auto& e : fs::directory_iterator(dir.path))
                if (e.is_regular_file()) ++stray;
            EXPECT_EQ(stray, 0u) << site << ": temp litter";
        }
        util::fault::clear();
    }
}

TEST(StoreCompile, InjectedDegradedPulsesNeverPersistDuringCompile) {
    FaultGuard guard;
    TempDir dir;
    util::fault::configure("latency.infeasible=*");
    core::EpocCompiler compiler(cheap_compile_options(2, dir.str()));
    const core::EpocResult r = compiler.compile(bench::ghz(3));
    EXPECT_TRUE(r.degraded); // every pulse was forced infeasible+injected
    EXPECT_EQ(r.store_stats.writes, 0u);
    EXPECT_EQ(count_entries(dir.path), 0u)
        << "a compile full of injected faults must write nothing to disk";
}

TEST(StoreCompile, TraceCarriesTheEnospcTrip) {
    // Every store counter reaches the trace, including the memory-only trip.
    FaultGuard guard;
    TempDir dir;
    util::fault::configure("store.enospc=1");
    core::EpocCompiler compiler(cheap_compile_options(1, dir.str()));
    const core::EpocResult r = compiler.compile(bench::ghz(3));
    EXPECT_FALSE(r.degraded);
    EXPECT_EQ(r.store_stats.disabled_enospc, 1u);
    EXPECT_GT(r.trace.counter("store.disabled_enospc"), 0u);
}

} // namespace
