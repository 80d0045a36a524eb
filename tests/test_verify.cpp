// Verified compilation (src/verify/): independent stage-equivalence oracles,
// pulse re-simulation audits, and store revalidation.
//
//   * level plumbing: option/env resolution, off really means off;
//   * the oracles and the schedule audit against both honest and doctored
//     artifacts (a checksum-proof corruption only re-simulation can catch);
//   * pipeline integration: verify=full on a clean compile changes nothing
//     (bit-identical schedule, zero failures); an injected bad pulse is
//     detected, routed through Cause::verify_failed, recomputed, and the
//     final schedule equals the uncorrupted run's;
//   * store revalidation: post-checksum corruption (test hook) is detected on
//     load, quarantined via the store's existing path, and recomputed;
//   * a broken verifier (verify.* fault sites) degrades to "unverified" and
//     never fails or alters a clean compile;
//   * determinism: verify counters and schedules are identical across
//     {1, 2, 8} threads.
#include "verify/verify.h"

#include "bench_circuits/generators.h"
#include "circuit/gate.h"
#include "circuit/unitary.h"
#include "epoc/export.h"
#include "epoc/pipeline.h"
#include "epoc/regroup.h"
#include "linalg/phase.h"
#include "partition/partition.h"
#include "qoc/pulse_io.h"
#include "store/pulse_store.h"
#include "util/fault_injection.h"
#include "util/sharded_cache.h"
#include "zx/optimize.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#ifdef __unix__
#include <unistd.h>
#endif

namespace {

namespace fs = std::filesystem;
using namespace epoc;
using namespace epoc::verify;
using circuit::Circuit;
using core::EpocCompiler;
using core::EpocOptions;
using core::EpocResult;
using linalg::Matrix;

std::uint64_t test_pid() {
#ifdef __unix__
    return static_cast<std::uint64_t>(::getpid());
#else
    return 0;
#endif
}

struct TempDir {
    fs::path path;
    TempDir() {
        static std::atomic<int> counter{0};
        path = fs::temp_directory_path() /
               ("epoc-verify-test-" + std::to_string(test_pid()) + "-" +
                std::to_string(counter.fetch_add(1)));
        fs::create_directories(path);
    }
    ~TempDir() {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    std::string str() const { return path.string(); }
};

struct FaultGuard {
    explicit FaultGuard(const std::string& spec) { util::fault::configure(spec); }
    ~FaultGuard() { util::fault::clear(); }
};

EpocOptions cheap_options(int num_threads, VerifyLevel level) {
    EpocOptions opt;
    opt.latency.fidelity_threshold = 0.99;
    opt.latency.grape.max_iterations = 120;
    opt.qsearch.threshold = 1e-4;
    opt.qsearch.instantiate.restarts = 2;
    opt.num_threads = num_threads;
    opt.verify_level = level;
    return opt;
}

std::uint64_t digest(const EpocResult& r) {
    return qoc::fnv1a64(core::schedule_to_json(r.schedule));
}

bool has_verify_failed_report(const EpocResult& r) {
    for (const auto& br : r.block_reports)
        if (br.status.cause == util::Cause::verify_failed) return true;
    return false;
}

// ---------------------------------------------------------------------------
// Level plumbing.

TEST(VerifyLevelTest, NamesRoundTrip) {
    EXPECT_EQ(level_from_name("off"), VerifyLevel::off);
    EXPECT_EQ(level_from_name("sampled"), VerifyLevel::sampled);
    EXPECT_EQ(level_from_name("full"), VerifyLevel::full);
    EXPECT_THROW(level_from_name("FULL"), std::invalid_argument);
    EXPECT_STREQ(level_name(VerifyLevel::sampled), "sampled");
    EXPECT_STREQ(outcome_name(Outcome::unverified), "unverified");
    EXPECT_STREQ(util::cause_name(util::Cause::verify_failed), "verify_failed");
}

TEST(VerifyLevelTest, DisabledVerifierChecksNothing) {
    Verifier v{VerifyOptions{}}; // level off
    VerifyTally t;
    EXPECT_FALSE(v.enabled());
    EXPECT_FALSE(v.should_check(1));
    Circuit a(1);
    a.x(0);
    Circuit b(1); // NOT equivalent -- and off must not even look
    EXPECT_EQ(v.check_circuit_equiv(t, a, b, "test"), Outcome::not_checked);
    EXPECT_EQ(t.checks.load(), 0u);
}

TEST(VerifyLevelTest, SamplingIsDeterministicAndProper) {
    VerifyOptions o;
    o.level = VerifyLevel::sampled;
    o.sample_period = 4;
    Verifier v{o};
    std::size_t n = 0;
    for (std::uint64_t id = 0; id < 256; ++id)
        if (v.should_check(id)) ++n;
    EXPECT_GT(n, 0u);  // a proper subset: some checked...
    EXPECT_LT(n, 256u); // ...but not all
    Verifier again{o};
    for (std::uint64_t id = 0; id < 256; ++id)
        EXPECT_EQ(v.should_check(id), again.should_check(id));

    o.level = VerifyLevel::full;
    Verifier full_v{o};
    for (std::uint64_t id = 0; id < 64; ++id) EXPECT_TRUE(full_v.should_check(id));
}

// ---------------------------------------------------------------------------
// Stage-equivalence oracles.

Verifier full_verifier() {
    VerifyOptions o;
    o.level = VerifyLevel::full;
    return Verifier{o};
}

TEST(VerifyOracles, CircuitEquivPassesOnHonestRewrites) {
    Verifier v = full_verifier();
    VerifyTally t;
    const Circuit c = bench::qft(3);
    const zx::ZxOptimizeResult zr = zx::zx_optimize(c);
    EXPECT_EQ(v.check_circuit_equiv(t, c, zr.circuit, "zx"), Outcome::passed);
    EXPECT_EQ(t.passed.load(), 1u);
}

TEST(VerifyOracles, CircuitEquivCatchesDoctoredCircuit) {
    Verifier v = full_verifier();
    VerifyTally t;
    const Circuit c = bench::ghz(3);
    Circuit doctored = c;
    doctored.x(0); // plausible circuit, wrong unitary
    EXPECT_EQ(v.check_circuit_equiv(t, c, doctored, "zx"), Outcome::failed);
}

TEST(VerifyOracles, CircuitEquivIsWidthGated) {
    VerifyOptions o;
    o.level = VerifyLevel::full;
    o.max_equiv_qubits = 3;
    Verifier v{o};
    VerifyTally t;
    const Circuit c = bench::ghz(5);
    EXPECT_EQ(v.check_circuit_equiv(t, c, c, "zx"), Outcome::not_checked);
    EXPECT_EQ(t.skipped.load(), 1u);
    EXPECT_EQ(t.checks.load(), 0u);
}

TEST(VerifyOracles, BlocksEquivPassesOnHonestPartition) {
    Verifier v = full_verifier();
    VerifyTally t;
    const Circuit c = bench::qft(4);
    const auto blocks = partition::greedy_partition(c, {3, 24});
    EXPECT_EQ(v.check_blocks_equiv(t, c, blocks, "partition"), Outcome::passed);
}

TEST(VerifyOracles, BlocksEquivCatchesTamperedBlock) {
    Verifier v = full_verifier();
    VerifyTally t;
    const Circuit c = bench::qft(4);
    auto blocks = partition::greedy_partition(c, {3, 24});
    ASSERT_FALSE(blocks.empty());
    blocks.front().body.x(0); // corrupt one block's gates
    EXPECT_EQ(v.check_blocks_equiv(t, c, blocks, "partition"), Outcome::failed);
}

TEST(VerifyOracles, BlocksEquivPassesOnHonestRegroup) {
    Verifier v = full_verifier();
    VerifyTally t;
    const Circuit c = bench::qft(4);
    const auto groups = core::regroup(c, {3, 32});
    EXPECT_EQ(v.check_blocks_equiv(t, c, groups, "regroup"), Outcome::passed);
}

TEST(VerifyOracles, SynthesizedBlockOracle) {
    Verifier v = full_verifier();
    VerifyTally t;
    Circuit local(1);
    local.h(0);
    EXPECT_EQ(v.check_synthesized_block(t, circuit::hadamard(), local, 1e-6),
              Outcome::passed);
    EXPECT_EQ(v.check_synthesized_block(t, circuit::pauli_x(), local, 1e-6),
              Outcome::failed);
}

// ---------------------------------------------------------------------------
// Schedule audit: pulse re-simulation.

TEST(VerifyAudit, PassesOnHonestPulseAndCatchesCorruption) {
    Verifier v = full_verifier();
    VerifyTally t;
    const auto h = qoc::make_block_hamiltonian(1);
    qoc::LatencySearchOptions opt;
    opt.fidelity_threshold = 0.99;
    qoc::LatencyResult lr = qoc::find_minimal_latency_pulse(h, circuit::pauli_x(), opt);
    ASSERT_TRUE(lr.feasible);

    double err = 1.0, resim = 0.0;
    EXPECT_EQ(v.audit_pulse(t, h, circuit::pauli_x(), lr, &err, &resim), Outcome::passed);
    EXPECT_LT(err, 1e-9); // recorded fidelity = the physics, to float noise
    EXPECT_NEAR(resim, lr.pulse.fidelity, 1e-9);

    // Post-checksum corruption: zero the amplitudes, keep the recorded
    // fidelity. Every structural check still passes; only re-simulation
    // disagrees.
    qoc::LatencyResult bad = lr;
    for (auto& line : bad.pulse.amplitudes) std::fill(line.begin(), line.end(), 0.0);
    EXPECT_EQ(v.audit_pulse(t, h, circuit::pauli_x(), bad, &err, &resim), Outcome::failed);
    EXPECT_GT(err, 0.5); // drift-only evolution is nowhere near an X gate
    EXPECT_LT(resim, 0.5);

    EXPECT_TRUE(v.revalidate(t, h, circuit::pauli_x(), lr));
    EXPECT_FALSE(v.revalidate(t, h, circuit::pauli_x(), bad));
    const VerifySummary s = t.summary(v.options().level);
    EXPECT_EQ(s.revalidations, 2u);
    EXPECT_EQ(s.revalidate_rejects, 1u);
    EXPECT_FALSE(s.clean());
}

TEST(VerifyAudit, BrokenVerifierNeverRejects) {
    Verifier v = full_verifier();
    VerifyTally t;
    const auto h = qoc::make_block_hamiltonian(1);
    qoc::LatencyResult bad; // garbage result, but the verifier is down
    bad.pulse.fidelity = 0.9999;
    const FaultGuard g("verify.revalidate=*;verify.simulate=*;verify.equiv=*");
    EXPECT_TRUE(v.revalidate(t, h, circuit::pauli_x(), bad)); // accept, don't reject
    EXPECT_EQ(v.audit_pulse(t, h, circuit::pauli_x(), bad), Outcome::unverified);
    Circuit a(1);
    a.x(0);
    EXPECT_EQ(v.check_circuit_equiv(t, a, Circuit(1), "zx"), Outcome::unverified);
    EXPECT_GT(t.unverified.load(), 0u);
    EXPECT_EQ(t.failed.load(), 0u);
}

// ---------------------------------------------------------------------------
// Cache eviction primitives backing the recompute-once rung.

TEST(VerifyCache, EraseIfIsCompareAndEvict) {
    util::ShardedFlightCache<int> cache;
    const auto always = [](const int&) { return true; };
    const auto one = cache.get_or_compute("k", [] { return 1; }, always);
    const auto other = std::make_shared<const int>(1);
    EXPECT_FALSE(cache.erase_if("k", other)); // equal value, different identity
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_TRUE(cache.erase_if("k", one)); // the exact rejected value: evicted
    EXPECT_FALSE(cache.erase_if("k", one)); // second caller loses the race
    const auto two = cache.get_or_compute("k", [] { return 2; }, always);
    EXPECT_EQ(*two, 2); // recomputed, not served from the evicted entry
}

// ---------------------------------------------------------------------------
// Pipeline integration.

TEST(VerifyPipeline, FullCleanCompileIsBitIdenticalToOff) {
    const Circuit c = bench::ghz(3);
    EpocCompiler off(cheap_options(1, VerifyLevel::off));
    const EpocResult r_off = off.compile(c);
    EXPECT_EQ(r_off.verify.level, VerifyLevel::off);
    EXPECT_EQ(r_off.verify.checks, 0u);

    EpocCompiler full(cheap_options(1, VerifyLevel::full));
    const EpocResult r_full = full.compile(c);
    EXPECT_EQ(r_full.verify.level, VerifyLevel::full);
    EXPECT_GT(r_full.verify.checks, 0u);
    EXPECT_EQ(r_full.verify.failed, 0u);
    EXPECT_EQ(r_full.verify.recomputes, 0u);
    EXPECT_TRUE(r_full.verify.clean());
    EXPECT_FALSE(r_full.degraded);
    EXPECT_LT(r_full.verify.error_budget, 1e-6);
    EXPECT_LT(r_full.verify.max_fidelity_error, 1e-6);
    // Audits must not perturb the artifact: same schedule, byte for byte.
    EXPECT_EQ(digest(r_full), digest(r_off));
    // Every audited unit of work carries its outcome on the report.
    std::size_t passed_reports = 0;
    for (const auto& br : r_full.block_reports)
        if (br.verify == Outcome::passed) ++passed_reports;
    EXPECT_GT(passed_reports, 0u);
}

TEST(VerifyPipeline, InjectedBadPulseIsDetectedRecomputedAndCured) {
    const Circuit c = bench::ghz(3);
    EpocCompiler clean(cheap_options(1, VerifyLevel::off));
    const std::uint64_t clean_digest = digest(clean.compile(c));

    const FaultGuard g("latency.badpulse=1");
    EpocCompiler v(cheap_options(1, VerifyLevel::full));
    const EpocResult r = v.compile(c);
    // Detected: the audit failed at least once and triggered one recompute.
    EXPECT_GT(r.verify.failed, 0u);
    EXPECT_GE(r.verify.recomputes, 1u);
    EXPECT_TRUE(has_verify_failed_report(r));
    EXPECT_EQ(r.status.cause, util::Cause::verify_failed);
    EXPECT_TRUE(r.degraded);
    // Cured: the recompute regenerated an honest pulse, so the shipped
    // schedule equals the uncorrupted run's, byte for byte.
    EXPECT_EQ(digest(r), clean_digest);
}

TEST(VerifyPipeline, OffShipsTheCorruptedPulseSilently) {
    // The control experiment: with verification off, the zeroed-amplitude
    // pulse sails through -- the schedule *looks* identical (amplitudes are
    // not in the schedule, and the recorded fidelity was left intact), no
    // report flags anything. This is exactly the silent drift the verify
    // tier exists to catch.
    const Circuit c = bench::ghz(3);
    const FaultGuard g("latency.badpulse=1");
    EpocCompiler off(cheap_options(1, VerifyLevel::off));
    const EpocResult r = off.compile(c);
    EXPECT_FALSE(r.degraded);
    EXPECT_FALSE(has_verify_failed_report(r));
    EXPECT_EQ(r.verify.checks, 0u);
}

TEST(VerifyPipeline, BrokenVerifierDegradesToUnverifiedNotFailure) {
    const Circuit c = bench::ghz(3);
    EpocCompiler clean(cheap_options(1, VerifyLevel::off));
    const std::uint64_t clean_digest = digest(clean.compile(c));

    const FaultGuard g("verify.equiv=*;verify.simulate=*");
    EpocCompiler v(cheap_options(1, VerifyLevel::full));
    const EpocResult r = v.compile(c);
    EXPECT_FALSE(r.degraded); // a broken verifier must never fail a clean compile
    EXPECT_EQ(r.verify.failed, 0u);
    EXPECT_GT(r.verify.unverified, 0u);
    EXPECT_EQ(digest(r), clean_digest);
    for (const auto& br : r.block_reports) EXPECT_NE(br.verify, Outcome::failed);
}

TEST(VerifyPipeline, InjectedBadSynthesisFallsBackViaVerifyFailed) {
    // synth.badcircuit corrupts the QSearch result after it leaves the cache;
    // the synthesis oracle must catch it, recompute, and (as the recompute
    // path re-fires the site with `=*`) fall back to the original gates.
    EpocOptions opt = cheap_options(1, VerifyLevel::full);
    opt.use_zx = false;  // keep the 4-CNOT block intact so synthesis must win
    opt.partition.max_qubits = 2;
    opt.qsearch.instantiate.restarts = 4;
    // A generic SU(4) element written with 4 CNOTs: QSearch finds a <= 3-CNOT
    // realisation, so the synthesized circuit replaces the block -- the path
    // the corruption site sits on.
    Circuit c(2);
    c.cx(0, 1).rz(0.3, 1).cx(0, 1).ry(0.5, 0).cx(1, 0).rx(0.7, 1).cx(0, 1);

    const FaultGuard g("synth.badcircuit=*");
    EpocCompiler v(opt);
    const EpocResult r = v.compile(c);
    EXPECT_TRUE(has_verify_failed_report(r));
    EXPECT_GT(r.verify.failed, 0u);
    // Degraded but valid: the original gates shipped, the schedule is whole.
    EXPECT_TRUE(r.degraded);
    EXPECT_GT(r.schedule.pulses.size(), 0u);
}

TEST(VerifyPipeline, CountersAndScheduleDeterministicAcrossThreads) {
    const Circuit c = bench::qft(3);
    std::uint64_t first_digest = 0;
    VerifySummary first{};
    bool have_first = false;
    for (const int threads : {1, 2, 8}) {
        EpocCompiler v(cheap_options(threads, VerifyLevel::sampled));
        const EpocResult r = v.compile(c);
        EXPECT_EQ(r.verify.failed, 0u) << threads;
        if (!have_first) {
            first_digest = digest(r);
            first = r.verify;
            have_first = true;
            continue;
        }
        EXPECT_EQ(digest(r), first_digest) << threads;
        EXPECT_EQ(r.verify.checks, first.checks) << threads;
        EXPECT_EQ(r.verify.passed, first.passed) << threads;
        EXPECT_EQ(r.verify.skipped, first.skipped) << threads;
        EXPECT_NEAR(r.verify.error_budget, first.error_budget, 1e-12) << threads;
    }
}

// ---------------------------------------------------------------------------
// Store revalidation.

TEST(VerifyStore, PostChecksumCorruptionIsDetectedQuarantinedRecomputed) {
    const Circuit c = bench::ghz(3);
    TempDir dir;
    EpocOptions warm_opt = cheap_options(1, VerifyLevel::off);
    warm_opt.pulse_store_dir = dir.str();
    std::uint64_t clean_digest = 0;
    {
        EpocCompiler warm(warm_opt);
        const EpocResult r = warm.compile(c);
        clean_digest = digest(r);
        ASSERT_GT(r.store_stats.writes, 0u);
    }
    // Corrupt every entry *post checksum*: magic, version, key, codec and
    // checksum all still verify. A plain load serves this as a clean hit.
    {
        store::PulseStore s({dir.str()});
        ASSERT_GT(s.corrupt_all_entries_for_test(), 0u);
    }
    // A verifying compiler re-simulates L2 hits on load: every corrupted
    // entry is rejected, quarantined via the store's invalidate path, and
    // regenerated -- ending at the same schedule as the uncorrupted run.
    EpocOptions vopt = cheap_options(1, VerifyLevel::full);
    vopt.pulse_store_dir = dir.str();
    EpocCompiler v(vopt);
    const EpocResult r = v.compile(c);
    EXPECT_GT(r.verify.revalidations, 0u);
    EXPECT_GT(r.verify.revalidate_rejects, 0u);
    EXPECT_GT(r.library_stats.store_rejected, 0u);
    EXPECT_GT(r.store_stats.invalidated, 0u);
    EXPECT_EQ(r.verify.failed, 0u); // caught at the store boundary, not in pulses
    EXPECT_EQ(digest(r), clean_digest);
    // The quarantine directory holds the rejected entries for post-mortem.
    EXPECT_TRUE(fs::exists(dir.path / "quarantine"));
}

TEST(VerifyStore, OffPromotesCorruptedEntriesSilently) {
    const Circuit c = bench::ghz(3);
    TempDir dir;
    EpocOptions opt = cheap_options(1, VerifyLevel::off);
    opt.pulse_store_dir = dir.str();
    {
        EpocCompiler warm(opt);
        ASSERT_GT(warm.compile(c).store_stats.writes, 0u);
    }
    {
        store::PulseStore s({dir.str()});
        ASSERT_GT(s.corrupt_all_entries_for_test(), 0u);
    }
    EpocCompiler off(opt);
    const EpocResult r = off.compile(c);
    EXPECT_GT(r.library_stats.store_hits, 0u); // served as clean hits
    EXPECT_EQ(r.library_stats.store_rejected, 0u);
    EXPECT_EQ(r.store_stats.invalidated, 0u);
    EXPECT_FALSE(r.degraded);
}

TEST(VerifyStore, BrokenRevalidatorAcceptsButPulseAuditStillCatches) {
    // Defence in depth: with verify.revalidate broken, the corrupted store
    // entry is promoted ("never reject a good store on a broken verifier") --
    // and then the schedule audit catches it downstream, recomputes, and the
    // final schedule still equals the clean run's.
    const Circuit c = bench::ghz(3);
    TempDir dir;
    EpocOptions opt = cheap_options(1, VerifyLevel::off);
    opt.pulse_store_dir = dir.str();
    std::uint64_t clean_digest = 0;
    {
        EpocCompiler warm(opt);
        clean_digest = digest(warm.compile(c));
    }
    {
        store::PulseStore s({dir.str()});
        ASSERT_GT(s.corrupt_all_entries_for_test(), 0u);
    }
    const FaultGuard g("verify.revalidate=*");
    EpocOptions vopt = cheap_options(1, VerifyLevel::full);
    vopt.pulse_store_dir = dir.str();
    EpocCompiler v(vopt);
    const EpocResult r = v.compile(c);
    EXPECT_GT(r.verify.unverified, 0u); // the revalidator failed open
    EXPECT_EQ(r.library_stats.store_rejected, 0u);
    EXPECT_GT(r.verify.failed, 0u); // ...but the pulse audit caught it
    EXPECT_GE(r.verify.recomputes, 1u);
    EXPECT_EQ(digest(r), clean_digest);
}

// ---------------------------------------------------------------------------
// Plan cache.

TEST(VerifyPlanCache, RecomputesNeverRerunTheWarmSeed) {
    // A verify-triggered recompute regenerates without the warm seed on both
    // pulse arms: the seed that produced a rejected pulse is not trusted to
    // produce its replacement. Recomputes are therefore cold runs, which the
    // store keeps, so the faulted sweep skips exactly as many warm-started
    // write-backs as the clean one.
    const auto qaoa = [](double gamma, double beta) {
        Circuit c(2);
        c.h(0).h(1);
        c.rzz(gamma, 0, 1);
        c.rx(beta, 0).rx(beta, 1);
        return c;
    };
    std::size_t warm_skipped[2] = {0, 0};
    for (const bool faulted : {false, true}) {
        TempDir dir;
        EpocOptions opt = cheap_options(1, VerifyLevel::full);
        opt.plan_cache = true;
        opt.pulse_store_dir = dir.str();
        EpocCompiler compiler(opt);
        (void)compiler.compile(qaoa(0.4, 0.9));
        const FaultGuard g(faulted ? "latency.badpulse=*" : "");
        const EpocResult r = compiler.compile(qaoa(1.3, -0.6));
        ASSERT_TRUE(r.plan_hit);
        if (faulted) {
            EXPECT_GT(r.verify.recomputes, 0u);
        }
        warm_skipped[faulted ? 1 : 0] = r.library_stats.store_warm_skipped;
    }
    EXPECT_GT(warm_skipped[0], 0u);
    EXPECT_EQ(warm_skipped[1], warm_skipped[0]);
}

} // namespace
