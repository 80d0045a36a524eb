// Hardware-backend registry, per-backend Hamiltonians/keying, and the
// backend-aware compile path.
#include "backend/backend.h"

#include "bench_circuits/generators.h"
#include "epoc/export.h"
#include "fuzz_mutate.h"
#include "epoc/pipeline.h"
#include "qoc/pulse_io.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <random>
#include <set>
#include <string>
#include <vector>

namespace {

using namespace epoc;
using backend::Backend;
using backend::BackendRegistry;
using epoc::circuit::CouplingMap;

core::EpocOptions fast_options() {
    core::EpocOptions opt;
    opt.latency.fidelity_threshold = 0.99;
    opt.latency.grape.max_iterations = 120;
    opt.qsearch.threshold = 1e-4;
    opt.qsearch.instantiate.restarts = 2;
    return opt;
}

std::uint64_t digest(const core::EpocResult& r) {
    return qoc::fnv1a64(core::schedule_to_json(r.schedule));
}

/// Bit-for-bit matrix equality (sign of zero included).
bool same_bits(const linalg::Matrix& a, const linalg::Matrix& b) {
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(), a.rows() * a.cols() * sizeof(linalg::cplx)) == 0;
}

void expect_same_hamiltonian(const qoc::BlockHamiltonian& a, const qoc::BlockHamiltonian& b) {
    EXPECT_EQ(a.num_qubits, b.num_qubits);
    EXPECT_EQ(std::memcmp(&a.dt, &b.dt, sizeof a.dt), 0);
    EXPECT_EQ(a.variant, b.variant);
    EXPECT_TRUE(same_bits(a.drift, b.drift)) << "drift";
    ASSERT_EQ(a.controls.size(), b.controls.size());
    for (std::size_t i = 0; i < a.controls.size(); ++i) {
        EXPECT_EQ(a.controls[i].label, b.controls[i].label);
        EXPECT_EQ(std::memcmp(&a.controls[i].bound, &b.controls[i].bound, sizeof(double)), 0)
            << a.controls[i].label;
        EXPECT_TRUE(same_bits(a.controls[i].h, b.controls[i].h)) << a.controls[i].label;
    }
}

// --- Registry ------------------------------------------------------------

TEST(BackendRegistry, BuiltinsResolve) {
    BackendRegistry reg;
    for (const char* name : {"linear-5", "ring-8", "grid-3x3", "heavy-hex-7"}) {
        const auto be = reg.find(name);
        ASSERT_NE(be, nullptr) << name;
        EXPECT_EQ(be->name, name);
        EXPECT_NO_THROW(be->validate());
    }
    EXPECT_EQ(reg.find("linear-5")->coupling.num_qubits(), 5);
    EXPECT_EQ(reg.find("heavy-hex-7")->coupling.edges().size(), 6u);
}

TEST(BackendRegistry, FullNMaterializesParametrically) {
    BackendRegistry reg;
    const auto be = reg.find("full-4");
    ASSERT_NE(be, nullptr);
    EXPECT_EQ(be->coupling.num_qubits(), 4);
    EXPECT_EQ(be->coupling.edges().size(), 6u); // C(4,2)
    // Second lookup returns the same materialized instance.
    EXPECT_EQ(reg.find("full-4").get(), be.get());
    EXPECT_EQ(reg.find("full-0"), nullptr);
    EXPECT_EQ(reg.find("full-999"), nullptr);
    EXPECT_EQ(reg.find("full-x"), nullptr);
}

TEST(BackendRegistry, UnknownNameIsNullptrNotThrow) {
    BackendRegistry reg;
    EXPECT_EQ(reg.find("no-such-device"), nullptr);
    EXPECT_EQ(reg.find(""), nullptr);
}

TEST(BackendRegistry, DuplicateNameThrows) {
    BackendRegistry reg;
    EXPECT_THROW(reg.register_backend(Backend("linear-5", CouplingMap::linear(2))),
                 std::invalid_argument);
}

TEST(BackendRegistry, JsonRoundTrip) {
    BackendRegistry reg;
    const std::string json = R"({
        "name": "fridge-a",
        "num_qubits": 3,
        "edges": [[0, 1], [1, 2]],
        "drive_bound": 0.15,
        "zz_drift": 0.0021,
        "edge_overrides": [{"a": 1, "b": 2, "coupling_bound": 0.017}],
        "crosstalk_zz": true
    })";
    const auto be = reg.register_json(json);
    ASSERT_NE(be, nullptr);
    EXPECT_EQ(be->name, "fridge-a");
    EXPECT_EQ(be->coupling.num_qubits(), 3);
    EXPECT_DOUBLE_EQ(be->base.drive_bound, 0.15);
    EXPECT_DOUBLE_EQ(be->edge(1, 2).coupling_bound, 0.017);
    EXPECT_DOUBLE_EQ(be->edge(2, 1).coupling_bound, 0.017); // either orientation
    EXPECT_DOUBLE_EQ(be->edge(0, 1).coupling_bound, be->base.coupling_bound);
    EXPECT_TRUE(be->crosstalk_zz);
    EXPECT_EQ(reg.find("fridge-a").get(), be.get());
}

TEST(BackendRegistry, MalformedJsonThrows) {
    BackendRegistry reg;
    EXPECT_THROW(reg.register_json("not json"), std::invalid_argument);
    EXPECT_THROW(reg.register_json("{}"), std::invalid_argument);
    EXPECT_THROW(reg.register_json(R"({"name": "x", "num_qubits": 2})"),
                 std::invalid_argument);
    // Edge override on a non-edge fails validate(), not just parsing.
    EXPECT_THROW(reg.register_json(R"({
        "name": "bad", "num_qubits": 3, "edges": [[0, 1]],
        "edge_overrides": [{"a": 1, "b": 2, "coupling_bound": 0.01}]
    })"),
                 std::invalid_argument);
}

// --- Untrusted device files ---------------------------------------------
// backend_from_json reads epocd's --backend-json. Under fuzz its contract is
// binary: return a backend or throw std::invalid_argument. Any other
// exception, or a crash, fails (and the ASan CI job turns memory errors into
// failures).

TEST(BackendJsonFuzz, HostileInputsAreRejected) {
    // Nesting past the cap is rejected before the recursive parser can
    // exhaust the stack.
    EXPECT_THROW(backend::backend_from_json(std::string(200000, '[')), std::invalid_argument);
    // A width past the cap is rejected before the all-pairs distance table
    // is allocated (60000 qubits would need about 14 GB).
    EXPECT_THROW(backend::backend_from_json(R"({"name":"x","num_qubits":60000,"edges":[]})"),
                 std::invalid_argument);
    EXPECT_THROW(backend::backend_from_json(R"({"name":"x","num_qubits":0,"edges":[]})"),
                 std::invalid_argument);
    // Out-of-range doubles are rejected before any conversion to int.
    EXPECT_THROW(backend::backend_from_json(R"({"name":"x","num_qubits":1e300,"edges":[]})"),
                 std::invalid_argument);
    EXPECT_THROW(
        backend::backend_from_json(R"({"name":"x","num_qubits":3,"edges":[[0,-1e300]]})"),
        std::invalid_argument);
    EXPECT_THROW(backend::backend_from_json(
                     R"({"name":"x","num_qubits":3,"edges":[[0,1]],"levels":1e300})"),
                 std::invalid_argument);
    EXPECT_THROW(backend::backend_from_json(R"({"name":"x","num_qubits":3,"edges":[[0,1.5]]})"),
                 std::invalid_argument);
    // The width cap itself is accepted.
    EXPECT_EQ(backend::backend_from_json(
                  R"({"name":"wide","num_qubits":4096,"edges":[[0,1]]})")
                  .coupling.num_qubits(),
              backend::kMaxBackendQubits);
}

TEST(BackendJsonFuzz, SeededMutationsParseOrRaiseInvalidArgument) {
    const std::vector<std::string> corpus = {
        R"({"name": "fridge-a", "num_qubits": 3, "edges": [[0, 1], [1, 2]],
            "drive_bound": 0.15, "zz_drift": 0.0021,
            "edge_overrides": [{"a": 1, "b": 2, "coupling_bound": 0.017}],
            "crosstalk_zz": true, "crosstalk_strength": 0.0004})",
        R"({"name": "qutrit-2", "num_qubits": 2, "edges": [[0, 1]], "levels": 3,
            "anharmonicity": -0.33, "dt": 2.0, "qubit_drive_bounds": [0.15, 0.16]})",
        R"({"name": "ring-4", "num_qubits": 4, "edges": [[0,1],[1,2],[2,3],[3,0]],
            "coupling_bound": 0.02, "edge_overrides": [{"a": 3, "b": 0, "zz_drift": 1e-3}]})",
    };
    std::mt19937_64 rng(0x4A534F4E); // "JSON": fixed seed, deterministic run
    const int kCases = 2000;
    int parsed = 0, rejected = 0;
    for (int i = 0; i < kCases; ++i) {
        const std::string input =
            epoc::test::mutate(corpus[i % corpus.size()], rng, "\"[]{},:-.e0123456789 ");
        try {
            const Backend be = backend::backend_from_json(input);
            (void)be.fingerprint(); // the returned backend must at least be readable
            ++parsed;
        } catch (const std::invalid_argument&) {
            ++rejected; // the one sanctioned failure mode
        }
        // Anything else propagates and fails the test.
    }
    EXPECT_EQ(parsed + rejected, kCases);
    EXPECT_GT(parsed, 0) << "every mutation broke the file";
    EXPECT_GT(rejected, 0) << "no mutation ever broke the file";
}

// --- Fingerprints and cache keying ---------------------------------------

TEST(BackendFingerprint, OneUlpApartKeysDifferently) {
    // Two backends identical except for one ulp of zz_drift: a decimal-
    // formatted key would collide, exact_double encoding must not.
    Backend a("dev", CouplingMap::linear(3));
    Backend b("dev", CouplingMap::linear(3));
    b.base.zz_drift = std::nextafter(a.base.zz_drift, 1.0);
    EXPECT_NE(a.fingerprint(), b.fingerprint());
    EXPECT_NE(a.fingerprint_hash(), b.fingerprint_hash());
    // Each pair's ZZ strength goes into the variant exactly (exact_double),
    // so one-ulp calibrations key apart in the pulse library too.
    EXPECT_NE(a.block_hamiltonian({0, 1}).variant,
              b.block_hamiltonian({0, 1}).variant);
}

TEST(BackendFingerprint, NearEqualBackendsSeparateInPulseLibrary) {
    Backend a("dev", CouplingMap::linear(2));
    Backend b("dev", CouplingMap::linear(2));
    b.base.zz_drift = std::nextafter(a.base.zz_drift, 1.0);

    qoc::PulseLibrary lib;
    qoc::LatencySearchOptions lopt;
    lopt.fidelity_threshold = 0.5; // cheap: keying is under test, not GRAPE
    lopt.grape.max_iterations = 10;
    const linalg::Matrix cx = circuit::Circuit(2).cx(0, 1).gate(0).unitary();
    const auto ha = a.block_hamiltonian({0, 1});
    const auto hb = b.block_hamiltonian({0, 1});
    ASSERT_NE(lib.get_or_generate(ha, cx, lopt), nullptr);
    EXPECT_NE(lib.peek(ha, cx, lopt), nullptr);
    EXPECT_EQ(lib.peek(hb, cx, lopt), nullptr) << "1-ulp backends shared a key";
}

// --- Device-resolved Hamiltonians ----------------------------------------

TEST(BackendHamiltonian, EntanglingLinesOnlyOnCouplers) {
    BackendRegistry reg;
    const auto be = reg.find("heavy-hex-7");
    const qoc::BlockHamiltonian h = be->block_hamiltonian({0, 1, 2});
    std::set<std::string> labels;
    for (const auto& ctl : h.controls) labels.insert(ctl.label);
    // Local indices: 0->phys 0, 1->phys 1, 2->phys 2; edges (0,1) and (1,2)
    // exist, (0,2) does not (both flags hang off qubit 1).
    EXPECT_EQ(labels.count("xx0_1"), 1u);
    EXPECT_EQ(labels.count("xx1_2"), 1u);
    EXPECT_EQ(labels.count("xx0_2"), 0u);
    for (int q = 0; q < 3; ++q) {
        EXPECT_EQ(labels.count("x" + std::to_string(q)), 1u);
        EXPECT_EQ(labels.count("y" + std::to_string(q)), 1u);
    }
}

TEST(BackendHamiltonian, PerQubitAndPerEdgeOverridesResolve) {
    Backend be("cal", CouplingMap::linear(3));
    be.qubit_drive_bounds = {0.10, 0.20, 0.30};
    be.edge_overrides[{1, 2}] = {0.05, 0.001};
    be.validate();
    EXPECT_DOUBLE_EQ(be.drive_bound(1), 0.20);
    const qoc::BlockHamiltonian h = be.block_hamiltonian({1, 2});
    for (const auto& ctl : h.controls) {
        if (ctl.label == "x0" || ctl.label == "y0")
            EXPECT_DOUBLE_EQ(ctl.bound, 0.20); // local 0 = physical 1
        if (ctl.label == "x1" || ctl.label == "y1")
            EXPECT_DOUBLE_EQ(ctl.bound, 0.30);
        if (ctl.label == "xx0_1") EXPECT_DOUBLE_EQ(ctl.bound, 0.05);
    }
}

TEST(BackendHamiltonian, CrosstalkChangesDriftNotControls) {
    Backend off("dev", CouplingMap::linear(3));
    Backend on("dev", CouplingMap::linear(3));
    on.crosstalk_zz = true;
    const auto ho = off.block_hamiltonian({0, 1, 2});
    const auto hx = on.block_hamiltonian({0, 1, 2});
    EXPECT_EQ(ho.controls.size(), hx.controls.size());
    EXPECT_NE(ho.variant, hx.variant);
    bool drift_differs = false;
    for (std::size_t i = 0; i < ho.drift.rows(); ++i)
        if (std::abs(ho.drift(i, i) - hx.drift(i, i)) > 1e-12) drift_differs = true;
    EXPECT_TRUE(drift_differs) << "spectator ZZ left the drift unchanged";
}

TEST(BackendHamiltonian, EmbedInLevelsIsUnitaryAndBlockDiagonal) {
    // 1-qubit X into 3 levels: the qubit block is X, the leakage level is
    // identity.
    linalg::Matrix x = linalg::Matrix::zeros(2, 2);
    x(0, 1) = 1.0;
    x(1, 0) = 1.0;
    const linalg::Matrix e = backend::embed_in_levels(x, 1, 3);
    ASSERT_EQ(e.rows(), 3u);
    EXPECT_DOUBLE_EQ(std::abs(e(0, 1)), 1.0);
    EXPECT_DOUBLE_EQ(std::abs(e(1, 0)), 1.0);
    EXPECT_DOUBLE_EQ(std::abs(e(2, 2)), 1.0);
    EXPECT_DOUBLE_EQ(std::abs(e(0, 0)), 0.0);
    EXPECT_TRUE(e.is_unitary(1e-12));

    // 2 qubits into 3 levels: 9x9, still unitary, levels==2 is a no-op.
    const linalg::Matrix cx = circuit::Circuit(2).cx(0, 1).gate(0).unitary();
    const linalg::Matrix e2 = backend::embed_in_levels(cx, 2, 3);
    ASSERT_EQ(e2.rows(), 9u);
    EXPECT_TRUE(e2.is_unitary(1e-12));
    EXPECT_LT(backend::embed_in_levels(cx, 2, 2).max_abs_diff(cx), 1e-15);

    const qoc::BlockHamiltonian h3 = [] {
        Backend be("qutrit", CouplingMap::linear(2));
        be.levels = 3;
        return be.block_hamiltonian({0, 1});
    }();
    EXPECT_EQ(h3.drift.rows(), 9u);
    for (const auto& ctl : h3.controls) EXPECT_EQ(ctl.h.rows(), 9u);
}

// --- Backend-aware compiles ----------------------------------------------

TEST(BackendCompile, SameCircuitKeysSeparatelyPerBackend) {
    // One compiler, one in-memory library, three devices: every backend must
    // regenerate its own pulses. Intra-compile hits (congruent blocks within
    // one circuit) are fine; cross-backend reuse is not — so each backend's
    // miss delta in the shared compiler must equal what a fresh compiler
    // misses for that backend alone.
    BackendRegistry reg;
    core::EpocCompiler compiler(fast_options());
    const circuit::Circuit c = bench::ghz(3);

    std::set<std::uint64_t> digests;
    std::size_t prev_misses = 0;
    for (const char* name : {"linear-5", "ring-8", "heavy-hex-7"}) {
        core::CompileCallOptions call;
        call.backend = reg.find(name);
        ASSERT_NE(call.backend, nullptr);
        const core::EpocResult r = compiler.compile(c, call);
        EXPECT_TRUE(r.status.ok()) << name << ": " << r.status.to_string();
        EXPECT_EQ(r.backend_name, name);
        digests.insert(digest(r));
        const std::size_t shared_misses =
            compiler.library().stats().misses - prev_misses;
        prev_misses = compiler.library().stats().misses;

        core::EpocCompiler fresh(fast_options());
        fresh.compile(c, call);
        EXPECT_EQ(shared_misses, fresh.library().stats().misses)
            << name << " reused another backend's pulses";
    }
    EXPECT_EQ(digests.size(), 3u) << "two backends produced identical schedules";
}

TEST(BackendCompile, BitIdenticalAcrossThreadCounts) {
    BackendRegistry reg;
    const circuit::Circuit c = bench::ghz(3);
    for (const char* name : {"linear-5", "heavy-hex-7"}) {
        std::set<std::uint64_t> digests;
        for (const int threads : {1, 2, 8}) {
            core::EpocOptions opt = fast_options();
            opt.num_threads = threads;
            core::CompileCallOptions call;
            call.backend = reg.find(name);
            core::EpocCompiler compiler(opt);
            const core::EpocResult r = compiler.compile(c, call);
            EXPECT_TRUE(r.status.ok()) << name;
            digests.insert(digest(r));
        }
        EXPECT_EQ(digests.size(), 1u)
            << name << ": schedule depends on thread count";
    }
}

TEST(BackendCompile, BridgedCircuitStaysEquivalentAndFeasible) {
    // CX(0,3) is distance-3 on linear-5: the partitioner must SWAP-walk it
    // and the compile must still come back clean.
    BackendRegistry reg;
    core::CompileCallOptions call;
    call.backend = reg.find("linear-5");
    core::EpocCompiler compiler(fast_options());
    circuit::Circuit c(4);
    c.h(0).cx(0, 3);
    const core::EpocResult r = compiler.compile(c, call);
    EXPECT_TRUE(r.status.ok()) << r.status.to_string();
    EXPECT_FALSE(r.degraded);
    EXPECT_GT(r.num_pulses, 0u);
    // The schedule spans the device register, not just the logical circuit.
    EXPECT_EQ(r.schedule.num_qubits, 5);
}

TEST(BackendCompile, ThreeLevelModelCompiles) {
    Backend be("qutrit-2", CouplingMap::linear(2));
    be.levels = 3;
    core::EpocOptions opt = fast_options();
    opt.latency.fidelity_threshold = 0.9; // 9-dim GRAPE is slower; keep cheap
    core::CompileCallOptions call;
    call.backend = std::make_shared<const Backend>(std::move(be));
    core::EpocCompiler compiler(opt);
    circuit::Circuit c(2);
    c.h(0).cx(0, 1);
    const core::EpocResult r = compiler.compile(c, call);
    EXPECT_TRUE(r.status.ok()) << r.status.to_string();
    EXPECT_GT(r.num_pulses, 0u);
    EXPECT_GT(r.latency_ns, 0.0);
}

TEST(BackendCompile, WiderThanRegisterIsInvalidInput) {
    BackendRegistry reg;
    core::CompileCallOptions call;
    call.backend = reg.find("linear-5");
    core::EpocCompiler compiler(fast_options());
    const core::EpocResult r = compiler.compile(bench::ghz(6), call);
    EXPECT_EQ(r.status.cause, util::Cause::invalid_input);
    EXPECT_NE(r.status.detail.find("exceeds backend"), std::string::npos)
        << r.status.detail;
}

// --- One device model ----------------------------------------------------

TEST(OneDeviceModel, ImplicitDeviceHamiltonianIsTheUniformModel) {
    // A compile that names no backend runs on an empty-named all-to-all
    // Backend; its block Hamiltonians must be make_block_hamiltonian's, bit
    // for bit, or device-free pulses would change.
    qoc::DeviceParams custom;
    custom.drive_bound = 0.21;
    custom.coupling_bound = 0.031;
    custom.zz_drift = 0.0;
    custom.dt = 1.5;
    qoc::DeviceParams strong;
    strong.zz_drift = 0.0045;
    for (const qoc::DeviceParams& dev : {qoc::DeviceParams{}, custom, strong})
        for (int n = 1; n <= 4; ++n) {
            SCOPED_TRACE("n=" + std::to_string(n));
            const Backend be("", CouplingMap::full(n), dev);
            std::vector<int> qubits;
            for (int q = 0; q < n; ++q) qubits.push_back(q);
            expect_same_hamiltonian(be.block_hamiltonian(qubits),
                                    qoc::make_block_hamiltonian(n, dev));
        }
}

TEST(OneDeviceModel, UniformDeviceHamiltonianIgnoresQubitOrder) {
    const Backend be("uniform", CouplingMap::linear(2));
    expect_same_hamiltonian(be.block_hamiltonian({1, 0}), be.block_hamiltonian({0, 1}));
    EXPECT_THROW(be.block_hamiltonian({1, 1}), std::invalid_argument);
}

TEST(OneDeviceModel, DeviceFreeCompileEqualsFullN) {
    // Device-free and full-3 are the same device under two names: the same
    // schedule and the same GRAPE work, with or without regrouping. `cx 1,0`
    // and `cx 2,1` pulse their own unitaries in operand order on both.
    circuit::Circuit c(3);
    c.h(0).cx(1, 0).h(2).cx(2, 1).cx(0, 2);
    BackendRegistry reg;
    for (const bool regroup : {false, true}) {
        SCOPED_TRACE(regroup ? "regroup on" : "regroup off");
        core::EpocOptions opt = fast_options();
        opt.num_threads = 1;
        opt.regroup_enabled = regroup;
        core::EpocCompiler device_free(opt);
        const core::EpocResult a = device_free.compile(c);
        core::CompileCallOptions call;
        call.backend = reg.find("full-3");
        core::EpocCompiler full(opt);
        const core::EpocResult b = full.compile(c, call);
        ASSERT_TRUE(a.status.ok()) << a.status.to_string();
        ASSERT_TRUE(b.status.ok()) << b.status.to_string();
        EXPECT_EQ(a.backend_name, "");
        EXPECT_EQ(b.backend_name, "full-3");
        EXPECT_EQ(core::schedule_to_json(a.schedule), core::schedule_to_json(b.schedule));
        EXPECT_EQ(a.library_stats.misses, b.library_stats.misses);
    }
}

TEST(OneDeviceModel, WideDeviceFreeRegisterCostsNoPerPairState) {
    // The implicit device of a 4000-qubit register is a complete graph held
    // implicitly: building it, fingerprinting it and compiling a one-gate
    // circuit on it cost what the circuit costs (well under a second in a
    // Release build), not an all-pairs table — ~8M edges and a W^3 BFS
    // would take minutes and gigabytes.
    const Backend implicit("", CouplingMap::full(4000));
    EXPECT_LT(implicit.fingerprint().size(), 256u);
    core::EpocOptions opt = fast_options();
    opt.num_threads = 1;
    core::EpocCompiler compiler(opt);
    circuit::Circuit c(4000);
    c.h(0);
    const auto t0 = std::chrono::steady_clock::now();
    const core::EpocResult r = compiler.compile(c);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    ASSERT_TRUE(r.status.ok()) << r.status.to_string();
    EXPECT_EQ(r.backend_name, "");
    EXPECT_EQ(r.schedule.num_qubits, 4000);
    EXPECT_LT(seconds, 10.0);
}

TEST(OneDeviceModel, BlockModelKeyIgnoresWidthAndQubitIds) {
    // The compiler caches block Hamiltonians per model key: on a uniform
    // device every 2-qubit block shares one entry, whatever the register
    // width, qubit ids or operand order; a different name never does.
    const Backend narrow("", CouplingMap::full(3));
    const Backend wide("", CouplingMap::full(9));
    EXPECT_EQ(narrow.block_model({0, 1}).key(), wide.block_model({7, 2}).key());
    EXPECT_NE(narrow.block_model({0, 1}).key(), narrow.block_model({0, 1, 2}).key());
    Backend other = wide;
    other.name = "full-9";
    EXPECT_NE(other.block_model({7, 2}).key(), wide.block_model({7, 2}).key());
}

TEST(OneDeviceModel, DeviceFreePulsesAreSharedAcrossRegisterWidths) {
    // The implicit device's name is empty for every width, so the register
    // width stays out of the pulse key.
    core::EpocOptions opt = fast_options();
    opt.num_threads = 1;
    core::EpocCompiler compiler(opt);
    circuit::Circuit narrow(2);
    narrow.h(0).cx(0, 1);
    circuit::Circuit wide(3);
    wide.h(0).cx(0, 1);
    ASSERT_TRUE(compiler.compile(narrow).status.ok());
    const std::size_t misses = compiler.library().stats().misses;
    EXPECT_GT(misses, 0u);
    const core::EpocResult r = compiler.compile(wide);
    ASSERT_TRUE(r.status.ok()) << r.status.to_string();
    EXPECT_EQ(r.library_stats.misses, misses) << "a wider register re-ran GRAPE";
}

} // namespace
