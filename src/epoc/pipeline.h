// The EPOC compiler (paper Figure 3, right column):
//
//   input circuit
//     -> graph-based ZX depth optimization        (zx/optimize.h)
//     -> greedy circuit partition                 (partition/partition.h)
//     -> VUG-based heuristic synthesis per block  (synthesis/qsearch.h)
//     -> regrouping of VUGs + CNOTs               (epoc/regroup.h)
//     -> GRAPE pulses via the pulse library       (qoc/*)
//     -> ASAP schedule: latency + ESP             (epoc/scheduler.h)
//
// Every stage can be toggled for the ablation benchmarks; regrouping off
// reproduces the paper's "without grouping" arm of Figures 8-10.
//
// Threading model: the two per-block loops (synthesis, GRAPE pulse
// generation) fan out over EpocOptions::num_threads workers — the paper ran
// its GRAPE stage on an 8-node x 32-core cluster, and per-block work is
// embarrassingly parallel. Both caches (pulse library, synthesis cache) are
// sharded-lock + single-flight, and per-block outputs are merged in block
// order, so the compiled result is bit-identical for every thread count;
// `num_threads = 1` runs inline on the caller with no threads created.
//
// Failure semantics: compile() never throws for per-block failures. Each
// block that fails, times out, or proves infeasible takes one rung down a
// degradation ladder —
//
//   synthesis fails/times out  ->  keep the block's original gates
//   block pulse infeasible or
//   errored                    ->  gate-by-gate pulses for that block
//   gate pulse errored         ->  placeholder pulse (worst-case duration,
//                                  fidelity 0) so the schedule stays valid
//
// and the compile returns a complete schedule with EpocResult::degraded set,
// one BlockReport per unit of work, and robust.* trace counters. Degraded
// pulses/syntheses are never cached as authoritative (see DESIGN.md
// "Failure semantics").
#pragma once

#include "backend/backend.h"
#include "circuit/circuit.h"
#include "circuit/structure.h"
#include "epoc/plan_cache.h"
#include "epoc/regroup.h"
#include "epoc/scheduler.h"
#include "qoc/pulse_library.h"
#include "store/pulse_store.h"
#include "synthesis/qsearch.h"
#include "util/deadline.h"
#include "util/sharded_cache.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/trace.h"
#include "verify/verify.h"
#include "zx/optimize.h"

#include <map>
#include <memory>
#include <mutex>

namespace epoc::core {

struct EpocOptions {
    bool use_zx = true;
    bool use_synthesis = true;
    bool regroup_enabled = true;
    partition::PartitionOptions partition{/*max_qubits=*/3, /*max_gates=*/24};
    /// Block limits for regrouping the synthesized circuit (epoc/regroup.h).
    partition::PartitionOptions regroup_opt{/*max_qubits=*/3, /*max_gates=*/32};
    synthesis::QSearchOptions qsearch;
    qoc::DeviceParams device;
    qoc::LatencySearchOptions latency;
    bool phase_aware_library = true;
    /// Worker count for the per-block synthesis and pulse-generation loops.
    /// 0 = hardware_concurrency(); 1 = exact sequential (pre-threading)
    /// behaviour. Output is bit-identical for every value.
    int num_threads = 0;
    /// Record per-stage spans and counters (util/trace.h) and surface them on
    /// EpocResult::trace: the initial state of EpocCompiler::tracer(), the
    /// switch each compile() reads as it starts. Off by default: the
    /// disabled path is one relaxed atomic load per instrumentation point
    /// and never perturbs the compiled artifact.
    bool trace_enabled = false;
    /// Directory of the persistent on-disk pulse store (store/pulse_store.h),
    /// attached to the pulse library as its L2 tier: memory miss -> probe
    /// disk -> verify -> promote; authoritative results written back, so
    /// GRAPE work survives the process and is shared between concurrent
    /// compilers pointed at the same directory. Empty disables persistence.
    std::string pulse_store_dir;
    /// Read-only shared pack directories (store/pack.h) layered behind the
    /// local store tier: each holds immutable `*.pack` segments (shipped warm
    /// libraries) probed on a local miss, so a fresh machine cold-starts at
    /// warm-run speed. Requires `pulse_store_dir` to be set — the pack tier
    /// is part of the store. Every pack hit is re-simulated through the
    /// verify layer before being trusted, whatever the verify level —
    /// foreign bytes are trust-but-verify, never trust.
    std::vector<std::string> pulse_pack_dirs;
    /// Independent output auditing (src/verify/verify.h): `off` disables
    /// every check (the compile is bit-identical to a verifier-less build),
    /// `sampled` audits stage equivalence always and per-block artifacts on a
    /// deterministic subset, `full` audits everything.
    /// Audit failures never throw: they take the degradation ladder as
    /// Cause::verify_failed (recompute once, then fall a rung).
    verify::VerifyLevel verify_level = verify::VerifyLevel::off;
    /// Incremental variational compilation (epoc/plan_cache.h): key each
    /// compile on the circuit's parameter-stripped structure and cache the
    /// front end's product (ZX + partition + synthesis as a slot-sentinel
    /// skeleton). A repeat structure with fresh angles binds the cached plan
    /// and goes straight to the pulse stage (regroup + pulses); the first
    /// compile of a structure builds (and verifies) the plan. Any plan-path
    /// failure — a degraded build, a stale binding, an injected fault —
    /// falls back to the ordinary cold pipeline; plan compiles never throw
    /// where cold compiles would not.
    bool plan_cache = false;
    /// Warm-start GRAPE on plan compiles: a pulse-library miss for a plan
    /// block seeds the optimizer with the previous iterate's amplitudes for
    /// that structural slot (AccQOC-style MST seeding across a parameter
    /// sweep). Advisory only — never part of a cache key, never persisted to
    /// the L2 store, and a warm run that stalls below target is cold-rescued
    /// (qoc/grape.h) — so it can only trade iterations, not fidelity or
    /// reproducibility of the *cold* path. Disable for bit-exact
    /// cross-compiler digest comparisons. Ignored unless plan_cache is on.
    bool plan_warm_start = true;

    EpocOptions() {
        // Cheaper defaults than the standalone synthesizer: blocks repeat, the
        // cache catches the rest.
        qsearch.instantiate.restarts = 2;
        qsearch.instantiate.max_iterations = 120;
        qsearch.threshold = 1e-5;
        qsearch.max_nodes = 60;
    }
};

/// Outcome of one unit of per-block pipeline work (a synthesis block, a
/// regrouped pulse block, or a fine-grained gate pulse). Reports are merged
/// in block order, so the vector is deterministic across thread counts.
struct BlockReport {
    util::Stage stage = util::Stage::synthesis;
    /// Index within the stage's own loop (synthesis block index, grouped
    /// block index, or gate index of the fine-grained arm).
    std::size_t index = 0;
    std::string label; ///< human-readable, e.g. "synth block 3 (2q)"
    util::BlockStatus status;
    /// What the independent audit concluded about this unit of work:
    /// not_checked (verification off / sampled out), passed, failed (the
    /// status then carries Cause::verify_failed), or unverified (the
    /// verifier itself failed — the artifact shipped unaudited).
    verify::Outcome verify = verify::Outcome::not_checked;
};

struct EpocResult {
    PulseSchedule schedule;
    double latency_ns = 0.0;
    double esp = 1.0;
    /// ESP additionally discounted by T1/T2 decoherence over the schedule
    /// latency (qoc/decoherence.h) -- the end-to-end success estimate that
    /// rewards shorter schedules.
    double esp_decoherent = 1.0;
    double compile_ms = 0.0;
    /// Name of the hardware backend this compile targeted ("" = the
    /// implicit all-to-all device built from EpocOptions::device).
    std::string backend_name;

    // Stage diagnostics.
    int depth_original = 0;
    int depth_after_zx = 0;
    std::size_t gates_original = 0;
    std::size_t num_blocks = 0;
    std::size_t synthesized_gates = 0;
    std::size_t num_pulses = 0;
    double zx_ms = 0.0;
    double synthesis_ms = 0.0;
    double qoc_ms = 0.0;
    /// Worker count the parallel loops actually used for this compile.
    int threads_used = 1;
    /// Cumulative pulse-library activity (hits/misses/single-flight waits,
    /// plus L2 store_hits/store_misses/store_writes when a store is set).
    qoc::PulseLibraryStats library_stats;
    /// Cumulative synthesis-cache activity (same counters, QSearch results).
    util::CacheStats synth_cache_stats;
    /// True iff this compiler runs with a persistent pulse store attached
    /// (EpocOptions::pulse_store_dir); `store_stats` is only meaningful then.
    bool store_enabled = false;
    /// Cumulative on-disk store activity (hits/misses/writes/corrupt/
    /// evicted/bytes), from the store's own accounting.
    store::PulseStoreStats store_stats;
    /// This call's spans and counters (empty unless the compiler's tracer()
    /// was enabled when the call started). Per call: concurrent or repeated
    /// compiles never see each other's spans. The cumulative cache and store
    /// stats above are folded in as counters at the end of the call.
    util::TraceReport trace;

    /// The post-synthesis flat circuit (U3 + CX), for inspection.
    circuit::Circuit synthesized;

    // Resilience diagnostics.
    //
    /// True when any degradation-ladder rung was taken (a block fell back to
    /// its original gates, a pulse fell back to gate-by-gate or placeholder,
    /// a stage was skipped on timeout, an infeasible pulse was shipped
    /// flagged, ...). A degraded result is still a valid, schedulable
    /// artifact — inspect block_reports for the exact account.
    bool degraded = false;
    /// Compile-level status: ok for clean and merely-degraded compiles;
    /// Cause::invalid_input when boundary validation rejected the circuit
    /// (in which case the result is empty); otherwise mirrors the first
    /// non-ok block report (deterministic across thread counts).
    util::BlockStatus status;
    /// True when the compile deadline (or cancel token) expired at any point.
    bool deadline_hit = false;
    /// True when this compile reused a cached CompilationPlan (plan_cache on,
    /// the structure key hit, and the angles bound). False on the
    /// structure's first compile (the plan *build*) and on any fallback to
    /// the cold pipeline.
    bool plan_hit = false;
    /// On a plan hit, the block count the bound skeleton was regrouped into,
    /// or the plan's partition block count when no regroup ran. Zero on
    /// builds and cold compiles.
    std::size_t plan_blocks_reused = 0;
    /// Per-compile verification tally: level, check/pass/fail/unverified
    /// counts, store revalidations and rejects, recomputes, and the shipped
    /// schedule's audited error budget (sum over audited pulses of
    /// |recorded - re-simulated| fidelity). Level `off` with zero counts
    /// unless verify_level is sampled/full.
    verify::VerifySummary verify;
    /// One entry per unit of per-block work, in deterministic block order:
    /// every synthesis block, every grouped-arm pulse block, every
    /// fine-grained gate pulse — clean or not ("every block accounted for").
    std::vector<BlockReport> block_reports;
};

/// Per-call settings of one compile() invocation. The compile-service daemon
/// runs many concurrent requests through one EpocCompiler, and each request
/// carries its own device, budget and cancellation, so they live here and
/// never on the shared EpocOptions.
struct CompileCallOptions {
    /// Wall-clock budget for this call, in milliseconds; <= 0 means
    /// unlimited. The deadline is polled cooperatively inside QSearch,
    /// every GRAPE iteration and the latency search: on expiry each loop
    /// returns best-so-far and the degradation ladder takes over, so the
    /// compile still returns a valid (if degraded) schedule — it never
    /// throws. Because degraded entries are never cached, a compile that
    /// degraded under a tight budget genuinely re-attempts its blocks when
    /// re-run with more slack.
    double deadline_ms = 0.0;
    /// Optional cancellation (non-owning; must outlive the call). Firing it
    /// behaves like an immediate deadline expiry: in-flight blocks finish
    /// their current poll interval, unstarted blocks fall back, and compile()
    /// returns a degraded result with Cause::cancelled.
    const util::CancelToken* cancel = nullptr;
    /// Target hardware backend (backend/backend.h). Every compile is
    /// device-aware end to end: the circuit is widened to the device register,
    /// partitioning and regrouping run over the backend's coupling map (every
    /// block a connected subgraph; non-adjacent bridging gates SWAP-walked
    /// along shortest paths), synthesis restricts CNOT placements to coupling
    /// edges, and pulse targets use the backend's edge-resolved Hamiltonians
    /// (3-level leakage-aware when `levels == 3`). The backend name and each
    /// block's calibration join every pulse-library and store key, and the
    /// backend fingerprint every plan-cache key: pulses are shared only by
    /// blocks with one backend name and one Hamiltonian, plans only within
    /// one backend. nullptr (the default) compiles on an implicit all-to-all
    /// device of the circuit's width built from EpocOptions::device, with the
    /// empty name; its coupling map is the complete graph. The daemon
    /// resolves each job's backend name against its registry and passes the
    /// result here.
    std::shared_ptr<const backend::Backend> backend;
};

/// Stateful compiler: the pulse library and synthesis cache persist across
/// compile() calls, mirroring the paper's reusable pulse database.
///
/// Concurrency: compile() may be called from any number of threads at once
/// on one compiler — the serving precondition. The compiler holds only
/// configuration (options, verifier, the tracer switch) and internally
/// synchronized caches and pools (pulse library, synthesis and plan caches,
/// Hamiltonian map, thread pool). Everything one call owns — its device,
/// deadline, trace and verify tally — lives in a private per-call context on
/// the caller's stack, so concurrent results never see each other's state,
/// and identical circuits compiled concurrently are bit-identical to
/// sequential runs (asserted in tests/test_concurrent_compile.cpp).
class EpocCompiler {
public:
    explicit EpocCompiler(EpocOptions opt = {});

    EpocResult compile(const circuit::Circuit& c);
    /// compile() with this call's backend, deadline and cancellation; see
    /// CompileCallOptions. compile(c) is compile(c, {}).
    EpocResult compile(const circuit::Circuit& c, const CompileCallOptions& call);

    qoc::PulseLibrary& library() { return library_; }
    /// The persistent pulse store, nullptr when persistence is off.
    store::PulseStore* store() { return store_.get(); }
    const EpocOptions& options() const { return opt_; }
    /// The tracing switch (initially EpocOptions::trace_enabled). A call
    /// that starts while it is enabled records into its own trace, returned
    /// on EpocResult::trace; this tracer itself records nothing.
    util::Tracer& tracer() { return tracer_; }
    /// The compiler's verifier (enabled iff verify_level is sampled/full;
    /// see EpocOptions::verify_level).
    const verify::Verifier& verifier() const { return verifier_; }
    /// The compilation plan cache (populated only when EpocOptions::plan_cache
    /// is on), keyed on structure plus backend fingerprint. Exposed for
    /// inspection: its size and build (miss) count.
    util::ShardedFlightCache<CompilationPlan>& plan_cache() { return plan_cache_; }

private:
    /// One unit of pulse work: a single gate on global qubits (every gate of
    /// the fine arm, and each gate of a block's fallback rung) or a regrouped
    /// block. Exactly one member is set.
    struct PulseUnit {
        const circuit::Gate* gate = nullptr;
        const partition::CircuitBlock* block = nullptr;
    };
    /// A unit's jobs, status, audit outcome and audit error (pipeline.cpp).
    struct PulseFragment;
    /// Everything one compile() call owns — its backend, linked deadline,
    /// trace, verify tally and library lookup hooks — and the ladder rungs
    /// that record into them: the whole-stage guard and the recompute-once
    /// audit (pipeline.cpp). Built by compile() and passed to every stage;
    /// EpocResult stays a separate argument because a plan build runs the
    /// front end into a throwaway result.
    struct CompileContext;

    /// Device-resolved Hamiltonian for a block over physical `qubits`,
    /// cached per block model (qoc::BlockModel::key): one entry per distinct
    /// Hamiltonian, whatever the register width, qubit ids or operand order.
    const qoc::BlockHamiltonian& block_hamiltonian(const backend::Backend& be,
                                                   const std::vector<int>& qubits);
    circuit::Circuit synthesize_blocks(const std::vector<partition::CircuitBlock>& blocks,
                                       int num_qubits, CompileContext& ctx, EpocResult& res);
    /// Ladder rung 3 for gate `g` (global qubits): a placeholder pulse with
    /// worst-case duration (`max_slots * dt`) and zero fidelity —
    /// structurally schedulable, and impossible to mistake for a good pulse.
    PulseJob placeholder_job(const circuit::Gate& g, const backend::Backend& be) const;
    /// Pulses one unit into `frag`, taking the ladder on failure: a block
    /// whose pulse is infeasible, degraded, errored or fails its audit after
    /// the recompute falls to its gates, pulsed by this same routine into
    /// the same fragment; a gate that errors ships placeholder_job(), and
    /// one whose audit still fails ships its re-simulated fidelity. `warm`
    /// (plan path only) seeds GRAPE from, and collects amplitudes into, slot
    /// `index`; audits and their recomputes always run un-seeded.
    void pulse_unit(const PulseUnit& unit, std::size_t index, const WarmSlots* warm,
                    CompileContext& ctx, PulseFragment& frag);
    /// One pulse arm: pulse_unit() over `units` in parallel, merged in unit
    /// order into jobs, one BlockReport per unit and the arm's audit error.
    std::vector<PulseJob> pulse_arm(const std::vector<PulseUnit>& units,
                                    const WarmSlots* warm, CompileContext& ctx,
                                    EpocResult& res, double& audit_err);
    /// The front end of every cold compile and of every plan build segment:
    /// ZX, then partition and synthesis. Returns the synthesized circuit and,
    /// when `after_zx` is set, the post-ZX one there. A stage that fails or
    /// is skipped reports on `res` and passes its input through; stage times,
    /// depth_after_zx and num_blocks land on `res` too.
    circuit::Circuit front_end(const circuit::Circuit& c, CompileContext& ctx,
                               EpocResult& res, circuit::Circuit* after_zx = nullptr);
    /// The pulse stage every compile ends in: the fine arm over `current`,
    /// then — budget permitting — regroup with its oracle and the grouped
    /// arm, shipping the shorter schedule; then dropped-job accounting, the
    /// call's verify summary with the shipped arm's error budget, and
    /// `qoc_ms`. `plan` (plan path only) supplies the warm-start slots.
    /// Returns the regroup block count (0 when regroup did not run).
    std::size_t pulse_stage(const circuit::Circuit& current, const CompilationPlan* plan,
                            CompileContext& ctx, EpocResult& res);
    /// Build a CompilationPlan from `stripped.sentinel_template`: the front
    /// end over each maximal parameter-free segment, the slot-sentinel gates
    /// carried through between them. Throws (so the single-flight slot is
    /// erased and the compile goes cold) on *any* degradation — only clean
    /// plans are ever cached.
    CompilationPlan build_plan(const circuit::StrippedCircuit& stripped, CompileContext& ctx);
    /// The plan path's stand-in for front_end(): strip `c`, look up (or
    /// build) its plan and bind the angles into `bound`; `hit` is false on
    /// the build. Never throws; nullptr means "run the front end".
    std::shared_ptr<const CompilationPlan> bind_plan(const circuit::Circuit& c,
                                                     CompileContext& ctx,
                                                     circuit::Circuit& bound, bool& hit);

    EpocOptions opt_;
    util::Tracer tracer_; ///< the switch only; each call records its own trace
    verify::Verifier verifier_;
    util::ThreadPool pool_;
    /// Declared before library_, which holds a non-owning PulseTier pointer.
    std::unique_ptr<store::PulseStore> store_;
    qoc::PulseLibrary library_;
    util::ShardedFlightCache<synthesis::SynthesisResult> synth_cache_;
    util::ShardedFlightCache<CompilationPlan> plan_cache_;
    std::mutex hams_mutex_;
    /// Block Hamiltonians, keyed by qoc::BlockModel::key(): bounded by the
    /// distinct block models compiled, not by widths or qubit tuples.
    std::map<std::string, qoc::BlockHamiltonian> hams_;
};

} // namespace epoc::core
