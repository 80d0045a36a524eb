// vqe_sweep: an optimizer loop in library mode with the plan cache and
// warm-started GRAPE on. The circuit is a hardware-efficient ansatz (RY
// rotation layers around a fixed Toffoli + CX entangler); set-up is the plan
// build and the schedule's inputs, and the timed phase is a seeded schedule
// of small SPSA-style perturbations around a fixed point: every iteration
// binds fresh angles, so every timed compile is a plan hit (instantiate_plan)
// whose angle-dependent 1-2 qubit pulses miss the library and run
// warm-started GRAPE, while the entangler's pulses are library reads.
#include "workloads.h"

#include "circuit/qasm.h"
#include "circuit/unitary.h"
#include "stats.h"
#include "zx/optimize.h"

#include <cmath>
#include <cstdio>
#include <random>

namespace perfbench {

using namespace epoc;

namespace {

/// Iterations per second of --seconds: about as many as one second holds on a
/// 4-vCPU Xeon VM.
constexpr int kIterationsPerSecond = 200;
/// Iterations of the traced run's untraced and traced sweeps.
constexpr int kTracedIterations = 300;
/// Perturbation half-width [rad]: small enough that the previous iterate's
/// pulses seed GRAPE near a solution (the regime warm starting is built
/// for), wide enough that a few iterations find shorter pulses, so the
/// schedule latency moves with the seed.
constexpr double kPerturbation = 0.2;
/// The fixed point the optimizer is exploring.
constexpr double kCentre[] = {0.8, 0.9, 1.0, 0.4, 0.5, 0.6};
constexpr std::size_t kParams = std::size(kCentre);

/// The fixed entangler: the ansatz's one parameter-free segment, which the
/// plan build runs through ZX and synthesis once.
circuit::Circuit entangler() {
    circuit::Circuit c(3);
    c.ccx(0, 1, 2);
    c.cx(0, 1).cx(1, 2);
    return c;
}

circuit::Circuit ansatz(const double* p) {
    circuit::Circuit c(3);
    c.ry(p[0], 0).ry(p[1], 1).ry(p[2], 2);
    c.append(entangler());
    c.ry(p[3], 0).ry(p[4], 1).ry(p[5], 2);
    return c;
}

/// The seeded schedule: iteration 0 is the centre; iteration i > 0 perturbs
/// every angle by a seeded uniform draw in [-kPerturbation, kPerturbation].
struct Schedule {
    std::uint64_t seed;
    circuit::Circuit at(int iteration) const {
        double p[kParams];
        std::mt19937_64 rng(seed * 1000003ULL + static_cast<std::uint64_t>(iteration));
        std::uniform_real_distribution<double> u(-kPerturbation, kPerturbation);
        for (std::size_t k = 0; k < kParams; ++k) p[k] = kCentre[k] + (iteration ? u(rng) : 0.0);
        return ansatz(p);
    }
};

core::EpocOptions vqe_options(int threads) {
    core::EpocOptions opt = suite_options(threads);
    opt.plan_cache = true;
    opt.plan_warm_start = true;
    // QOC-sized regrouped blocks: a merged block wider than two qubits would
    // swallow the parametric rotations and re-run a large GRAPE every step.
    opt.regroup_opt.max_qubits = 2;
    return opt;
}

/// Iterations [first, last) of the schedule with their reference unitaries.
std::vector<Input> iterations(const Schedule& schedule, int first, int last) {
    std::vector<Input> out;
    for (int i = first; i < last; ++i) {
        const circuit::Circuit c = schedule.at(i);
        out.push_back({"iter" + std::to_string(i), c, circuit::circuit_unitary(c)});
    }
    return out;
}

Counts sweep_counts(const Pass& p, core::EpocCompiler& compiler) {
    return {{"iterations", p.tally.compiles},
            {"plan.hits", p.tally.plan_hits},
            {"plan.builds", compiler.plan_cache().stats().misses},
            {"qoc.library_misses", p.library.misses},
            {"qoc.library_hits", p.library.hits}};
}

} // namespace

void run_vqe_sweep(const Args& args, Report& report, Spans& spans) {
    const core::EpocOptions opt = vqe_options(args.compile_threads);
    const Schedule schedule{args.seed};

    // Set-up: the plan build (iteration 0) and the timed iterations' inputs.
    const auto setup_begin = Clock::now();
    core::EpocCompiler compiler(opt);
    const core::EpocResult build = compiler.compile(schedule.at(0));
    const std::vector<Input> inputs = iterations(
        schedule, 1, 1 + (args.trace ? kTracedIterations : args.seconds * kIterationsPerSecond));
    const double setup_s = ms_between(setup_begin, Clock::now()) / 1000.0;
    const std::string bad = check_compile(build, circuit::circuit_unitary(schedule.at(0)));
    report.require(bad.empty(), "vqe_sweep plan build: " + bad);
    report.require(!build.plan_hit, "vqe_sweep: the first compile was not a plan build");
    std::printf("plan build: %.1f ms (zx %.2f, synthesis %.1f, qoc %.1f), %zu blocks\n",
                build.compile_ms, build.zx_ms, build.synthesis_ms, build.qoc_ms,
                build.num_blocks);

    const auto gates = [&](const Pass& p, core::EpocCompiler& c, const std::string& tag) {
        report.require(p.tally.plan_hits == p.tally.compiles,
                       tag + ": plan hits (" + std::to_string(p.tally.plan_hits) +
                           ") != iterations - 1 (" + std::to_string(p.tally.compiles) + ")");
        report.require(c.plan_cache().stats().misses == 1 && c.plan_cache().size() == 1,
                       tag + ": the plan was rebuilt or evicted");
    };

    if (!args.trace) {
        const Pass pass = compile_passes({&compiler}, inputs, report, spans, 0, false).front();
        gates(pass, compiler, "vqe_sweep");
        report.exact_counts(args, "sweep", sweep_counts(pass, compiler));
        report_closed_loop(report, {pass}, setup_s);
        return;
    }

    // Traced run: a fresh traced compiler builds the plan, then it and the
    // set-up compiler (the untraced baseline) run the same sweep, iteration
    // by iteration; the per-layer sums include the traced build.
    core::EpocOptions topt = opt;
    topt.trace_enabled = true;
    core::EpocCompiler traced_compiler(topt);
    const auto t0 = Clock::now();
    const core::EpocResult traced_build = traced_compiler.compile(schedule.at(0));
    spans.add("plan build", 0, 0, t0, Clock::now());
    const std::vector<Pass> both =
        compile_passes({&compiler, &traced_compiler}, inputs, report, spans, 0, false);
    const Pass& untraced = both[0];
    const Pass& hits = both[1];
    gates(untraced, compiler, "vqe_sweep untraced");
    gates(hits, traced_compiler, "vqe_sweep traced");
    report.exact_counts(args, "traced-sweep", sweep_counts(hits, traced_compiler));
    report.attempted += untraced.latency_ms.size() + hits.latency_ms.size();
    report.failed += untraced.failed + hits.failed;

    LayerTally tally = hits.tally;
    tally.add(traced_build);
    // The plan path reports no stage times: plan hits skip ZX and synthesis,
    // and the build's share is read from its QSearch spans (a LEAP fallback
    // runs inside one) and from one outside call of ZX on the entangler, the
    // segment the build optimizes.
    for (const util::TraceEvent& ev : traced_build.trace.spans)
        if (ev.name.rfind("qsearch ", 0) == 0)
            tally.synthesis_ms += static_cast<double>(ev.end_ns - ev.begin_ns) / 1e6;
    const circuit::Circuit segment = entangler();
    tally.zx_ms += time_per_call_us([&] { (void)zx::zx_optimize(segment); }) / 1000.0;
    report_tally(report, tally, hits.library, hits.synth, 0, 0);
    report.metric("plan.hit_compile_ms", median(hits.latency_ms), hits.latency_ms.size());
    // Re-compiles of already-seen angles: every pulse a library hit.
    std::vector<Input> seen;
    for (int i = kTracedIterations - 9; i <= kTracedIterations; ++i)
        seen.push_back({"iter" + std::to_string(i), schedule.at(i), {}});
    std::size_t warm_n = 0;
    const double warm_ms = warm_compile_p50(compiler, seen, 3, warm_n);
    report.metric("pipeline.warm_compile_ms", warm_ms, warm_n);
    report.metric("store.pack_bytes", 0, 0);
    report.metric("trace_overhead", median(hits.latency_ms) / median(untraced.latency_ms),
                  2);
    run_layer_probes(report, spans, circuit::to_qasm(schedule.at(0)));
}

} // namespace perfbench
