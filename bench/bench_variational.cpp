// Variational (incremental) compilation bench: the plan cache and GRAPE warm
// starting on ansatz angle sweeps — the workload the plan cache exists for.
//
// Three tables:
//   1. Incremental mode on a hardware-efficient VQE ansatz (parametric
//      rotation layers around a fixed Toffoli + CX entangler): the build
//      iteration pays for ZX, partitioning and QSearch synthesis of the 3q
//      entangler; every later iteration re-binds the plan, regroups and
//      regenerates only the tiny angle-dependent pulses. This is the
//      headline number (>= 3x per-iteration collapse required; in practice
//      it is orders of magnitude).
//   2. Reproducible mode (warm start off, full verification) on a QAOA ring:
//      every plan-hit compile is checked bit-identical (schedule digest)
//      against a fresh cold compile at the same angles — reuse must be free.
//   3. Warm-start savings on the same QAOA sweep: total GRAPE iterations,
//      cold vs warm.
//
// Exits non-zero when the headline contract breaks: hit-iteration median
// speedup < 3x over the build iteration, or any digest mismatch.
#include "epoc/export.h"
#include "epoc/pipeline.h"
#include "qoc/pulse_io.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

namespace {

using namespace epoc;

core::EpocOptions bench_options() {
    core::EpocOptions opt;
    opt.latency.fidelity_threshold = 0.99;
    opt.latency.grape.max_iterations = 120;
    opt.qsearch.threshold = 1e-4;
    opt.qsearch.instantiate.restarts = 2;
    opt.plan_cache = true;
    // QOC-sized regrouped blocks: a wide merged block swallows the parametric
    // rotations and re-runs a large GRAPE every iteration, which is exactly
    // the cost the incremental mode exists to avoid.
    opt.regroup_opt.max_qubits = 2;
    return opt;
}

/// Hardware-efficient VQE ansatz: parametric 1q layers around a fixed
/// entangler whose QSearch synthesis dominates a cold compile.
circuit::Circuit vqe_ansatz(double a, double b) {
    circuit::Circuit c(3);
    c.ry(a, 0).ry(a + 0.1, 1).ry(a + 0.2, 2);
    c.ccx(0, 1, 2);
    c.cx(0, 1).cx(1, 2);
    c.ry(b, 0).ry(b + 0.1, 1).ry(b + 0.2, 2);
    return c;
}

/// One QAOA layer on a 3-qubit ring: every regrouped block is
/// angle-dependent, so pulse generation runs each iteration — the workload
/// for the digest oracle and the warm-start savings table.
circuit::Circuit qaoa_ring(double gamma, double beta) {
    circuit::Circuit c(3);
    c.h(0).h(1).h(2);
    c.rzz(gamma, 0, 1).rzz(gamma, 1, 2).rzz(gamma, 0, 2);
    c.rx(beta, 0).rx(beta, 1).rx(beta, 2);
    return c;
}

/// Optimizer-style angle schedule: small steps, the regime warm starting is
/// built for (the previous iterate's pulses are near-solutions).
std::pair<double, double> angles(int i) {
    return {0.8 + 0.002 * i, 0.4 - 0.001 * i};
}

std::uint64_t digest(const core::EpocResult& r) {
    return qoc::fnv1a64(core::schedule_to_json(r.schedule));
}

double compile_ms(core::EpocCompiler& compiler, const circuit::Circuit& c,
                  core::EpocResult& out) {
    const auto t0 = std::chrono::steady_clock::now();
    out = compiler.compile(c);
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                     t0)
        .count();
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

} // namespace

int main() {
    constexpr int kIters = 12;

    std::printf("Variational sweep 1: incremental mode, VQE ansatz "
                "(plan + warm start)\n");
    std::printf("%4s %10s %8s %8s\n", "iter", "compile_ms", "plan", "esp");
    core::EpocCompiler incremental(bench_options());
    double build_ms = 0.0;
    std::vector<double> hit_ms;
    for (int i = 0; i < kIters; ++i) {
        const auto [a, b] = angles(i);
        core::EpocResult r;
        const double ms = compile_ms(incremental, vqe_ansatz(a, b), r);
        if (i == 0)
            build_ms = ms;
        else
            hit_ms.push_back(ms);
        std::printf("%4d %10.1f %8s %8.4f\n", i, ms, r.plan_hit ? "hit" : "build",
                    r.esp);
    }
    const double hit_median = median(hit_ms);
    const double speedup = hit_median > 0.0 ? build_ms / hit_median : 0.0;
    std::printf("build %.1f ms, hit median %.1f ms -> speedup-after-first: "
                "%.1fx\n\n",
                build_ms, hit_median, speedup);

    std::printf("Variational sweep 2: reproducible mode, QAOA ring "
                "(warm start off, verify full)\n");
    std::printf("%4s %8s %18s %6s\n", "iter", "plan", "digest", "=cold");
    core::EpocOptions ropt = bench_options();
    ropt.plan_warm_start = false;
    ropt.verify_level = verify::VerifyLevel::full;
    core::EpocCompiler planned(ropt);
    bool digests_equal = true;
    for (int i = 0; i < 6; ++i) {
        const auto [gamma, beta] = angles(i);
        core::EpocResult r;
        (void)compile_ms(planned, qaoa_ring(gamma, beta), r);
        // The reuse oracle: a fresh compiler cold-compiles the same angles
        // and must produce the same bytes.
        core::EpocCompiler fresh(ropt);
        const bool same = digest(fresh.compile(qaoa_ring(gamma, beta))) == digest(r);
        digests_equal = digests_equal && same;
        std::printf("%4d %8s   %016llx %6s\n", i, r.plan_hit ? "hit" : "build",
                    static_cast<unsigned long long>(digest(r)), same ? "yes" : "NO");
    }
    std::printf("digests-equal: %d\n\n", digests_equal ? 1 : 0);

    std::printf("Variational sweep 3: warm-start savings, QAOA ring "
                "(%d iterations)\n",
                kIters);
    std::uint64_t iters_by_mode[2] = {0, 0};
    for (const bool warm : {false, true}) {
        core::EpocOptions wopt = bench_options();
        wopt.plan_warm_start = warm;
        wopt.trace_enabled = true;
        core::EpocCompiler compiler(wopt);
        std::uint64_t total = 0;
        for (int i = 0; i < kIters; ++i) {
            const auto [gamma, beta] = angles(i);
            total += compiler.compile(qaoa_ring(gamma, beta))
                         .trace.counter("qoc.grape_iterations");
        }
        iters_by_mode[warm ? 1 : 0] = total;
        std::printf("  %-14s total GRAPE iterations: %8llu\n",
                    warm ? "warm-start" : "cold-start",
                    static_cast<unsigned long long>(total));
    }
    if (iters_by_mode[1] < iters_by_mode[0])
        std::printf("  warm start saved %.1f%% of optimizer iterations\n",
                    100.0 * (1.0 - static_cast<double>(iters_by_mode[1]) /
                                       static_cast<double>(iters_by_mode[0])));

    if (!digests_equal) {
        std::printf("CONTRACT VIOLATION: plan-hit schedule differed from a cold "
                    "compile\n");
        return 1;
    }
    if (speedup < 3.0) {
        std::printf("CONTRACT VIOLATION: hit-iteration speedup %.1fx < 3x\n",
                    speedup);
        return 1;
    }
    return 0;
}
