// Resilience bench: the degradation ladder under forced faults, a wall-clock
// deadline sweep, and a seeded chaos run, on fig8-style benchmark circuits.
//
// Three questions, one table each:
//   1. What does each forced failure mode cost (latency/ESP vs the clean
//      compile), and does compile() always deliver a complete schedule?
//   2. How does result quality degrade as the compile deadline tightens?
//   3. Under a seeded ~1/K random fault rate across *all* sites at once, does
//      the pipeline still hold its never-throw, always-schedule contract?
//
// EPOC_FAULT_INJECT is read too (configure_from_env), so ad-hoc chaos specs
// can be layered on from the shell.
#include "bench_circuits/generators.h"
#include "epoc/pipeline.h"
#include "util/fault_injection.h"

#include <chrono>
#include <cstdio>
#include <string>
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
    return opt;
}

std::vector<std::pair<std::string, circuit::Circuit>> suite() {
    return {
        {"ghz4", bench::ghz(4)},
        {"qft3", bench::qft(3)},
        {"bv5", bench::bv(5)},
        {"wstate4", bench::wstate(4)},
    };
}

std::size_t fallback_count(const core::EpocResult& r) {
    std::size_t n = 0;
    for (const core::BlockReport& br : r.block_reports)
        if (!br.status.ok()) ++n;
    return n;
}

core::EpocResult timed_compile(core::EpocOptions opt, const circuit::Circuit& c,
                               double& wall_ms, double deadline_ms = 0.0) {
    core::EpocCompiler compiler(std::move(opt));
    core::CompileCallOptions call;
    call.deadline_ms = deadline_ms;
    const auto t0 = std::chrono::steady_clock::now();
    core::EpocResult r = compiler.compile(c, call);
    wall_ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                        t0)
                  .count();
    return r;
}

} // namespace

int main() {
    util::fault::configure_from_env();

    std::printf("Resilience: forced faults per injection site\n");
    std::printf("%-10s %-22s %12s %8s %10s %9s\n", "circuit", "fault", "latency[ns]",
                "esp", "fallbacks", "wall[ms]");
    const std::vector<std::string> specs = {
        "",           "zx.fail=*",          "synth.block=*", "pulse.block=*",
        "pulse.gate=*", "grape.nonfinite=*", "latency.infeasible=*"};
    for (const auto& [name, c] : suite()) {
        for (const std::string& spec : specs) {
            if (!spec.empty()) util::fault::configure(spec);
            double wall = 0.0;
            const core::EpocResult r = timed_compile(bench_options(), c, wall);
            util::fault::clear();
            std::printf("%-10s %-22s %12.1f %8.4f %7zu/%zu %9.1f%s\n", name.c_str(),
                        spec.empty() ? "(clean)" : spec.c_str(), r.latency_ns, r.esp,
                        fallback_count(r), r.block_reports.size(), wall,
                        r.degraded ? "  degraded" : "");
        }
    }

    std::printf("\nResilience: deadline sweep (qft3)\n");
    std::printf("%12s %12s %8s %10s %9s %9s\n", "deadline[ms]", "latency[ns]", "esp",
                "fallbacks", "wall[ms]", "hit");
    const circuit::Circuit qft3 = bench::qft(3);
    for (const double ms : {0.0, 1.0, 10.0, 100.0, 1000.0}) {
        double wall = 0.0;
        const core::EpocResult r = timed_compile(bench_options(), qft3, wall, ms);
        std::printf("%12.1f %12.1f %8.4f %7zu/%zu %9.1f %9s\n", ms, r.latency_ns, r.esp,
                    fallback_count(r), r.block_reports.size(), wall,
                    r.deadline_hit ? "yes" : "no");
    }

    std::printf("\nResilience: seeded chaos (~1/4 fault rate on every site)\n");
    int degraded_runs = 0;
    const std::vector<std::string> sites = {"zx.fail",         "partition.fail",
                                            "regroup.fail",    "synth.block",
                                            "synth.compute",   "pulse.block",
                                            "pulse.gate",      "grape.nonfinite",
                                            "latency.infeasible",
                                            // silent corruption + the verifier's
                                            // own failure sites: detection,
                                            // recompute and fail-open must all
                                            // hold under the same chaos
                                            "latency.badpulse", "synth.badcircuit",
                                            "verify.equiv",     "verify.simulate",
                                            "verify.revalidate",
                                            // plan-cache path: a broken plan
                                            // must degrade to a cold compile
                                            "plan.lookup",      "plan.instantiate"};
    for (int seed = 1; seed <= 4; ++seed) {
        std::string spec;
        for (const std::string& s : sites)
            spec += (spec.empty() ? "" : ";") + s + "=%4@" + std::to_string(seed);
        util::fault::configure(spec);
        for (const auto& [name, c] : suite()) {
            double wall = 0.0;
            core::EpocOptions chaos_opt = bench_options();
            // sampled: the always-on tier — the corruption sites above are
            // inert without it, and a broken verifier must stay harmless.
            chaos_opt.verify_level = verify::VerifyLevel::sampled;
            // plan cache on, so the plan.* sites are live paths, not no-ops.
            chaos_opt.plan_cache = true;
            const core::EpocResult r = timed_compile(std::move(chaos_opt), c, wall);
            if (r.degraded) ++degraded_runs;
            if (r.num_pulses == 0 || r.latency_ns <= 0.0) {
                std::printf("  CONTRACT VIOLATION: %s seed %d produced an empty "
                            "schedule\n",
                            name.c_str(), seed);
                util::fault::clear();
                return 1;
            }
        }
        util::fault::clear();
    }
    std::printf("  %d/%zu chaos compiles degraded; all returned complete schedules\n",
                degraded_runs, 4 * suite().size());
    return 0;
}
