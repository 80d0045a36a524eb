// Compare the four pulse-generation flows on one program: traditional
// gate-based, AccQOC-like, PAQOC-like, and EPOC. The ordering of the latency
// column is the paper's headline result in miniature.
//
// Usage: compare_compilers [--trace out.json] [--deadline-ms N]
//   --trace enables the EPOC compiler's tracer and writes a Chrome
//   trace_event file (load it in chrome://tracing or https://ui.perfetto.dev)
//   with one slice per pipeline stage and per-block synthesis/GRAPE region,
//   plus cache hit/miss counters. A flat text digest is printed to stderr.
//   --deadline-ms bounds the EPOC compile's wall clock: on expiry the
//   degradation ladder ships the best schedule the budget allowed and the
//   row is marked "degraded". EPOC_FAULT_INJECT (see util/fault_injection.h)
//   is honoured, so this binary doubles as a chaos-testing harness.
//   --store DIR attaches the persistent pulse store (store/pulse_store.h) to
//   the EPOC compiler and prints its hit/miss/write counters plus a schedule
//   digest (FNV-1a of the JSON export). Run the binary twice against one
//   directory: the second run reports zero GRAPE runs and the identical
//   digest — the bit-identity check CI scripts against.
//   --verify LEVEL (off|sampled|full) enables independent output auditing
//   (src/verify/verify.h) on the EPOC compile and prints a `verify:` summary
//   line plus the schedule digest. A clean full-verify run reports zero
//   failures and the same digest as a --verify off run.
//   --corrupt-store-entries rewrites every existing store entry with zeroed
//   amplitudes but intact checksums (the post-checksum corruption only
//   re-simulation can catch) *before* compiling. Against a warm directory
//   with --verify=full, CI asserts detection (rejected/invalidated > 0) and
//   digest equality with the clean run.
//   --sweep replaces the one-shot comparison with the variational demo: a
//   QAOA angle sweep compiled incrementally through the plan cache. Prints
//   grep-friendly `sweep-*` lines — plan hits on every iteration after the
//   first, bit-identical schedules vs per-iteration fresh cold compiles
//   (warm start off), and the warm and cold sums of the `qoc.grape_iterations`
//   counter (each shipped pulse's best-iterate index, not the optimizer's
//   total iterations; see qoc::Pulse) — the assertions the CI variational
//   job scripts against.
//   --backend NAME targets a hardware backend from the built-in registry
//   (linear-5, ring-8, grid-3x3, heavy-hex-7, full-N): the EPOC compile
//   becomes topology-aware — partitions respect the coupling map, bridging
//   gates route along shortest paths, and every pulse comes from that
//   backend's edge-resolved Hamiltonians (so its library/store entries never
//   collide with another backend's).
#include "backend/backend.h"
#include "bench_circuits/generators.h"
#include "epoc/baselines.h"
#include "epoc/export.h"
#include "epoc/pipeline.h"
#include "qoc/pulse_io.h"
#include "util/fault_injection.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

namespace {

/// The --sweep variational demo: one QAOA structure, `iters` angle updates,
/// compiled incrementally. Returns non-zero when any sweep contract breaks.
int run_sweep() {
    using namespace epoc;
    constexpr int kIters = 8;
    const auto qaoa = [](int i) {
        const double gamma = 0.8 + 0.002 * i;
        const double beta = 0.4 - 0.001 * i;
        circuit::Circuit c(2);
        c.h(0).h(1);
        c.rzz(gamma, 0, 1);
        c.rx(beta, 0).rx(beta, 1);
        return c;
    };
    core::EpocOptions base;
    base.latency.fidelity_threshold = 0.99;
    base.latency.grape.max_iterations = 120;
    base.qsearch.threshold = 1e-4;
    base.qsearch.instantiate.restarts = 2;
    base.plan_cache = true;

    // Reproducible mode: warm start off, every plan hit checked bit-identical
    // against a fresh cold compile at the same angles.
    core::EpocOptions ropt = base;
    ropt.plan_warm_start = false;
    core::EpocCompiler planned(ropt);
    int hits = 0;
    bool digests_equal = true;
    std::uint64_t last_digest = 0;
    for (int i = 0; i < kIters; ++i) {
        const core::EpocResult r = planned.compile(qaoa(i));
        if (r.plan_hit) ++hits;
        core::EpocCompiler fresh(ropt);
        const core::EpocResult cold = fresh.compile(qaoa(i));
        last_digest = qoc::fnv1a64(core::schedule_to_json(r.schedule));
        digests_equal = digests_equal &&
                        last_digest == qoc::fnv1a64(core::schedule_to_json(cold.schedule));
    }

    // Warm-vs-cold `qoc.grape_iterations` for the same sweep (best-iterate
    // indices of the shipped pulses, not every iteration run): each
    // compile's trace holds its own counters, so the run's total is their sum.
    std::uint64_t grape_iters[2] = {0, 0};
    for (const bool warm : {false, true}) {
        core::EpocOptions wopt = base;
        wopt.plan_warm_start = warm;
        wopt.trace_enabled = true;
        core::EpocCompiler compiler(wopt);
        for (int i = 0; i < kIters; ++i)
            grape_iters[warm ? 1 : 0] +=
                compiler.compile(qaoa(i)).trace.counter("qoc.grape_iterations");
    }

    std::printf("sweep-iterations: %d\n", kIters);
    std::printf("sweep-plan-hits: %d/%d\n", hits, kIters - 1);
    std::printf("sweep-digest-equal: %d\n", digests_equal ? 1 : 0);
    std::printf("sweep-grape-iterations: warm=%llu cold=%llu\n",
                static_cast<unsigned long long>(grape_iters[1]),
                static_cast<unsigned long long>(grape_iters[0]));
    std::printf("sweep-warm-reduced: %d\n", grape_iters[1] < grape_iters[0] ? 1 : 0);
    std::printf("schedule-digest: %016llx\n",
                static_cast<unsigned long long>(last_digest));
    return (hits == kIters - 1 && digests_equal && grape_iters[1] < grape_iters[0])
               ? 0
               : 1;
}

} // namespace

int main(int argc, char** argv) {
    using namespace epoc;
    std::string trace_path;
    std::string store_dir;
    std::vector<std::string> pack_dirs;
    std::string backend_name;
    double deadline_ms = 0.0;
    verify::VerifyLevel verify_level = verify::VerifyLevel::unset;
    bool corrupt_store = false;
    bool sweep = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
            trace_path = argv[++i];
        } else if (std::strcmp(argv[i], "--deadline-ms") == 0 && i + 1 < argc) {
            deadline_ms = std::atof(argv[++i]);
        } else if (std::strcmp(argv[i], "--store") == 0 && i + 1 < argc) {
            store_dir = argv[++i];
        } else if (std::strcmp(argv[i], "--packs") == 0 && i + 1 < argc) {
            // Colon-separated read-only pack directories, probed in order
            // behind the local store tier (same syntax as EPOC_PULSE_PACKS).
            const std::string spec = argv[++i];
            std::size_t begin = 0;
            while (begin <= spec.size()) {
                const std::size_t end = spec.find(':', begin);
                const std::string dir = spec.substr(
                    begin, end == std::string::npos ? end : end - begin);
                if (!dir.empty()) pack_dirs.push_back(dir);
                if (end == std::string::npos) break;
                begin = end + 1;
            }
        } else if (std::strcmp(argv[i], "--verify") == 0 && i + 1 < argc) {
            try {
                verify_level = verify::level_from_name(argv[++i]);
            } catch (const std::invalid_argument&) {
                std::fprintf(stderr, "--verify wants off|sampled|full, got %s\n",
                             argv[i]);
                return 2;
            }
        } else if (std::strcmp(argv[i], "--corrupt-store-entries") == 0) {
            corrupt_store = true;
        } else if (std::strcmp(argv[i], "--sweep") == 0) {
            sweep = true;
        } else if (std::strcmp(argv[i], "--backend") == 0 && i + 1 < argc) {
            backend_name = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--trace out.json] [--deadline-ms N] [--store DIR] "
                         "[--packs DIR[:DIR...]] [--verify off|sampled|full] "
                         "[--corrupt-store-entries] [--sweep] [--backend NAME]\n",
                         argv[0]);
            return 2;
        }
    }
    std::shared_ptr<const backend::Backend> be;
    if (!backend_name.empty()) {
        backend::BackendRegistry registry;
        be = registry.find(backend_name);
        if (be == nullptr) {
            std::fprintf(stderr, "unknown backend '%s'; built-ins:",
                         backend_name.c_str());
            for (const std::string& n : registry.names())
                std::fprintf(stderr, " %s", n.c_str());
            std::fprintf(stderr, " full-N\n");
            return 2;
        }
    }
    if (corrupt_store && store_dir.empty()) {
        std::fprintf(stderr, "--corrupt-store-entries requires --store DIR\n");
        return 2;
    }
    util::fault::configure_from_env();
    if (sweep) return run_sweep();

    const circuit::Circuit c = bench::simon(2);
    std::printf("program: simon (%d qubits, %zu gates, depth %d)\n\n", c.num_qubits(),
                c.size(), c.depth());

    core::GateBasedCompiler gate;
    const core::EpocResult rg = gate.compile(c);

    core::AccqocOptions aopt;
    core::AccqocLikeCompiler accqoc(aopt);
    const core::EpocResult ra = accqoc.compile(c);

    core::PaqocLikeCompiler paqoc;
    const core::EpocResult rp = paqoc.compile(c);

    core::EpocOptions eopt;
    eopt.regroup_opt.max_qubits = 4;
    // The store line reports GRAPE-run counts, which come from the tracer.
    eopt.trace_enabled = !trace_path.empty() || !store_dir.empty();
    eopt.pulse_store_dir = store_dir;
    eopt.pulse_pack_dirs = pack_dirs;
    eopt.verify_level = verify_level;
    core::CompileCallOptions call;
    call.deadline_ms = deadline_ms;
    call.backend = be;
    if (be != nullptr)
        std::printf("backend: %s (%d qubits, %zu edges)\n\n", be->name.c_str(),
                    be->coupling.num_qubits(), be->coupling.edges().size());
    core::EpocCompiler epoc_compiler(eopt);
    if (corrupt_store && epoc_compiler.store() != nullptr) {
        const std::size_t n = epoc_compiler.store()->corrupt_all_entries_for_test();
        std::fprintf(stderr, "corrupted %zu store entries (post-checksum)\n", n);
    }
    const core::EpocResult re = epoc_compiler.compile(c, call);
    if (re.degraded) {
        std::size_t fallbacks = 0;
        for (const core::BlockReport& br : re.block_reports)
            if (!br.status.ok()) ++fallbacks;
        std::fprintf(stderr,
                     "epoc: degraded compile (%s; %zu/%zu blocks fell back%s)\n",
                     re.status.to_string().c_str(), fallbacks,
                     re.block_reports.size(), re.deadline_hit ? "; deadline hit" : "");
    }

    std::printf("%-12s %12s %10s %8s %12s\n", "flow", "latency[ns]", "fidelity",
                "pulses", "compile[ms]");
    const auto row = [](const char* name, const core::EpocResult& r) {
        std::printf("%-12s %12.1f %10.4f %8zu %12.0f\n", name, r.latency_ns, r.esp,
                    r.num_pulses, r.compile_ms);
    };
    row("gate-based", rg);
    row("accqoc-like", ra);
    row("paqoc-like", rp);
    row("epoc", re);

    std::printf("\nEPOC latency vs gate-based: %+.1f%%   vs PAQOC-like: %+.1f%%\n",
                100.0 * (re.latency_ns - rg.latency_ns) / rg.latency_ns,
                100.0 * (re.latency_ns - rp.latency_ns) / rp.latency_ns);

    if (re.store_enabled) {
        const auto& ss = re.store_stats;
        std::printf("store: hits=%zu misses=%zu writes=%zu corrupt=%zu evicted=%zu "
                    "invalidated=%zu rejected=%zu bytes=%llu grape_runs=%llu\n",
                    ss.hits, ss.misses, ss.writes, ss.corrupt, ss.evicted,
                    ss.invalidated, re.library_stats.store_rejected,
                    static_cast<unsigned long long>(ss.bytes),
                    static_cast<unsigned long long>(
                        re.trace.counter("qoc.grape_runs")));
        // Pack-tier line (grep-friendly; the cold-start-with-pack CI job
        // asserts pack_hits > 0 and suspect/denied behaviour on this line).
        std::printf("packs: open=%zu entries=%zu pack_hits=%zu denied=%zu "
                    "corrupt=%zu suspect=%zu quarantine_evicted=%zu "
                    "pack_revalidations=%zu\n",
                    ss.packs_open, ss.pack_entries, ss.pack_hits, ss.pack_denied,
                    ss.pack_corrupt, ss.pack_suspect, ss.quarantine_evicted,
                    re.verify.pack_revalidations);
    }

    if (re.verify.level >= verify::VerifyLevel::sampled) {
        // One grep-friendly line per run — the CI jobs assert on these fields.
        std::printf("verify: level=%s checks=%zu passed=%zu failed=%zu unverified=%zu "
                    "skipped=%zu revalidations=%zu rejects=%zu recomputes=%zu "
                    "budget=%.3e clean=%s\n",
                    verify::level_name(re.verify.level), re.verify.checks,
                    re.verify.passed, re.verify.failed, re.verify.unverified,
                    re.verify.skipped, re.verify.revalidations,
                    re.verify.revalidate_rejects, re.verify.recomputes,
                    re.verify.error_budget, re.verify.clean() ? "yes" : "no");
    }

    if (re.store_enabled || re.verify.level >= verify::VerifyLevel::sampled) {
        // Digest of the full JSON schedule: equal digests <=> bit-identical
        // schedules — the contract a warm (or audited, or corrupted-then-
        // recomputed) run must uphold against the clean run.
        std::printf("schedule-digest: %016llx\n",
                    static_cast<unsigned long long>(
                        qoc::fnv1a64(core::schedule_to_json(re.schedule))));
    }

    if (!trace_path.empty()) {
        std::ofstream out(trace_path);
        if (!out) {
            std::fprintf(stderr, "cannot open %s for writing\n", trace_path.c_str());
            return 1;
        }
        out << re.trace.to_chrome_json();
        std::fprintf(stderr, "\nwrote Chrome trace (%zu spans, %zu counters) to %s\n",
                     re.trace.spans.size(), re.trace.counters.size(),
                     trace_path.c_str());
        std::fputs(re.trace.summary().c_str(), stderr);
    }
    return 0;
}
