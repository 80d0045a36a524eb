// Closed-loop passes shared by the workloads: time each compile() call,
// check it, print its row, and report the end-to-end metrics of the loop.
#include "workloads.h"

#include "circuit/unitary.h"
#include "stats.h"

#include <cstdio>

namespace perfbench {

using namespace epoc;

std::vector<Input> with_references(const std::vector<bench::NamedCircuit>& circuits) {
    std::vector<Input> out;
    for (const bench::NamedCircuit& nc : circuits)
        out.push_back({nc.name, nc.circuit, circuit::circuit_unitary(nc.circuit)});
    return out;
}

std::vector<Pass> compile_passes(const std::vector<core::EpocCompiler*>& compilers,
                                 const std::vector<Input>& inputs, Report& report, Spans& spans,
                                 int first_index, bool rows) {
    std::vector<Pass> passes(compilers.size());
    std::vector<std::size_t> misses_before(compilers.size());
    std::vector<int> pass_spans;
    for (std::size_t c = 0; c < compilers.size(); ++c) {
        misses_before[c] = compilers[c]->library().stats().misses;
        pass_spans.push_back(spans.begin("pass " + std::to_string(first_index + c)));
    }
    for (std::size_t i = 0; i < inputs.size(); ++i)
        for (std::size_t c = 0; c < compilers.size(); ++c) {
            core::EpocCompiler& compiler = *compilers[c];
            Pass& pass = passes[c];
            const int index = first_index + static_cast<int>(c);
            const bool traced = compiler.tracer().enabled();
            if (traced) compiler.tracer().reset();
            const auto t0 = Clock::now();
            const core::EpocResult r = compiler.compile(inputs[i].circuit);
            const auto t1 = Clock::now();
            const double ms = ms_between(t0, t1);
            spans.add("compile " + inputs[i].name, pass_spans[c], static_cast<std::uint64_t>(i),
                      t0, t1);
            pass.latency_ms.push_back(ms);
            pass.wall_ms += ms;
            pass.digests.push_back(digest(r));
            pass.schedule_ns.push_back(r.latency_ns);
            pass.esp.push_back(r.esp);
            pass.tally.add(r);
            pass.pack_revalidations += r.verify.pack_revalidations;
            pass.library = r.library_stats;
            pass.synth = r.synth_cache_stats;
            const std::string bad = check_compile(r, inputs[i].reference);
            if (!bad.empty()) {
                ++pass.failed;
                report.fail("pass " + std::to_string(index) + " " + inputs[i].name + ": " + bad);
            }
            if (!rows) continue;
            std::printf("row pass=%d circuit=%-10s compile_ms=%9.2f zx_ms=%7.3f synth_ms=%8.2f "
                        "qoc_ms=%9.2f lib_misses=%3zu",
                        index, inputs[i].name.c_str(), ms, r.zx_ms, r.synthesis_ms, r.qoc_ms,
                        r.library_stats.misses - misses_before[c]);
            if (traced)
                std::printf(" grape_runs=%llu grape_iters=%llu",
                            static_cast<unsigned long long>(r.trace.counter("qoc.grape_runs")),
                            static_cast<unsigned long long>(
                                r.trace.counter("qoc.grape_iterations")));
            std::printf(" latency_ns=%.1f esp=%.6f digest=%016llx\n", r.latency_ns, r.esp,
                        static_cast<unsigned long long>(pass.digests.back()));
            misses_before[c] = r.library_stats.misses;
        }
    for (const int id : pass_spans) spans.end(id);
    return passes;
}

void report_closed_loop(Report& report, const std::vector<Pass>& passes, double setup_s) {
    std::vector<double> lat, sched, esp;
    double wall_ms = 0;
    std::size_t failed = 0;
    for (const Pass& p : passes) {
        lat.insert(lat.end(), p.latency_ms.begin(), p.latency_ms.end());
        sched.insert(sched.end(), p.schedule_ns.begin(), p.schedule_ns.end());
        esp.insert(esp.end(), p.esp.begin(), p.esp.end());
        wall_ms += p.wall_ms;
        failed += p.failed;
    }
    const std::size_t n = lat.size();
    report.attempted += n;
    report.failed += failed;
    report.metric("setup_s", setup_s, 1);
    report.metric("throughput_cps", 1000.0 * static_cast<double>(n) / wall_ms, n);
    report.metric("latency_ms_p50", median(lat), n);
    if (tail_eligible(n, 0.90)) report.metric("latency_ms_p90", quantile(lat, 0.90), n);
    if (tail_eligible(n, 0.99)) report.metric("latency_ms_p99", quantile(lat, 0.99), n);
    report.metric("schedule_latency_ns", geomean(sched), n);
    report.metric("esp_geomean", geomean(esp), n);
    report.metric("success_rate", static_cast<double>(n - failed) / static_cast<double>(n),
                  n);
    report.metric("peak_rss_mb", peak_rss_mb(), 1);
}

double warm_compile_p50(core::EpocCompiler& compiler, const std::vector<Input>& inputs,
                        int rounds, std::size_t& samples) {
    std::vector<double> ms;
    for (int round = 0; round < rounds; ++round)
        for (const Input& in : inputs) {
            const auto t0 = Clock::now();
            (void)compiler.compile(in.circuit);
            ms.push_back(ms_between(t0, Clock::now()));
        }
    samples = ms.size();
    return median(ms);
}

} // namespace perfbench
