// Shared harness for the Figure 8/9/10 benches: run the 17-benchmark suite
// through the EPOC pipeline with and without the regrouping step, once, and
// report rows. Each figure binary prints its own column of the same sweep.
//
// Passing `--trace <file>` to a figure binary (forwarded here through
// `trace_arg`) enables the tracer on both compiler arms and writes one pair
// of Chrome trace_event JSON files per circuit, since each compile carries
// its own trace: the grouped arm to <file>.<circuit>.json, the no-grouping
// arm to <file>.<circuit>.nogroup.json.
#pragma once

#include "bench_circuits/generators.h"
#include "epoc/pipeline.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

namespace epoc::benchharness {

struct SuiteRow {
    std::string name;
    core::EpocResult grouped;
    core::EpocResult ungrouped;
};

/// Extract the value of `--trace <file>` from argv; empty when absent.
inline std::string trace_arg(int argc, char** argv) {
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], "--trace") == 0) return argv[i + 1];
    return {};
}

inline core::EpocOptions suite_options(bool regroup, bool trace = false) {
    core::EpocOptions opt;
    opt.regroup_enabled = regroup;
    opt.trace_enabled = trace;
    opt.latency.fidelity_threshold = 0.993;
    opt.latency.grape.max_iterations = 150;
    opt.qsearch.threshold = 1e-4;
    return opt;
}

inline void write_trace(const core::EpocResult& r, const std::string& path) {
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
        return;
    }
    out << r.trace.to_chrome_json();
    std::fprintf(stderr, "wrote Chrome trace (%zu spans, %zu counters) to %s\n",
                 r.trace.spans.size(), r.trace.counters.size(), path.c_str());
}

inline std::vector<SuiteRow> run_grouping_suite(const std::string& trace_path = {}) {
    const bool trace = !trace_path.empty();
    std::vector<SuiteRow> rows;
    // One compiler per arm: pulse libraries persist across circuits, exactly
    // like the paper's reusable pulse database. Traces do not: each compile's
    // trace covers that call alone, so each circuit writes its own pair.
    core::EpocCompiler grouped(suite_options(true, trace));
    core::EpocCompiler ungrouped(suite_options(false, trace));
    for (const auto& [name, circuit] : bench::figure_suite()) {
        SuiteRow row;
        row.name = name;
        std::fprintf(stderr, "  compiling %-10s (grouped)...\n", name.c_str());
        row.grouped = grouped.compile(circuit);
        std::fprintf(stderr, "  compiling %-10s (no grouping)...\n", name.c_str());
        row.ungrouped = ungrouped.compile(circuit);
        if (trace) {
            write_trace(row.grouped, trace_path + "." + name + ".json");
            write_trace(row.ungrouped, trace_path + "." + name + ".nogroup.json");
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

} // namespace epoc::benchharness
