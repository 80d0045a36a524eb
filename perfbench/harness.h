// Shared plumbing for the benchmark's workloads: command-line options, the
// compiler configuration every workload uses, the independent output check,
// per-layer tallies read from compile results, in-memory spans, exact-count
// records, and the report that becomes the final JSON line.
#pragma once

#include "circuit/circuit.h"
#include "epoc/pipeline.h"
#include "linalg/matrix.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Latency-search fidelity threshold of the suite options; every scheduled
/// pulse must reach it.
inline constexpr double kFidelityThreshold = 0.993;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    /// Sizes each run: the passes, iterations or arrivals a workload makes
    /// take about this long on a 4-vCPU Xeon VM, and depend on nothing else,
    /// so exact counters stay a function of (seed, seconds).
    int seconds = 20;
    bool trace = false;
    /// EpocOptions::num_threads of the closed-loop compilers.
    int compile_threads = 1;
    /// warm_serve: nominal offered rate [requests/s] and the p99 latency
    /// limit [ms] the rate search holds each step to.
    double serve_rate = 2000.0;
    double serve_p99_limit_ms = 25.0;
    /// Scratch space (stores, packs, socket, count records, traces); a
    /// relative path keeps the daemon's socket path short.
    std::string work_dir = ".bench_build/run";
};

/// The suite options of the paper's figure benches (fidelity 0.993, 150
/// GRAPE iterations, QSearch threshold 1e-4), verification off, untraced.
epoc::core::EpocOptions suite_options(int threads);

/// FNV-1a of the schedule's JSON export: the schedule identity epocd reports.
std::uint64_t digest(const epoc::core::EpocResult& r);

/// Independent output check of one compile: status ok and not degraded, the
/// synthesized circuit implements `reference` (the input's unitary from the
/// circuit simulator) up to global phase, and every scheduled pulse reaches
/// the latency-search threshold. Empty string when it passes.
std::string check_compile(const epoc::core::EpocResult& r,
                          const epoc::linalg::Matrix& reference);

/// Per-layer work read from compile results: stage times and structure from
/// EpocResult, work counters from the compiler's trace (traced compiles
/// only; the caller resets the tracer between compiles).
struct LayerTally {
    std::size_t compiles = 0;
    double compile_ms = 0, zx_ms = 0, synthesis_ms = 0, qoc_ms = 0;
    double fine_arm_ms = 0, grouped_arm_ms = 0;
    double depth_original = 0, depth_after_zx = 0;
    std::uint64_t blocks = 0, regroup_blocks = 0, grouped_wins = 0;
    std::uint64_t grape_runs = 0, grape_iterations = 0, warm_starts = 0;
    std::uint64_t blocks_replaced = 0, blocks_kept = 0;
    std::uint64_t plan_hits = 0;

    void add(const epoc::core::EpocResult& r);
};

/// In-memory spans (name, start, end, causing span, request id) around the
/// benchmark's calls into the program, written out as Chrome trace JSON at
/// the end of a traced run. Disabled recorders ignore every call.
class Spans {
public:
    explicit Spans(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
    bool enabled() const { return enabled_; }
    /// Record a finished span; returns its id (0 when disabled). `parent` 0
    /// means no causing span.
    int add(std::string name, int parent, std::uint64_t request, Clock::time_point begin,
            Clock::time_point end);
    /// Open a span now (its children can name it as parent); end() closes it.
    int begin(std::string name, int parent = 0, std::uint64_t request = 0) {
        const auto now = Clock::now();
        return add(std::move(name), parent, request, now, now);
    }
    void end(int id);
    std::size_t size() const { return spans_.size(); }
    bool write_chrome_json(const std::string& path) const;

private:
    struct Span {
        std::string name;
        int id = 0, parent = 0;
        std::uint64_t request = 0;
        double begin_us = 0, end_us = 0;
    };
    bool enabled_;
    Clock::time_point epoch_;
    std::vector<Span> spans_;
};

using Counts = std::vector<std::pair<std::string, std::uint64_t>>;

/// Outcome of one run: operations attempted and failed, failed gates and
/// checks, and the metrics the final JSON line carries.
class Report {
public:
    explicit Report(bool trace) : trace_(trace) {}

    /// Print one metric line with its unit and per-run sample count, and keep
    /// it for the JSON line when the run's metric list names it. Per-layer
    /// metrics print the end-to-end metric and workload they should move.
    /// Every name is in the benchmark's metric tables, which give its unit.
    void metric(const std::string& name, double value, std::size_t samples);
    /// A failed gate or check: printed, and the run is not correct.
    void fail(const std::string& why);
    /// Gate helper: fail(what) unless ok.
    void require(bool ok, const std::string& what) {
        if (!ok) fail(what);
    }
    /// Print exact work counters and fail when an earlier run of the same
    /// binary, workload, seed, length and trace mode recorded different ones.
    void exact_counts(const Args& args, const std::string& label, const Counts& counts);

    std::size_t attempted = 0;
    std::size_t failed = 0;

    bool correct() const { return failures_ == 0 && failed == 0; }
    /// The final line: {"correct", "attempted", "failed", "metrics"} with every
    /// metric of the run's list; false when one is missing or not finite.
    bool json_line(std::string& out) const;

private:
    bool trace_;
    std::size_t failures_ = 0;
    std::map<std::string, double> metrics_;
};

/// Cores of this machine: every workload's threads and connections fit in them.
int cores();

/// Peak resident set of this process [MiB] (VmHWM).
double peak_rss_mb();

/// Time `fn` over repeated calls until about `budget_ms` has passed, in
/// batches; returns the median per-call time of the batches in microseconds.
template <class Fn>
double time_per_call_us(Fn&& fn, double budget_ms = 60.0) {
    constexpr int kBatches = 7;
    int reps = 1;
    for (;;) { // calibrate: one batch takes about budget / kBatches
        const auto t0 = Clock::now();
        for (int i = 0; i < reps; ++i) fn();
        if (ms_between(t0, Clock::now()) >= budget_ms / kBatches || reps >= (1 << 24))
            break;
        reps *= 2;
    }
    std::vector<double> per_call;
    for (int b = 0; b < kBatches; ++b) {
        const auto t0 = Clock::now();
        for (int i = 0; i < reps; ++i) fn();
        per_call.push_back(ms_between(t0, Clock::now()) * 1000.0 / reps);
    }
    std::sort(per_call.begin(), per_call.end());
    return per_call[kBatches / 2];
}

/// Kernel-level probes every traced run takes: one call into each layer on
/// fixed inputs (matrix exponential and product, GRAPE iterations, one
/// QSearch of a fixed 3-qubit block, the service codec on `qasm`).
void run_layer_probes(Report& report, Spans& spans, const std::string& qasm);

/// Print the per-layer metrics derived from a tally of one pass of the
/// workload (its unit of work: a suite pass, a sweep, a mix pass).
void report_tally(Report& report, const LayerTally& t,
                  const epoc::qoc::PulseLibraryStats& library,
                  const epoc::util::CacheStats& synth, std::uint64_t pack_hits,
                  std::uint64_t pack_revalidations);

} // namespace perfbench
