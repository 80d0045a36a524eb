// The benchmark's four workloads and the closed-loop pass they share.
#pragma once

#include "harness.h"

#include "bench_circuits/generators.h"

#include <string>
#include <vector>

namespace perfbench {

/// One workload input: the circuit and its unitary from the circuit
/// simulator, the independent reference every compile is checked against.
struct Input {
    std::string name;
    epoc::circuit::Circuit circuit{0};
    epoc::linalg::Matrix reference;
};

std::vector<Input> with_references(const std::vector<epoc::bench::NamedCircuit>& circuits);

/// One closed-loop pass: every input compiled once, in order, on one compiler.
struct Pass {
    std::vector<double> latency_ms; ///< per compile() call
    /// The pass's timed window: its compile() calls, without the checks.
    double wall_ms = 0;
    std::vector<std::uint64_t> digests;
    std::vector<double> schedule_ns, esp;
    std::size_t failed = 0;
    LayerTally tally;
    /// Cumulative cache and verify activity of the pass's compiler.
    epoc::qoc::PulseLibraryStats library;
    epoc::util::CacheStats synth;
    std::uint64_t pack_revalidations = 0;
};

/// One pass per compiler: every input compiled once on each compiler, in
/// input order and interleaved across compilers (so a traced and an untraced
/// pass see the same machine conditions), timing each call, checking each
/// result against its reference, and printing one row per compile unless
/// `rows` is false. A tracing compiler's tracer is reset before each compile.
std::vector<Pass> compile_passes(const std::vector<epoc::core::EpocCompiler*>& compilers,
                                 const std::vector<Input>& inputs, Report& report, Spans& spans,
                                 int first_index, bool rows = true);

/// End-to-end metrics of a closed loop over `passes`.
void report_closed_loop(Report& report, const std::vector<Pass>& passes, double setup_s);

/// compile() p50 over `rounds` re-compiles of every input on a compiler that
/// has already compiled them all (every pulse and synthesis a cache hit).
double warm_compile_p50(epoc::core::EpocCompiler& compiler, const std::vector<Input>& inputs,
                        int rounds, std::size_t& samples);

void run_cold_compile(const Args& args, Report& report, Spans& spans);
void run_pack_start(const Args& args, Report& report, Spans& spans);
void run_warm_serve(const Args& args, Report& report, Spans& spans);
void run_vqe_sweep(const Args& args, Report& report, Spans& spans);

} // namespace perfbench
