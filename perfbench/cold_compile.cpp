// cold_compile: the paper's Fig. 9 first-compile cost. Closed loop, one
// caller. Each pass is a fresh EpocCompiler (empty pulse library, synthesis
// cache and plan cache; no store) compiling ten circuits, one from each
// GRAPE-dominated family, so every distinct block runs a GRAPE latency search.
#include "workloads.h"

#include "circuit/qasm.h"
#include "qoc/pulse_io.h"
#include "stats.h"

#include <cstdio>
#include <random>

namespace perfbench {

using namespace epoc;

namespace {

/// One pass at one compile thread takes about this long on a 4-vCPU Xeon VM;
/// a run makes as many whole passes as --seconds holds (>= 1).
constexpr double kPassSeconds = 21.0;
constexpr int kSetupRepeats = 25;

/// Ten circuits, one per family. The seed draws only discrete parameters,
/// each from a list screened for equal GRAPE work: the GHZ width (4 and 5
/// qubits run the same latency searches; only the schedule differs), the BV
/// secret (two set bits), the Simon period (one set bit) and the BB84 bases.
/// The fixed-seed dnn/vqe angles and the order never change.
std::vector<bench::NamedCircuit> cold_circuits(std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    constexpr std::uint64_t kTwoBits[] = {3, 5, 6};
    constexpr std::uint64_t kOneBit[] = {1, 2, 4};
    const int ghz_width = rng() % 2 ? 5 : 4;
    const std::uint64_t secret = kTwoBits[rng() % std::size(kTwoBits)];
    const std::uint64_t period = kOneBit[rng() % std::size(kOneBit)];
    const std::uint64_t bases = rng();
    return {
        {"ghz" + std::to_string(ghz_width), bench::ghz(ghz_width)},
        {"bell4", bench::bell_pairs(4)},
        {"bv4_s" + std::to_string(secret), bench::bv(4, secret)},
        {"simon3_s" + std::to_string(period), bench::simon(3, period)},
        {"bb84_5", bench::bb84(5, bases)},
        {"decod24", bench::decod24()},
        {"dnn3", bench::dnn(3, 1)},
        {"vqe4", bench::vqe(4, 1)},
        {"wstate3", bench::wstate(3)},
        {"ham7", bench::ham7()},
    };
}

/// Gates proving a pass compiled cold: no store behind the library, and a
/// library miss (one GRAPE latency search) for every distinct block.
void check_cold_pass(Report& report, core::EpocCompiler& compiler, const Pass& pass, int index,
                     bool traced) {
    const std::string tag = "cold_compile pass " + std::to_string(index) + ": ";
    report.require(compiler.store() == nullptr, tag + "a pulse store is attached");
    report.require(pass.library.misses > 0, tag + "no pulse-library miss");
    report.require(pass.library.misses == compiler.library().size(),
                   tag + "library misses (" + std::to_string(pass.library.misses) +
                       ") != distinct blocks cached (" +
                       std::to_string(compiler.library().size()) + ")");
    if (traced) report.require(pass.tally.grape_runs > 0, tag + "qoc.grape_runs == 0");
}

Counts pass_counts(const Pass& p, bool traced) {
    const std::uint64_t digest_of_pass =
        qoc::fnv1a64(p.digests.data(), p.digests.size() * sizeof(std::uint64_t));
    Counts c = {{"qoc.library_misses", p.library.misses},
                {"qoc.library_hits", p.library.hits},
                {"synthesis.runs", p.synth.misses},
                {"plan.hits", p.tally.plan_hits},
                {"schedule_digest", digest_of_pass}};
    if (traced) {
        c.push_back({"qoc.grape_runs", p.tally.grape_runs});
        c.push_back({"qoc.grape_iterations", p.tally.grape_iterations});
    }
    return c;
}

} // namespace

void run_cold_compile(const Args& args, Report& report, Spans& spans) {
    core::EpocOptions opt = suite_options(args.compile_threads);

    // Set-up: inputs, their reference unitaries and the compiler, repeated so
    // the reported set-up time is a median.
    std::vector<double> setup_s;
    std::vector<Input> inputs;
    std::unique_ptr<core::EpocCompiler> compiler;
    for (int i = 0; i < kSetupRepeats; ++i) {
        const auto t0 = Clock::now();
        inputs = with_references(cold_circuits(args.seed));
        compiler = std::make_unique<core::EpocCompiler>(opt);
        setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    }
    std::printf("inputs:");
    for (const Input& in : inputs) std::printf(" %s", in.name.c_str());
    std::printf("\n");

    if (!args.trace) {
        const int passes = std::max(1, static_cast<int>(args.seconds / kPassSeconds));
        std::vector<Pass> done;
        for (int p = 0; p < passes; ++p) {
            if (p > 0) compiler = std::make_unique<core::EpocCompiler>(opt);
            done.push_back(compile_passes({compiler.get()}, inputs, report, spans, p).front());
            check_cold_pass(report, *compiler, done.back(), p, false);
            const Counts counts = pass_counts(done.back(), false);
            if (p > 0)
                report.require(counts == pass_counts(done.front(), false),
                               "cold_compile pass " + std::to_string(p) +
                                   " counts differ from pass 0");
        }
        report.exact_counts(args, "pass", pass_counts(done.front(), false));
        report_closed_loop(report, done, median(setup_s));
        return;
    }

    // Traced run: an untraced pass, the baseline for trace_overhead, and a
    // traced pass (fresh compiler, tracer reset per compile) giving the
    // layers, interleaved circuit by circuit.
    opt.trace_enabled = true;
    core::EpocCompiler traced_compiler(opt);
    const std::vector<Pass> both =
        compile_passes({compiler.get(), &traced_compiler}, inputs, report, spans, 0);
    const Pass& untraced = both[0];
    const Pass& traced = both[1];
    check_cold_pass(report, *compiler, untraced, 0, false);
    check_cold_pass(report, traced_compiler, traced, 1, true);
    report.require(pass_counts(traced, false) == pass_counts(untraced, false),
                   "cold_compile traced pass counts differ from the untraced pass");
    report.exact_counts(args, "traced-pass", pass_counts(traced, true));
    report.attempted += untraced.latency_ms.size() + traced.latency_ms.size();
    report.failed += untraced.failed + traced.failed;

    report_tally(report, traced.tally, traced.library, traced.synth, 0, 0);
    std::size_t warm_n = 0;
    const double warm_ms = warm_compile_p50(*compiler, inputs, 3, warm_n);
    report.metric("pipeline.warm_compile_ms", warm_ms, warm_n);
    report.metric("store.pack_bytes", 0, 0);
    report.metric("trace_overhead", traced.wall_ms / untraced.wall_ms, 2);
    run_layer_probes(report, spans, circuit::to_qasm(inputs.front().circuit));
}

} // namespace perfbench
