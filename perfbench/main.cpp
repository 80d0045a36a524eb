// perfbench: the repository's benchmark. One seeded workload per process:
//
//   perfbench --workload <cold_compile|pack_start|warm_serve|vqe_sweep>
//             --seed <n> --seconds <s> --trace <0|1> [workload settings]
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs print
// the per-layer metrics, each with the end-to-end metric it should move. Every
// output is checked against an independent reference and every workload
// proves from exact counters that it did its named work. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
// perfbench/run.py builds this binary from source and runs it.
#include "workloads.h"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

namespace {

using perfbench::Args;

[[noreturn]] void usage(const std::string& why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <cold_compile|pack_start|"
                 "warm_serve|vqe_sweep> --seed <n> --seconds <s> --trace <0|1>\n"
                 "  [--compile-threads <n>] [--serve-rate <requests/s>] "
                 "[--serve-p99-limit-ms <ms>] [--work-dir <dir>]\n",
                 why.c_str());
    std::exit(2);
}

Args parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage("missing value for " + flag);
        const std::string v = argv[++i];
        try {
            if (flag == "--workload") a.workload = v;
            else if (flag == "--seed") a.seed = std::stoull(v);
            else if (flag == "--seconds") a.seconds = std::stoi(v);
            else if (flag == "--trace") a.trace = std::stoi(v) != 0;
            else if (flag == "--compile-threads") a.compile_threads = std::stoi(v);
            else if (flag == "--serve-rate") a.serve_rate = std::stod(v);
            else if (flag == "--serve-p99-limit-ms") a.serve_p99_limit_ms = std::stod(v);
            else if (flag == "--work-dir") a.work_dir = v;
            else usage("unknown flag " + flag);
        } catch (const std::exception&) {
            usage("bad value for " + flag + ": " + v);
        }
    }
    if (a.workload.empty()) usage("--workload is required");
    if (a.seconds < 1) usage("--seconds must be at least 1");
    if (a.compile_threads < 1 || !(a.serve_rate > 0) || !(a.serve_p99_limit_ms > 0))
        usage("compile threads, rate and limit must be positive");
    if (a.compile_threads > perfbench::cores())
        usage("--compile-threads exceeds the " + std::to_string(perfbench::cores()) + " cores");
    return a;
}

} // namespace

int main(int argc, char** argv) {
    const Args args = parse(argc, argv);
    std::setvbuf(stdout, nullptr, _IOLBF, 0); // progress lines reach a pipe as they happen
    // The program sees only the generated inputs: no store, pack or verify
    // level leaks in from the environment.
    for (const char* var : {"EPOC_PULSE_STORE", "EPOC_PULSE_PACKS", "EPOC_VERIFY"})
        ::unsetenv(var);

    perfbench::Report report(args.trace);
    perfbench::Spans spans(args.trace);
    std::printf("perfbench %s seed=%llu seconds=%d trace=%d compile_threads=%d\n",
                args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, args.compile_threads);
    try {
        if (args.workload == "cold_compile") perfbench::run_cold_compile(args, report, spans);
        else if (args.workload == "pack_start") perfbench::run_pack_start(args, report, spans);
        else if (args.workload == "warm_serve") perfbench::run_warm_serve(args, report, spans);
        else if (args.workload == "vqe_sweep") perfbench::run_vqe_sweep(args, report, spans);
        else usage("unknown workload " + args.workload);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    if (args.trace) {
        const std::string path = args.work_dir + "/traces/" + args.workload + "-seed" +
                                 std::to_string(args.seed) + ".json";
        if (spans.write_chrome_json(path))
            std::printf("wrote %zu spans to %s\n", spans.size(), path.c_str());
        else
            report.fail("cannot write spans to " + path);
    }
    std::string line;
    if (!report.json_line(line)) return 1;
    std::fflush(stdout);
    std::printf("%s\n", line.c_str());
    return report.correct() ? 0 : 1;
}
