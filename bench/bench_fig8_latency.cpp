// Figure 8: circuit latency with and without the regrouping step.
// Paper: grouping shortens latency on every benchmark; average pulse-latency
// reduction 51.11%.
#include "suite_common.h"

int main(int argc, char** argv) {
    using namespace epoc::benchharness;
    std::printf("Figure 8: pulse latency with vs without grouping (17 benchmarks)\n");
    const std::vector<SuiteRow> rows = run_grouping_suite(trace_arg(argc, argv));
    std::printf("%-10s %14s %14s %10s\n", "circuit", "grouped[ns]", "no-group[ns]",
                "reduction");
    double red_sum = 0.0;
    int wins = 0;
    int ties = 0;
    for (const SuiteRow& r : rows) {
        const double red =
            100.0 * (r.ungrouped.latency_ns - r.grouped.latency_ns) / r.ungrouped.latency_ns;
        red_sum += red;
        wins += r.grouped.latency_ns < r.ungrouped.latency_ns;
        ties += r.grouped.latency_ns == r.ungrouped.latency_ns;
        std::printf("%-10s %14.1f %14.1f %9.1f%%\n", r.name.c_str(), r.grouped.latency_ns,
                    r.ungrouped.latency_ns, red);
    }
    std::printf("\ngrouping shorter on %d/%zu benchmarks, tied on %d; average latency "
                "reduction %.2f%% (paper: all, 51.11%%)\n",
                wins, rows.size(), ties, red_sum / static_cast<double>(rows.size()));
    return 0;
}
