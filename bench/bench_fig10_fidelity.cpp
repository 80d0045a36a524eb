// Figure 10: circuit fidelity (ESP, Eq. 3) with and without grouping.
// Paper: fidelities with grouping are generally higher because fewer, larger
// pulses accumulate less error; average improvement 33.77%.
#include "suite_common.h"

int main(int argc, char** argv) {
    using namespace epoc::benchharness;
    std::printf("Figure 10: circuit fidelity with vs without grouping (17 benchmarks)\n");
    const std::vector<SuiteRow> rows = run_grouping_suite(trace_arg(argc, argv));
    std::printf("%-10s %12s %12s %12s\n", "circuit", "grouped", "no-group", "improvement");
    double imp_sum = 0.0;
    int wins = 0;
    int ties = 0;
    for (const SuiteRow& r : rows) {
        const double imp = 100.0 * (r.grouped.esp - r.ungrouped.esp) / r.ungrouped.esp;
        imp_sum += imp;
        wins += r.grouped.esp > r.ungrouped.esp;
        ties += r.grouped.esp == r.ungrouped.esp;
        std::printf("%-10s %12.4f %12.4f %11.1f%%\n", r.name.c_str(), r.grouped.esp,
                    r.ungrouped.esp, imp);
    }
    std::printf("\ngrouping higher fidelity on %d/%zu benchmarks, tied on %d; average "
                "improvement %.2f%% (paper: generally higher, avg 33.77%%)\n",
                wins, rows.size(), ties, imp_sum / static_cast<double>(rows.size()));
    return 0;
}
