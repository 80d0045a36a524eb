// Persistent pulse store: cold-vs-warm-vs-packed compile time on the
// Figure 9 workload.
//
// Pass 1 ("cold") compiles the 17-benchmark suite with an empty store
// directory attached: every pulse is GRAPE-generated and written back. Pass 2
// ("warm") repeats the sweep with a brand-new compiler — empty in-memory
// library — against the now-populated directory: every pulse promotes from
// disk, so the remaining compile time is ZX + synthesis + scheduling. Pass 3
// ("packed") folds the warm store into a single immutable pack segment
// (store/pack.h), mounts it behind a COMPLETELY EMPTY store directory, and
// sweeps again: the cost a fresh machine pays when it cold-starts from a
// shipped warm library — pack probe + mandatory foreign re-simulation
// instead of GRAPE.
//
// Each row also cross-checks the contract the tests enforce: the warm and
// packed runs do zero GRAPE runs and their schedule digests (FNV-1a of the
// JSON export) are bit-identical to the cold run's.
//
// Usage: bench_store [--store DIR]   (default: a scratch dir under /tmp,
// wiped on start so the cold pass is genuinely cold)
#include "bench_circuits/generators.h"
#include "epoc/export.h"
#include "epoc/pipeline.h"
#include "qoc/pulse_io.h"
#include "store/pack.h"
#include "store/pulse_store.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

int main(int argc, char** argv) {
    using namespace epoc;
    namespace fs = std::filesystem;

    std::string dir;
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], "--store") == 0) dir = argv[i + 1];
    if (dir.empty())
        dir = (fs::temp_directory_path() / "epoc-bench-store").string();
    std::error_code ec;
    fs::remove_all(dir, ec); // cold means cold
    std::printf("persistent pulse store: cold vs warm vs packed compile "
                "(store: %s)\n\n",
                dir.c_str());

    core::EpocOptions opt;
    opt.latency.fidelity_threshold = 0.993;
    opt.latency.grape.max_iterations = 150;
    opt.qsearch.threshold = 1e-4;
    opt.trace_enabled = true; // for the grape_runs cross-check
    opt.pulse_store_dir = dir;

    struct Row {
        std::string name;
        double cold_ms = 0.0;
        double warm_ms = 0.0;
        double packed_ms = 0.0;
        std::uint64_t digest_cold = 0;
        std::uint64_t digest_warm = 0;
        std::uint64_t digest_packed = 0;
        std::uint64_t warm_grape_runs = 0;
        std::uint64_t packed_grape_runs = 0;
    };
    std::vector<Row> rows;

    const std::vector<bench::NamedCircuit> suite = bench::figure_suite();

    {
        core::EpocCompiler cold(opt);
        for (const bench::NamedCircuit& nc : suite) {
            std::fprintf(stderr, "  cold   %-10s...\n", nc.name.c_str());
            const core::EpocResult r = cold.compile(nc.circuit);
            Row row;
            row.name = nc.name;
            row.cold_ms = r.compile_ms;
            row.digest_cold = qoc::fnv1a64(core::schedule_to_json(r.schedule));
            rows.push_back(std::move(row));
        }
    } // the cold compiler's in-memory library dies here; the directory stays

    {
        core::EpocCompiler warm(opt);
        for (std::size_t i = 0; i < rows.size(); ++i) {
            std::fprintf(stderr, "  warm   %-10s...\n", rows[i].name.c_str());
            const core::EpocResult r = warm.compile(suite[i].circuit);
            rows[i].warm_ms = r.compile_ms;
            rows[i].digest_warm = qoc::fnv1a64(core::schedule_to_json(r.schedule));
            rows[i].warm_grape_runs = r.trace.counter("qoc.grape_runs");
        }
    }

    // Fold the warm store into one pack, mount it behind an empty local dir.
    const fs::path pack_dir = fs::path(dir + "-packs");
    const fs::path fresh_dir = fs::path(dir + "-fresh");
    fs::remove_all(pack_dir, ec);
    fs::remove_all(fresh_dir, ec);
    fs::create_directories(pack_dir);
    {
        std::vector<fs::path> files;
        for (const auto& e : fs::directory_iterator(dir))
            if (e.is_regular_file() && e.path().extension() == ".pulse")
                files.push_back(e.path());
        std::sort(files.begin(), files.end());
        std::vector<store::PackEntry> entries;
        for (const fs::path& p : files)
            if (auto pe = store::PulseStore::read_entry_file(p))
                entries.push_back(std::move(*pe));
        const std::size_t count = entries.size();
        if (!store::write_pack(pack_dir / "warm.pack", std::move(entries))) {
            std::fprintf(stderr, "bench_store: pack fold failed\n");
            return 1;
        }
        std::printf("packed %zu warm entries into %s\n\n", count,
                    (pack_dir / "warm.pack").string().c_str());
    }

    std::uint64_t pack_hits = 0;
    {
        core::EpocOptions popt = opt;
        popt.pulse_store_dir = fresh_dir.string();
        popt.pulse_pack_dirs = {pack_dir.string()};
        core::EpocCompiler packed(popt);
        for (std::size_t i = 0; i < rows.size(); ++i) {
            std::fprintf(stderr, "  packed %-10s...\n", rows[i].name.c_str());
            const core::EpocResult r = packed.compile(suite[i].circuit);
            rows[i].packed_ms = r.compile_ms;
            rows[i].digest_packed =
                qoc::fnv1a64(core::schedule_to_json(r.schedule));
            rows[i].packed_grape_runs = r.trace.counter("qoc.grape_runs");
            pack_hits = r.store_stats.pack_hits; // cumulative for the store
        }
    }

    std::printf("%-10s %10s %10s %10s %8s %11s %10s\n", "circuit", "cold[ms]",
                "warm[ms]", "packed[ms]", "speedup", "grape-runs", "identical");
    double total_cold = 0.0, total_warm = 0.0, total_packed = 0.0;
    bool all_identical = true, all_grape_free = true;
    for (const Row& r : rows) {
        const bool same =
            r.digest_cold == r.digest_warm && r.digest_cold == r.digest_packed;
        all_identical = all_identical && same;
        all_grape_free = all_grape_free && r.warm_grape_runs == 0 &&
                         r.packed_grape_runs == 0;
        total_cold += r.cold_ms;
        total_warm += r.warm_ms;
        total_packed += r.packed_ms;
        std::printf("%-10s %10.0f %10.0f %10.0f %7.1fx %11llu %10s\n",
                    r.name.c_str(), r.cold_ms, r.warm_ms, r.packed_ms,
                    r.cold_ms / std::max(r.warm_ms, 1e-9),
                    static_cast<unsigned long long>(r.warm_grape_runs +
                                                    r.packed_grape_runs),
                    same ? "yes" : "NO");
    }
    std::printf("\ntotal: cold %.1fs vs warm %.1fs vs packed %.1fs; pack hits "
                "%llu; warm+packed GRAPE-free: %s; bit-identical: %s\n",
                total_cold / 1000.0, total_warm / 1000.0, total_packed / 1000.0,
                static_cast<unsigned long long>(pack_hits),
                all_grape_free ? "yes" : "NO", all_identical ? "yes" : "NO");
    return (all_identical && all_grape_free) ? 0 : 1;
}
