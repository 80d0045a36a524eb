// Backend matrix: one workload compiled against each built-in hardware
// backend, through one shared persistent pulse store.
//
// Each backend gets two runs with a fresh compiler each (empty in-memory
// library), both attached to the SAME store directory:
//
//   run 1 (cold)  — must see ZERO store hits even though earlier backends
//                   already populated the directory: the backend name is
//                   part of every store key, so entries never leak across
//                   devices (a linear-5 pulse replayed on heavy-hex-7 would
//                   be silently wrong — different couplers, different
//                   Hamiltonian);
//   run 2 (warm)  — must hit the store and reproduce run 1's schedule
//                   digest bit-for-bit: per-backend persistence still works.
//
// Across backends the digests must be pairwise distinct — the same circuit
// maps to genuinely different pulse programs on different topologies.
//
// Prints one grep-friendly `backend-row:` line per device plus a final
// `bench-backends-ok:` verdict (the CI backend-matrix job asserts on it);
// exit 0 iff every contract held.
//
// Usage: bench_backends [--store DIR]   (default: scratch dir under /tmp,
// wiped on start so every cold run is genuinely cold)
#include "backend/backend.h"
#include "bench_circuits/generators.h"
#include "epoc/export.h"
#include "epoc/pipeline.h"
#include "qoc/pulse_io.h"

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
        dir = (fs::temp_directory_path() / "epoc-bench-backends").string();
    std::error_code ec;
    fs::remove_all(dir, ec); // cold means cold

    // GHZ-4 is topology-sensitive on purpose: its CX chain is adjacent on
    // linear-5 but needs bridging on grid-3x3 and heavy-hex-7, so the
    // partitioner's routing actually runs.
    const circuit::Circuit c = bench::ghz(4);
    const std::vector<std::string> devices = {"linear-5", "ring-8", "grid-3x3",
                                              "heavy-hex-7"};
    std::printf("backend matrix: ghz(4) on %zu devices (shared store: %s)\n\n",
                devices.size(), dir.c_str());

    backend::BackendRegistry registry;
    core::EpocOptions base;
    base.latency.fidelity_threshold = 0.99;
    base.latency.grape.max_iterations = 120;
    base.qsearch.threshold = 1e-4;
    base.qsearch.instantiate.restarts = 2;
    base.pulse_store_dir = dir;

    struct Row {
        std::string name;
        core::EpocResult cold;
        std::uint64_t digest_cold = 0;
        std::uint64_t digest_warm = 0;
        std::size_t cold_hits = 0;
        std::size_t warm_hits = 0;
    };
    std::vector<Row> rows;

    for (const std::string& name : devices) {
        core::CompileCallOptions call;
        call.backend = registry.find(name);
        if (call.backend == nullptr) {
            std::fprintf(stderr, "registry lost built-in '%s'\n", name.c_str());
            return 1;
        }
        Row row;
        row.name = name;
        {
            core::EpocCompiler cold(base);
            row.cold = cold.compile(c, call);
            row.digest_cold = qoc::fnv1a64(core::schedule_to_json(row.cold.schedule));
            row.cold_hits = row.cold.store_stats.hits;
        }
        {
            core::EpocCompiler warm(base); // fresh library, same directory
            const core::EpocResult r = warm.compile(c, call);
            row.digest_warm = qoc::fnv1a64(core::schedule_to_json(r.schedule));
            row.warm_hits = r.store_stats.hits;
        }
        rows.push_back(std::move(row));
    }

    bool ok = true;
    std::size_t best = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        const bool cold_isolated = r.cold_hits == 0;
        const bool warm_hit = r.warm_hits > 0;
        const bool stable = r.digest_cold == r.digest_warm;
        ok = ok && cold_isolated && warm_hit && stable && !r.cold.degraded;
        if (r.cold.latency_ns < rows[best].cold.latency_ns) best = i;
        std::printf("backend-row: %-12s latency=%.1f esp=%.4f compile_ms=%.0f "
                    "digest=%016llx cold_hits=%zu warm_hits=%zu stable=%d\n",
                    r.name.c_str(), r.cold.latency_ns, r.cold.esp,
                    r.cold.compile_ms,
                    static_cast<unsigned long long>(r.digest_cold), r.cold_hits,
                    r.warm_hits, stable ? 1 : 0);
    }

    bool distinct = true;
    for (std::size_t i = 0; i < rows.size(); ++i)
        for (std::size_t j = i + 1; j < rows.size(); ++j)
            if (rows[i].digest_cold == rows[j].digest_cold) {
                distinct = false;
                std::printf("backend-digest-collision: %s == %s\n",
                            rows[i].name.c_str(), rows[j].name.c_str());
            }
    ok = ok && distinct;

    std::printf("\nbackend-digests-distinct: %d\n", distinct ? 1 : 0);
    std::printf("backend-winner: %s (%.1f ns)\n", rows[best].name.c_str(),
                rows[best].cold.latency_ns);
    std::printf("bench-backends-ok: %d\n", ok ? 1 : 0);
    return ok ? 0 : 1;
}
