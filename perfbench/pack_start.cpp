// pack_start: a fresh machine starting from a shipped pulse library. Set-up
// cold-compiles a screened list of synthesis-dominated circuits into a fresh
// store directory and folds it into one pack (store::write_pack). Each timed
// pass is a fresh compiler plus an empty local store with that pack mounted,
// compiling the same circuits: GRAPE does nothing, QSearch re-runs every
// block (the synthesis cache is memory-only), and every pulse crosses the
// pack probe and the mandatory foreign re-simulation.
#include "workloads.h"

#include "circuit/qasm.h"
#include "qoc/grape.h"
#include "qoc/hamiltonian.h"
#include "qoc/pulse_io.h"
#include "store/pack.h"
#include "store/pulse_store.h"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <algorithm>
#include <map>
#include <random>

namespace perfbench {

namespace fs = std::filesystem;
using namespace epoc;

namespace {

/// One pass takes about this long on a 4-vCPU Xeon VM; a run makes as many
/// whole passes as --seconds holds, and at least two.
constexpr double kPassSeconds = 7.0;

/// Two synthesis-dominated instances with fixed angles (qaoa4 and ising5,
/// which share no blocks), plus one small two-qubit-block circuit drawn by
/// the seed (bell4 or simon2, equal work, different schedule latency). The
/// seed also draws the order.
std::vector<bench::NamedCircuit> pack_circuits(std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<bench::NamedCircuit> out = {
        {"qaoa4", bench::qaoa(4, 1)},
        {"ising5", bench::ising(5, 1)},
        rng() % 2 ? bench::NamedCircuit{"bell4", bench::bell_pairs(4)}
                  : bench::NamedCircuit{"simon2", bench::simon(2, 1)},
    };
    std::shuffle(out.begin(), out.end(), rng);
    return out;
}

struct PackFile {
    fs::path dir;
    fs::path path;
    double write_ms = 0;
    std::uintmax_t bytes = 0;
    std::size_t entries = 0;
};

/// Fold every loose entry of `store_dir` into one pack, timing write_pack.
PackFile fold_store(const fs::path& store_dir, const fs::path& pack_dir, Report& report) {
    PackFile pack{pack_dir, pack_dir / "library.pack"};
    std::vector<fs::path> files;
    for (const auto& e : fs::directory_iterator(store_dir))
        if (e.is_regular_file() && e.path().extension() == ".pulse") files.push_back(e.path());
    std::sort(files.begin(), files.end());
    std::vector<store::PackEntry> entries;
    for (const fs::path& f : files)
        if (auto entry = store::PulseStore::read_entry_file(f))
            entries.push_back(std::move(*entry));
    pack.entries = entries.size();
    fs::create_directories(pack_dir);
    std::string error;
    const auto t0 = Clock::now();
    const bool ok = store::write_pack(pack.path, std::move(entries), &error);
    pack.write_ms = ms_between(t0, Clock::now());
    report.require(ok, "pack_start: write_pack failed: " + error);
    report.require(pack.entries > 0, "pack_start: the set-up store holds no entries");
    std::error_code ec;
    pack.bytes = fs::file_size(pack.path, ec);
    return pack;
}

/// Per-entry layer probes on the shipped pack: index lookup, payload decode
/// and the forward re-simulation every pack hit pays.
void pack_probes(Report& report, Spans& spans, const PackFile& pack) {
    std::vector<std::pair<std::string, std::string>> entries;
    const std::shared_ptr<store::PackReader> reader = store::PackReader::open(pack.path);
    report.require(reader != nullptr, "pack_start: the pack does not open");
    if (reader == nullptr) return;
    reader->for_each([&](const std::string& key, const std::string& payload) {
        entries.emplace_back(key, payload);
        return true;
    });
    std::vector<qoc::LatencyResult> decoded;
    for (const auto& e : entries)
        if (auto r = qoc::decode_latency_result(e.second)) decoded.push_back(std::move(*r));
    report.require(decoded.size() == entries.size(), "pack_start: a pack payload does not decode");
    if (entries.empty() || decoded.size() != entries.size()) return;

    std::size_t i = 0;
    auto t0 = Clock::now();
    const double find_us = time_per_call_us([&] {
        (void)reader->find(entries[i++ % entries.size()].first);
    });
    spans.add("probe pack find", 0, 0, t0, Clock::now());
    t0 = Clock::now();
    const double decode_us = time_per_call_us([&] {
        (void)qoc::decode_latency_result(entries[i++ % entries.size()].second);
    });
    spans.add("probe pack decode", 0, 0, t0, Clock::now());
    // Block Hamiltonian of each pulse, recognised by its control-line count.
    std::map<std::size_t, qoc::BlockHamiltonian> hams;
    for (int nq = 1; nq <= 4; ++nq) {
        qoc::BlockHamiltonian h = qoc::make_block_hamiltonian(nq);
        hams.emplace(h.controls.size(), std::move(h));
    }
    t0 = Clock::now();
    const double resim_us = time_per_call_us([&] {
        const qoc::Pulse& p = decoded[i++ % decoded.size()].pulse;
        (void)qoc::pulse_unitary(hams.at(p.amplitudes.size()), p);
    });
    spans.add("probe pack resim", 0, 0, t0, Clock::now());
    report.metric("store.pack_write_ms", pack.write_ms, 1);
    report.metric("store.pack_find_us", find_us, entries.size());
    report.metric("store.decode_us", decode_us, entries.size());
    report.metric("verify.resim_us", resim_us, decoded.size());
}

} // namespace

void run_pack_start(const Args& args, Report& report, Spans& spans) {
    const fs::path work = fs::path(args.work_dir) / ("pack_start-" + std::to_string(getpid()));
    fs::remove_all(work);
    const core::EpocOptions base = suite_options(args.compile_threads);

    // Set-up: cold compile into a fresh store, then fold the store into a pack.
    const auto setup_begin = Clock::now();
    const std::vector<Input> inputs = with_references(pack_circuits(args.seed));
    std::printf("inputs:");
    for (const Input& in : inputs) std::printf(" %s", in.name.c_str());
    std::printf("\n");
    core::EpocOptions fill = base;
    fill.pulse_store_dir = (work / "fill-store").string();
    Pass cold;
    {
        core::EpocCompiler compiler(fill);
        cold = compile_passes({&compiler}, inputs, report, spans, -1).front();
    }
    const PackFile pack = fold_store(work / "fill-store", work / "pack", report);
    const double setup_s = ms_between(setup_begin, Clock::now()) / 1000.0;
    std::printf("set-up: cold compile %.1f ms, packed %zu entries (%ju bytes) in %.2f ms\n",
                cold.wall_ms, pack.entries, pack.bytes, pack.write_ms);
    report.require(cold.failed == 0, "pack_start: the set-up cold compile failed its checks");

    // A fresh machine: a new compiler over an empty local store with the pack
    // mounted. Opening them is part of the cold start, so it is timed.
    const auto packed_compiler = [&](int index, bool traced, double& open_ms) {
        core::EpocOptions opt = base;
        opt.trace_enabled = traced;
        opt.pulse_store_dir = (work / ("local-" + std::to_string(index))).string();
        opt.pulse_pack_dirs = {pack.dir.string()};
        const auto t0 = Clock::now();
        auto compiler = std::make_unique<core::EpocCompiler>(opt);
        open_ms = ms_between(t0, Clock::now());
        return compiler;
    };
    const auto check_pass = [&](Pass& pass, core::EpocCompiler& compiler, int index) {
        const std::string tag = "pack_start pass " + std::to_string(index) + ": ";
        const qoc::PulseLibraryStats& lib = pass.library;
        report.require(lib.misses > 0, tag + "no pulse-library miss");
        report.require(lib.store_pack_hits == lib.misses && pass.pack_revalidations == lib.misses,
                       tag + "pack hits (" + std::to_string(lib.store_pack_hits) +
                           "), memory misses (" + std::to_string(lib.misses) +
                           ") and pack revalidations (" +
                           std::to_string(pass.pack_revalidations) + ") differ");
        report.require(lib.store_misses == 0 && lib.store_rejected == 0,
                       tag + "a pulse missed the pack, so GRAPE ran");
        report.require(lib.store_writes == 0 && compiler.store()->stats().writes == 0,
                       tag + "the pass wrote to the store");
        if (compiler.tracer().enabled())
            report.require(pass.tally.grape_runs == 0, tag + "qoc.grape_runs != 0");
        report.require(pass.digests == cold.digests,
                       tag + "schedule digests differ from the set-up cold compile");
    };
    const auto pass_counts = [](const Pass& p) {
        return Counts{{"qoc.library_misses", p.library.misses},
                      {"store.pack_hits", p.library.store_pack_hits},
                      {"verify.pack_revalidations", p.pack_revalidations},
                      {"synthesis.runs", p.synth.misses},
                      {"qoc.grape_runs", p.tally.grape_runs}};
    };

    if (!args.trace) {
        const int passes = std::max(2, static_cast<int>(args.seconds / kPassSeconds));
        std::vector<Pass> done;
        for (int p = 0; p < passes; ++p) {
            double open_ms = 0;
            const auto compiler = packed_compiler(p, false, open_ms);
            done.push_back(compile_passes({compiler.get()}, inputs, report, spans, p).front());
            done.back().wall_ms += open_ms;
            check_pass(done.back(), *compiler, p);
            report.require(pass_counts(done.back()) == pass_counts(done.front()),
                           "pack_start pass " + std::to_string(p) +
                               " counts differ from pass 0");
        }
        report.exact_counts(args, "pass", pass_counts(done.front()));
        report_closed_loop(report, done, setup_s);
        fs::remove_all(work);
        return;
    }

    // Traced run: an untraced and a traced packed pass, interleaved circuit
    // by circuit; then per-entry probes on the pack itself.
    double open_untraced = 0, open_traced = 0;
    const auto a = packed_compiler(0, false, open_untraced);
    const auto b = packed_compiler(1, true, open_traced);
    std::vector<Pass> both = compile_passes({a.get(), b.get()}, inputs, report, spans, 0);
    both[0].wall_ms += open_untraced;
    both[1].wall_ms += open_traced;
    check_pass(both[0], *a, 0);
    check_pass(both[1], *b, 1);
    const Pass& untraced = both[0];
    const Pass& traced = both[1];
    report.exact_counts(args, "traced-pass", pass_counts(traced));
    report.attempted += untraced.latency_ms.size() + traced.latency_ms.size();
    report.failed += untraced.failed + traced.failed;
    std::printf("synthesis share of a packed pass: %.4f (%.1f of %.1f ms)\n",
                traced.tally.synthesis_ms / traced.wall_ms, traced.tally.synthesis_ms,
                traced.wall_ms);
    report_tally(report, traced.tally, traced.library, traced.synth,
                 traced.library.store_pack_hits, traced.pack_revalidations);
    std::size_t warm_n = 0;
    const double warm_ms = warm_compile_p50(*a, inputs, 3, warm_n);
    report.metric("pipeline.warm_compile_ms", warm_ms, warm_n);
    report.metric("store.pack_bytes", static_cast<double>(pack.bytes), 1);
    report.metric("trace_overhead", traced.wall_ms / untraced.wall_ms, 2);
    pack_probes(report, spans, pack);
    run_layer_probes(report, spans, circuit::to_qasm(inputs.front().circuit));
    fs::remove_all(work);
}

} // namespace perfbench
