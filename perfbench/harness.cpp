#include "harness.h"

#include "circuit/unitary.h"
#include "epoc/export.h"
#include "linalg/phase.h"
#include "qoc/pulse_io.h"
#include "stats.h"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace fs = std::filesystem;
using namespace epoc;

namespace {

struct MetricSpec {
    const char* name;
    const char* unit;
    /// In BENCHMARK.json's metric list for this trace mode, so every run of
    /// every workload prints it. The others are printed lines only: most
    /// apply to one workload, and qoc.single_flight_waits is 0 on every
    /// listed workload (one compile thread; warm_serve's timed phase is all
    /// library hits), so listing it would check nothing.
    bool listed;
    /// Per-layer metrics: the end-to-end metric and workload it should move.
    const char* moves;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s", true, ""},
    {"throughput_cps", "circuits/s", true, ""},
    {"latency_ms_p50", "ms", true, ""},
    {"schedule_latency_ns", "ns", true, ""},
    {"esp_geomean", "1", true, ""},
    {"success_rate", "1", true, ""},
    {"peak_rss_mb", "MiB", true, ""},
    {"latency_ms_p90", "ms", false, ""},
    {"latency_ms_p99", "ms", false, ""},
    {"max_rate_cps", "circuits/s", false, ""},
};

constexpr MetricSpec kPerLayer[] = {
    {"linalg.expm_us.d2", "us", true, "throughput_cps@cold_compile, latency_ms_p50@vqe_sweep"},
    {"linalg.expm_us.d4", "us", true, "throughput_cps@cold_compile, latency_ms_p50@vqe_sweep"},
    {"linalg.expm_us.d8", "us", true, "throughput_cps@cold_compile"},
    {"linalg.matmul_ns.d4", "ns", true, "throughput_cps@cold_compile, @pack_start"},
    {"linalg.matmul_ns.d8", "ns", true, "throughput_cps@cold_compile, @pack_start"},
    {"qoc.grape_iter_us.d2", "us", true, "throughput_cps@cold_compile"},
    {"qoc.grape_iter_us.d4", "us", true, "throughput_cps@cold_compile"},
    {"qoc.grape_iter_us.d8", "us", true, "throughput_cps@cold_compile"},
    {"qoc.grape_runs", "count", true, "throughput_cps@cold_compile, latency_ms_p50@vqe_sweep"},
    {"qoc.grape_iterations", "count", true,
     "throughput_cps@cold_compile, latency_ms_p50@vqe_sweep"},
    {"qoc.busy_ms", "ms", true, "throughput_cps@cold_compile"},
    {"qoc.library_hit_rate", "1", true, "latency_ms_p50@warm_serve (stays 1.0), @vqe_sweep"},
    {"qoc.single_flight_waits", "count", false,
     "latency_ms_p99@warm_serve, throughput_cps@cold_compile when threads > 1"},
    {"qoc.warm_starts", "count", true, "latency_ms_p50@vqe_sweep"},
    {"synthesis.busy_ms", "ms", true, "throughput_cps, setup_s@pack_start"},
    {"synthesis.runs", "count", true, "throughput_cps@pack_start"},
    {"synthesis.replaced_ratio", "1", true, "throughput_cps@pack_start"},
    {"synthesis.qsearch_ms.b3", "ms", true, "throughput_cps@pack_start"},
    {"zx.busy_ms", "ms", true, "latency_ms_p50@warm_serve, schedule_latency_ns"},
    {"zx.depth_ratio", "1", true, "schedule_latency_ns"},
    {"partition.blocks", "count", true, "schedule_latency_ns, esp_geomean"},
    {"regroup.blocks", "count", true, "schedule_latency_ns, esp_geomean"},
    {"pipeline.grouped_win_ratio", "1", true, "schedule_latency_ns"},
    {"pipeline.fine_arm_ms", "ms", true, "throughput_cps@cold_compile"},
    {"pipeline.grouped_arm_ms", "ms", true, "throughput_cps@cold_compile"},
    {"pipeline.warm_compile_ms", "ms", true, "latency_ms_p50@warm_serve"},
    {"plan.hit_rate", "1", true, "latency_ms_p50@vqe_sweep"},
    {"store.pack_hits", "count", true, "throughput_cps@pack_start"},
    {"store.pack_bytes", "bytes", true, "setup_s@pack_start"},
    {"verify.pack_revalidations", "count", true, "throughput_cps@pack_start"},
    {"service.codec_us", "us", true, "latency_ms_p50@warm_serve"},
    {"trace_overhead", "1", true, "ROADMAP item 5: traced/untraced < 1.02"},
    {"plan.hit_compile_ms", "ms", false, "latency_ms_p50@vqe_sweep"},
    {"store.pack_write_ms", "ms", false, "setup_s@pack_start"},
    {"store.pack_find_us", "us", false, "throughput_cps@pack_start"},
    {"store.decode_us", "us", false, "throughput_cps@pack_start"},
    {"verify.resim_us", "us", false, "throughput_cps@pack_start"},
    {"service.compile_ms_p50", "ms", false, "latency_ms_p50@warm_serve"},
    {"service.overhead_ms_p50", "ms", false, "latency_ms_p50@warm_serve"},
    {"service.overhead_ms_p99", "ms", false, "latency_ms_p99@warm_serve"},
    {"service.executor_busy", "1", false, "max_rate_cps@warm_serve"},
    {"service.generator_late_ms_p99", "ms", false, "run validity, not a target"},
};

const MetricSpec* find_spec(const std::string& name, bool per_layer) {
    if (per_layer) {
        for (const MetricSpec& s : kPerLayer)
            if (name == s.name) return &s;
    } else {
        for (const MetricSpec& s : kEndToEnd)
            if (name == s.name) return &s;
    }
    return nullptr;
}

std::string exe_fingerprint() {
    const std::optional<std::uint64_t> h = qoc::fnv1a64_file("/proc/self/exe");
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h.value_or(0)));
    return buf;
}

double span_ms(const util::TraceReport& trace, const std::string& name) {
    double ms = 0;
    for (const util::TraceEvent& ev : trace.spans)
        if (ev.name == name) ms += static_cast<double>(ev.end_ns - ev.begin_ns) / 1e6;
    return ms;
}

} // namespace

core::EpocOptions suite_options(int threads) {
    core::EpocOptions opt;
    opt.latency.fidelity_threshold = kFidelityThreshold;
    opt.latency.grape.max_iterations = 150;
    opt.qsearch.threshold = 1e-4;
    opt.num_threads = threads;
    opt.verify_level = verify::VerifyLevel::off;
    return opt;
}

std::uint64_t digest(const core::EpocResult& r) {
    return qoc::fnv1a64(core::schedule_to_json(r.schedule));
}

std::string check_compile(const core::EpocResult& r, const linalg::Matrix& reference) {
    if (!r.status.ok()) return "status " + r.status.to_string();
    if (r.degraded) return "degraded result";
    const double f = linalg::hs_fidelity(circuit::circuit_unitary(r.synthesized), reference);
    if (!(f >= 1.0 - 1e-6)) return "synthesized circuit fidelity " + std::to_string(f);
    for (const core::ScheduledPulse& p : r.schedule.pulses)
        if (p.job.duration > 0 && !(p.job.fidelity >= kFidelityThreshold))
            return "pulse " + p.job.label + " fidelity " + std::to_string(p.job.fidelity);
    return {};
}

void LayerTally::add(const core::EpocResult& r) {
    ++compiles;
    compile_ms += r.compile_ms;
    zx_ms += r.zx_ms;
    synthesis_ms += r.synthesis_ms;
    qoc_ms += r.qoc_ms;
    depth_original += r.depth_original;
    depth_after_zx += r.depth_after_zx;
    blocks += r.num_blocks;
    plan_hits += r.plan_hit ? 1 : 0;
    regroup_blocks +=
        r.plan_hit ? r.plan_blocks_reused : r.trace.counter("pipeline.regroup_blocks");
    grouped_wins += r.trace.counter("pipeline.grouped_arm_wins");
    grape_runs += r.trace.counter("qoc.grape_runs");
    grape_iterations += r.trace.counter("qoc.grape_iterations");
    warm_starts += r.trace.counter("qoc.warm_starts");
    blocks_replaced += r.trace.counter("synth.blocks_replaced");
    blocks_kept += r.trace.counter("synth.blocks_kept_original");
    fine_arm_ms += span_ms(r.trace, "pulses fine-grained");
    grouped_arm_ms += span_ms(r.trace, "pulses grouped");
}

int Spans::add(std::string name, int parent, std::uint64_t request, Clock::time_point begin,
               Clock::time_point end) {
    if (!enabled_) return 0;
    Span s;
    s.name = std::move(name);
    s.id = static_cast<int>(spans_.size()) + 1;
    s.parent = parent;
    s.request = request;
    s.begin_us = ms_between(epoch_, begin) * 1000.0;
    s.end_us = ms_between(epoch_, end) * 1000.0;
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

void Spans::end(int id) {
    if (id > 0 && static_cast<std::size_t>(id) <= spans_.size())
        spans_[static_cast<std::size_t>(id) - 1].end_us = ms_between(epoch_, Clock::now()) * 1000.0;
}

bool Spans::write_chrome_json(const std::string& path) const {
    std::error_code ec;
    fs::create_directories(fs::path(path).parent_path(), ec);
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"id\":%d,\"parent\":%d,\"request\":%llu}}",
                      s.begin_us, s.end_us - s.begin_us, s.id, s.parent,
                      static_cast<unsigned long long>(s.request));
        out << (i ? "," : "") << "\n{\"name\":\"" << s.name << "\"," << buf;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

void Report::metric(const std::string& name, double value, std::size_t samples) {
    const MetricSpec* layer = find_spec(name, true);
    const MetricSpec* spec = layer != nullptr ? layer : find_spec(name, false);
    if (spec == nullptr) throw std::logic_error("perfbench: unknown metric " + name);
    std::printf("  %-30s = %-14.6g %-10s (n=%zu)", name.c_str(), value, spec->unit, samples);
    if (layer != nullptr) std::printf("  -> %s", layer->moves);
    std::printf("\n");
    if (spec->listed && trace_ == (layer != nullptr)) metrics_[name] = value;
}

void Report::fail(const std::string& why) {
    ++failures_;
    std::printf("FAIL: %s\n", why.c_str());
}

void Report::exact_counts(const Args& args, const std::string& label, const Counts& counts) {
    std::ostringstream text;
    for (const auto& [name, value] : counts) text << name << "=" << value << "\n";
    std::printf("exact counts (%s):", label.c_str());
    for (const auto& [name, value] : counts)
        std::printf(" %s=%llu", name.c_str(), static_cast<unsigned long long>(value));
    std::printf("\n");
    const fs::path dir = fs::path(args.work_dir) / "counts";
    // Keyed by everything that sizes the work, and by the binary itself.
    char settings[160];
    std::snprintf(settings, sizeof settings, "s%d-t%d-r%g-l%g", args.seconds,
                  args.compile_threads, args.serve_rate, args.serve_p99_limit_ms);
    const fs::path file = dir / (args.workload + "-seed" + std::to_string(args.seed) + "-" +
                                 settings + (args.trace ? "-trace-" : "-") + label + "-" +
                                 exe_fingerprint() + ".txt");
    std::error_code ec;
    fs::create_directories(dir, ec);
    std::ifstream in(file);
    if (in) {
        std::stringstream previous;
        previous << in.rdbuf();
        if (previous.str() != text.str())
            fail("exact counts (" + label + ") differ from an earlier run of this seed:\n" +
                 previous.str());
        return;
    }
    // Publish atomically: a run cut short must not leave a partial record.
    const fs::path tmp = file.string() + ".tmp" + std::to_string(::getpid());
    std::ofstream(tmp) << text.str();
    fs::rename(tmp, file, ec);
}

bool Report::json_line(std::string& out) const {
    std::ostringstream os;
    os << "{\"correct\": " << (correct() ? "true" : "false") << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
    bool ok = true, first = true;
    const auto emit = [&](const MetricSpec& s) {
        if (!s.listed) return;
        const auto it = metrics_.find(s.name);
        if (it == metrics_.end() || !std::isfinite(it->second)) {
            std::fprintf(stderr, "perfbench: metric %s missing or not finite\n", s.name);
            ok = false;
            return;
        }
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.12g", it->second);
        os << (first ? "" : ", ") << "\"" << s.name << "\": {\"value\": " << buf
           << ", \"unit\": \"" << s.unit << "\"}";
        first = false;
    };
    if (trace_)
        for (const MetricSpec& s : kPerLayer) emit(s);
    else
        for (const MetricSpec& s : kEndToEnd) emit(s);
    os << "}}";
    out = os.str();
    return ok;
}

int cores() { return static_cast<int>(std::max(1u, std::thread::hardware_concurrency())); }

double peak_rss_mb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    return kNaN;
}

void report_tally(Report& report, const LayerTally& t, const qoc::PulseLibraryStats& library,
                  const util::CacheStats& synth, std::uint64_t pack_hits,
                  std::uint64_t pack_revalidations) {
    const std::size_t n = t.compiles;
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    std::printf("layer shares of compile time (%zu compiles, %.1f ms): zx %.4f, synthesis "
                "%.4f, qoc %.4f, other %.4f\n",
                n, t.compile_ms, ratio(t.zx_ms, t.compile_ms),
                ratio(t.synthesis_ms, t.compile_ms), ratio(t.qoc_ms, t.compile_ms),
                ratio(t.compile_ms - t.zx_ms - t.synthesis_ms - t.qoc_ms, t.compile_ms));
    const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
    const std::size_t lookups = library.hits + library.misses;
    const std::uint64_t synthesized = t.blocks_replaced + t.blocks_kept;
    report.metric("qoc.grape_runs", count(t.grape_runs), n);
    report.metric("qoc.grape_iterations", count(t.grape_iterations), n);
    report.metric("qoc.busy_ms", t.qoc_ms, n);
    report.metric("qoc.library_hit_rate", library.hit_rate(), lookups);
    report.metric("qoc.single_flight_waits", count(library.single_flight_waits), lookups);
    report.metric("qoc.warm_starts", count(t.warm_starts), n);
    report.metric("synthesis.busy_ms", t.synthesis_ms, n);
    report.metric("synthesis.runs", count(synth.misses), synth.hits + synth.misses);
    report.metric("synthesis.replaced_ratio", ratio(count(t.blocks_replaced), count(synthesized)),
                  synthesized);
    report.metric("zx.busy_ms", t.zx_ms, n);
    report.metric("zx.depth_ratio", ratio(t.depth_after_zx, t.depth_original), n);
    report.metric("partition.blocks", count(t.blocks), n);
    report.metric("regroup.blocks", count(t.regroup_blocks), n);
    report.metric("pipeline.grouped_win_ratio", ratio(count(t.grouped_wins), count(n)), n);
    report.metric("pipeline.fine_arm_ms", t.fine_arm_ms, n);
    report.metric("pipeline.grouped_arm_ms", t.grouped_arm_ms, n);
    report.metric("plan.hit_rate", ratio(count(t.plan_hits), count(n)), n);
    report.metric("store.pack_hits", count(pack_hits), n);
    report.metric("verify.pack_revalidations", count(pack_revalidations), n);
}

} // namespace perfbench
