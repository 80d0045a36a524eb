// The tracing/metrics layer (util/trace.h) and its pipeline integration:
//
//   * Tracer semantics: RAII spans, monotonic counters, reset, and the
//     disabled path recording nothing at all.
//   * Chrome trace_event export: structurally valid JSON with "X" duration
//     events and "C" counter samples.
//   * Pipeline integration: every stage span present, cache stats folded into
//     the counter registry, counters bit-identical across thread counts, and
//     tracing never perturbing the compiled artifact.
//   * The cache-key regression: the regrouped coarse-granularity arm really
//     generates coarsened pulses even though the fine arm ran first.
#include "util/trace.h"

#include "bench_circuits/generators.h"
#include "epoc/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

namespace {

using epoc::circuit::Circuit;
using epoc::core::EpocCompiler;
using epoc::core::EpocOptions;
using epoc::core::EpocResult;
using epoc::util::TraceEvent;
using epoc::util::TraceReport;
using epoc::util::Tracer;

// Structural JSON check: balanced containers outside strings, escapes legal.
void expect_valid_json_structure(const std::string& j) {
    int depth = 0;
    bool in_string = false;
    bool escaped = false;
    for (const char c : j) {
        if (escaped) {
            escaped = false;
            continue;
        }
        if (in_string) {
            if (c == '\\') escaped = true;
            if (c == '"') in_string = false;
            EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
            continue;
        }
        if (c == '"') in_string = true;
        if (c == '{' || c == '[') ++depth;
        if (c == '}' || c == ']') --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_FALSE(in_string);
    EXPECT_EQ(depth, 0);
}

TEST(Tracer, DisabledRecordsNothing) {
    Tracer t(false);
    {
        const Tracer::Span s = t.span("work", "cat");
        t.add_counter("n", 5);
    }
    const TraceReport r = t.report();
    EXPECT_FALSE(r.enabled);
    EXPECT_TRUE(r.spans.empty());
    EXPECT_TRUE(r.counters.empty());
    EXPECT_EQ(r.counter("n"), 0u);
}

TEST(Tracer, SpansRecordOnDestruction) {
    Tracer t(true);
    {
        const Tracer::Span outer = t.span("outer", "test");
        const Tracer::Span inner = t.span("inner", "test");
    }
    const TraceReport r = t.report();
    ASSERT_EQ(r.spans.size(), 2u);
    EXPECT_TRUE(r.has_span("outer"));
    EXPECT_TRUE(r.has_span("inner"));
    for (const TraceEvent& ev : r.spans) {
        EXPECT_LE(ev.begin_ns, ev.end_ns);
        EXPECT_EQ(ev.category, "test");
        EXPECT_EQ(ev.tid, 0); // single thread -> dense id 0
    }
    // Sorted by begin time: outer opened first.
    EXPECT_EQ(r.spans.front().name, "outer");
}

TEST(Tracer, ExplicitEndIsIdempotent) {
    Tracer t(true);
    Tracer::Span s = t.span("once");
    s.end();
    s.end(); // no double record
    EXPECT_EQ(t.report().spans.size(), 1u);
}

TEST(Tracer, MovedFromSpanDoesNotRecord) {
    Tracer t(true);
    {
        Tracer::Span a = t.span("moved");
        const Tracer::Span b = std::move(a);
    }
    EXPECT_EQ(t.report().spans.size(), 1u);
}

TEST(Tracer, CountersAggregate) {
    Tracer t(true);
    t.add_counter("a");
    t.add_counter("a", 4);
    t.add_counter("b", 2);
    t.set_counter("c", 7);
    t.set_counter("c", 3); // overwrite, not add
    const TraceReport r = t.report();
    EXPECT_EQ(r.counter("a"), 5u);
    EXPECT_EQ(r.counter("b"), 2u);
    EXPECT_EQ(r.counter("c"), 3u);
    // Name-ordered on snapshot.
    ASSERT_EQ(r.counters.size(), 3u);
    EXPECT_EQ(r.counters[0].first, "a");
    EXPECT_EQ(r.counters[2].first, "c");
}

TEST(Tracer, ThreadsGetDenseIds) {
    Tracer t(true);
    { const Tracer::Span s = t.span("main-thread"); }
    std::thread other([&t] { const Tracer::Span s = t.span("other-thread"); });
    other.join();
    const TraceReport r = t.report();
    ASSERT_EQ(r.spans.size(), 2u);
    std::vector<int> tids;
    for (const TraceEvent& ev : r.spans) tids.push_back(ev.tid);
    std::sort(tids.begin(), tids.end());
    EXPECT_EQ(tids, (std::vector<int>{0, 1}));
}

TEST(Tracer, ResetClearsEverything) {
    Tracer t(true);
    { const Tracer::Span s = t.span("gone"); }
    t.add_counter("gone", 1);
    t.reset();
    const TraceReport r = t.report();
    EXPECT_TRUE(r.spans.empty());
    EXPECT_TRUE(r.counters.empty());
}

TEST(TraceReport, ChromeJsonStructure) {
    Tracer t(true);
    { const Tracer::Span s = t.span("stage \"one\"\t", "pipeline"); }
    t.add_counter("cache.hits", 12);
    const TraceReport r = t.report();
    const std::string j = r.to_chrome_json();
    expect_valid_json_structure(j);
    EXPECT_NE(j.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(j.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(j.find("stage \\\"one\\\"\\t"), std::string::npos);
    EXPECT_NE(j.find("cache.hits"), std::string::npos);
    EXPECT_NE(j.find("\"value\":12"), std::string::npos);
}

TEST(TraceReport, SummaryListsSpansAndCounters) {
    Tracer t(true);
    { const Tracer::Span s = t.span("grape 2q"); }
    { const Tracer::Span s = t.span("grape 2q"); }
    t.add_counter("qoc.grape_runs", 9);
    const std::string s = t.report().summary();
    EXPECT_NE(s.find("grape 2q: n=2"), std::string::npos);
    EXPECT_NE(s.find("qoc.grape_runs: 9"), std::string::npos);
}

// ------------------------------------------------------------ pipeline level

EpocOptions traced_options(int num_threads = 1) {
    EpocOptions opt;
    opt.trace_enabled = true;
    opt.num_threads = num_threads;
    opt.latency.fidelity_threshold = 0.99;
    opt.latency.grape.max_iterations = 120;
    opt.qsearch.threshold = 1e-4;
    opt.qsearch.instantiate.restarts = 2;
    return opt;
}

TEST(PipelineTrace, EveryStageHasASpan) {
    EpocCompiler compiler(traced_options());
    const EpocResult r = compiler.compile(epoc::bench::ghz(4));
    ASSERT_TRUE(r.trace.enabled);
    for (const char* stage : {"compile", "zx", "partition", "synthesis",
                              "pulses fine-grained", "regroup", "pulses grouped",
                              "schedule asap"})
        EXPECT_TRUE(r.trace.has_span(stage)) << stage;
    // Per-block work appears as its own spans.
    EXPECT_TRUE(r.trace.has_span("synth block 0 (1q)") ||
                r.trace.has_span("synth block 0 (2q)") ||
                r.trace.has_span("synth block 0 (3q)"));
    bool any_pulse_block = false;
    bool any_grape = false;
    for (const TraceEvent& ev : r.trace.spans) {
        any_pulse_block |= ev.name.rfind("pulse ", 0) == 0;
        any_grape |= ev.name.rfind("grape ", 0) == 0;
    }
    EXPECT_TRUE(any_pulse_block);
    EXPECT_TRUE(any_grape);
    // Spans are sorted deterministically on export.
    for (std::size_t i = 1; i < r.trace.spans.size(); ++i) {
        EXPECT_LE(r.trace.spans[i - 1].begin_ns, r.trace.spans[i].begin_ns);
    }
}

TEST(PipelineTrace, CacheStatsFoldedIntoCounters) {
    EpocCompiler compiler(traced_options());
    const EpocResult r = compiler.compile(epoc::bench::qft(3));
    EXPECT_EQ(r.trace.counter("qoc.library_hits"), r.library_stats.hits);
    EXPECT_EQ(r.trace.counter("qoc.library_misses"), r.library_stats.misses);
    EXPECT_EQ(r.trace.counter("synth_cache.hits"), r.synth_cache_stats.hits);
    EXPECT_EQ(r.trace.counter("synth_cache.misses"), r.synth_cache_stats.misses);
    EXPECT_GT(r.trace.counter("qoc.grape_runs"), 0u);
    EXPECT_GT(r.trace.counter("qoc.grape_iterations"), 0u);
    EXPECT_GT(r.trace.counter("pipeline.blocks"), 0u);
}

TEST(PipelineTrace, DisabledLeavesResultEmptyAndArtifactIdentical) {
    EpocOptions off = traced_options();
    off.trace_enabled = false;
    EpocCompiler plain(off);
    const EpocResult a = plain.compile(epoc::bench::ghz(4));
    EXPECT_FALSE(a.trace.enabled);
    EXPECT_TRUE(a.trace.spans.empty());
    EXPECT_TRUE(a.trace.counters.empty());

    // Tracing must be a pure observer: bit-identical artifact.
    EpocCompiler traced(traced_options());
    const EpocResult b = traced.compile(epoc::bench::ghz(4));
    EXPECT_EQ(a.latency_ns, b.latency_ns);
    EXPECT_EQ(a.esp, b.esp);
    EXPECT_EQ(a.num_pulses, b.num_pulses);
    EXPECT_EQ(a.library_stats.misses, b.library_stats.misses);
}

TEST(PipelineTrace, CountersBitIdenticalAcrossThreadCounts) {
    std::vector<std::vector<std::pair<std::string, std::uint64_t>>> counter_sets;
    std::vector<std::vector<std::string>> span_names;
    for (const int threads : {1, 2, 8}) {
        EpocCompiler compiler(traced_options(threads));
        const EpocResult r = compiler.compile(epoc::bench::qft(3));
        // single_flight_waits counts how many threads actually raced on a
        // key -- a scheduling artifact, deterministically zero only at
        // num_threads == 1. Everything else must match bit-for-bit.
        std::vector<std::pair<std::string, std::uint64_t>> counters;
        for (const auto& kv : r.trace.counters)
            if (kv.first.find("single_flight_waits") == std::string::npos)
                counters.push_back(kv);
        counter_sets.push_back(std::move(counters));
        std::vector<std::string> names;
        for (const TraceEvent& ev : r.trace.spans) names.push_back(ev.name);
        std::sort(names.begin(), names.end());
        span_names.push_back(std::move(names));
    }
    // Counters aggregate order-independently: identical for any thread count.
    EXPECT_EQ(counter_sets[0], counter_sets[1]);
    EXPECT_EQ(counter_sets[0], counter_sets[2]);
    // The same set of spans is recorded (timings differ, names do not).
    EXPECT_EQ(span_names[0], span_names[1]);
    EXPECT_EQ(span_names[0], span_names[2]);
}

TEST(PipelineTrace, CoarseArmReflectsCoarseningAfterFineArm) {
    // The cache-key regression at pipeline level. The fine-grained arm always
    // runs first and fills the library at slot_granularity 1; the regrouped
    // arm then requests wide-block pulses at coarsened granularity. With the
    // old unitary-only cache key those requests could hit fine-granularity
    // entries and the documented coarsening never applied; keyed on the full
    // generation context, every coarse pulse's slot count must be a multiple
    // of its granularity.
    EpocOptions opt = traced_options();
    opt.use_zx = false;
    opt.partition.max_qubits = 2;
    opt.regroup_opt.max_qubits = 4; // wide regrouped blocks -> granularity 4
    opt.regroup_opt.max_gates = 64;
    opt.latency.fidelity_threshold = 0.6; // dim-16 GRAPE stays cheap
    opt.latency.grape.max_iterations = 30;
    opt.latency.min_slots = 4;
    opt.latency.max_slots = 16;
    EpocCompiler compiler(opt);
    const EpocResult r = compiler.compile(epoc::bench::ghz(4));

    ASSERT_GT(r.trace.counter("qoc.coarse_blocks"), 0u)
        << "regroup must form at least one >=3-qubit block for this test";
    EXPECT_EQ(r.trace.counter("qoc.coarse_granularity_violations"), 0u)
        << "a coarse-arm pulse came back with a fine-granularity slot count";
    EXPECT_GT(r.trace.counter("qoc.coarse_block_slots"), 0u);
}

} // namespace
