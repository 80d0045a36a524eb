// Property tests for the compilation plan cache (epoc/plan_cache.h) and its
// keying substrate (circuit/structure.h): structure keys must be invariant
// under angle changes and sensitive to every structural edit, and a plan-hit
// compile must be bit-identical to a cold compile of the same angles — on a
// backend too, and under faults at the front-end and regroup sites.
#include "backend/backend.h"
#include "circuit/structure.h"
#include "epoc/export.h"
#include "epoc/pipeline.h"
#include "qoc/pulse_io.h"
#include "util/fault_injection.h"
#include "util/trace.h"

#include "bench_circuits/generators.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace {

using namespace epoc::core;
using epoc::circuit::Circuit;
using epoc::circuit::StrippedCircuit;
using epoc::circuit::strip_parameters;

EpocOptions cheap_options() {
    EpocOptions opt;
    opt.latency.fidelity_threshold = 0.99;
    opt.latency.grape.max_iterations = 120;
    opt.qsearch.threshold = 1e-4;
    opt.qsearch.instantiate.restarts = 2;
    return opt;
}

/// A one-layer QAOA-style template over 2 qubits: the canonical "same
/// structure, different angles" workload.
Circuit qaoa2(double gamma, double beta) {
    Circuit c(2);
    c.h(0).h(1);
    c.rzz(gamma, 0, 1);
    c.rx(beta, 0).rx(beta, 1);
    return c;
}

std::uint64_t digest(const PulseSchedule& s) {
    return epoc::qoc::fnv1a64(schedule_to_json(s));
}

struct FaultGuard {
    explicit FaultGuard(const std::string& spec) { epoc::util::fault::configure(spec); }
    ~FaultGuard() { epoc::util::fault::clear(); }
};

/// "stage index [label] cause[ fallback]", one per report, synthesis rows
/// left out: synthesis is the work a plan caches, so plan compiles report
/// none of it.
std::vector<std::string> reports_past_synthesis(const EpocResult& r) {
    std::vector<std::string> out;
    for (const BlockReport& br : r.block_reports) {
        if (br.stage == epoc::util::Stage::synthesis) continue;
        std::string s = std::string(epoc::util::stage_name(br.stage)) + " " +
                        std::to_string(br.index) + " [" + br.label + "] " +
                        epoc::util::cause_name(br.status.cause);
        if (br.status.fallback_taken) s += " fallback";
        out.push_back(std::move(s));
    }
    return out;
}

TEST(StructureKey, AngleChangesKeepTheKeyAndMoveTheParams) {
    const StrippedCircuit a = strip_parameters(qaoa2(0.3, 0.7));
    const StrippedCircuit b = strip_parameters(qaoa2(1.1, -0.2));
    EXPECT_EQ(a.key, b.key);
    EXPECT_EQ(a.parametric_gates, 3u);
    ASSERT_EQ(a.params.size(), 3u);
    EXPECT_DOUBLE_EQ(a.params[0], 0.3);
    EXPECT_DOUBLE_EQ(a.params[1], 0.7);
    EXPECT_DOUBLE_EQ(a.params[2], 0.7);
    EXPECT_DOUBLE_EQ(b.params[0], 1.1);
    EXPECT_DOUBLE_EQ(b.params[1], -0.2);
    // The sentinel template stamps each slot with its sentinel, so both angle
    // sets share it, and binding the angles back restores the circuit.
    ASSERT_EQ(a.sentinel_template.size(), 5u);
    EXPECT_TRUE(a.sentinel_template.gate(0).params.empty());
    EXPECT_EQ(a.sentinel_template.gate(2).params[0], epoc::circuit::slot_sentinel(0));
    EXPECT_EQ(a.sentinel_template.gate(4).params[0], epoc::circuit::slot_sentinel(2));
    Circuit bound = b.sentinel_template;
    epoc::circuit::bind_parameters(bound, epoc::circuit::scan_bindings(bound), a.params);
    const Circuit want = qaoa2(0.3, 0.7);
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(bound.gate(i).params, want.gate(i).params) << i;
}

TEST(StructureKey, EveryStructuralEditChangesTheKey) {
    const std::string base = strip_parameters(qaoa2(0.3, 0.7)).key;

    // Different gate kind at one position.
    Circuit kind(2);
    kind.h(0).h(1).rzz(0.3, 0, 1).ry(0.7, 0).rx(0.7, 1);
    EXPECT_NE(strip_parameters(kind).key, base);

    // Different qubit wiring.
    Circuit wiring(2);
    wiring.h(0).h(1).rzz(0.3, 1, 0).rx(0.7, 0).rx(0.7, 1);
    EXPECT_NE(strip_parameters(wiring).key, base);

    // Different gate order.
    Circuit order(2);
    order.h(1).h(0).rzz(0.3, 0, 1).rx(0.7, 0).rx(0.7, 1);
    EXPECT_NE(strip_parameters(order).key, base);

    // Wider register, identical gate list.
    Circuit wider(3);
    wider.h(0).h(1).rzz(0.3, 0, 1).rx(0.7, 0).rx(0.7, 1);
    EXPECT_NE(strip_parameters(wider).key, base);

    // One gate more.
    Circuit longer = qaoa2(0.3, 0.7);
    longer.h(0);
    EXPECT_NE(strip_parameters(longer).key, base);
}

TEST(StructureKey, SentinelsRoundTrip) {
    for (const std::size_t slot : {0u, 1u, 7u, 4096u}) {
        const double v = epoc::circuit::slot_sentinel(slot);
        EXPECT_TRUE(epoc::circuit::is_slot_sentinel(v));
        EXPECT_EQ(epoc::circuit::sentinel_slot(v), slot);
    }
    EXPECT_FALSE(epoc::circuit::is_slot_sentinel(0.0));
    EXPECT_FALSE(epoc::circuit::is_slot_sentinel(3.14159));
    EXPECT_FALSE(epoc::circuit::is_slot_sentinel(-2.0));
}

TEST(StructureKey, ScanAndBindRecoverTheOriginalAngles) {
    // Build a sentinel template by hand, then bind a fresh angle vector.
    Circuit templ(2);
    templ.h(0);
    templ.rzz(epoc::circuit::slot_sentinel(0), 0, 1);
    templ.rx(epoc::circuit::slot_sentinel(1), 0);
    const auto bindings = epoc::circuit::scan_bindings(templ);
    ASSERT_EQ(bindings.size(), 2u);
    EXPECT_EQ(bindings[0].gate, 1u);
    EXPECT_EQ(bindings[1].gate, 2u);

    Circuit bound = templ;
    epoc::circuit::bind_parameters(bound, bindings, {0.25, -1.5});
    EXPECT_DOUBLE_EQ(bound.gate(1).params[0], 0.25);
    EXPECT_DOUBLE_EQ(bound.gate(2).params[0], -1.5);

    // A stale binding (value vector too short) must throw, never half-bind.
    EXPECT_THROW(epoc::circuit::bind_parameters(bound, bindings, {0.25}),
                 std::out_of_range);
}

TEST(PlanCache, SecondCompileOfAStructureIsAPlanHit) {
    EpocOptions opt = cheap_options();
    opt.plan_cache = true;
    opt.trace_enabled = true;
    EpocCompiler compiler(opt);

    const EpocResult first = compiler.compile(qaoa2(0.4, 0.9));
    EXPECT_FALSE(first.plan_hit); // the build compile
    EXPECT_FALSE(first.degraded);
    EXPECT_EQ(compiler.plan_cache().size(), 1u);

    const EpocResult second = compiler.compile(qaoa2(1.3, -0.6));
    EXPECT_TRUE(second.plan_hit);
    EXPECT_GT(second.plan_blocks_reused, 0u);
    EXPECT_FALSE(second.degraded);
    EXPECT_GT(second.esp, 0.9);

    // What a hit saves, by span rather than by clock: the build runs the
    // front end, and the hit runs none of it and no synthesis search.
    for (const char* stage : {"zx", "partition", "synthesis"}) {
        EXPECT_TRUE(first.trace.has_span(stage)) << stage;
        EXPECT_FALSE(second.trace.has_span(stage)) << stage;
    }
    for (const epoc::util::TraceEvent& ev : second.trace.spans)
        EXPECT_NE(ev.name.rfind("qsearch ", 0), 0u) << ev.name;

    // A structural edit misses: new build, no false sharing.
    Circuit other = qaoa2(1.3, -0.6);
    other.cx(0, 1);
    const EpocResult third = compiler.compile(other);
    EXPECT_FALSE(third.plan_hit);
    EXPECT_EQ(compiler.plan_cache().size(), 2u);
}

TEST(PlanCache, PlanHitBitIdenticalToColdCompileAcrossThreadCounts) {
    // The reuse contract: a plan-hit compile at angles theta must produce the
    // exact schedule a fresh compiler (which builds the plan itself) produces
    // at theta — for every thread count, with and without a backend. Warm
    // starting is off: it is the one deliberately iteration-dependent knob
    // (advisory seeds), and this test pins the reproducible path.
    const epoc::backend::BackendRegistry registry;
    for (const std::string backend : {"", "linear-5"})
    for (const int threads : {1, 2, 8}) {
        SCOPED_TRACE("backend=" + backend);
        EpocOptions opt = cheap_options();
        opt.plan_cache = true;
        opt.plan_warm_start = false;
        opt.num_threads = threads;
        CompileCallOptions call;
        if (!backend.empty()) {
            call.backend = registry.find(backend);
            ASSERT_NE(call.backend, nullptr);
            // 2-qubit blocks keep the device-resolved GRAPE runs cheap.
            opt.partition.max_qubits = 2;
            opt.regroup_opt.max_qubits = 2;
        }

        EpocCompiler warmed(opt);
        (void)warmed.compile(qaoa2(0.4, 0.9), call); // builds the plan
        const EpocResult hit = warmed.compile(qaoa2(1.3, -0.6), call);
        EXPECT_TRUE(hit.plan_hit) << "threads=" << threads;

        EpocCompiler fresh(opt);
        const EpocResult cold = fresh.compile(qaoa2(1.3, -0.6), call);
        EXPECT_FALSE(cold.plan_hit) << "threads=" << threads;

        EXPECT_EQ(digest(hit.schedule), digest(cold.schedule))
            << "threads=" << threads;
        EXPECT_EQ(hit.latency_ns, cold.latency_ns) << "threads=" << threads;
        EXPECT_EQ(hit.esp, cold.esp) << "threads=" << threads;
        EXPECT_EQ(hit.synthesized_gates, cold.synthesized_gates);
    }
}

TEST(PlanCache, AngleFreeCircuitMatchesThePlanlessPipeline) {
    // With no parametric gates the single param-free segment is the whole
    // circuit, so the plan path must reproduce the ordinary pipeline exactly:
    // clean, and under a fault at each front-end stage and at regroup. A
    // build whose front end degrades is not cached and goes cold; a clean
    // build and its hits regroup in the pulse stage, as a cold compile does.
    for (const std::string fault : {"", "zx.fail=*", "partition.fail=*", "regroup.fail=*"}) {
        SCOPED_TRACE("fault=" + fault);
        const FaultGuard g(fault);
        EpocOptions opt = cheap_options();
        EpocCompiler plain(opt);
        const EpocResult off = plain.compile(epoc::bench::ghz(3));

        opt.plan_cache = true;
        opt.plan_warm_start = false;
        EpocCompiler planned(opt);
        std::vector<EpocResult> plan_path{planned.compile(epoc::bench::ghz(3))};
        const bool front_end_fault = fault == "zx.fail=*" || fault == "partition.fail=*";
        EXPECT_EQ(planned.plan_cache().size(), front_end_fault ? 0u : 1u);
        if (!front_end_fault) {
            plan_path.push_back(planned.compile(epoc::bench::ghz(3)));
            EXPECT_TRUE(plan_path.back().plan_hit);
        }
        for (const EpocResult& r : plan_path) {
            EXPECT_EQ(reports_past_synthesis(r), reports_past_synthesis(off));
            EXPECT_EQ(digest(r.schedule), digest(off.schedule));
            EXPECT_EQ(r.degraded, !fault.empty());
        }
    }
}

} // namespace
