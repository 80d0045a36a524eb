// Characterization of the pulse stage's accounting under every degradation
// path: for one fixed circuit per scenario, the exact BlockReport sequence
// (stage, index, label, cause, fallback, verify outcome) and — where only one
// pulse arm ships — the exact job list (label, qubits, placeholder or not).
//
// Only fields that do not depend on floating-point results are pinned: which
// arm wins, durations and fidelities are left to the digest checks. Every
// case runs single-threaded, so ordinal fault triggers (`site=N`) land on a
// fixed unit. A change to any table here is a behaviour change of the
// degradation ladder, not a refactor.
#include "epoc/pipeline.h"

#include "backend/backend.h"
#include "bench_circuits/generators.h"
#include "util/deadline.h"
#include "util/fault_injection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace {

using namespace epoc;
using circuit::Circuit;
using core::BlockReport;
using core::CompileCallOptions;
using core::EpocCompiler;
using core::EpocOptions;
using core::EpocResult;

struct FaultGuard {
    explicit FaultGuard(const std::string& spec) { util::fault::configure(spec); }
    ~FaultGuard() { util::fault::clear(); }
};

EpocOptions options() {
    EpocOptions opt;
    opt.latency.fidelity_threshold = 0.99;
    opt.latency.grape.max_iterations = 120;
    opt.qsearch.threshold = 1e-4;
    opt.qsearch.instantiate.restarts = 2;
    opt.num_threads = 1;
    return opt;
}

/// "stage index [label] cause[ fallback] verify=outcome", one per report.
std::vector<std::string> reports(const EpocResult& r) {
    std::vector<std::string> out;
    for (const BlockReport& br : r.block_reports) {
        std::string s = std::string(util::stage_name(br.stage)) + " " +
                        std::to_string(br.index) + " [" + br.label + "] " +
                        util::cause_name(br.status.cause);
        if (br.status.fallback_taken) s += " fallback";
        s += std::string(" verify=") + verify::outcome_name(br.verify);
        out.push_back(std::move(s));
    }
    return out;
}

/// "label q=a,b[ placeholder]", one per shipped pulse. Placeholders are the
/// only pulses with fidelity exactly 0.
std::vector<std::string> jobs(const EpocResult& r) {
    std::vector<std::string> out;
    for (const core::ScheduledPulse& p : r.schedule.pulses) {
        std::string s = p.job.label + " q=";
        for (std::size_t i = 0; i < p.job.qubits.size(); ++i) {
            if (i > 0) s += ',';
            s += std::to_string(p.job.qubits[i]);
        }
        if (p.job.fidelity == 0.0) s += " placeholder";
        out.push_back(std::move(s));
    }
    return out;
}

/// "label: detail" for every report that carries a detail.
std::vector<std::string> details(const EpocResult& r) {
    std::vector<std::string> out;
    for (const BlockReport& br : r.block_reports)
        if (!br.status.detail.empty()) out.push_back(br.label + ": " + br.status.detail);
    return out;
}

/// "name=value" for every robust.* and verify.* counter of a traced compile,
/// in name order.
std::vector<std::string> ladder_counters(const EpocResult& r) {
    std::vector<std::string> out;
    for (const auto& [name, value] : r.trace.counters)
        if (name.rfind("robust.", 0) == 0 || name.rfind("verify.", 0) == 0)
            out.push_back(name + "=" + std::to_string(value));
    std::sort(out.begin(), out.end());
    return out;
}

/// On mismatch, prints the actual table as initializer lines so a deliberate
/// behaviour change can be reviewed and re-pinned.
void expect_table(const std::vector<std::string>& actual,
                  const std::vector<std::string>& expected, const std::string& what) {
    if (actual == expected) return;
    std::string dump;
    for (const std::string& line : actual) dump += "        \"" + line + "\",\n";
    ADD_FAILURE() << what << " differs; actual:\n" << dump;
}

TEST(PulseStageCharacterization, PreCancelledToken) {
    util::CancelToken token;
    token.cancel();
    CompileCallOptions call;
    call.cancel = &token;
    EpocCompiler compiler(options());
    const EpocResult r = compiler.compile(bench::ghz(3), call);
    expect_table(reports(r), {
        "zx 0 [zx] cancelled fallback verify=not_checked",
        "synthesis 0 [synth block 0 (3q)] cancelled fallback verify=not_checked",
        "pulse 0 [gate 0 (h)] cancelled fallback verify=not_checked",
        "pulse 1 [gate 1 (cx)] cancelled fallback verify=not_checked",
        "pulse 2 [gate 2 (cx)] cancelled fallback verify=not_checked",
        "regroup 0 [regroup] cancelled fallback verify=not_checked",
    }, "reports");
    expect_table(jobs(r), {
        "h q=0 placeholder",
        "cx q=0,1 placeholder",
        "cx q=1,2 placeholder",
    }, "jobs");
}

TEST(PulseStageCharacterization, BlockPulseFault) {
    const FaultGuard g("pulse.block=*");
    EpocCompiler compiler(options());
    const EpocResult r = compiler.compile(bench::ghz(5));
    expect_table(reports(r), {
        "synthesis 0 [synth block 0 (3q)] none verify=not_checked",
        "synthesis 1 [synth block 1 (2q)] none verify=not_checked",
        "synthesis 2 [synth block 2 (2q)] none verify=not_checked",
        "pulse 0 [gate 0 (h)] none verify=not_checked",
        "pulse 1 [gate 1 (cx)] none verify=not_checked",
        "pulse 2 [gate 2 (cx)] none verify=not_checked",
        "pulse 3 [gate 3 (cx)] none verify=not_checked",
        "pulse 4 [gate 4 (cx)] none verify=not_checked",
        "pulse 0 [grouped block 0 (3q)] injected fallback verify=not_checked",
        "pulse 1 [grouped block 1 (2q)] injected fallback verify=not_checked",
        "pulse 2 [grouped block 2 (2q)] injected fallback verify=not_checked",
    }, "reports");
}

TEST(PulseStageCharacterization, GatePulseFaultRegroupOff) {
    const FaultGuard g("pulse.gate=*");
    EpocOptions opt = options();
    opt.regroup_enabled = false;
    EpocCompiler compiler(opt);
    const EpocResult r = compiler.compile(bench::ghz(3));
    expect_table(reports(r), {
        "synthesis 0 [synth block 0 (3q)] none verify=not_checked",
        "pulse 0 [gate 0 (h)] injected fallback verify=not_checked",
        "pulse 1 [gate 1 (cx)] injected fallback verify=not_checked",
        "pulse 2 [gate 2 (cx)] injected fallback verify=not_checked",
    }, "reports");
    expect_table(jobs(r), {
        "h q=0 placeholder",
        "cx q=0,1 placeholder",
        "cx q=1,2 placeholder",
    }, "jobs");
}

TEST(PulseStageCharacterization, SecondGatePulseFault) {
    const FaultGuard g("pulse.gate=2");
    EpocCompiler compiler(options());
    const EpocResult r = compiler.compile(bench::ghz(3));
    expect_table(reports(r), {
        "synthesis 0 [synth block 0 (3q)] none verify=not_checked",
        "pulse 0 [gate 0 (h)] none verify=not_checked",
        "pulse 1 [gate 1 (cx)] injected fallback verify=not_checked",
        "pulse 2 [gate 2 (cx)] none verify=not_checked",
        "pulse 0 [grouped block 0 (3q)] none verify=not_checked",
    }, "reports");
}

TEST(PulseStageCharacterization, ZxFault) {
    const FaultGuard g("zx.fail=*");
    EpocCompiler compiler(options());
    const EpocResult r = compiler.compile(bench::qft(3));
    expect_table(reports(r), {
        "zx 0 [zx] injected fallback verify=not_checked",
        "synthesis 0 [synth block 0 (3q)] none verify=not_checked",
        "pulse 0 [gate 0 (h)] none verify=not_checked",
        "pulse 1 [gate 1 (cp)] none verify=not_checked",
        "pulse 2 [gate 2 (cp)] none verify=not_checked",
        "pulse 3 [gate 3 (h)] none verify=not_checked",
        "pulse 4 [gate 4 (cp)] none verify=not_checked",
        "pulse 5 [gate 5 (h)] none verify=not_checked",
        "pulse 6 [gate 6 (swap)] none verify=not_checked",
        "pulse 0 [grouped block 0 (3q)] none verify=not_checked",
    }, "reports");
}

TEST(PulseStageCharacterization, PartitionFault) {
    const FaultGuard g("partition.fail=*");
    EpocCompiler compiler(options());
    const EpocResult r = compiler.compile(bench::qft(3));
    expect_table(reports(r), {
        "partition 0 [partition] injected fallback verify=not_checked",
        "pulse 0 [gate 0 (h)] none verify=not_checked",
        "pulse 1 [gate 1 (cp)] none verify=not_checked",
        "pulse 2 [gate 2 (cp)] none verify=not_checked",
        "pulse 3 [gate 3 (h)] none verify=not_checked",
        "pulse 4 [gate 4 (cp)] none verify=not_checked",
        "pulse 5 [gate 5 (h)] none verify=not_checked",
        "pulse 6 [gate 6 (swap)] none verify=not_checked",
        "pulse 0 [grouped block 0 (3q)] none verify=not_checked",
    }, "reports");
}

TEST(PulseStageCharacterization, RegroupFault) {
    const FaultGuard g("regroup.fail=*");
    EpocCompiler compiler(options());
    const EpocResult r = compiler.compile(bench::qft(3));
    expect_table(reports(r), {
        "synthesis 0 [synth block 0 (3q)] none verify=not_checked",
        "pulse 0 [gate 0 (h)] none verify=not_checked",
        "pulse 1 [gate 1 (cp)] none verify=not_checked",
        "pulse 2 [gate 2 (cp)] none verify=not_checked",
        "pulse 3 [gate 3 (h)] none verify=not_checked",
        "pulse 4 [gate 4 (cp)] none verify=not_checked",
        "pulse 5 [gate 5 (h)] none verify=not_checked",
        "pulse 6 [gate 6 (swap)] none verify=not_checked",
        "regroup 0 [regroup] injected fallback verify=not_checked",
    }, "reports");
    expect_table(jobs(r), {
        "h q=2",
        "cp q=1,2",
        "cp q=0,2",
        "h q=1",
        "cp q=0,1",
        "h q=0",
        "swap q=0,2",
    }, "jobs");
}

TEST(PulseStageCharacterization, SynthesisBlockFault) {
    const FaultGuard g("synth.block=*");
    EpocCompiler compiler(options());
    const EpocResult r = compiler.compile(bench::qft(3));
    expect_table(reports(r), {
        "synthesis 0 [synth block 0 (3q)] injected fallback verify=not_checked",
        "pulse 0 [gate 0 (h)] none verify=not_checked",
        "pulse 1 [gate 1 (cp)] none verify=not_checked",
        "pulse 2 [gate 2 (cp)] none verify=not_checked",
        "pulse 3 [gate 3 (h)] none verify=not_checked",
        "pulse 4 [gate 4 (cp)] none verify=not_checked",
        "pulse 5 [gate 5 (h)] none verify=not_checked",
        "pulse 6 [gate 6 (swap)] none verify=not_checked",
        "pulse 0 [grouped block 0 (3q)] none verify=not_checked",
    }, "reports");
}

TEST(PulseStageCharacterization, FullVerifyCatchesBadPulse) {
    const FaultGuard g("latency.badpulse=1");
    EpocOptions opt = options();
    opt.verify_level = verify::VerifyLevel::full;
    EpocCompiler compiler(opt);
    const EpocResult r = compiler.compile(bench::ghz(3));
    expect_table(reports(r), {
        "synthesis 0 [synth block 0 (3q)] none verify=not_checked",
        "pulse 0 [gate 0 (h)] verify_failed verify=passed",
        "pulse 1 [gate 1 (cx)] none verify=passed",
        "pulse 2 [gate 2 (cx)] none verify=passed",
        "pulse 0 [grouped block 0 (3q)] none verify=passed",
    }, "reports");
}

TEST(PulseStageCharacterization, PlanHitUnderBlockFault) {
    const auto qaoa = [](double gamma, double beta) {
        Circuit c(2);
        c.h(0).h(1).rzz(gamma, 0, 1).rx(beta, 0).rx(beta, 1);
        return c;
    };
    const FaultGuard g("pulse.block=*");
    EpocOptions opt = options();
    opt.plan_cache = true;
    EpocCompiler compiler(opt);
    (void)compiler.compile(qaoa(0.4, 0.9)); // builds the plan
    const EpocResult r = compiler.compile(qaoa(1.3, -0.6));
    ASSERT_TRUE(r.plan_hit);
    expect_table(reports(r), {
        "pulse 0 [gate 0 (u3)] none verify=not_checked",
        "pulse 1 [gate 1 (u3)] none verify=not_checked",
        "pulse 2 [gate 2 (rzz)] none verify=not_checked",
        "pulse 3 [gate 3 (rx)] none verify=not_checked",
        "pulse 4 [gate 4 (rx)] none verify=not_checked",
        "pulse 0 [grouped block 0 (2q)] injected fallback verify=not_checked",
    }, "reports");
}

TEST(PulseStageCharacterization, GatePulseFaultOnLinear5) {
    const backend::BackendRegistry registry;
    const FaultGuard g("pulse.gate=*");
    CompileCallOptions call;
    call.backend = registry.find("linear-5");
    ASSERT_NE(call.backend, nullptr);
    EpocCompiler compiler(options());
    Circuit c(3);
    c.h(0).cx(0, 2).cx(2, 1);
    const EpocResult r = compiler.compile(c, call);
    expect_table(reports(r), {
        "synthesis 0 [synth block 0 (1q)] none verify=not_checked",
        "synthesis 1 [synth block 1 (2q)] none verify=not_checked",
        "synthesis 2 [synth block 2 (2q)] none verify=not_checked",
        "synthesis 3 [synth block 3 (2q)] none verify=not_checked",
        "synthesis 4 [synth block 4 (2q)] none verify=not_checked",
        "pulse 0 [gate 0 (u3)] injected fallback verify=not_checked",
        "pulse 1 [gate 1 (swap)] injected fallback verify=not_checked",
        "pulse 2 [gate 2 (cx)] injected fallback verify=not_checked",
        "pulse 3 [gate 3 (swap)] injected fallback verify=not_checked",
        "pulse 4 [gate 4 (cx)] injected fallback verify=not_checked",
        "pulse 0 [grouped block 0 (3q)] none verify=not_checked",
    }, "reports");
}

// The recompute-once rung of synthesis. A generic SU(4) element written with
// 4 CNOTs, kept whole (no ZX, 2-qubit blocks): QSearch finds a shorter
// realisation, so the synthesized circuit replaces the block and passes the
// corruption site on its way to the audit.
EpocOptions synthesis_audit_options() {
    EpocOptions opt = options();
    opt.verify_level = verify::VerifyLevel::full;
    opt.trace_enabled = true;
    opt.use_zx = false;
    opt.partition.max_qubits = 2;
    opt.qsearch.instantiate.restarts = 4;
    return opt;
}

Circuit four_cnot_su4() {
    Circuit c(2);
    c.cx(0, 1).rz(0.3, 1).cx(0, 1).ry(0.5, 0).cx(1, 0).rx(0.7, 1).cx(0, 1);
    return c;
}

TEST(PulseStageCharacterization, SynthesisAuditCured) {
    const FaultGuard g("synth.badcircuit=1");
    EpocCompiler compiler(synthesis_audit_options());
    const EpocResult r = compiler.compile(four_cnot_su4());
    expect_table(reports(r), {
        "synthesis 0 [synth block 0 (2q)] verify_failed verify=passed",
        "pulse 0 [gate 0 (u3)] none verify=passed",
        "pulse 1 [gate 1 (u3)] none verify=passed",
        "pulse 2 [gate 2 (cx)] none verify=passed",
        "pulse 3 [gate 3 (u3)] none verify=passed",
        "pulse 4 [gate 4 (u3)] none verify=passed",
        "pulse 5 [gate 5 (cx)] none verify=passed",
        "pulse 6 [gate 6 (u3)] none verify=passed",
        "pulse 7 [gate 7 (u3)] none verify=passed",
        "pulse 0 [grouped block 0 (2q)] none verify=passed",
    }, "reports");
    expect_table(details(r), {
        "synth block 0 (2q): bad synthesized circuit detected; recomputed",
    }, "details");
    expect_table(ladder_counters(r), {
        "robust.degraded_compiles=1",
        "verify.checks=13",
        "verify.failed=1",
        "verify.pack_revalidations=0",
        "verify.passed=12",
        "verify.recomputes=1",
        "verify.revalidate_rejects=0",
        "verify.revalidations=0",
        "verify.skipped=0",
        "verify.synth_audit_failures=1",
        "verify.unverified=0",
    }, "counters");
}

TEST(PulseStageCharacterization, SynthesisAuditUnresolved) {
    const FaultGuard g("synth.badcircuit=*");
    EpocCompiler compiler(synthesis_audit_options());
    const EpocResult r = compiler.compile(four_cnot_su4());
    expect_table(reports(r), {
        "synthesis 0 [synth block 0 (2q)] verify_failed fallback verify=failed",
        "pulse 0 [gate 0 (cx)] none verify=passed",
        "pulse 1 [gate 1 (rz)] none verify=passed",
        "pulse 2 [gate 2 (cx)] none verify=passed",
        "pulse 3 [gate 3 (ry)] none verify=passed",
        "pulse 4 [gate 4 (cx)] none verify=passed",
        "pulse 5 [gate 5 (rx)] none verify=passed",
        "pulse 6 [gate 6 (cx)] none verify=passed",
        "pulse 0 [grouped block 0 (2q)] none verify=passed",
    }, "reports");
    expect_table(details(r), {
        "synth block 0 (2q): synthesis audit failed after recompute",
    }, "details");
    expect_table(ladder_counters(r), {
        "robust.degraded_compiles=1",
        "robust.synth_fallbacks=1",
        "verify.checks=12",
        "verify.failed=2",
        "verify.pack_revalidations=0",
        "verify.passed=10",
        "verify.recomputes=1",
        "verify.revalidate_rejects=0",
        "verify.revalidations=0",
        "verify.skipped=0",
        "verify.synth_audit_failures=1",
        "verify.unverified=0",
    }, "counters");
}

TEST(PulseStageCharacterization, PulseAuditUnresolved) {
    // Every generated pulse records a wrong fidelity, the recompute too: the
    // block falls to its gates, and the gates, which have no finer rung,
    // ship their re-simulated fidelity.
    const FaultGuard g("latency.badpulse=*");
    EpocOptions opt = options();
    opt.verify_level = verify::VerifyLevel::full;
    opt.trace_enabled = true;
    EpocCompiler compiler(opt);
    const EpocResult r = compiler.compile(bench::ghz(3));
    expect_table(reports(r), {
        "synthesis 0 [synth block 0 (3q)] none verify=not_checked",
        "pulse 0 [gate 0 (h)] verify_failed fallback verify=failed",
        "pulse 1 [gate 1 (cx)] verify_failed fallback verify=failed",
        "pulse 2 [gate 2 (cx)] verify_failed fallback verify=failed",
        "pulse 0 [grouped block 0 (3q)] verify_failed fallback verify=failed",
    }, "reports");
    expect_table(jobs(r), {
        "block0.g0 q=0 placeholder",
        "block0.g1 q=0,1",
        "block0.g2 q=1,2",
    }, "jobs");
    expect_table(details(r), {
        "gate 0 (h): pulse audit failed after recompute",
        "gate 1 (cx): pulse audit failed after recompute",
        "gate 2 (cx): pulse audit failed after recompute",
        "grouped block 0 (3q): pulse audit failed after recompute",
    }, "details");
    expect_table(ladder_counters(r), {
        "robust.degraded_compiles=1",
        "robust.pulse_block_fallbacks=1",
        "robust.untrusted_fidelity_shipped=6",
        "verify.checks=17",
        "verify.failed=14",
        "verify.pack_revalidations=0",
        "verify.passed=3",
        "verify.pulse_audit_failures=7",
        "verify.recomputes=7",
        "verify.revalidate_rejects=0",
        "verify.revalidations=0",
        "verify.skipped=0",
        "verify.unverified=0",
    }, "counters");
}

EpocOptions traced_options() {
    EpocOptions opt = options();
    opt.trace_enabled = true;
    return opt;
}

TEST(PulseStageCharacterization, ZxFaultAccounting) {
    const FaultGuard g("zx.fail=*");
    EpocCompiler compiler(traced_options());
    const EpocResult r = compiler.compile(bench::qft(3));
    expect_table(details(r), {
        "zx: injected fault at site 'zx.fail'",
    }, "details");
    expect_table(ladder_counters(r), {
        "robust.degraded_compiles=1",
        "robust.injected_faults=1",
        "robust.zx_fallbacks=1",
    }, "counters");
}

TEST(PulseStageCharacterization, PartitionFaultAccounting) {
    const FaultGuard g("partition.fail=*");
    EpocCompiler compiler(traced_options());
    const EpocResult r = compiler.compile(bench::qft(3));
    expect_table(details(r), {
        "partition: injected fault at site 'partition.fail'",
    }, "details");
    expect_table(ladder_counters(r), {
        "robust.degraded_compiles=1",
        "robust.injected_faults=1",
        "robust.partition_fallbacks=1",
    }, "counters");
}

TEST(PulseStageCharacterization, RegroupFaultAccounting) {
    const FaultGuard g("regroup.fail=*");
    EpocCompiler compiler(traced_options());
    const EpocResult r = compiler.compile(bench::qft(3));
    expect_table(details(r), {
        "regroup: injected fault at site 'regroup.fail'",
    }, "details");
    expect_table(ladder_counters(r), {
        "robust.degraded_compiles=1",
        "robust.injected_faults=1",
        "robust.regroup_fallbacks=1",
    }, "counters");
}

TEST(PulseStageCharacterization, PreCancelledTokenAccounting) {
    util::CancelToken token;
    token.cancel();
    CompileCallOptions call;
    call.cancel = &token;
    EpocCompiler compiler(traced_options());
    const EpocResult r = compiler.compile(bench::ghz(3), call);
    expect_table(details(r), {
        "zx: skipped: budget spent",
        "synth block 0 (3q): cancelled before the block ran",
        "gate 0 (h): cancelled before the gate ran",
        "gate 1 (cx): cancelled before the gate ran",
        "gate 2 (cx): cancelled before the gate ran",
        "regroup: skipped: budget spent",
    }, "details");
    expect_table(ladder_counters(r), {
        "robust.deadline_skips=2",
        "robust.degraded_compiles=1",
        "robust.placeholder_pulses=3",
    }, "counters");
}

} // namespace
