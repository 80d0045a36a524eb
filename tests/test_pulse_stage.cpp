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

} // namespace
