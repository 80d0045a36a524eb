#include "epoc/pipeline.h"

#include "circuit/decompose.h"
#include "qoc/decoherence.h"
#include "circuit/unitary.h"
#include "linalg/phase.h"
#include "util/fault_injection.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>

namespace epoc::core {

namespace {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;
using linalg::Matrix;
using linalg::is_identity_unitary;
using util::ms_since;

/// What a unit of per-block work (a synthesis block, a pulse unit) carries
/// into its loop's ordered merge.
struct UnitOutcome {
    explicit UnitOutcome(util::Stage stage) : status{stage, util::Cause::none, false, {}} {}
    bool ran = false; ///< the pool ran the unit's task (false: cancelled first)
    util::BlockStatus status;
    verify::Outcome verify = verify::Outcome::not_checked;
};

/// Per-block synthesis outcome, computed in parallel and merged in block
/// order so the flat circuit is identical to the sequential pass.
struct SynthFragment : UnitOutcome {
    SynthFragment() : UnitOutcome(util::Stage::synthesis) {}
    bool skip = false; ///< identity block: emit nothing
    /// The synthesized local circuit; unset (bridge, synthesis loss, any
    /// fallback) emits the block's original gates.
    std::optional<Circuit> local;
};

/// Folds the exception being handled into `st`: the one classification
/// every stage guard and ladder rung shares. An injected fault always names
/// itself; any other failure keeps an earlier cause and detail (the first
/// cause wins); either way the unit has taken its fallback. Call only from
/// inside a catch handler.
void absorb_exception(util::BlockStatus& st, util::Tracer& tracer) {
    try {
        throw;
    } catch (const util::fault::InjectedFault& e) {
        st.cause = util::Cause::injected;
        if (st.detail.empty()) st.detail = e.what();
        tracer.add_counter("robust.injected_faults");
    } catch (const std::exception& e) {
        if (st.ok()) st.cause = util::Cause::exception;
        if (st.detail.empty()) st.detail = e.what();
    } catch (...) {
        if (st.ok()) st.cause = util::Cause::exception;
        if (st.detail.empty()) st.detail = "unknown exception";
    }
    st.fallback_taken = true;
}

/// Records a whole-stage degradation (ZX, partition, regroup, schedule) as
/// that stage's one report.
void report_stage(EpocResult& res, util::BlockStatus st,
                  verify::Outcome vo = verify::Outcome::not_checked) {
    const util::Stage stage = st.stage;
    res.block_reports.push_back({stage, 0, util::stage_name(stage), std::move(st), vo});
    res.degraded = true;
}

/// The merge step both per-unit loops share, run in unit order: a unit the
/// call's cancel token stopped before the pool claimed it is marked
/// cancelled with its fallback taken, and every unit's report joins `res`.
/// Returns whether the unit ran; one that did not ships its fallback.
bool merge_report(EpocResult& res, std::size_t index, std::string label, UnitOutcome& unit,
                  const char* noun) {
    if (!unit.ran) {
        unit.status.cause = util::Cause::cancelled;
        unit.status.fallback_taken = true;
        unit.status.detail = std::string("cancelled before the ") + noun + " ran";
    }
    res.block_reports.push_back(
        {unit.status.stage, index, std::move(label), unit.status, unit.verify});
    if (!unit.status.ok()) res.degraded = true;
    return unit.ran;
}

/// A block-local gate re-addressed to the block's global qubit ids.
Gate global_gate(const Gate& g, const partition::CircuitBlock& blk) {
    Gate out = g;
    for (int& q : out.qubits) q = blk.qubits.at(static_cast<std::size_t>(q));
    return out;
}

/// The pulse target of one gate: the physical qubits the pulse spans and
/// the gate unitary over them, lifted to the 3-level space when the backend
/// models leakage. A gate whose operands couple directly targets its own
/// unitary over its operands, in operand order; one that needs shortest-path
/// qubits to connect them targets the gate embedded over the sorted union.
struct PulseTarget {
    std::vector<int> qubits;
    Matrix target;
};

PulseTarget gate_pulse_target(const backend::Backend& be, const Gate& g) {
    // Physical support: the operands plus any shortest-path qubits needed to
    // connect them, so the resolved Hamiltonian actually couples every
    // operand pair (a pulse over a disconnected set cannot entangle it).
    std::set<int> support(g.qubits.begin(), g.qubits.end());
    for (std::size_t i = 1; i < g.qubits.size(); ++i) {
        const std::vector<int> between = be.coupling.path(g.qubits[0], g.qubits[i]);
        support.insert(between.begin(), between.end());
    }
    const int width = static_cast<int>(support.size());
    // Operands that couple directly: the gate's own unitary, operand order.
    if (support.size() == g.qubits.size())
        return PulseTarget{g.qubits, backend::embed_in_levels(g.unitary(), width, be.levels)};
    std::vector<int> qs(support.begin(), support.end()); // sorted by std::set
    std::vector<int> locals;
    locals.reserve(g.qubits.size());
    for (const int q : g.qubits)
        locals.push_back(static_cast<int>(
            std::lower_bound(qs.begin(), qs.end(), q) - qs.begin()));
    const Matrix u = circuit::embed_gate(g.unitary(), locals, width);
    return PulseTarget{std::move(qs), backend::embed_in_levels(u, width, be.levels)};
}

/// Worst-outcome-wins fold for fragments auditing several pulses (the
/// gate-by-gate rung): failed > unverified > passed > not_checked.
verify::Outcome combine(verify::Outcome a, verify::Outcome b) {
    auto rank = [](verify::Outcome o) {
        switch (o) {
        case verify::Outcome::failed: return 3;
        case verify::Outcome::unverified: return 2;
        case verify::Outcome::passed: return 1;
        case verify::Outcome::not_checked: return 0;
        }
        return 0;
    };
    return rank(a) >= rank(b) ? a : b;
}

/// Thrown out of build_plan on *any* degradation (deadline expiry, injected
/// fault, failed stage audit, a degraded synthesis block): the plan cache's
/// single-flight slot is erased by the throw and the compile falls back to
/// the ordinary cold pipeline, whose ladder handles the condition honestly.
/// Only clean plans are ever cached — the cache-poisoning rule for plans.
struct PlanDegraded : std::runtime_error {
    using std::runtime_error::runtime_error;
};

/// compile() boundary validation: structural problems are reported as a
/// structured status up front (a bad_alloc from a negative qubit count, gates
/// off the register, a circuit wider than the target backend `be` when one
/// is given). schedule_asap itself no longer throws on out-of-range qubits —
/// it drops and counts them — but rejecting malformed input here keeps the
/// whole pipeline from wasting a synthesis pass on it.
util::BlockStatus validate_input(const Circuit& c, const backend::Backend* be) {
    const auto reject = [](std::string detail) {
        return util::BlockStatus{util::Stage::input, util::Cause::invalid_input, false,
                                 std::move(detail)};
    };
    if (c.num_qubits() < 0) return reject("negative qubit count");
    if (c.num_qubits() == 0 && !c.empty()) return reject("gates on a zero-qubit register");
    for (std::size_t i = 0; i < c.size(); ++i)
        for (const int q : c.gate(i).qubits)
            if (q < 0 || q >= c.num_qubits())
                return reject("gate " + std::to_string(i) + " (" + kind_name(c.gate(i).kind) +
                              ") addresses qubit " + std::to_string(q) +
                              " outside register of width " + std::to_string(c.num_qubits()));
    if (be != nullptr && c.num_qubits() > be->coupling.num_qubits())
        return reject("circuit of width " + std::to_string(c.num_qubits()) + " exceeds backend '" +
                      be->name + "' register of " + std::to_string(be->coupling.num_qubits()) +
                      " qubits");
    return {util::Stage::input, util::Cause::none, false, {}};
}

} // namespace

/// Per-unit pulse outcome: zero jobs (identity), one job (the unit's pulse),
/// or several (a block's gate-by-gate fallback rung).
struct EpocCompiler::PulseFragment : UnitOutcome {
    PulseFragment() : UnitOutcome(util::Stage::pulse) {}
    std::vector<PulseJob> jobs;
    double audit_err = 0.0; ///< per-unit contribution to the error budget
};

struct EpocCompiler::CompileContext {
    CompileContext(const backend::Backend& device, const CompileCallOptions& call, bool traced,
                   const verify::Verifier& verifier)
        : be(device), trace(traced), tally(&trace) {
        if (call.deadline_ms > 0.0) deadline = util::Deadline::after_ms(call.deadline_ms);
        deadline.link(call.cancel);
        lookup.trace = &trace;
        // Store revalidation: sampled re-simulation of L2 hits, catching
        // post-checksum damage (bytes intact, physics wrong). The sampling
        // decision keys on the store key itself so it is deterministic across
        // thread counts and processes. A rejected entry is quarantined by the
        // library and regenerated as an ordinary miss.
        //
        // Pack hits are *foreign* bytes (another machine, another build) and
        // skip the sampling gate entirely: every one is re-simulated before
        // it is trusted, even at verify level off — revalidate() is
        // level-independent and fail-open, so a shipped library costs one
        // forward simulation per first use of each entry, not a GRAPE run.
        lookup.revalidate = [this, &verifier](const std::string& key,
                                              const qoc::BlockHamiltonian& h,
                                              const Matrix& target,
                                              const qoc::LatencyResult& r, bool foreign) {
            if (!foreign && !verifier.should_check_key(key)) return true;
            return verifier.revalidate(tally, h, target, r, foreign);
        };
    }

    // The revalidation hook and the tally hold this object's address.
    CompileContext(const CompileContext&) = delete;
    CompileContext& operator=(const CompileContext&) = delete;

    /// Why the expired deadline expired: this call's own token fired, or its
    /// budget ran out.
    util::Cause expiry_cause() const {
        const util::CancelToken* token = deadline.token();
        return (token != nullptr && token->cancelled()) ? util::Cause::cancelled
                                                        : util::Cause::timeout;
    }

    /// True, with `stage` reported skipped, once the call's budget is spent.
    bool skip_spent(util::Stage stage, EpocResult& res) {
        if (!deadline.expired()) return false;
        report_stage(res, {stage, expiry_cause(), true, "skipped: budget spent"});
        trace.add_counter("robust.deadline_skips");
        return true;
    }

    /// The whole-stage rung of the ladder (DESIGN §4g), for the ZX,
    /// partition and regroup stages. Under the stage's span and fault site
    /// (`zx.fail`, ...), `run()` makes the stage's artifact; `audit(artifact)`
    /// is the stage oracle, and `use(artifact)` takes one that did not fail
    /// it. A throw anywhere, or a failed oracle, reports the stage, counts
    /// robust.<stage>_fallbacks and leaves the stage's input standing (`kept`
    /// says what that means): the stage is deterministic, so a re-run would
    /// reproduce the fault.
    template <class Run, class Audit, class Use>
    void guard_stage(util::Stage stage, const char* kept, EpocResult& res, const Run& run,
                     const Audit& audit, const Use& use) {
        const std::string name = util::stage_name(stage);
        try {
            util::Tracer::Span span = trace.span(name, "pipeline");
            util::fault::maybe_throw((name + ".fail").c_str());
            auto artifact = run();
            span.end();
            const verify::Outcome vo = audit(artifact);
            if (vo != verify::Outcome::failed) {
                use(std::move(artifact));
                return;
            }
            report_stage(res,
                         {stage, util::Cause::verify_failed, true,
                          name + " equivalence audit failed; " + kept},
                         vo);
        } catch (...) {
            util::BlockStatus st{stage, util::Cause::none, false, {}};
            absorb_exception(st, trace);
            report_stage(res, std::move(st));
        }
        trace.add_counter("robust." + name + "_fallbacks");
    }

    /// The recompute-once rung of the ladder (DESIGN §4g), for a cached
    /// artifact: `audit()` it, and on a failure count `failures` and a
    /// recompute, `recompute()` (which evicts exactly the rejected value
    /// before computing afresh) and audit again. `st` then says
    /// verify_failed and either that the `what` was recomputed, or, when the
    /// returned outcome is still `failed`, that the caller falls a rung.
    template <class Audit, class Recompute>
    verify::Outcome audit_recompute_once(const char* failures, const char* what,
                                         util::BlockStatus& st, const Audit& audit,
                                         const Recompute& recompute) {
        verify::Outcome vo = audit();
        if (vo != verify::Outcome::failed) return vo;
        trace.add_counter(failures);
        tally.recomputes.fetch_add(1, std::memory_order_relaxed);
        recompute();
        vo = audit();
        st.cause = util::Cause::verify_failed;
        if (vo == verify::Outcome::failed) {
            st.fallback_taken = true;
            if (st.detail.empty())
                st.detail =
                    std::string(util::stage_name(st.stage)) + " audit failed after recompute";
        } else if (st.detail.empty()) {
            st.detail = std::string("bad ") + what + " detected; recomputed";
        }
        return vo;
    }

    const backend::Backend& be;
    util::Deadline deadline;
    util::Tracer trace;
    verify::VerifyTally tally;
    qoc::PulseLookup lookup;
};

EpocCompiler::EpocCompiler(EpocOptions opt)
    : opt_(std::move(opt)),
      tracer_(opt_.trace_enabled),
      // Every other verifier knob keeps its default.
      verifier_(verify::VerifyOptions{.level = opt_.verify_level}),
      pool_(opt_.num_threads),
      library_(opt_.phase_aware_library) {
    if (!opt_.pulse_store_dir.empty()) {
        store::PulseStoreOptions sopt;
        sopt.dir = opt_.pulse_store_dir;
        sopt.pack_dirs = opt_.pulse_pack_dirs;
        store_ = std::make_unique<store::PulseStore>(std::move(sopt));
        library_.set_store(store_.get());
    }
}

const qoc::BlockHamiltonian& EpocCompiler::block_hamiltonian(const backend::Backend& be,
                                                             const std::vector<int>& qubits) {
    const qoc::BlockModel model = be.block_model(qubits);
    std::string key = model.key();
    // std::map never invalidates references on insert, so handing out refs
    // under a short lock is safe even while other threads add entries.
    std::lock_guard<std::mutex> lock(hams_mutex_);
    auto it = hams_.find(key);
    if (it == hams_.end())
        it = hams_.emplace(std::move(key), qoc::build_block_hamiltonian(model)).first;
    return it->second;
}

Circuit EpocCompiler::synthesize_blocks(const std::vector<partition::CircuitBlock>& blocks,
                                        int num_qubits, CompileContext& ctx,
                                        EpocResult& res) {
    const auto t0 = std::chrono::steady_clock::now();
    const util::Deadline& deadline = ctx.deadline;
    // "synth block i (nq)": the block's span and report label.
    const auto label = [&](std::size_t i) {
        return "synth block " + std::to_string(i) + " (" +
               std::to_string(blocks[i].qubits.size()) + "q)";
    };

    std::vector<SynthFragment> fragments(blocks.size());
    pool_.parallel_for(
        blocks.size(),
        [&](std::size_t i) {
            const partition::CircuitBlock& blk = blocks[i];
            SynthFragment& frag = fragments[i];
            frag.ran = true;
            const util::Tracer::Span span = ctx.trace.span(label(i), "synthesis");
            try {
                if (deadline.expired()) {
                    // Past the budget: keep the original gates without even
                    // attempting synthesis (it is an optimization, never an
                    // obligation).
                    frag.status.cause = ctx.expiry_cause();
                    frag.status.fallback_taken = true;
                    ctx.trace.add_counter("robust.deadline_skips");
                    return;
                }
                util::fault::maybe_throw("synth.block");

                // Bridging CNOTs (and the topology router's SWAP-walk hops)
                // pass through untouched.
                if (blk.bridge && blk.body.size() == 1 &&
                    (blk.body.gate(0).kind == GateKind::CX ||
                     blk.body.gate(0).kind == GateKind::SWAP))
                    return;
                const Matrix u = partition::block_unitary(blk);
                if (is_identity_unitary(u)) {
                    frag.skip = true;
                    return;
                }

                // Independent synthesis oracle: the circuit about to replace
                // this block must realise its unitary. Tolerance is the
                // synthesis threshold with an order of magnitude of slack —
                // the oracle hunts wrong circuits, not marginal convergence.
                const double synth_tol = std::max(10.0 * opt_.qsearch.threshold, 1e-8);
                const bool audit_this =
                    verifier_.enabled() && verifier_.should_check_unitary(u);
                // The oracle's outcome for frag.local, recorded on the fragment.
                const auto audit = [&] {
                    if (audit_this)
                        frag.verify = verifier_.check_synthesized_block(ctx.tally, u,
                                                                        *frag.local, synth_tol);
                    return frag.verify;
                };

                if (blk.qubits.size() == 1) {
                    // Single-qubit blocks synthesize exactly via ZYZ: one VUG.
                    // The decomposition is deterministic, so an audit failure
                    // falls straight back to the original gates: re-running
                    // it would reproduce the bug.
                    const circuit::Zyz e = circuit::zyz_decompose(u);
                    frag.local.emplace(1);
                    frag.local->u3(e.theta, e.phi, e.lambda, 0);
                    if (audit() != verify::Outcome::failed) return;
                    frag.local.reset();
                    frag.status.cause = util::Cause::verify_failed;
                    frag.status.fallback_taken = true;
                    frag.status.detail = "synthesis audit failed; original gates kept";
                    ctx.trace.add_counter("verify.synth_audit_failures");
                    ctx.trace.add_counter("robust.synth_fallbacks");
                    return;
                }

                // Restrict CNOT placements to local pairs that are
                // coupling-adjacent on the device, so the synthesized circuit
                // needs no further routing. The cache key carries the local
                // adjacency — the same unitary synthesized under a different
                // one is a different search.
                std::vector<std::pair<int, int>> allowed;
                std::string key = linalg::phase_canonical_key(u, 6) + "|T:";
                for (std::size_t a = 0; a < blk.qubits.size(); ++a)
                    for (std::size_t b = a + 1; b < blk.qubits.size(); ++b)
                        if (ctx.be.coupling.adjacent(blk.qubits[a], blk.qubits[b])) {
                            allowed.emplace_back(static_cast<int>(a), static_cast<int>(b));
                            key += std::to_string(a) + "_" + std::to_string(b) + ",";
                        }
                const auto compute = [&] {
                    // Single-flight: exactly one QSearch run per distinct
                    // unitary, so these counters match the sequential
                    // schedule for every thread count.
                    const util::Tracer::Span qspan = ctx.trace.span(
                        "qsearch " + std::to_string(blk.qubits.size()) + "q",
                        "synthesis");
                    util::fault::maybe_throw("synth.compute");
                    synthesis::QSearchOptions qopt = opt_.qsearch;
                    qopt.deadline = &deadline;
                    qopt.allowed_pairs = allowed;
                    synthesis::SynthesisResult r = synthesis::qsearch_synthesize(u, qopt);
                    ctx.trace.add_counter(r.converged ? "synth.converged"
                                                      : "synth.unconverged");
                    return r;
                };
                // Timed-out searches are best-effort, not the answer for this
                // unitary: never store them.
                const auto cacheable = [](const synthesis::SynthesisResult& r) {
                    return !r.timed_out;
                };
                // A healthy waiter never ships a timed-out result it only
                // inherited from a losing leader (same rule as PulseLibrary).
                std::shared_ptr<const synthesis::SynthesisResult> sr =
                    synth_cache_.get_or_compute_retrying(
                        key, compute, cacheable, &deadline,
                        [&] { ctx.trace.add_counter("synth.waiter_retries"); });
                // Synthesis is an optimization, not an obligation: if the
                // searched circuit carries no fewer entangling gates than the
                // original block (or missed the accuracy target), keep the
                // original gates -- they may be better parallelized.
                const bool synth_wins =
                    sr->converged &&
                    (static_cast<std::size_t>(sr->cnot_count) < blk.body.two_qubit_count() ||
                     (static_cast<std::size_t>(sr->cnot_count) ==
                          blk.body.two_qubit_count() &&
                      sr->circuit.depth() <= blk.body.depth()));
                ctx.trace.add_counter(synth_wins ? "synth.blocks_replaced"
                                                 : "synth.blocks_kept_original");
                if (sr->timed_out) {
                    frag.status.cause = ctx.expiry_cause();
                    frag.status.fallback_taken = !synth_wins;
                }
                if (!synth_wins) return;
                // Silent-corruption site for tests/CI: a plausible but *wrong*
                // synthesized circuit — status says converged, distance says
                // fine, only an independent audit can tell. Deliberately not
                // gated on the verifier, so verify=off demonstrably ships it.
                const auto take = [&] {
                    frag.local = sr->circuit;
                    if (util::fault::maybe_fail("synth.badcircuit") &&
                        frag.local->num_qubits() > 0)
                        frag.local->x(0);
                };
                take();
                // The cached entry may be poisoned (a collision, a stale
                // build's result, injected corruption): evict exactly that
                // value and re-search before giving up.
                const verify::Outcome vo = ctx.audit_recompute_once(
                    "verify.synth_audit_failures", "synthesized circuit", frag.status, audit,
                    [&] {
                        synth_cache_.erase_if(key, sr);
                        sr = synth_cache_.get_or_compute(key, compute, cacheable);
                        take();
                    });
                if (vo != verify::Outcome::failed) return;
                frag.local.reset();
                ctx.trace.add_counter("robust.synth_fallbacks");
            } catch (...) {
                frag.skip = false;
                frag.local.reset();
                absorb_exception(frag.status, ctx.trace);
                ctx.trace.add_counter("robust.synth_fallbacks");
            }
        },
        deadline.token());

    // Deterministic merge: block order, not completion order.
    Circuit flat(num_qubits);
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        SynthFragment& frag = fragments[i];
        merge_report(res, i, label(i), frag, "block");
        if (frag.skip) continue;
        flat.append_mapped(frag.local ? *frag.local : blocks[i].body, blocks[i].qubits);
    }
    res.synthesis_ms += ms_since(t0);
    return flat;
}

PulseJob EpocCompiler::placeholder_job(const Gate& g, const backend::Backend& be) const {
    return PulseJob{g.qubits,
                    be.base.dt * static_cast<double>(std::max(1, opt_.latency.max_slots)),
                    0.0, kind_name(g.kind)};
}

void EpocCompiler::pulse_unit(const PulseUnit& unit, std::size_t index, const WarmSlots* warm,
                              CompileContext& ctx, PulseFragment& frag) {
    const partition::CircuitBlock* blk = unit.block;
    const backend::Backend& be = ctx.be;
    qoc::LatencySearchOptions lopt = opt_.latency;
    lopt.deadline = &ctx.deadline;
    if (blk != nullptr) {
        // Coarser duration resolution for big blocks keeps the GRAPE
        // budget bounded (dim-16 propagators are ~8x dim-8 cost).
        if (blk->qubits.size() >= 4)
            lopt.slot_granularity = std::max(lopt.slot_granularity, 4);
        else if (blk->qubits.size() == 3)
            lopt.slot_granularity = std::max(lopt.slot_granularity, 2);
    }
    // Ladder rung 2: regenerate the block gate by gate through this same
    // routine (small targets are far more likely to meet the threshold / fit
    // the budget). The gates fold into the block's status, outcome and budget.
    const auto fall_back = [&] {
        frag.status.fallback_taken = true;
        ctx.trace.add_counter("robust.pulse_block_fallbacks");
        for (const Gate& g : blk->body.gates()) {
            const Gate gg = global_gate(g, *blk);
            pulse_unit(PulseUnit{&gg, nullptr}, 0, nullptr, ctx, frag);
        }
    };
    try {
        PulseTarget pt;
        if (blk != nullptr) {
            const Matrix bu = partition::block_unitary(*blk);
            if (is_identity_unitary(bu)) return;
            util::fault::maybe_throw("pulse.block");
            // Leakage-aware backends pulse toward the block unitary embedded
            // on the computational subspace (identity on leakage states);
            // otherwise the 2^n unitary directly.
            pt.qubits = blk->qubits;
            pt.target =
                backend::embed_in_levels(bu, static_cast<int>(blk->qubits.size()), be.levels);
        } else {
            if (is_identity_unitary(unit.gate->unitary())) return;
            util::fault::maybe_throw("pulse.gate");
            pt = gate_pulse_target(be, *unit.gate);
        }
        const qoc::BlockHamiltonian& h = block_hamiltonian(be, pt.qubits);
        qoc::LatencySearchOptions seeded = lopt;
        if (warm != nullptr) {
            // Plan path: seed a library miss's GRAPE run with the previous
            // iterate's amplitudes for this unit. The library key excludes
            // the seed, so hits are unaffected.
            std::vector<std::vector<double>> seed = warm->get(index);
            if (!seed.empty()) {
                seeded.grape.warm_amplitudes = std::move(seed);
                ctx.trace.add_counter("qoc.warm_starts");
            }
        }
        std::shared_ptr<const qoc::LatencyResult> lr =
            library_.get_or_generate(h, pt.target, seeded, ctx.lookup);
        const bool usable = lr->feasible && lr->authoritative();
        if (warm != nullptr && usable) warm->put(index, lr->pulse.amplitudes);
        if (blk != nullptr && lopt.slot_granularity > opt_.latency.slot_granularity) {
            // Regression guards for the cache-key collision: the coarse
            // arm's pulses must actually carry coarsened slot counts, even
            // when the fine-granularity arm requested the same unitary first.
            ctx.trace.add_counter("qoc.coarse_blocks");
            ctx.trace.add_counter("qoc.coarse_block_slots",
                                  static_cast<std::uint64_t>(lr->pulse.num_slots()));
            if (lr->pulse.num_slots() % lopt.slot_granularity != 0)
                ctx.trace.add_counter("qoc.coarse_granularity_violations");
        }
        // The first cause wins, so a gate on a block's fallback rung leaves
        // the block's own cause standing.
        if (!lr->feasible) {
            if (frag.status.ok()) frag.status.cause = util::Cause::infeasible;
            frag.status.fallback_taken = true;
            ctx.trace.add_counter("qoc.infeasible_blocks");
        } else if (!usable && frag.status.ok()) {
            frag.status.cause = lr->injected    ? util::Cause::injected
                                : lr->timed_out ? ctx.expiry_cause()
                                                : util::Cause::nonfinite;
        }
        // An infeasible or degraded block pulse falls a rung. A single gate
        // has no finer rung: it ships its best below-threshold pulse, flagged.
        if (blk != nullptr && !usable) return fall_back();
        // Schedule audit: only a usable pulse is worth it (the degraded
        // rungs already carry an honest cause), and sampled mode audits only
        // the deterministic unitary-keyed subset. The audit and any recompute
        // run under the un-seeded options: the cache key is identical either
        // way, and a recompute must not re-run a possibly-bad seed.
        verify::Outcome vo = verify::Outcome::not_checked;
        double err = 0.0;   // |recorded - re-simulated| fidelity
        double resim = 0.0; // re-simulated fidelity
        if (verifier_.enabled() && usable && verifier_.should_check_unitary(pt.target))
            vo = ctx.audit_recompute_once(
                "verify.pulse_audit_failures", "pulse", frag.status,
                [&] { return verifier_.audit_pulse(ctx.tally, h, pt.target, *lr, &err, &resim); },
                [&] { lr = library_.regenerate(h, pt.target, lopt, lr, ctx.lookup); });
        frag.verify = combine(frag.verify, vo);
        const bool trusted = vo != verify::Outcome::failed;
        // A block whose audit still failed after the recompute falls a rung;
        // the rejected pulse is not shipped, so its audit error does not
        // enter the budget.
        if (blk != nullptr && !trusted) return fall_back();
        frag.audit_err += err;
        double f = lr->pulse.fidelity;
        if (!trusted) {
            // No finer rung below a single gate: ship the re-simulated
            // fidelity in place of the untrustworthy recorded one.
            f = resim;
            ctx.trace.add_counter("robust.untrusted_fidelity_shipped");
        }
        frag.jobs.push_back(PulseJob{pt.qubits, lr->pulse.duration(), f,
                                     blk != nullptr ? "" : kind_name(unit.gate->kind)});
    } catch (...) {
        absorb_exception(frag.status, ctx.trace);
        if (blk != nullptr) return fall_back();
        frag.jobs.push_back(placeholder_job(*unit.gate, be));
        ctx.trace.add_counter("robust.placeholder_pulses");
    }
}

std::vector<PulseJob> EpocCompiler::pulse_arm(const std::vector<PulseUnit>& units,
                                              const WarmSlots* warm, CompileContext& ctx,
                                              EpocResult& res, double& audit_err) {
    // "gate i (kind)" / "block i (nq)": the unit's span and report label.
    const auto name = [&](std::size_t i) {
        const PulseUnit& u = units[i];
        return u.block != nullptr ? "block " + std::to_string(i) + " (" +
                                        std::to_string(u.block->qubits.size()) + "q)"
                                  : "gate " + std::to_string(i) + " (" +
                                        kind_name(u.gate->kind) + ")";
    };
    std::vector<PulseFragment> frags(units.size());
    pool_.parallel_for(
        units.size(),
        [&](std::size_t i) {
            frags[i].ran = true;
            const util::Tracer::Span span = ctx.trace.span("pulse " + name(i), "qoc");
            pulse_unit(units[i], i, warm, ctx, frags[i]);
        },
        ctx.deadline.token());

    std::vector<PulseJob> jobs;
    jobs.reserve(units.size());
    std::size_t bi = 0; // running non-identity block ordinal (label scheme)
    for (std::size_t i = 0; i < units.size(); ++i) {
        const partition::CircuitBlock* blk = units[i].block;
        PulseFragment& frag = frags[i];
        if (!merge_report(res, i, blk != nullptr ? "grouped " + name(i) : name(i), frag,
                          blk != nullptr ? "block" : "gate")) {
            // Placeholder pulses keep the schedule structurally complete
            // without doing QOC work.
            if (blk == nullptr) frag.jobs.push_back(placeholder_job(*units[i].gate, ctx.be));
            else
                for (const Gate& g : blk->body.gates())
                    frag.jobs.push_back(placeholder_job(global_gate(g, *blk), ctx.be));
            ctx.trace.add_counter("robust.placeholder_pulses", frag.jobs.size());
        }
        audit_err += frag.audit_err; // deterministic unit-merge order
        if (blk != nullptr && !frag.jobs.empty()) {
            const bool split = frag.jobs.size() > 1;
            for (std::size_t j = 0; j < frag.jobs.size(); ++j)
                frag.jobs[j].label = "block" + std::to_string(bi) +
                                     (split ? ".g" + std::to_string(j) : "");
            ++bi;
        }
        for (PulseJob& job : frag.jobs) jobs.push_back(std::move(job));
    }
    return jobs;
}

std::size_t EpocCompiler::pulse_stage(const Circuit& current, const CompilationPlan* plan,
                                      CompileContext& ctx, EpocResult& res) {
    const auto t0 = std::chrono::steady_clock::now();
    const bool warm = plan != nullptr && opt_.plan_warm_start;
    const auto schedule = [&](const std::vector<PulseJob>& jobs) {
        const util::Tracer::Span span = ctx.trace.span("schedule asap", "pipeline");
        return schedule_asap(jobs, current.num_qubits());
    };

    // The fine-grained arm (one pulse per gate) is always evaluated -- it is
    // cheap thanks to the pulse library.
    std::vector<PulseUnit> units;
    units.reserve(current.size());
    for (const Gate& g : current.gates()) units.push_back(PulseUnit{&g, nullptr});
    double shipped_budget = 0.0; // audited |recorded - resim| sum, shipped arm
    util::Tracer::Span fine_span = ctx.trace.span("pulses fine-grained", "pipeline");
    const std::vector<PulseJob> fine_jobs =
        pulse_arm(units, warm ? &plan->fine_warm : nullptr, ctx, res, shipped_budget);
    fine_span.end();
    res.schedule = schedule(fine_jobs);

    // 4. Regroup, and evaluate the grouped arm's schedule too: the shorter of
    // the two wins. On wide, shallow circuits a wide block pulse can blockade
    // qubit lines and lose to well-packed per-gate pulses. With no budget
    // left for a second arm, the fine-grained one ships.
    std::size_t num_groups = 0;
    if (opt_.regroup_enabled && !ctx.skip_spent(util::Stage::regroup, res))
        ctx.guard_stage(
            util::Stage::regroup, "fine-grained arm kept", res,
            [&] {
                std::vector<partition::CircuitBlock> groups =
                    regroup(current, opt_.regroup_opt, &ctx.be.coupling);
                num_groups = groups.size();
                ctx.trace.add_counter("pipeline.regroup_blocks", groups.size());
                return groups;
            },
            // The regrouped block-unitary product must still be the
            // synthesized circuit.
            [&](const std::vector<partition::CircuitBlock>& groups) {
                return verifier_.check_blocks_equiv(ctx.tally, current, groups, "regroup");
            },
            [&](const std::vector<partition::CircuitBlock>& groups) {
                units.clear();
                for (const partition::CircuitBlock& blk : groups)
                    units.push_back(PulseUnit{nullptr, &blk});
                util::Tracer::Span grouped_span = ctx.trace.span("pulses grouped", "pipeline");
                double grouped_budget = 0.0;
                const std::vector<PulseJob> jobs = pulse_arm(
                    units, warm ? &plan->group_warm : nullptr, ctx, res, grouped_budget);
                grouped_span.end();
                PulseSchedule grouped = schedule(jobs);
                const bool grouped_wins = grouped.latency <= res.schedule.latency;
                ctx.trace.add_counter(grouped_wins ? "pipeline.grouped_arm_wins"
                                                   : "pipeline.fine_arm_wins");
                if (grouped_wins) {
                    res.schedule = std::move(grouped);
                    shipped_budget = grouped_budget;
                }
            });
    if (res.schedule.dropped_jobs > 0) {
        // The shipped schedule refused jobs addressing out-of-register
        // qubits (schedule_asap drops instead of throwing): report it as
        // a §4e schedule-stage degradation so callers see the partial
        // schedule for what it is.
        report_stage(res, {util::Stage::schedule, util::Cause::invalid_input, true,
                           res.schedule.drop_detail});
        ctx.trace.add_counter("robust.dropped_jobs", res.schedule.dropped_jobs);
    }
    // The call's audit record is complete here: every check of the front end
    // (or plan build) and both arms, plus the shipped arm's audited error.
    res.verify = ctx.tally.summary(res.verify.level);
    res.verify.error_budget = shipped_budget;
    res.qoc_ms = ms_since(t0);
    return num_groups;
}

Circuit EpocCompiler::front_end(const Circuit& c, CompileContext& ctx, EpocResult& res,
                                Circuit* after_zx) {
    // 1. Graph-based depth optimization. Failure or a spent budget keeps the
    // original circuit: ZX is a pure optimization.
    Circuit current = c;
    const auto t0 = std::chrono::steady_clock::now();
    if (opt_.use_zx && !ctx.skip_spent(util::Stage::zx, res))
        ctx.guard_stage(
            util::Stage::zx, "original circuit kept", res,
            [&] { return zx::zx_optimize(c).circuit; },
            // The rewritten circuit must still be the input up to global phase.
            [&](const Circuit& out) {
                return verifier_.check_circuit_equiv(ctx.tally, c, out, "zx");
            },
            [&](Circuit&& out) { current = std::move(out); });
    res.zx_ms = ms_since(t0);
    res.depth_after_zx = current.depth();
    if (after_zx != nullptr) *after_zx = current;

    // 2+3. Partition and synthesize (parallel over blocks). A partitioner
    // failure skips synthesis for the whole circuit (again: an optimization).
    // Partition checks no budget: past it, each block keeps its own gates
    // inside synthesis.
    if (opt_.use_synthesis)
        ctx.guard_stage(
            util::Stage::partition, "synthesis skipped", res,
            [&] {
                std::vector<partition::CircuitBlock> blocks =
                    partition::greedy_partition(current, opt_.partition, &ctx.be.coupling);
                res.num_blocks = blocks.size();
                return blocks;
            },
            // The block list must reproduce the circuit it partitions.
            [&](const std::vector<partition::CircuitBlock>& blocks) {
                return verifier_.check_blocks_equiv(ctx.tally, current, blocks, "partition");
            },
            [&](const std::vector<partition::CircuitBlock>& blocks) {
                const util::Tracer::Span span = ctx.trace.span("synthesis", "pipeline");
                current = synthesize_blocks(blocks, current.num_qubits(), ctx, res);
            });
    return current;
}

CompilationPlan EpocCompiler::build_plan(const circuit::StrippedCircuit& stripped,
                                         CompileContext& ctx) {
    const util::Tracer::Span span = ctx.trace.span("plan build", "pipeline");
    // Parametric gates are reuse barriers: the front end runs only over the
    // maximal parameter-free program-order segments between them, which makes
    // the skeleton angle-independent by construction. The parametric gates
    // themselves pass through as strip_parameters stamped them, with slot
    // sentinels (circuit/structure.h), so the bindings recovered by scanning
    // the finished skeleton line up with the stripped angle vector.
    const Circuit& stamped = stripped.sentinel_template;
    CompilationPlan plan;
    plan.skeleton = Circuit(stamped.num_qubits());
    Circuit after_zx(stamped.num_qubits()); // post-ZX, pre-synthesis (depth_after_zx)
    Circuit segment(stamped.num_qubits());
    const auto process_segment = [&] {
        if (segment.empty()) return;
        // The front end's reports are dropped: a clean build has only clean
        // ones, and a degraded build goes cold, where they are made again.
        EpocResult sink;
        Circuit zx_out(0);
        const Circuit synthesized = front_end(segment, ctx, sink, &zx_out);
        if (sink.degraded) throw PlanDegraded("plan build: degraded front end");
        after_zx.append(zx_out);
        plan.skeleton.append(synthesized);
        plan.partition_blocks += sink.num_blocks;
        segment = Circuit(stamped.num_qubits());
    };
    for (const Gate& g : stamped.gates()) {
        if (g.params.empty() || !circuit::is_slot_sentinel(g.params.front())) {
            segment.add(g);
            continue;
        }
        process_segment();
        after_zx.add(g);
        plan.skeleton.add(g);
    }
    process_segment();

    plan.depth_after_zx = after_zx.depth();
    plan.bindings = circuit::scan_bindings(plan.skeleton);
    return plan;
}

std::shared_ptr<const CompilationPlan> EpocCompiler::bind_plan(const Circuit& c,
                                                               CompileContext& ctx,
                                                               Circuit& bound, bool& hit) {
    try {
        const util::Tracer::Span span = ctx.trace.span("plan", "pipeline");
        util::fault::maybe_throw("plan.lookup");
        const circuit::StrippedCircuit stripped = circuit::strip_parameters(c);
        // The backend fingerprint joins the plan key: the same structure
        // targeted at two devices partitions, routes and synthesizes
        // differently, so the plans must never be shared.
        const std::string key =
            stripped.key + "|B:" + std::to_string(ctx.be.fingerprint_hash());
        bool built = false;
        const std::shared_ptr<const CompilationPlan> plan =
            plan_cache_.get_or_compute(key, [&] {
                built = true;
                return build_plan(stripped, ctx);
            });
        if (built) {
            ctx.trace.add_counter("plan.misses");
            ctx.trace.add_counter("plan.builds");
        } else {
            ctx.trace.add_counter("plan.hits");
        }
        util::fault::maybe_throw("plan.instantiate");
        // bind_parameters throws on a stale binding: a half-bound circuit is
        // never shipped.
        bound = plan->skeleton;
        circuit::bind_parameters(bound, plan->bindings, stripped.params);
        hit = !built;
        return plan;
    } catch (const util::fault::InjectedFault&) {
        ctx.trace.add_counter("robust.injected_faults");
    } catch (...) {
        // PlanDegraded, a stale binding, or anything else on the plan path:
        // fall back to the cold pipeline, whose ladder reports any real
        // degradation honestly.
    }
    return nullptr;
}

EpocResult EpocCompiler::compile(const Circuit& c) { return compile(c, {}); }

EpocResult EpocCompiler::compile(const Circuit& c, const CompileCallOptions& call) {
    EpocResult res;
    res.verify.level = verifier_.options().level;
    std::shared_ptr<const backend::Backend> be_ptr = call.backend;
    res.status = validate_input(c, be_ptr.get());
    res.threads_used = pool_.num_threads();
    if (be_ptr != nullptr) res.backend_name = be_ptr->name;
    if (!res.status.ok()) {
        // Structured rejection: an empty result, never a deep out_of_range.
        res.schedule.num_qubits = std::max(0, c.num_qubits());
        return res;
    }
    // The one place that asks whether a backend was given: a compile that
    // names none runs on an implicit all-to-all device of its width, built
    // from EpocOptions::device (O(1): the complete map is held implicitly).
    // Its name is empty: Backend::validate rejects empty names, so no
    // registered backend shares its keys, and unlike "full-<width>" it keeps
    // the register width out of the pulse key — circuits of different
    // widths share gate pulses.
    if (be_ptr == nullptr)
        be_ptr = std::make_shared<const backend::Backend>(
            std::string(), circuit::CouplingMap::full(c.num_qubits()), opt_.device);
    const backend::Backend& be = *be_ptr;
    res.depth_original = c.depth();
    res.gates_original = c.size();
    const auto t_start = std::chrono::steady_clock::now();
    if (c.empty()) {
        // A trivially valid empty schedule; skip the pipeline entirely.
        res.schedule.num_qubits = be.coupling.num_qubits();
        res.compile_ms = ms_since(t_start);
        return res;
    }

    // Compiles run over the full physical register: blocks may route through
    // coupling-path qubits outside the logical circuit, so the whole
    // pipeline (stage oracles, blocks_to_circuit, the schedule) sees the
    // backend width. Identity layout — qubit i of `c` is physical i.
    std::optional<Circuit> widened;
    const Circuit* input = &c;
    if (c.num_qubits() < be.coupling.num_qubits()) {
        widened.emplace(be.coupling.num_qubits());
        std::vector<int> ident(static_cast<std::size_t>(c.num_qubits()));
        std::iota(ident.begin(), ident.end(), 0);
        widened->append_mapped(c, ident);
        input = &*widened;
    }

    CompileContext ctx(be, call, tracer_.enabled(), verifier_);
    util::Tracer::Span compile_span = ctx.trace.span("compile", "pipeline");

    // The plan path is the cold path plus a cache: a bound plan stands in
    // for the front end (ZX, partition, synthesis), and both paths share the
    // pulse stage. bind_plan never writes `res`, so a plan failure leaves it
    // pristine for the front end.
    std::shared_ptr<const CompilationPlan> plan;
    Circuit current(0);
    if (opt_.plan_cache) {
        plan = bind_plan(*input, ctx, current, res.plan_hit);
        if (plan == nullptr) ctx.trace.add_counter("robust.plan_fallbacks");
    }
    if (plan != nullptr) {
        res.depth_after_zx = plan->depth_after_zx;
        res.num_blocks = plan->partition_blocks;
    } else {
        current = front_end(*input, ctx, res);
    }
    ctx.trace.add_counter("pipeline.blocks", res.num_blocks);
    res.synthesized = current;
    res.synthesized_gates = current.size();
    // 4+5. Regroup (or not) and generate pulses (parallel over gates/blocks).
    const std::size_t num_groups = pulse_stage(current, plan.get(), ctx, res);
    if (res.plan_hit) {
        res.plan_blocks_reused = num_groups > 0 ? num_groups : plan->partition_blocks;
        ctx.trace.add_counter("plan.blocks_reinstantiated", res.plan_blocks_reused);
    }

    res.num_pulses = res.schedule.pulses.size();
    res.latency_ns = res.schedule.latency;
    res.esp = res.schedule.esp;
    res.esp_decoherent = qoc::esp_with_decoherence(res.schedule);
    res.compile_ms = ms_since(t_start);
    res.library_stats = library_.stats();
    res.synth_cache_stats = synth_cache_.stats();
    if (store_ != nullptr) {
        res.store_enabled = true;
        res.store_stats = store_->stats();
    }
    res.deadline_hit = ctx.deadline.armed() && ctx.deadline.expired();
    if (res.degraded) {
        // Surface the first failure as the compile-level status (the full
        // account is in block_reports).
        for (const BlockReport& br : res.block_reports) {
            if (!br.status.ok()) {
                res.status = br.status;
                break;
            }
        }
        ctx.trace.add_counter("robust.degraded_compiles");
    }
    compile_span.end();
    if (ctx.trace.enabled()) {
        // Fold the cumulative cache, store and verify stats into the call's
        // counters, so its trace is self-contained.
        const auto set = [&](const std::string& name, std::uint64_t v) {
            ctx.trace.set_counter(name, v);
        };
        res.library_stats.for_each_counter(set);
        res.synth_cache_stats.for_each_counter("synth_cache.", set);
        if (store_ != nullptr) res.store_stats.for_each_counter(set);
        if (verifier_.enabled()) res.verify.for_each_counter(set);
        res.trace = ctx.trace.report();
    }
    return res;
}

} // namespace epoc::core
