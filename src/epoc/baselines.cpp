#include "epoc/baselines.h"

#include "circuit/decompose.h"
#include "qoc/decoherence.h"
#include "circuit/unitary.h"
#include "linalg/phase.h"

#include <chrono>
#include <limits>

namespace epoc::core {

namespace {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;
using linalg::Matrix;
using linalg::is_identity_unitary;

} // namespace

BaselineCompiler::BaselineCompiler(const qoc::DeviceParams& device)
    : library_(true), device_(device) {}

const qoc::BlockHamiltonian& BaselineCompiler::hamiltonian(int nq) {
    auto it = hams_.find(nq);
    if (it == hams_.end())
        it = hams_.emplace(nq, qoc::make_block_hamiltonian(nq, device_)).first;
    return it->second;
}

EpocResult BaselineCompiler::finish(const Circuit& c, EpocResult res,
                                    const std::vector<PulseJob>& jobs,
                                    std::chrono::steady_clock::time_point t0) const {
    res.depth_original = c.depth();
    res.gates_original = c.size();
    res.schedule = schedule_asap(jobs, c.num_qubits());
    res.num_pulses = jobs.size();
    res.latency_ns = res.schedule.latency;
    res.esp = res.schedule.esp;
    res.esp_decoherent = qoc::esp_with_decoherence(res.schedule);
    res.compile_ms = util::ms_since(t0);
    res.library_stats = library_.stats();
    return res;
}

// ---------------------------------------------------------------- gate-based

GateBasedCompiler::GateBasedCompiler(qoc::DeviceParams device,
                                     qoc::LatencySearchOptions latency)
    : BaselineCompiler(device), latency_(latency) {}

EpocResult GateBasedCompiler::compile(const Circuit& c) {
    const auto t0 = std::chrono::steady_clock::now();
    EpocResult res;
    const Circuit lowered = circuit::transpile(c, circuit::Basis::RZ_SX_CX);
    res.synthesized = lowered;
    res.synthesized_gates = lowered.size();

    std::vector<PulseJob> jobs;
    for (const Gate& g : lowered.gates()) {
        if (g.kind == GateKind::RZ || g.kind == GateKind::P) {
            // Virtual Z: frame update, zero duration, perfect fidelity.
            jobs.push_back({g.qubits, 0.0, 1.0, "rz"});
            continue;
        }
        const auto lr = library_.get_or_generate(hamiltonian(g.arity()), g.unitary(), latency_);
        jobs.push_back({g.qubits, lr->pulse.duration(), lr->pulse.fidelity,
                        circuit::kind_name(g.kind)});
    }
    return finish(c, std::move(res), jobs, t0);
}

// ---------------------------------------------------------------- PAQOC-like

PaqocLikeCompiler::PaqocLikeCompiler(PaqocOptions opt)
    : BaselineCompiler(opt.device), opt_(std::move(opt)) {}

EpocResult PaqocLikeCompiler::compile(const Circuit& c) {
    const auto t0 = std::chrono::steady_clock::now();
    EpocResult res;
    const std::vector<partition::CircuitBlock> blocks =
        partition::greedy_partition(c, opt_.partition);
    res.num_blocks = blocks.size();

    std::vector<PulseJob> jobs;
    for (const partition::CircuitBlock& blk : blocks) {
        const Matrix u = partition::block_unitary(blk);
        if (is_identity_unitary(u)) continue;
        const auto lr = library_.get_or_generate(
            hamiltonian(static_cast<int>(blk.qubits.size())), u, opt_.latency);
        jobs.push_back({blk.qubits, lr->pulse.duration(), lr->pulse.fidelity, "group"});
    }
    return finish(c, std::move(res), jobs, t0);
}

// --------------------------------------------------------------- AccQOC-like

AccqocLikeCompiler::AccqocLikeCompiler(AccqocOptions opt)
    : BaselineCompiler(opt.device), opt_(std::move(opt)) {}

EpocResult AccqocLikeCompiler::compile(const Circuit& c) {
    const auto t0 = std::chrono::steady_clock::now();
    EpocResult res;
    partition::PartitionOptions popt;
    popt.max_qubits = 2;
    popt.max_gates = opt_.slice_gates;
    const std::vector<partition::CircuitBlock> blocks = partition::greedy_partition(c, popt);
    res.num_blocks = blocks.size();

    // Gather distinct unitaries that are not yet in the library.
    struct Pending {
        Matrix u;
        int nq;
    };
    std::vector<Pending> pending;
    std::vector<std::string> seen;
    for (const partition::CircuitBlock& blk : blocks) {
        Matrix u = partition::block_unitary(blk);
        if (is_identity_unitary(u)) continue;
        const int nq = static_cast<int>(blk.qubits.size());
        if (library_.peek(hamiltonian(nq), u, opt_.latency) != nullptr) continue;
        const std::string key = linalg::phase_canonical_key(u, 6);
        bool dup = false;
        for (const std::string& s : seen) dup = dup || s == key;
        if (dup) continue;
        seen.push_back(key);
        pending.push_back({std::move(u), nq});
    }

    // Similarity-graph MST (AccQOC): generate pulses along the tree, warm-
    // starting every child from its parent's amplitudes. The first pending
    // unitary roots the tree.
    if (opt_.use_mst && pending.size() > 1) {
        const std::size_t n = pending.size();
        std::vector<bool> in_tree(n, false);
        std::vector<double> dist(n, std::numeric_limits<double>::infinity());
        std::vector<std::size_t> parent(n, 0);
        dist[0] = 0.0;
        std::vector<std::size_t> order;
        for (std::size_t step = 0; step < n; ++step) {
            std::size_t best = n;
            for (std::size_t i = 0; i < n; ++i)
                if (!in_tree[i] && (best == n || dist[i] < dist[best])) best = i;
            in_tree[best] = true;
            order.push_back(best);
            for (std::size_t i = 0; i < n; ++i) {
                if (in_tree[i] || pending[i].nq != pending[best].nq) continue;
                const double d = linalg::phase_invariant_distance(pending[i].u,
                                                                  pending[best].u);
                if (d < dist[i]) {
                    dist[i] = d;
                    parent[i] = best;
                }
            }
        }
        for (const std::size_t i : order) {
            qoc::LatencySearchOptions lopt = opt_.latency;
            if (i != 0 && parent[i] != i) {
                // Warm starts do not key the library entry, so the parent is
                // found under the same options it was generated with.
                const auto pp = library_.peek(hamiltonian(pending[parent[i]].nq),
                                              pending[parent[i]].u, opt_.latency);
                if (pp != nullptr && pending[parent[i]].nq == pending[i].nq)
                    lopt.grape.warm_amplitudes = pp->pulse.amplitudes;
            }
            library_.get_or_generate(hamiltonian(pending[i].nq), pending[i].u, lopt);
        }
    }

    std::vector<PulseJob> jobs;
    for (const partition::CircuitBlock& blk : blocks) {
        const Matrix u = partition::block_unitary(blk);
        if (is_identity_unitary(u)) continue;
        const auto lr = library_.get_or_generate(
            hamiltonian(static_cast<int>(blk.qubits.size())), u, opt_.latency);
        jobs.push_back({blk.qubits, lr->pulse.duration(), lr->pulse.fidelity, "slice"});
    }
    return finish(c, std::move(res), jobs, t0);
}

} // namespace epoc::core
