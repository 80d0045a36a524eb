#include "partition/partition.h"

#include "circuit/unitary.h"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

namespace epoc::partition {

using circuit::Circuit;
using circuit::CouplingMap;
using circuit::Gate;

std::vector<std::vector<int>> group_qubits(const Circuit& c, int max_qubits,
                                           const CouplingMap* coupling) {
    if (max_qubits < 1) throw std::invalid_argument("group_qubits: max_qubits < 1");
    const int nq = c.num_qubits();
    const CouplingMap full = CouplingMap::full(nq);
    const CouplingMap& cm = coupling ? *coupling : full;
    if (nq > cm.num_qubits())
        throw std::invalid_argument("group_qubits: circuit wider than coupling map");
    // Interaction weights: how often two qubits share a gate.
    std::map<std::pair<int, int>, int> weight;
    for (const Gate& g : c.gates())
        for (std::size_t i = 0; i < g.qubits.size(); ++i)
            for (std::size_t j = i + 1; j < g.qubits.size(); ++j) {
                const int a = std::min(g.qubits[i], g.qubits[j]);
                const int b = std::max(g.qubits[i], g.qubits[j]);
                ++weight[{a, b}];
            }

    std::vector<bool> taken(static_cast<std::size_t>(nq), false);
    std::vector<std::vector<int>> groups;
    for (int q = 0; q < nq; ++q) {
        if (taken[static_cast<std::size_t>(q)]) continue;
        std::vector<int> group{q};
        taken[static_cast<std::size_t>(q)] = true;
        // Grow by the heaviest edges into the current group, taking only
        // candidates coupling-adjacent to a current member, so groups stay
        // connected subgraphs of the device.
        while (static_cast<int>(group.size()) < max_qubits) {
            int best = -1, best_w = 0;
            for (int cand = 0; cand < nq; ++cand) {
                if (taken[static_cast<std::size_t>(cand)]) continue;
                if (std::none_of(group.begin(), group.end(),
                                 [&](int m) { return cm.adjacent(m, cand); }))
                    continue;
                int w = 0;
                for (const int m : group) {
                    const auto it = weight.find({std::min(m, cand), std::max(m, cand)});
                    if (it != weight.end()) w += it->second;
                }
                if (w > best_w) {
                    best_w = w;
                    best = cand;
                }
            }
            if (best < 0) break;
            group.push_back(best);
            taken[static_cast<std::size_t>(best)] = true;
        }
        std::sort(group.begin(), group.end());
        groups.push_back(std::move(group));
    }
    return groups;
}

namespace {

/// Open block under construction for one qubit group.
struct OpenBlock {
    std::vector<int> qubits; ///< sorted global ids
    std::vector<Gate> gates; ///< global qubit indices (localized at close)
};

CircuitBlock close_block(OpenBlock&& ob, bool bridge) {
    CircuitBlock blk;
    blk.qubits = ob.qubits;
    blk.bridge = bridge;
    blk.body = Circuit(static_cast<int>(ob.qubits.size()));
    std::map<int, int> local;
    for (std::size_t i = 0; i < ob.qubits.size(); ++i)
        local[ob.qubits[i]] = static_cast<int>(i);
    for (Gate g : ob.gates) {
        for (int& q : g.qubits) q = local.at(q);
        blk.body.add(std::move(g));
    }
    return blk;
}

/// A SWAP gate over global qubits {a, b}.
Gate global_swap(int a, int b) {
    Circuit tmp(2);
    tmp.swap(0, 1);
    Gate g = tmp.gates().front();
    g.qubits = {a, b};
    return g;
}

/// Single bridge block holding one gate over global `qubits`.
CircuitBlock one_gate_block(std::vector<int> qubits, const Gate& g) {
    OpenBlock ob;
    ob.qubits = std::move(qubits);
    std::sort(ob.qubits.begin(), ob.qubits.end());
    ob.gates.push_back(g);
    return close_block(std::move(ob), true);
}

} // namespace

std::vector<CircuitBlock> greedy_partition(const Circuit& c, const PartitionOptions& opt,
                                           const CouplingMap* coupling) {
    const CouplingMap full = CouplingMap::full(c.num_qubits());
    const CouplingMap& cm = coupling ? *coupling : full;
    const auto groups = group_qubits(c, opt.max_qubits, &cm);
    const int nq = c.num_qubits();
    std::vector<int> group_of(static_cast<std::size_t>(nq), -1);
    for (std::size_t gi = 0; gi < groups.size(); ++gi)
        for (const int q : groups[gi]) group_of[static_cast<std::size_t>(q)] = static_cast<int>(gi);

    std::vector<OpenBlock> open(groups.size());
    for (std::size_t gi = 0; gi < groups.size(); ++gi) open[gi].qubits = groups[gi];

    std::vector<CircuitBlock> out;
    const auto flush = [&](std::size_t gi) {
        if (open[gi].gates.empty()) return;
        out.push_back(close_block(std::move(open[gi]), false));
        open[gi] = OpenBlock{};
        open[gi].qubits = groups[gi];
    };
    // Flush every group owning one of `qs` (SWAP-walks may traverse device
    // qubits beyond the circuit width; those have no group and no open block).
    const auto flush_touching = [&](const std::set<int>& qs) {
        std::set<int> gis;
        for (const int q : qs)
            if (q < nq && group_of[static_cast<std::size_t>(q)] >= 0)
                gis.insert(group_of[static_cast<std::size_t>(q)]);
        for (const int gi : gis) flush(static_cast<std::size_t>(gi));
    };

    for (const Gate& g : c.gates()) {
        std::set<int> gate_groups;
        for (const int q : g.qubits) gate_groups.insert(group_of[static_cast<std::size_t>(q)]);
        if (gate_groups.size() == 1) {
            const std::size_t gi = static_cast<std::size_t>(*gate_groups.begin());
            if (static_cast<int>(open[gi].gates.size()) >= opt.max_gates) flush(gi);
            open[gi].gates.push_back(g);
            continue;
        }
        // Bridging gate: close every involved group to preserve order, then
        // emit the gate as its own block.
        if (g.arity() == 2 && !cm.adjacent(g.qubits[0], g.qubits[1])) {
            // SWAP-walk the first operand toward the second along a shortest
            // path, apply the gate on the adjacent pair, then walk back. The
            // net layout is the identity, so the block list stays
            // unitary-equal to the input and later gates are unaffected.
            const std::vector<int> walk = cm.path(g.qubits[0], g.qubits[1]);
            std::set<int> touched{g.qubits[0], g.qubits[1]};
            touched.insert(walk.begin(), walk.end());
            flush_touching(touched);
            std::vector<std::pair<int, int>> swaps;
            int cur = g.qubits[0];
            for (const int nxt : walk) {
                swaps.emplace_back(cur, nxt);
                cur = nxt;
            }
            for (const auto& [x, y] : swaps)
                out.push_back(one_gate_block({x, y}, global_swap(x, y)));
            Gate moved = g;
            moved.qubits[0] = cur;
            out.push_back(one_gate_block({cur, g.qubits[1]}, moved));
            for (auto it = swaps.rbegin(); it != swaps.rend(); ++it)
                out.push_back(one_gate_block({it->first, it->second},
                                             global_swap(it->first, it->second)));
            continue;
        }
        // Adjacent two-qubit bridge, or a wider gate: the block's qubit set
        // is the connected closure of the operands (union of shortest paths
        // from the first operand), so the emitted block is always a connected
        // subgraph of the device.
        std::set<int> closure(g.qubits.begin(), g.qubits.end());
        for (std::size_t i = 1; i < g.qubits.size(); ++i) {
            const std::vector<int> between = cm.path(g.qubits[0], g.qubits[i]);
            closure.insert(between.begin(), between.end());
        }
        flush_touching(closure);
        out.push_back(
            one_gate_block(std::vector<int>(closure.begin(), closure.end()), g));
    }
    for (std::size_t gi = 0; gi < groups.size(); ++gi) flush(gi);
    return out;
}

linalg::Matrix block_unitary(const CircuitBlock& b) { return circuit::circuit_unitary(b.body); }

Circuit blocks_to_circuit(const std::vector<CircuitBlock>& blocks, int num_qubits) {
    Circuit c(num_qubits);
    for (const CircuitBlock& b : blocks) c.append_mapped(b.body, b.qubits);
    return c;
}

} // namespace epoc::partition
