#include "epoc/regroup.h"

#include <algorithm>

namespace epoc::core {

namespace {

/// Merge two consecutive blocks into one over the union of their qubits.
/// Safe because the block list is a valid execution order: concatenating
/// adjacent entries preserves the global gate sequence.
partition::CircuitBlock merge_blocks(const partition::CircuitBlock& a,
                                     const partition::CircuitBlock& b) {
    partition::CircuitBlock out;
    out.qubits = a.qubits;
    for (const int q : b.qubits)
        if (std::find(out.qubits.begin(), out.qubits.end(), q) == out.qubits.end())
            out.qubits.push_back(q);
    std::sort(out.qubits.begin(), out.qubits.end());
    out.body = circuit::Circuit(static_cast<int>(out.qubits.size()));
    const auto local = [&out](int global) {
        return static_cast<int>(std::find(out.qubits.begin(), out.qubits.end(), global) -
                                out.qubits.begin());
    };
    for (const partition::CircuitBlock* blk : {&a, &b})
        for (circuit::Gate g : blk->body.gates()) {
            for (int& q : g.qubits) q = local(blk->qubits[static_cast<std::size_t>(q)]);
            out.body.add(std::move(g));
        }
    return out;
}

} // namespace

std::vector<partition::CircuitBlock> regroup(const circuit::Circuit& synthesized,
                                             const partition::PartitionOptions& opt,
                                             const circuit::CouplingMap* coupling) {
    std::vector<partition::CircuitBlock> blocks =
        partition::greedy_partition(synthesized, opt, coupling);

    // Absorb bridges and fuse neighbours: repeatedly merge consecutive blocks
    // whose qubit union still fits the limits. This is the aggregation the
    // paper's regrouping step performs on the fine-grained synthesis output.
    bool progress = true;
    while (progress) {
        progress = false;
        std::vector<partition::CircuitBlock> merged;
        for (partition::CircuitBlock& b : blocks) {
            if (!merged.empty()) {
                const partition::CircuitBlock& prev = merged.back();
                // Fuse only when one footprint contains the other: absorbing
                // a bridge (or being absorbed by the following group block)
                // never widens the pulse, so the scheduler loses no
                // parallelism. Union-growing merges create convoy effects --
                // a wide pulse blockades qubit lines its gates barely use.
                const auto subset = [](const std::vector<int>& a, const std::vector<int>& b2) {
                    return std::includes(b2.begin(), b2.end(), a.begin(), a.end());
                };
                const bool contained =
                    subset(b.qubits, prev.qubits) || subset(prev.qubits, b.qubits);
                const int union_size = static_cast<int>(
                    std::max(prev.qubits.size(), b.qubits.size()));
                if (contained && union_size <= opt.max_qubits &&
                    static_cast<int>(prev.body.size() + b.body.size()) <= opt.max_gates) {
                    merged.back() = merge_blocks(prev, b);
                    progress = true;
                    continue;
                }
            }
            merged.push_back(std::move(b));
        }
        blocks = std::move(merged);
    }
    return blocks;
}

} // namespace epoc::core
