// Greedy circuit partitioning (paper Algorithm 1) over a device coupling map.
//
// Horizontal cut: qubits are grouped by interaction-graph connectivity up to
// a group-size limit, growing only along coupling edges, so every group is a
// connected subgraph of the device. Vertical cut: gates are filled into the
// open block of their group, in program order, until a gate-count limit is
// reached. A gate spanning two groups closes the open blocks it touches and
// is emitted as its own bridging block, preserving execution order exactly:
// replaying the block list in order reproduces the original circuit.
//
// Bridging gates follow the map's shortest paths (CouplingMap::path). A
// two-qubit gate on non-adjacent qubits is SWAP-walked: bridge blocks move
// one operand next to the other, apply the gate and walk back, so the block
// list stays unitary-equivalent to the input. A wider gate's block spans the
// connected closure of its operands. greedy_partition and group_qubits take
// the map as their last argument; none (nullptr) means an all-to-all device,
// CouplingMap::full(c.num_qubits()), where every pair is adjacent and no
// gate is walked.
#pragma once

#include "circuit/circuit.h"
#include "circuit/routing.h"

#include <vector>

namespace epoc::partition {

struct PartitionOptions {
    /// Maximum number of qubits per group (paper uses up to 8; our QOC-bound
    /// benches use 2-4 so GRAPE matrices stay small on one core).
    int max_qubits = 3;
    /// Maximum number of gates per block before a vertical cut.
    int max_gates = 24;
};

struct CircuitBlock {
    /// Global qubit ids, sorted ascending; local qubit i of `body` is
    /// qubits[i].
    std::vector<int> qubits;
    /// The block's gates over local qubit indices.
    circuit::Circuit body;
    /// True if this block is a single cross-group bridging gate (or one of
    /// the SWAP-walk blocks routing such a gate).
    bool bridge = false;
};

/// Partition `c` over `coupling` (not owned; the circuit must not be wider
/// than it; nullptr = all-to-all). Blocks come back in a valid execution
/// order, each over a connected subgraph of the map.
std::vector<CircuitBlock> greedy_partition(const circuit::Circuit& c,
                                           const PartitionOptions& opt = {},
                                           const circuit::CouplingMap* coupling = nullptr);

/// The horizontal cut on its own (paper Algorithm 1, GroupQubits): groups
/// only grow along the edges of `coupling` (nullptr = all-to-all).
std::vector<std::vector<int>> group_qubits(const circuit::Circuit& c, int max_qubits,
                                           const circuit::CouplingMap* coupling = nullptr);

/// Unitary of one block (dimension 2^|qubits|).
linalg::Matrix block_unitary(const CircuitBlock& b);

/// Reassemble the block list into a flat circuit over `num_qubits` qubits
/// (used by tests to prove the partition preserves the program).
circuit::Circuit blocks_to_circuit(const std::vector<CircuitBlock>& blocks,
                                   int num_qubits);

} // namespace epoc::partition
