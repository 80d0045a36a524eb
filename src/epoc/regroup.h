// Regrouping (paper Section 3.3): aggregate the fine-grained VUG + CNOT gates
// produced by synthesis into slightly larger unitary blocks that are worth
// running quantum optimal control on. Without this step each tiny VUG gets
// its own pulse and the pulse sequence serializes; with it, a whole block
// becomes a single time-optimal pulse.
#pragma once

#include "partition/partition.h"

namespace epoc::core {

/// Aggregate a synthesized circuit into pulse-sized blocks of at most
/// `opt.max_qubits` qubits (the paper's "suitable size" knob; QOC cost grows
/// exponentially here) and `opt.max_gates` gates. Blocks stay connected
/// subgraphs of `coupling` (nullptr = all-to-all), as in greedy_partition.
std::vector<partition::CircuitBlock> regroup(const circuit::Circuit& synthesized,
                                             const partition::PartitionOptions& opt,
                                             const circuit::CouplingMap* coupling = nullptr);

} // namespace epoc::core
