// Device coupling graphs.
//
// The traditional compilation flow in the paper's Figure 1 maps circuits to
// the target machine's coupling graph before pulse generation. EPOC does
// that mapping inside the compiler: partitioning keeps blocks on connected
// qubits and bridges non-adjacent gates along the shortest paths this map
// answers (adjacency, hop distance, next hop).
#pragma once

#include "circuit/circuit.h"

#include <utility>
#include <vector>

namespace epoc::circuit {

class CouplingMap {
public:
    /// Throws std::invalid_argument for out-of-range endpoints, self-loop
    /// edges, and duplicate edges (in either orientation); each rejection
    /// carries a distinct message naming the offending edge.
    CouplingMap(int num_qubits, std::vector<std::pair<int, int>> edges);

    static CouplingMap linear(int n);
    static CouplingMap ring(int n);
    static CouplingMap grid(int rows, int cols);
    /// The complete graph, held implicitly: no edge list, adjacency or
    /// distance table, so an all-to-all device of any width costs O(1)
    /// memory and every query is O(1). edges() lists its pairs on demand.
    static CouplingMap full(int n);
    /// 7-qubit heavy-hex unit cell: a degree-3 spine qubit with hanging
    /// flags, the smallest fragment of IBM's heavy-hexagon lattice.
    static CouplingMap heavy_hex7();

    int num_qubits() const { return num_qubits_; }
    /// True for full(n): every pair of distinct qubits is adjacent.
    bool complete() const { return complete_; }
    std::vector<std::pair<int, int>> edges() const;
    bool adjacent(int a, int b) const;
    /// Hop count between two physical qubits (BFS, precomputed).
    int distance(int a, int b) const;
    /// First hop on a shortest path a -> b (a itself if already adjacent/equal).
    int next_hop(int a, int b) const;
    /// The qubits strictly between a and b on the next_hop path a -> b, in
    /// walk order: empty when a == b or the two are adjacent.
    std::vector<int> path(int a, int b) const;
    /// True when `qubits` induces a connected subgraph of the map (singletons
    /// and the empty set count as connected). Qubits must be in range.
    bool connected_subset(const std::vector<int>& qubits) const;

private:
    int num_qubits_;
    bool complete_ = false;
    std::vector<std::pair<int, int>> edges_;
    std::vector<std::vector<int>> adj_;
    std::vector<std::vector<int>> dist_;
};

} // namespace epoc::circuit
