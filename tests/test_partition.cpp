#include "partition/partition.h"

#include "bench_circuits/generators.h"
#include "bench_circuits/random_circuits.h"
#include "circuit/unitary.h"
#include "linalg/phase.h"

#include <gtest/gtest.h>

#include <set>

namespace {

using namespace epoc::partition;
using epoc::circuit::Circuit;
using epoc::circuit::circuit_unitary;
using epoc::linalg::equal_up_to_global_phase;

TEST(GroupQubits, CoversAllQubitsDisjointly) {
    const Circuit c = epoc::bench::ghz(6);
    const auto groups = group_qubits(c, 3);
    std::set<int> seen;
    for (const auto& g : groups) {
        EXPECT_LE(g.size(), 3u);
        for (const int q : g) EXPECT_TRUE(seen.insert(q).second);
    }
    EXPECT_EQ(seen.size(), 6u);
}

TEST(GroupQubits, ConnectedQubitsGroupTogether) {
    Circuit c(4);
    c.cx(0, 2).cx(0, 2).cx(1, 3);
    const auto groups = group_qubits(c, 2);
    for (const auto& g : groups) {
        if (g.front() == 0) {
            EXPECT_EQ(g, (std::vector<int>{0, 2}));
        }
        if (g.front() == 1) {
            EXPECT_EQ(g, (std::vector<int>{1, 3}));
        }
    }
}

TEST(GroupQubits, RejectsNonPositiveLimit) {
    const Circuit c = epoc::bench::ghz(3);
    EXPECT_THROW(group_qubits(c, 0), std::invalid_argument);
}

TEST(Partition, BlocksRespectQubitLimit) {
    const Circuit c = epoc::bench::qft(5);
    PartitionOptions opt;
    opt.max_qubits = 2;
    for (const CircuitBlock& b : greedy_partition(c, opt))
        EXPECT_LE(b.qubits.size(), 2u);
}

TEST(Partition, BlocksRespectGateLimitExceptBridges) {
    const Circuit c = epoc::bench::vqe(4, 3);
    PartitionOptions opt;
    opt.max_qubits = 2;
    opt.max_gates = 3;
    for (const CircuitBlock& b : greedy_partition(c, opt)) {
        if (!b.bridge) {
            EXPECT_LE(b.body.size(), 3u);
        }
    }
}

TEST(Partition, AllGatesAccountedFor) {
    const Circuit c = epoc::bench::dnn(5, 2);
    std::size_t total = 0;
    for (const CircuitBlock& b : greedy_partition(c, {})) total += b.body.size();
    EXPECT_EQ(total, c.size());
}

TEST(Partition, ReassemblyPreservesUnitary) {
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        epoc::bench::RandomCircuitSpec spec;
        spec.seed = seed;
        spec.num_qubits = 3 + static_cast<int>(seed % 3);
        spec.num_gates = 30;
        const Circuit c = epoc::bench::random_circuit(spec);
        for (const int maxq : {2, 3}) {
            PartitionOptions opt;
            opt.max_qubits = maxq;
            const auto blocks = greedy_partition(c, opt);
            const Circuit re = blocks_to_circuit(blocks, c.num_qubits());
            EXPECT_TRUE(equal_up_to_global_phase(circuit_unitary(re), circuit_unitary(c),
                                                 1e-7))
                << "seed " << seed << " maxq " << maxq;
        }
    }
}

TEST(Partition, BridgingGateBecomesOwnBlock) {
    Circuit c(4);
    c.cx(0, 1).cx(0, 1).cx(2, 3).cx(1, 2); // last gate spans the two groups
    PartitionOptions opt;
    opt.max_qubits = 2;
    const auto blocks = greedy_partition(c, opt);
    bool found_bridge = false;
    for (const CircuitBlock& b : blocks)
        if (b.bridge) {
            found_bridge = true;
            EXPECT_EQ(b.body.size(), 1u);
        }
    EXPECT_TRUE(found_bridge);
}

TEST(Partition, BlockUnitaryMatchesLocalCircuit) {
    const Circuit c = epoc::bench::ghz(4);
    const auto blocks = greedy_partition(c, {});
    for (const CircuitBlock& b : blocks) {
        const auto u = block_unitary(b);
        EXPECT_EQ(u.rows(), std::size_t{1} << b.qubits.size());
        EXPECT_TRUE(u.is_unitary(1e-9));
    }
}

TEST(Partition, SingleQubitCircuit) {
    Circuit c(1);
    c.h(0).t(0).h(0);
    const auto blocks = greedy_partition(c, {});
    ASSERT_EQ(blocks.size(), 1u);
    EXPECT_EQ(blocks[0].body.size(), 3u);
}

TEST(Partition, EmptyCircuitYieldsNoBlocks) {
    const Circuit c(3);
    EXPECT_TRUE(greedy_partition(c, {}).empty());
}

// --- Over a device coupling map ------------------------------------------

using epoc::circuit::CouplingMap;

/// Every block a partition over a coupling map emits must be physically
/// realizable: its qubit set induces a connected subgraph of the device.
/// Bridge blocks additionally need coupling-adjacent operands — they ship to
/// hardware verbatim, while non-bridge bodies are re-synthesized downstream
/// with CNOTs restricted to coupling edges.
void expect_blocks_feasible(const std::vector<CircuitBlock>& blocks,
                            const CouplingMap& map) {
    for (const CircuitBlock& b : blocks) {
        EXPECT_TRUE(map.connected_subset(b.qubits))
            << "disconnected block of " << b.qubits.size() << " qubits";
        if (!b.bridge) continue;
        for (const auto& g : b.body.gates())
            if (g.arity() == 2)
                EXPECT_TRUE(map.adjacent(b.qubits[static_cast<std::size_t>(
                                             g.qubits[0])],
                                         b.qubits[static_cast<std::size_t>(
                                             g.qubits[1])]));
    }
}

TEST(PartitionTopology, GroupsAreConnectedSubgraphs) {
    const CouplingMap map = CouplingMap::heavy_hex7();
    epoc::bench::RandomCircuitSpec spec;
    spec.num_qubits = 7;
    spec.num_gates = 40;
    const Circuit c = epoc::bench::random_circuit(spec);
    for (const int maxq : {2, 3, 4})
        for (const auto& g : group_qubits(c, maxq, &map)) {
            EXPECT_LE(g.size(), static_cast<std::size_t>(maxq));
            EXPECT_TRUE(map.connected_subset(g));
        }
}

TEST(PartitionTopology, BlocksFeasibleAndRoundTripOnEveryDevice) {
    const std::vector<CouplingMap> devices = {
        CouplingMap::linear(5), CouplingMap::ring(8), CouplingMap::grid(3, 3),
        CouplingMap::heavy_hex7()};
    for (const CouplingMap& map : devices) {
        epoc::bench::RandomCircuitSpec spec;
        spec.seed = 7;
        spec.num_qubits = map.num_qubits();
        spec.num_gates = 25;
        const Circuit c = epoc::bench::random_circuit(spec);
        PartitionOptions opt;
        opt.max_qubits = 3;
        const auto blocks = greedy_partition(c, opt, &map);
        expect_blocks_feasible(blocks, map);
        // The SWAP-walk bridges must cancel: replaying the block list is the
        // original program (up to global phase).
        const Circuit re = blocks_to_circuit(blocks, c.num_qubits());
        EXPECT_TRUE(equal_up_to_global_phase(circuit_unitary(re),
                                             circuit_unitary(c), 1e-7))
            << "device with " << map.num_qubits() << " qubits";
    }
}

TEST(PartitionTopology, SwapWalkBridgesDistantGate) {
    // CX(0,3) on a 4-qubit chain: operands at distance 3 force a SWAP walk.
    Circuit c(4);
    c.h(0).cx(0, 3);
    const CouplingMap map = CouplingMap::linear(4);
    PartitionOptions opt;
    opt.max_qubits = 2;
    const auto blocks = greedy_partition(c, opt, &map);
    bool swap_bridge = false;
    for (const CircuitBlock& b : blocks)
        if (b.bridge && b.body.size() == 1 &&
            b.body.gate(0).kind == epoc::circuit::GateKind::SWAP)
            swap_bridge = true;
    EXPECT_TRUE(swap_bridge);
    expect_blocks_feasible(blocks, map);
    const Circuit re = blocks_to_circuit(blocks, c.num_qubits());
    EXPECT_TRUE(
        equal_up_to_global_phase(circuit_unitary(re), circuit_unitary(c), 1e-7));
}

TEST(PartitionTopology, NoMapMeansAllToAll) {
    // Without a map the device is the complete graph: the block list is the
    // one over CouplingMap::full, and every bridge spans just its gate.
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        epoc::bench::RandomCircuitSpec spec;
        spec.seed = seed;
        spec.num_qubits = 6;
        spec.num_gates = 40;
        const Circuit c = epoc::bench::random_circuit(spec);
        const CouplingMap full = CouplingMap::full(c.num_qubits());
        const PartitionOptions opt{2, 8};
        const auto blocks = greedy_partition(c, opt);
        const auto over_full = greedy_partition(c, opt, &full);
        ASSERT_EQ(blocks.size(), over_full.size()) << seed;
        for (std::size_t i = 0; i < blocks.size(); ++i) {
            EXPECT_EQ(blocks[i].qubits, over_full[i].qubits) << seed;
            EXPECT_EQ(blocks[i].body.size(), over_full[i].body.size()) << seed;
            if (!blocks[i].bridge) continue;
            ASSERT_EQ(blocks[i].body.size(), 1u);
            EXPECT_EQ(blocks[i].qubits.size(), blocks[i].body.gate(0).qubits.size());
        }
    }
}

TEST(PartitionTopology, AdjacentBridgeNeedsNoSwaps) {
    // Groups {0,1} and {2,3} on a chain: the cross-group CX(1,2) operands are
    // adjacent, so the bridge is the plain one-gate block, no SWAPs.
    Circuit c(4);
    c.cx(0, 1).cx(2, 3).cx(1, 2);
    const CouplingMap map = CouplingMap::linear(4);
    PartitionOptions opt;
    opt.max_qubits = 2;
    for (const CircuitBlock& b : greedy_partition(c, opt, &map))
        for (const auto& g : b.body.gates())
            EXPECT_NE(g.kind, epoc::circuit::GateKind::SWAP);
}

} // namespace
