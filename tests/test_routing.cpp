#include "circuit/routing.h"

#include <gtest/gtest.h>

namespace {

using namespace epoc::circuit;

TEST(CouplingMap, LinearDistances) {
    const CouplingMap m = CouplingMap::linear(5);
    EXPECT_EQ(m.distance(0, 4), 4);
    EXPECT_EQ(m.distance(2, 2), 0);
    EXPECT_TRUE(m.adjacent(1, 2));
    EXPECT_FALSE(m.adjacent(0, 2));
}

TEST(CouplingMap, RingWrapsAround) {
    const CouplingMap m = CouplingMap::ring(6);
    EXPECT_EQ(m.distance(0, 5), 1);
    EXPECT_EQ(m.distance(0, 3), 3);
}

TEST(CouplingMap, GridDistances) {
    const CouplingMap m = CouplingMap::grid(2, 3);
    EXPECT_EQ(m.num_qubits(), 6);
    EXPECT_EQ(m.distance(0, 5), 3); // (0,0) -> (1,2)
}

TEST(CouplingMap, NextHopMakesProgress) {
    const CouplingMap m = CouplingMap::linear(6);
    int at = 0;
    int hops = 0;
    while (!m.adjacent(at, 5) && hops < 10) {
        at = m.next_hop(at, 5);
        ++hops;
    }
    EXPECT_EQ(at, 4);
}

TEST(CouplingMap, PathListsTheQubitsStrictlyBetween) {
    const CouplingMap chain = CouplingMap::linear(6);
    EXPECT_EQ(chain.path(0, 5), (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(chain.path(4, 1), (std::vector<int>{3, 2}));
    EXPECT_TRUE(chain.path(2, 3).empty()); // adjacent
    EXPECT_TRUE(chain.path(2, 2).empty());
    // Every step is the next hop, so the walk ends adjacent to its target.
    const CouplingMap grid = CouplingMap::grid(3, 3);
    const std::vector<int> walk = grid.path(0, 8);
    ASSERT_EQ(walk.size(), 3u); // distance 4
    int at = 0;
    for (const int q : walk) {
        EXPECT_EQ(q, grid.next_hop(at, 8));
        at = q;
    }
    EXPECT_TRUE(grid.adjacent(at, 8));
    EXPECT_TRUE(CouplingMap::full(1 << 20).path(0, 12345).empty());
}

TEST(CouplingMap, BadEdgeThrows) {
    EXPECT_THROW(CouplingMap(2, {{0, 2}}), std::invalid_argument);
    EXPECT_THROW(CouplingMap(2, {{1, 1}}), std::invalid_argument);
}

// Each malformed-constructor case must fail with its own diagnostic — a
// calibration file with a duplicate edge should not be reported as
// "out of range".
TEST(CouplingMap, CtorRejectionsAreDistinct) {
    const auto message_of = [](int n, std::vector<std::pair<int, int>> edges) {
        try {
            CouplingMap m(n, std::move(edges));
        } catch (const std::invalid_argument& e) {
            return std::string(e.what());
        }
        return std::string();
    };
    EXPECT_NE(message_of(3, {{0, 3}}).find("out of range"), std::string::npos);
    EXPECT_NE(message_of(3, {{0, -1}}).find("out of range"), std::string::npos);
    EXPECT_NE(message_of(3, {{2, 2}}).find("self-loop"), std::string::npos);
    EXPECT_NE(message_of(3, {{0, 1}, {1, 0}}).find("duplicate"),
              std::string::npos);
    EXPECT_NE(message_of(3, {{0, 1}, {0, 1}}).find("duplicate"),
              std::string::npos);
}

TEST(CouplingMap, BuiltinTopologyShapes) {
    EXPECT_EQ(CouplingMap::ring(8).edges().size(), 8u);
    EXPECT_EQ(CouplingMap::grid(3, 3).edges().size(), 12u); // 2*3 rows + 3*2 cols
    EXPECT_EQ(CouplingMap::full(5).edges().size(), 10u);    // C(5,2)

    const CouplingMap hh = CouplingMap::heavy_hex7();
    EXPECT_EQ(hh.num_qubits(), 7);
    EXPECT_EQ(hh.edges().size(), 6u); // a tree: 7 nodes, 6 couplers
    EXPECT_TRUE(hh.adjacent(1, 3));
    EXPECT_FALSE(hh.adjacent(0, 6));
    EXPECT_EQ(hh.distance(0, 6), 4); // 0-1-3-5-6
    EXPECT_EQ(hh.distance(2, 4), 4); // 2-1-3-5-4

    // Grid distance is Manhattan; ring distance wraps.
    EXPECT_EQ(CouplingMap::grid(3, 3).distance(0, 8), 4);
    EXPECT_EQ(CouplingMap::ring(8).distance(0, 5), 3);
}

TEST(CouplingMap, ConnectedSubset) {
    const CouplingMap hh = CouplingMap::heavy_hex7();
    EXPECT_TRUE(hh.connected_subset({0}));
    EXPECT_TRUE(hh.connected_subset({0, 1, 2}));
    EXPECT_TRUE(hh.connected_subset({1, 3, 5, 6}));
    EXPECT_FALSE(hh.connected_subset({0, 2})); // both hang off qubit 1
    EXPECT_FALSE(hh.connected_subset({0, 5}));

    const CouplingMap ring = CouplingMap::ring(6);
    EXPECT_TRUE(ring.connected_subset({5, 0, 1})); // wraps through the seam
    EXPECT_FALSE(ring.connected_subset({0, 2, 4}));
}

TEST(CouplingMap, FullMapIsImplicitAtAnyWidth) {
    // full(n) stores no per-pair state, so a million-qubit complete graph is
    // as cheap to build and query as a five-qubit one.
    const int n = 1 << 20;
    const CouplingMap m = CouplingMap::full(n);
    EXPECT_TRUE(m.complete());
    EXPECT_EQ(m.num_qubits(), n);
    EXPECT_TRUE(m.adjacent(0, n - 1));
    EXPECT_FALSE(m.adjacent(7, 7));
    EXPECT_EQ(m.distance(3, n - 2), 1);
    EXPECT_EQ(m.distance(3, 3), 0);
    EXPECT_EQ(m.next_hop(0, n - 1), 0); // already adjacent
    EXPECT_TRUE(m.connected_subset({0, n / 2, n - 1}));
    EXPECT_THROW(m.distance(0, n), std::out_of_range);
    EXPECT_THROW(m.distance(-1, 0), std::out_of_range);
    // The listed form agrees with an explicit complete graph.
    EXPECT_EQ(CouplingMap::full(4).edges(),
              (std::vector<std::pair<int, int>>{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}));
    EXPECT_FALSE(CouplingMap::linear(3).complete());
}

} // namespace
