#include "circuit/routing.h"

#include <algorithm>
#include <deque>
#include <set>
#include <stdexcept>
#include <string>

namespace epoc::circuit {

CouplingMap::CouplingMap(int num_qubits, std::vector<std::pair<int, int>> edges)
    : num_qubits_(num_qubits), edges_(std::move(edges)) {
    adj_.resize(static_cast<std::size_t>(num_qubits_));
    std::set<std::pair<int, int>> seen;
    for (const auto& [a, b] : edges_) {
        const std::string edge_str =
            "(" + std::to_string(a) + "," + std::to_string(b) + ")";
        if (a < 0 || b < 0 || a >= num_qubits_ || b >= num_qubits_)
            throw std::invalid_argument("CouplingMap: edge endpoint out of range " +
                                        edge_str);
        if (a == b)
            throw std::invalid_argument("CouplingMap: self-loop edge " + edge_str);
        if (!seen.insert({std::min(a, b), std::max(a, b)}).second)
            throw std::invalid_argument("CouplingMap: duplicate edge " + edge_str);
        adj_[static_cast<std::size_t>(a)].push_back(b);
        adj_[static_cast<std::size_t>(b)].push_back(a);
    }
    // All-pairs BFS.
    dist_.assign(static_cast<std::size_t>(num_qubits_),
                 std::vector<int>(static_cast<std::size_t>(num_qubits_), -1));
    for (int s = 0; s < num_qubits_; ++s) {
        auto& d = dist_[static_cast<std::size_t>(s)];
        d[static_cast<std::size_t>(s)] = 0;
        std::deque<int> queue{s};
        while (!queue.empty()) {
            const int v = queue.front();
            queue.pop_front();
            for (const int w : adj_[static_cast<std::size_t>(v)]) {
                if (d[static_cast<std::size_t>(w)] >= 0) continue;
                d[static_cast<std::size_t>(w)] = d[static_cast<std::size_t>(v)] + 1;
                queue.push_back(w);
            }
        }
    }
}

CouplingMap CouplingMap::linear(int n) {
    std::vector<std::pair<int, int>> e;
    for (int i = 0; i + 1 < n; ++i) e.emplace_back(i, i + 1);
    return CouplingMap(n, std::move(e));
}

CouplingMap CouplingMap::ring(int n) {
    std::vector<std::pair<int, int>> e;
    for (int i = 0; i + 1 < n; ++i) e.emplace_back(i, i + 1);
    if (n > 2) e.emplace_back(n - 1, 0);
    return CouplingMap(n, std::move(e));
}

CouplingMap CouplingMap::grid(int rows, int cols) {
    std::vector<std::pair<int, int>> e;
    const auto id = [cols](int r, int c) { return r * cols + c; };
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c) {
            if (c + 1 < cols) e.emplace_back(id(r, c), id(r, c + 1));
            if (r + 1 < rows) e.emplace_back(id(r, c), id(r + 1, c));
        }
    return CouplingMap(rows * cols, std::move(e));
}

CouplingMap CouplingMap::heavy_hex7() {
    // Spine 1-3-5 with flags 0,2 hanging off 1 and 4,6 hanging off 5:
    //   0   2       4   6
    //    \ /         \ /
    //     1 --- 3 --- 5
    return CouplingMap(7, {{0, 1}, {1, 2}, {1, 3}, {3, 5}, {4, 5}, {5, 6}});
}

CouplingMap CouplingMap::full(int n) {
    CouplingMap m(0, {});
    m.num_qubits_ = n;
    m.complete_ = true;
    return m;
}

std::vector<std::pair<int, int>> CouplingMap::edges() const {
    if (!complete_) return edges_;
    std::vector<std::pair<int, int>> e;
    for (int a = 0; a < num_qubits_; ++a)
        for (int b = a + 1; b < num_qubits_; ++b) e.emplace_back(a, b);
    return e;
}

bool CouplingMap::adjacent(int a, int b) const { return distance(a, b) == 1; }

int CouplingMap::distance(int a, int b) const {
    if (complete_) {
        if (a < 0 || b < 0 || a >= num_qubits_ || b >= num_qubits_)
            throw std::out_of_range("CouplingMap: qubit out of range");
        return a == b ? 0 : 1;
    }
    const int d = dist_.at(static_cast<std::size_t>(a)).at(static_cast<std::size_t>(b));
    if (d < 0) throw std::invalid_argument("CouplingMap: disconnected qubits");
    return d;
}

bool CouplingMap::connected_subset(const std::vector<int>& qubits) const {
    if (complete_ || qubits.size() <= 1) return true;
    const std::set<int> members(qubits.begin(), qubits.end());
    std::set<int> reached{*members.begin()};
    std::deque<int> queue{*members.begin()};
    while (!queue.empty()) {
        const int v = queue.front();
        queue.pop_front();
        for (const int w : adj_.at(static_cast<std::size_t>(v))) {
            if (members.count(w) == 0 || reached.count(w) != 0) continue;
            reached.insert(w);
            queue.push_back(w);
        }
    }
    return reached.size() == members.size();
}

int CouplingMap::next_hop(int a, int b) const {
    if (a == b || adjacent(a, b)) return a;
    for (const int w : adj_.at(static_cast<std::size_t>(a)))
        if (distance(w, b) == distance(a, b) - 1) return w;
    throw std::logic_error("CouplingMap::next_hop: no progress (disconnected?)");
}

std::vector<int> CouplingMap::path(int a, int b) const {
    std::vector<int> between;
    for (int p = a; p != b && !adjacent(p, b);) {
        p = next_hop(p, b);
        between.push_back(p);
    }
    return between;
}

} // namespace epoc::circuit
