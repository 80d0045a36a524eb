#include "zx/graph.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <sstream>
#include <stdexcept>

namespace epoc::zx {

namespace {
constexpr double kPi = std::numbers::pi;
constexpr double kPhaseTol = 1e-9;
} // namespace

double normalize_phase(double p) {
    p = std::fmod(p, 2 * kPi);
    if (p < 0) p += 2 * kPi;
    // Collapse values within tolerance of 2*pi back to 0.
    if (p > 2 * kPi - kPhaseTol) p = 0.0;
    return p;
}

int ZxGraph::add_vertex(VertexType type, double phase, int qubit) {
    types_.push_back(type);
    phases_.push_back(normalize_phase(phase));
    qubits_.push_back(qubit);
    alive_.push_back(true);
    adj_.emplace_back();
    return static_cast<int>(types_.size()) - 1;
}

void ZxGraph::set_phase(int v, double p) {
    phases_.at(static_cast<std::size_t>(v)) = normalize_phase(p);
}

bool ZxGraph::is_pauli_phase(int v) const {
    const double p = phase(v);
    return std::abs(p) < kPhaseTol || std::abs(p - kPi) < kPhaseTol;
}

bool ZxGraph::is_proper_clifford_phase(int v) const {
    const double p = phase(v);
    return std::abs(p - kPi / 2) < kPhaseTol || std::abs(p - 3 * kPi / 2) < kPhaseTol;
}

void ZxGraph::add_edge(int u, int v, EdgeType et, int count) {
    if (!alive(u) || !alive(v)) throw std::logic_error("add_edge: dead vertex");
    if (count <= 0) return;
    if (u == v) {
        // Self-loops: simple loops vanish; each Hadamard loop adds pi.
        if (et == EdgeType::Hadamard) add_phase(u, kPi * count);
        return;
    }
    EdgeCount& fwd = adj_[static_cast<std::size_t>(u)][v];
    if (et == EdgeType::Simple)
        fwd.simple += count;
    else
        fwd.hadamard += count;
    adj_[static_cast<std::size_t>(v)][u] = fwd;
    normalize_pair(u, v);
}

void ZxGraph::normalize_pair(int u, int v) {
    EdgeCount& fwd = adj_[static_cast<std::size_t>(u)][v];
    const VertexType tu = type(u), tv = type(v);
    if (tu != VertexType::Boundary && tv != VertexType::Boundary) {
        if (tu == tv) {
            // Same colour: Hopf cancels parallel Hadamard edges pairwise;
            // parallel simple edges are idempotent under fusion.
            fwd.hadamard %= 2;
            fwd.simple = std::min(fwd.simple, 1);
        } else {
            // Different colours: Hopf cancels parallel simple edges pairwise;
            // parallel Hadamard edges are idempotent.
            fwd.simple %= 2;
            fwd.hadamard = std::min(fwd.hadamard, 1);
        }
    }
    if (fwd.total() == 0) {
        adj_[static_cast<std::size_t>(u)].erase(v);
        adj_[static_cast<std::size_t>(v)].erase(u);
    } else {
        adj_[static_cast<std::size_t>(v)][u] = fwd;
    }
}

void ZxGraph::remove_edge(int u, int v) {
    adj_[static_cast<std::size_t>(u)].erase(v);
    adj_[static_cast<std::size_t>(v)].erase(u);
}

void ZxGraph::remove_vertex(int v) {
    for (const auto& [w, cnt] : adj_[static_cast<std::size_t>(v)])
        adj_[static_cast<std::size_t>(w)].erase(v);
    adj_[static_cast<std::size_t>(v)].clear();
    alive_[static_cast<std::size_t>(v)] = false;
}

EdgeCount ZxGraph::edge(int u, int v) const {
    const auto& m = adj_.at(static_cast<std::size_t>(u));
    const auto it = m.find(v);
    return it == m.end() ? EdgeCount{} : it->second;
}

void ZxGraph::fuse(int u, int v) {
    if (type(u) != type(v) || type(u) == VertexType::Boundary)
        throw std::logic_error("fuse: vertices must be same-colour spiders");
    const EdgeCount between = edge(u, v);
    if (between.simple < 1) throw std::logic_error("fuse: no simple edge between spiders");
    // One simple edge performs the fusion; every *other* parallel edge becomes
    // a self-loop on the merged spider: simple loops vanish, Hadamard loops
    // add pi each.
    add_phase(u, phase(v) + kPi * between.hadamard);
    remove_edge(u, v);
    // Reconnect v's remaining neighbours to u.
    const auto neigh = adj_[static_cast<std::size_t>(v)];
    for (const auto& [w, cnt] : neigh) {
        if (cnt.simple > 0) add_edge(u, w, EdgeType::Simple, cnt.simple);
        if (cnt.hadamard > 0) add_edge(u, w, EdgeType::Hadamard, cnt.hadamard);
    }
    remove_vertex(v);
}

void ZxGraph::color_change(int v) {
    if (is_boundary(v)) throw std::logic_error("color_change: boundary vertex");
    set_type(v, type(v) == VertexType::Z ? VertexType::X : VertexType::Z);
    // Swap edge types on every incident pair, then renormalize.
    const auto neigh = adj_[static_cast<std::size_t>(v)]; // copy: we mutate below
    for (const auto& [w, cnt] : neigh) {
        EdgeCount swapped;
        swapped.simple = cnt.hadamard;
        swapped.hadamard = cnt.simple;
        adj_[static_cast<std::size_t>(v)][w] = swapped;
        adj_[static_cast<std::size_t>(w)][v] = swapped;
        normalize_pair(v, w);
    }
}

int ZxGraph::num_vertices() const {
    return static_cast<int>(std::count(alive_.begin(), alive_.end(), true));
}

std::vector<int> ZxGraph::vertices() const {
    std::vector<int> out;
    out.reserve(alive_.size());
    for (std::size_t v = 0; v < alive_.size(); ++v)
        if (alive_[v]) out.push_back(static_cast<int>(v));
    return out;
}

std::size_t ZxGraph::num_edges() const {
    std::size_t n = 0;
    for (std::size_t v = 0; v < adj_.size(); ++v) {
        if (!alive_[v]) continue;
        for (const auto& [w, cnt] : adj_[v])
            if (w > static_cast<int>(v)) n += static_cast<std::size_t>(cnt.total());
    }
    return n;
}

std::string ZxGraph::to_string() const {
    std::ostringstream os;
    os << "zx-graph: " << num_vertices() << " vertices, " << num_edges() << " edges\n";
    for (const int v : vertices()) {
        os << "  v" << v << " ";
        switch (type(v)) {
        case VertexType::Boundary: os << "B"; break;
        case VertexType::Z: os << "Z"; break;
        case VertexType::X: os << "X"; break;
        }
        if (std::abs(phase(v)) > 1e-12) os << "(" << phase(v) << ")";
        if (qubit(v) >= 0) os << " q" << qubit(v);
        os << " ->";
        for (const auto& [w, cnt] : adjacency(v)) {
            for (int i = 0; i < cnt.simple; ++i) os << " " << w;
            for (int i = 0; i < cnt.hadamard; ++i) os << " h" << w;
        }
        os << "\n";
    }
    return os.str();
}

} // namespace epoc::zx
