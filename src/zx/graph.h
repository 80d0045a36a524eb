// ZX-diagram multigraph.
//
// Vertices are spiders (Z or X, with a phase in radians) or boundary nodes
// (circuit inputs/outputs). Edges are either simple wires or Hadamard edges
// and are stored with multiplicity so that parallel edges created during
// rewriting can be normalized by the algebra:
//   * same-colour pair:   parallel Hadamard edges cancel mod 2 (Hopf law),
//                         parallel simple edges are idempotent (fusion),
//   * different colours:  parallel simple edges cancel mod 2 (Hopf law),
//                         parallel Hadamard edges are idempotent,
//   * self-loops:         simple loops vanish; each Hadamard loop adds pi to
//                         the spider phase.
// Scalar factors are deliberately dropped everywhere: EPOC compares circuits
// up to global phase.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace epoc::zx {

enum class VertexType : std::uint8_t { Boundary, Z, X };
enum class EdgeType : std::uint8_t { Simple, Hadamard };

/// Parallel-edge multiplicities between a vertex pair.
struct EdgeCount {
    int simple = 0;
    int hadamard = 0;
    int total() const noexcept { return simple + hadamard; }
};

class ZxGraph {
public:
    /// Returns the new vertex id. `qubit` is a bookkeeping hint (boundary rows).
    int add_vertex(VertexType type, double phase = 0.0, int qubit = -1);

    /// Add `count` parallel edges of one type and normalize the pair.
    void add_edge(int u, int v, EdgeType et, int count = 1);

    void remove_edge(int u, int v);
    void remove_vertex(int v);

    bool alive(int v) const { return alive_.at(static_cast<std::size_t>(v)); }
    VertexType type(int v) const { return types_.at(static_cast<std::size_t>(v)); }
    void set_type(int v, VertexType t) { types_.at(static_cast<std::size_t>(v)) = t; }
    double phase(int v) const { return phases_.at(static_cast<std::size_t>(v)); }
    void set_phase(int v, double p);
    void add_phase(int v, double p) { set_phase(v, phase(v) + p); }
    int qubit(int v) const { return qubits_.at(static_cast<std::size_t>(v)); }

    bool is_boundary(int v) const { return type(v) == VertexType::Boundary; }
    bool is_interior(int v) const { return alive(v) && !is_boundary(v); }

    /// Phase == 0 or pi (mod 2*pi), within tolerance.
    bool is_pauli_phase(int v) const;
    /// Phase == +-pi/2 (mod 2*pi), within tolerance.
    bool is_proper_clifford_phase(int v) const;

    const std::map<int, EdgeCount>& adjacency(int v) const {
        return adj_.at(static_cast<std::size_t>(v));
    }
    EdgeCount edge(int u, int v) const;
    bool connected(int u, int v) const { return edge(u, v).total() > 0; }

    /// Toggle a single Hadamard edge between two (alive) vertices; used by
    /// local complementation and pivoting.
    void toggle_hadamard_edge(int u, int v) { add_edge(u, v, EdgeType::Hadamard); }

    /// Fuse same-colour spiders connected by at least one simple edge:
    /// v merges into u (phases add; Hadamard self-loops from leftover parallel
    /// edges each add pi).
    void fuse(int u, int v);

    /// Flip the colour of a spider by pushing a Hadamard through every leg.
    void color_change(int v);

    const std::vector<int>& inputs() const noexcept { return inputs_; }
    const std::vector<int>& outputs() const noexcept { return outputs_; }
    void set_inputs(std::vector<int> in) { inputs_ = std::move(in); }
    void set_outputs(std::vector<int> out) { outputs_ = std::move(out); }

    /// Number of alive vertices / capacity of the id space.
    int num_vertices() const;
    int vertex_bound() const { return static_cast<int>(types_.size()); }
    std::vector<int> vertices() const;
    std::size_t num_edges() const;

    std::string to_string() const;

private:
    void normalize_pair(int u, int v);

    std::vector<VertexType> types_;
    std::vector<double> phases_;
    std::vector<int> qubits_;
    std::vector<bool> alive_;
    std::vector<std::map<int, EdgeCount>> adj_;
    std::vector<int> inputs_;
    std::vector<int> outputs_;
};

/// Normalize an angle to [0, 2*pi).
double normalize_phase(double p);

} // namespace epoc::zx
