// A compact directed graph over dense vertex ids [0, n), used for every
// dependency graph in the library (channel dependency graphs, extended CDGs,
// channel waiting graphs, packet wait-for graphs).
//
// Edges are deduplicated (the graphs here are relations, not multigraphs) and
// stored as sorted adjacency vectors, so membership tests are O(log deg) and
// iteration is cache-friendly.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace wormnet::graph {

using Vertex = std::uint32_t;

class Digraph {
 public:
  Digraph() = default;
  explicit Digraph(std::size_t num_vertices);

  [[nodiscard]] std::size_t num_vertices() const noexcept { return adj_.size(); }
  [[nodiscard]] std::size_t num_edges() const noexcept { return num_edges_; }

  /// Adds edge u -> v; duplicates are ignored.  Returns true if inserted.
  bool add_edge(Vertex u, Vertex v);

  /// Replaces the out-edges of u by `sorted`, which must be strictly
  /// ascending.  Reuses the row's storage.
  void set_out(Vertex u, std::span<const Vertex> sorted);

  /// Removes edge u -> v if present.  Returns true if removed.
  bool remove_edge(Vertex u, Vertex v);

  [[nodiscard]] bool has_edge(Vertex u, Vertex v) const;

  [[nodiscard]] std::span<const Vertex> out(Vertex u) const {
    return adj_[u];
  }

  /// In-degree computed on demand (the library mostly walks out-edges).
  [[nodiscard]] std::vector<std::size_t> in_degrees() const;

  /// True iff the graph contains a directed cycle (iterative 3-color DFS).
  [[nodiscard]] bool has_cycle() const;

  /// One directed cycle as a vertex sequence v0 -> v1 -> ... -> v0 (the final
  /// repetition is omitted), or nullopt if acyclic.
  [[nodiscard]] std::optional<std::vector<Vertex>> find_cycle() const;

  /// Topological order if acyclic, nullopt otherwise (Kahn's algorithm).
  [[nodiscard]] std::optional<std::vector<Vertex>> topological_order() const;

  /// Strongly connected components (Tarjan, iterative).  Returns the
  /// component id of each vertex; ids are in reverse topological order of the
  /// condensation.  `num_components` receives the component count.
  [[nodiscard]] std::vector<Vertex> tarjan_scc(std::size_t& num_components) const;

  /// Vertices reachable from `start` (including start itself).
  [[nodiscard]] std::vector<bool> reachable_from(Vertex start) const;

  /// Graphviz dot rendering; `label(v)` names each vertex.
  [[nodiscard]] std::string to_dot(
      const std::function<std::string(Vertex)>& label) const;

 private:
  std::vector<std::vector<Vertex>> adj_;
  std::size_t num_edges_ = 0;
};

}  // namespace wormnet::graph
