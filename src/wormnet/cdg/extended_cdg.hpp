// The extended channel dependency graph of a routing subfunction — the graph
// whose acyclicity the paper's necessary-and-sufficient condition tests.
//
// For each destination d and each reachable escape state (ci, d) with
// ci ∈ C1(d), edges are added to every escape channel the message may come to
// wait for next:
//
//   direct          cj ∈ R(head(ci), d) ∩ C1(d)
//   indirect        cj ∈ R(n', d) ∩ C1(d) after one or more intermediate hops
//                   on channels supplied by R for d but NOT in C1(d)
//   direct cross    like direct, but cj ∈ C1(d') for some d' != d only
//   indirect cross  like indirect, but cj ∈ C1(d') for some d' != d only
//
// Cross dependencies only arise for per-destination subfunctions — they are
// exactly the coupling between different pairs' escape sets that the ICPP'94
// condition adds over the 1993 sufficient condition.
//
// The builder computes, per destination, one escape-target closure over the
// non-escape states instead of one excursion walk per escape state; DESIGN
// 3.2 gives the algorithm and the first-discovery rule behind the counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "wormnet/cdg/subfunction.hpp"
#include "wormnet/graph/digraph.hpp"

namespace wormnet::cdg {

/// Classification of one extended-CDG edge (file comment above).  An edge
/// witnessed several ways keeps the strongest explanation: direct beats
/// indirect, same-destination beats cross.
enum class DepKind : std::uint8_t {
  kDirect,
  kIndirect,
  kDirectCross,
  kIndirectCross,
};

[[nodiscard]] const char* to_string(DepKind kind);

/// A dense bitset over channels per channel: row r holds `words` 64-bit
/// words, bit c of row r set for the pair (r, c).
struct BitRows {
  std::size_t words = 0;
  std::vector<std::uint64_t> bits;

  BitRows() = default;
  BitRows(std::size_t rows, std::size_t row_words)
      : words(row_words), bits(rows * row_words, 0) {}
  [[nodiscard]] std::uint64_t* row(std::size_t r) { return &bits[r * words]; }
  [[nodiscard]] const std::uint64_t* row(std::size_t r) const {
    return &bits[r * words];
  }
  [[nodiscard]] bool test(std::size_t r, std::size_t c) const {
    return (bits[r * words + c / 64] >> (c % 64)) & 1;
  }
};

struct ExtendedCdg {
  graph::Digraph graph;        ///< all dependency edges
  graph::Digraph direct_only;  ///< direct (+ direct cross) edges only
  // Each edge counts once, by first discovery: destinations ascending, a
  // state's direct edges before its indirect ones.
  std::size_t direct_edges = 0;
  std::size_t indirect_edges = 0;        ///< indirect edges not already direct
  std::size_t cross_edges = 0;           ///< edges whose target is escape only
                                         ///< for other destinations
  // How each edge u -> v was witnessed, row u bit v: directly (same or
  // cross), directly with a target escape for the witnessing destination
  // itself, and indirectly with such a target.
  BitRows direct;
  BitRows direct_same;
  BitRows indirect_same;

  /// Kind of edge (from, to) of `graph` — lets cycle witnesses explain each
  /// hop (direct / indirect / direct-cross / indirect-cross).
  [[nodiscard]] DepKind kind(graph::Vertex from, graph::Vertex to) const;
};

/// Builds the extended CDG of `sub` over its state graph.
[[nodiscard]] ExtendedCdg build_extended_cdg(const Subfunction& sub);

}  // namespace wormnet::cdg
