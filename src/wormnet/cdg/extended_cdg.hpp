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
// The builder is two pieces.  A per-destination kernel (EcdgKernel) gives
// each escape state (ci, d) its direct and indirect targets, computing one
// escape-target closure over d's non-escape states instead of one excursion
// walk per escape state.  The assembly pass (EcdgAssembler) folds those
// targets, destinations ascending, into the graph and its counts.  The
// subfunction search's state (cdg/search_state.hpp) keeps every
// destination's targets and re-runs the kernel only where a dropped channel
// can change them.  DESIGN 3.2 gives the algorithm and the first-discovery
// rule behind the counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "wormnet/cdg/bits.hpp"
#include "wormnet/cdg/subfunction.hpp"
#include "wormnet/graph/digraph.hpp"

namespace wormnet::obs {
struct CheckerStats;
}  // namespace wormnet::obs

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

struct ExtendedCdg {
  graph::Digraph graph;  ///< all dependency edges
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

  /// The direct (and direct cross) edges alone, as a graph read off the
  /// `direct` rows on demand.
  [[nodiscard]] graph::Digraph direct_graph() const;
};

/// The kernel's output for one destination d: its escape states (ci, d) in
/// ascending channel order, and the escape targets of each.
struct DestTargets {
  std::vector<ChannelId> sources;  ///< ci with ci in C1(d), (ci, d) reachable
  /// The escape successors of (sources[i], d) are
  /// direct_to[direct_begin[i] .. direct_begin[i + 1]).
  std::vector<std::uint32_t> direct_begin;
  std::vector<ChannelId> direct_to;
  /// The sources with a non-escape successor, as indices into `sources`;
  /// indirect row k holds the escape targets past an excursion from
  /// sources[excursions[k]].  Every other source has no indirect target.
  std::vector<std::uint32_t> excursions;
  BitRows indirect;
};

/// The escape-target closure of one destination d.  Over the subgraph of
/// reachable states (c, d) with c NOT in C1(d) — the channels a message may
/// use on an excursion away from the escape set — it computes for each state
/// the set E(c, d) of escape channels (C1 of any destination) supplied
/// anywhere along an excursion starting at c.  One Tarjan pass per
/// destination does it: every state of a strongly connected component shares
/// one set, and the components complete in reverse topological order, so a
/// component's set is the union of its members' own escape successors and
/// the finished sets of the components it leads to.  States are entered
/// lazily, only from the escape states whose excursions need them.
class ExcursionClosure {
 public:
  explicit ExcursionClosure(const StateGraph& states);

  /// Forgets every set: the next queries are for destination `dest`, whose
  /// escape set C1(dest) is the bitset `escape`; `any_c1` is the union of C1
  /// over every destination.
  void reset(NodeId dest, const std::uint64_t* escape,
             const std::uint64_t* any_c1);

  /// E(c, dest) for a non-escape channel c of a reachable state.
  [[nodiscard]] const std::uint64_t* targets(ChannelId c) {
    if (order_[c] == kUnvisited) close_from(c);
    return sets_.row(c);
  }

 private:
  static constexpr std::uint32_t kUnvisited = ~std::uint32_t{0};
  static constexpr std::uint32_t kDone = kUnvisited - 1;

  struct Frame {
    ChannelId channel;
    std::uint32_t next;  ///< index of the next successor to explore
  };

  void close_from(ChannelId root);
  void enter(ChannelId c);
  void finish_component(ChannelId root);

  const StateGraph& states_;
  std::size_t words_;
  obs::CheckerStats* probe_ = nullptr;  ///< the probe installed at reset
  NodeId dest_ = 0;
  const std::uint64_t* escape_ = nullptr;
  const std::uint64_t* any_c1_ = nullptr;
  BitRows sets_;                      ///< E(c, dest), row per channel
  std::vector<std::uint32_t> order_;  ///< DFS order, kUnvisited or kDone
  std::vector<std::uint32_t> low_;
  std::uint32_t next_order_ = 0;
  std::vector<Frame> calls_;
  std::vector<ChannelId> members_;  ///< Tarjan stack of open components
};

/// The per-destination kernel of the ECDG build: the direct targets of each
/// escape state (ci, d) are its escape successors, its indirect targets the
/// union of the closure sets E over its non-escape successors.  The output
/// for d depends only on the states (c, d) reachable for d, C1(d) and the
/// union of C1 restricted to d's successor lists.
class EcdgKernel {
 public:
  explicit EcdgKernel(const StateGraph& states)
      : states_(states), closure_(states) {}

  /// Fills `out` for destination `dest`; `escape` and `any_c1` as in
  /// ExcursionClosure::reset.  Reuses `out`'s storage.
  void run(NodeId dest, const std::uint64_t* escape,
           const std::uint64_t* any_c1, DestTargets& out);

 private:
  const StateGraph& states_;
  ExcursionClosure closure_;
};

/// The assembly pass of the ECDG build: folds each destination's kernel
/// output, destinations ascending, into the edge rows and the
/// first-discovery counts (DESIGN 3.2), then reads the graph off the rows.
class EcdgAssembler {
 public:
  explicit EcdgAssembler(std::size_t channels);

  /// Adds destination d's targets; `escape` is C1(d).  Destinations must
  /// come in ascending order.
  void add(const DestTargets& targets, const std::uint64_t* escape);

  /// Writes the ECDG of every destination added since the last finish into
  /// `out`, trading rows with it so their storage is reused, and starts
  /// over; counts one build on the checker probe.
  void finish(ExtendedCdg& out);

 private:
  std::size_t channels_;
  std::size_t words_;
  // Per source channel: every edge, the directly witnessed ones, and the
  // directly / indirectly witnessed ones whose target is escape for the
  // witnessing destination itself (not cross).
  BitRows any_;
  BitRows direct_;
  BitRows direct_same_;
  BitRows indirect_same_;
  std::size_t direct_edges_ = 0;
  std::size_t indirect_edges_ = 0;
  std::size_t cross_edges_ = 0;
  std::vector<ChannelId> row_;  ///< one graph row, while finishing
  bool finished_ = false;       ///< the rows went out with the last ECDG
};

/// Builds the extended CDG of `sub` over its state graph: the kernel for
/// every destination, then the assembly.
[[nodiscard]] ExtendedCdg build_extended_cdg(const Subfunction& sub);

}  // namespace wormnet::cdg
