// The subfunction search's state: one uniform escape set C1, edited one
// dropped channel at a time, with everything the search asks of a candidate
// kept current across edits — the two gates (connectivity and
// escape-everywhere) and the extended CDG.
//
// cdg::search builds one when its greedy stage starts: the greedy DFS drops
// a channel of the current witness cycle, evaluates the child and undoes the
// drop when it backtracks, and the exhaustive stage reassigns the set per
// subset.  Edits go on an undo log rather than into a copy per frame.
//
//   * Connectivity.  Per destination d, a bitset of the channels usable
//     toward d (C1 ∩ reachable(·, d)) and a reverse-BFS tree over them
//     rooted at d.  Dropping c touches only the destinations whose tree
//     used c: the node c left is re-hung on another usable channel when one
//     leads out of its own subtree, and the BFS re-runs otherwise.
//   * Escape-everywhere.  Per reachable state and per injection state, the
//     number of its successors (first hops) in C1.  Dropping c decrements
//     the counts of exactly the states that list c.
//   * The ECDG.  Per destination, the EcdgKernel's targets.  Dropping c
//     marks stale only the destinations d with reachable(c, d): for any
//     other d, c is in no reachable state, successor list or closure of d,
//     so d's targets are unchanged.  ecdg() re-runs the kernel for the stale
//     destinations and reassembles; the result equals build_extended_cdg of
//     the same C1 in every edge, kind and count (DESIGN 3.2).
#pragma once

#include <cstdint>
#include <vector>

#include "wormnet/cdg/extended_cdg.hpp"
#include "wormnet/cdg/states.hpp"

namespace wormnet::cdg {

class SearchState {
 public:
  /// The state of C1 = every channel.
  explicit SearchState(const StateGraph& states);

  /// Replaces C1 by `c1` (one flag per channel) and clears the undo log.
  void assign(const std::vector<bool>& c1);

  /// Removes channel `c` from C1 as one undoable edit (a no-op edit when
  /// `c` is not in C1).  The current set must be connected.
  void drop(ChannelId c);

  /// Reverts the latest drop not yet undone.
  void undo();

  [[nodiscard]] const std::vector<bool>& c1() const noexcept { return c1_; }

  /// Drops not yet undone.
  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }

  /// Subfunction::connected() of the current set.
  [[nodiscard]] bool connected() const noexcept { return !disconnected_; }

  /// Subfunction::escape_everywhere() of the current set.  The counts are
  /// taken on first use after assign(), since most of the exhaustive
  /// stage's subsets fail connectivity first.
  [[nodiscard]] bool escape_everywhere();

  /// The extended CDG of the current set (valid until the next edit).
  /// Counts one ECDG build on the checker probe, like build_extended_cdg.
  [[nodiscard]] const ExtendedCdg& ecdg();

 private:
  /// One undo-log entry.  A drop logs kDrop first; the entries after it
  /// belong to that drop and are undone before it.
  struct Edit {
    enum class Kind : std::uint8_t {
      kDrop,        ///< value: the dropped channel, or kInvalidChannel
      kTree,        ///< value: d; its old tree is on saved_trees_
      kTreeEdge,    ///< value: tree_ index; its old channel on saved_trees_
      kDisconnect,  ///< the drop disconnected some destination
      kStale,       ///< value: d, whose targets were current before
      kTargets,     ///< value: d; its stale targets are on saved_targets_
    };
    Kind kind;
    std::uint32_t value;
  };

  [[nodiscard]] bool usable(NodeId d, ChannelId c) const {
    return (usable_[d * words_ + c / 64] >> (c % 64)) & 1;
  }
  void set_usable(NodeId d, ChannelId c, bool on);
  /// Reverse BFS from d over its usable channels; true iff every node
  /// reaches d.
  bool grow_tree(NodeId d);
  /// Re-hangs node u of d's tree, whose tree channel is no longer usable,
  /// on a usable channel to a node whose tree path avoids u.  False when
  /// there is none.
  bool rehang(NodeId d, NodeId u);
  /// Counts every state's escapes from scratch.
  void count_all_escapes();
  /// Applies (+1) or reverts (-1) the escape-count change of dropping c.
  void count_escapes(ChannelId c, int delta);

  const StateGraph& states_;
  std::size_t channels_;
  NodeId nodes_;
  std::size_t words_;

  std::vector<bool> c1_;
  std::vector<Word> c1_bits_;  ///< C1 = C1(d) for every d, as words

  // Connectivity.
  std::vector<Word> usable_;     ///< per d: C1 ∩ reachable(·, d)
  std::vector<ChannelId> tree_;  ///< per d, per node: its tree channel
  std::vector<NodeId> bfs_;
  bool disconnected_ = false;

  // Escape-everywhere: the escape counts of reachable non-sink states
  // (index d * channels + c) and of injection states (src * nodes + d), and
  // per channel the states whose successor (first-hop) lists name it.
  std::vector<std::uint32_t> state_escapes_;
  std::vector<std::uint32_t> injection_escapes_;
  std::vector<std::uint32_t> listed_in_begin_;  ///< CSR over channels
  std::vector<std::uint32_t> listed_in_;
  std::vector<std::uint32_t> first_hop_of_begin_;
  std::vector<std::uint32_t> first_hop_of_;
  std::size_t escapeless_ = 0;  ///< counted states with no escape
  bool escapes_counted_ = false;

  // The ECDG.
  EcdgKernel kernel_;
  EcdgAssembler assembler_;
  std::vector<DestTargets> targets_;
  std::vector<char> stale_;
  ExtendedCdg ecdg_;

  // The undo log.
  std::vector<Edit> log_;
  std::vector<ChannelId> saved_trees_;
  std::vector<DestTargets> saved_targets_;
  std::vector<DestTargets> spare_targets_;  ///< storage for kernel re-runs
  std::size_t depth_ = 0;
};

}  // namespace wormnet::cdg
