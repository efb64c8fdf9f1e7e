// Reachable channel states.
//
// A state is a pair (channel, destination): "some message destined for d can
// occupy c".  Every dependency graph in the library is built over *reachable*
// states only, computed as a forward fixpoint from the injection states; this
// matters for input-dependent relations (R : C x N x N), where naively
// evaluating the relation on unreachable inputs would create spurious
// dependencies and false negative verdicts.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "wormnet/cdg/bits.hpp"
#include "wormnet/routing/routing_function.hpp"
#include "wormnet/topology/topology.hpp"

namespace wormnet::cdg {

using routing::ChannelSet;
using routing::RoutingFunction;
using topology::ChannelId;
using topology::NodeId;
using topology::Topology;

class StateGraph {
 public:
  StateGraph(const Topology& topo, const RoutingFunction& routing);

  /// The state graph of `relation`, derived from `parent` without calling
  /// the relation.  `relation` must be `parent.routing()` minus the channels
  /// `dead` marks, in every route and waiting row (FaultAwareRouting over
  /// the parent's relation).  The parent's rows are filtered by `dead` (its
  /// waiting rows only if some differs from its route row) and the same
  /// per-destination fixpoint re-runs over them: a state the
  /// derived relation reaches is one the parent reaches, and its row is the
  /// parent's row minus the dead channels, so reachable set and every list
  /// equal a fresh build's, in contents and order.  The derived graph keeps
  /// no reference to `parent` beyond their shared topology.
  StateGraph(const StateGraph& parent, const RoutingFunction& relation,
             const std::vector<bool>& dead);

  [[nodiscard]] const Topology& topo() const noexcept { return *topo_; }
  [[nodiscard]] const RoutingFunction& routing() const noexcept {
    return *routing_;
  }

  /// True iff some permitted path with destination `dest` uses channel `c`.
  [[nodiscard]] bool reachable(ChannelId c, NodeId dest) const {
    return test_bit(reachable_words(dest).data(), c);
  }

  /// reachable(·, dest) as a row of row_words(num_channels) words.
  [[nodiscard]] std::span<const Word> reachable_words(NodeId dest) const {
    return {reachable_.data() + dest * words_, words_};
  }

  /// Successor channels of state (c, dest) — the relation evaluated at the
  /// head of c with input channel c.  Empty if the head is the destination.
  [[nodiscard]] std::span<const ChannelId> successors(ChannelId c,
                                                      NodeId dest) const {
    return list(succ_[index(c, dest)]);
  }

  /// Waiting channels of state (c, dest) — the subset of successors the
  /// message may wait for when blocked.
  [[nodiscard]] std::span<const ChannelId> waiting(ChannelId c,
                                                   NodeId dest) const {
    const std::size_t i = index(c, dest);
    return list(wait_.empty() ? succ_[i] : wait_[i]);
  }

  /// First-hop channels available at source `src` for destination `dest`
  /// (relation evaluated with the injection input).
  [[nodiscard]] std::span<const ChannelId> injection(NodeId src,
                                                     NodeId dest) const {
    return list(inject_[pair(src, dest)]);
  }

  /// Waiting channels for a message still at its source.
  [[nodiscard]] std::span<const ChannelId> injection_waiting(
      NodeId src, NodeId dest) const {
    const std::size_t i = pair(src, dest);
    return list(inject_wait_.empty() ? inject_[i] : inject_wait_[i]);
  }

  /// True iff state (from, dest) can reach state (to, dest) along successor
  /// edges in zero or more steps.  Memoized per destination (the closure is
  /// computed on first use for that destination).
  [[nodiscard]] bool reaches(ChannelId from, ChannelId to, NodeId dest) const;

  /// All reachable states, as (channel, dest) pairs (deterministic order).
  [[nodiscard]] std::vector<std::pair<ChannelId, NodeId>> states() const;

  [[nodiscard]] std::size_t num_reachable_states() const {
    return num_reachable_;
  }

 private:
  /// A state's successor or waiting list: a slice of `lists_`.
  struct Slice {
    std::uint32_t begin = 0;
    std::uint32_t size = 0;
  };

  [[nodiscard]] std::size_t index(ChannelId c, NodeId dest) const {
    return static_cast<std::size_t>(dest) * topo_->num_channels() + c;
  }
  [[nodiscard]] std::size_t pair(NodeId src, NodeId dest) const {
    return static_cast<std::size_t>(src) * topo_->num_nodes() + dest;
  }
  [[nodiscard]] std::span<const ChannelId> list(Slice slice) const {
    return {lists_.data() + slice.begin, slice.size};
  }
  /// Appends `channels` to `lists_` and returns their slice.
  Slice append(std::span<const ChannelId> channels);
  /// The per-destination forward fixpoint from the injection states.
  /// `row(input, at, dest, route, waits)` fills the relation's route list
  /// at `at` for a message arriving on `input` (kInvalidChannel =
  /// injection), and returns true when it also filled a waiting list in
  /// `waits`; false means the waiting list is the route list.
  template <class Row>
  void explore(Row&& row);
  void ensure_closure(NodeId dest) const;

  const Topology* topo_;
  const RoutingFunction* routing_;
  std::size_t words_ = 0;  ///< words per reachable_ row
  std::vector<Word> reachable_;  ///< per destination: reachable(·, dest)
  // Successor, waiting and injection lists, flat: a waiting slice aliases
  // its successor (injection) slice when the two lists are equal, and
  // `wait_` (`inject_wait_`) stays empty while every state's (source's)
  // does — always, for a wait-on-any relation, whose waiting_into never
  // gives a list.
  std::vector<ChannelId> lists_;
  std::vector<Slice> succ_;
  std::vector<Slice> wait_;
  std::vector<Slice> inject_;
  std::vector<Slice> inject_wait_;
  std::size_t num_reachable_ = 0;

  // Per-destination transitive closure over channels, built lazily.
  // closure_[dest] is a C x C bit matrix (row-major, 64-bit words).
  mutable std::vector<std::vector<std::uint64_t>> closure_;
};

/// Why (and where) a relation fails to be *connected* (Definition 4's
/// precondition): every source-destination pair must have a first hop, no
/// reachable state may be a dead end, and every reachable state must still be
/// able to reach its destination.  On failure the report pins down one
/// offending (src, dest) pair or (channel, dest) state so callers can explain
/// the verdict instead of echoing a bare bool.
struct ConnectivityReport {
  enum class Failure : std::uint8_t {
    kNone,          ///< connected
    kNoInjection,   ///< no first hop for (src, dest)
    kDeadEnd,       ///< reachable state (channel, dest) with no outputs
    kCannotFinish,  ///< reachable state that never reaches a sink
  };
  Failure failure = Failure::kNone;
  NodeId src = 0;  ///< valid for kNoInjection
  ChannelId channel = topology::kInvalidChannel;  ///< kDeadEnd/kCannotFinish
  NodeId dest = 0;  ///< the destination being checked (all failure kinds)

  [[nodiscard]] bool connected() const { return failure == Failure::kNone; }
  /// One-line human rendering of the witness ("no route 3 -> 7", ...).
  [[nodiscard]] std::string describe(const Topology& topo) const;
};

/// Full connectivity check with witness (see ConnectivityReport).
[[nodiscard]] ConnectivityReport relation_connectivity(
    const StateGraph& states);

/// True iff the relation is connected (witness-free convenience wrapper).
[[nodiscard]] bool relation_connected(const StateGraph& states);

/// True iff every reachable hop strictly decreases the distance to the
/// destination.  Minimal relations never revisit a node, so they satisfy the
/// coherence precondition of the necessity direction; nonminimal relations
/// (e.g. the incoherent example) fall outside the condition's exact scope.
[[nodiscard]] bool relation_minimal(const StateGraph& states);

/// True iff Duato's condition is exact (necessary AND sufficient) for the
/// relation: N x N form, wait-on-any and minimal (minimality implies
/// coherence).  Outside this scope a failed search proves nothing.
[[nodiscard]] bool condition_exact(const StateGraph& states);

}  // namespace wormnet::cdg
