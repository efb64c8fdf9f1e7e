// The routing-relation framework (Definitions 2–4 of the theory).
//
// A routing relation maps (input channel, current node, destination) to the
// set of output channels the message may use next.  Two forms exist in the
// literature and both are supported:
//
//   * R : N x N -> P(C)       (input-independent; Duato's ICPP'94 necessary-
//                              and-sufficient condition applies to this form)
//   * R : C x N x N -> P(C)   (input-dependent; the general form)
//
// A relation is one evaluator, `route_into()`, which appends the candidate
// set of a state to a caller's vector; `route()` is the same set in a fresh
// vector.  The channels a message is allowed to *wait* for when every
// candidate is busy come from one more append-style virtual,
// `waiting_into()`: it returns false and appends nothing when the waiting set
// is the whole candidate set (wait-on-any, the default), so callers that
// already hold the route reuse it instead of evaluating the relation twice;
// otherwise it appends the subset and returns true.  `waiting()` is the
// waiting set in a fresh vector either way.  The distinction between
// channels a message may merely *use* and channels it may *wait on* is what
// the channel-waiting-graph machinery (companion module) exploits.
//
// Candidate sets are listed in *preference order*: simulators that pick the
// first free channel get the algorithm's intended bias (e.g. adaptive
// channels before escape channels).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "wormnet/topology/topology.hpp"

namespace wormnet::routing {

using topology::ChannelId;
using topology::Direction;
using topology::NodeId;
using topology::Topology;
using topology::kInvalidChannel;

/// Small candidate set; networks here have degree <= a few dozen channels.
using ChannelSet = std::vector<ChannelId>;

enum class RelationForm : std::uint8_t {
  kNodeDest,         ///< R : N x N -> P(C)
  kChannelNodeDest,  ///< R : C x N x N -> P(C)
};

/// How a blocked message waits (Section-6 dichotomy of the theory):
/// kAnyOf  — the message re-arbitrates over its whole waiting set each cycle;
/// kSpecific — the message commits to one waiting channel until it frees.
enum class WaitMode : std::uint8_t { kAnyOf, kSpecific };

class RoutingFunction {
 public:
  explicit RoutingFunction(const Topology& topo) : topo_(&topo) {}
  virtual ~RoutingFunction() = default;

  RoutingFunction(const RoutingFunction&) = delete;
  RoutingFunction& operator=(const RoutingFunction&) = delete;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual RelationForm form() const {
    return RelationForm::kNodeDest;
  }
  [[nodiscard]] virtual WaitMode wait_mode() const { return WaitMode::kAnyOf; }

  /// Appends the output channels the message may use next to `out`, in
  /// preference order.  `input` is kInvalidChannel when the message is still
  /// at its source.  Callers guarantee current != dest.  The set must be
  /// non-empty for every reachable state of a well-formed algorithm (checked
  /// by the connectivity property test).  Append contract: an implementation
  /// never reads, clears or reorders what `out` held before the call, so
  /// callers may build several sets back to back in one vector.  It must
  /// stay pure — the relation is shared across sweep threads.
  virtual void route_into(ChannelId input, NodeId current, NodeId dest,
                          ChannelSet& out) const = 0;

  /// The route_into set in a fresh vector.
  [[nodiscard]] ChannelSet route(ChannelId input, NodeId current,
                                 NodeId dest) const {
    ChannelSet out;
    route_into(input, current, dest, out);
    return out;
  }

  /// The channels the message may wait for when all of route() are busy.
  /// Returns false and appends nothing when that is the whole route (the
  /// default: wait-on-any); otherwise appends the subset of route(), in
  /// preference order, and returns true.  Same append contract and purity
  /// as route_into().
  virtual bool waiting_into(ChannelId /*input*/, NodeId /*current*/,
                            NodeId /*dest*/, ChannelSet& /*out*/) const {
    return false;
  }

  /// The waiting set in a fresh vector: waiting_into's subset, or route().
  [[nodiscard]] ChannelSet waiting(ChannelId input, NodeId current,
                                   NodeId dest) const {
    ChannelSet out;
    if (!waiting_into(input, current, dest, out)) {
      route_into(input, current, dest, out);
    }
    return out;
  }

  /// True if the relation only ever supplies channels on minimal paths.
  [[nodiscard]] virtual bool minimal() const { return true; }

  [[nodiscard]] const Topology& topo() const noexcept { return *topo_; }

 protected:
  const Topology* topo_;
};

// ---------------------------------------------------------------------------
// Helpers shared by the cube-family algorithms.
// ---------------------------------------------------------------------------

/// At most two directions, allocation-free (hot path: one instance per
/// dimension per route computation).
struct DirSet {
  Direction dirs[2] = {Direction::kPos, Direction::kPos};
  std::uint8_t count = 0;
  void push_back(Direction d) { dirs[count++] = d; }
  [[nodiscard]] std::size_t size() const noexcept { return count; }
  [[nodiscard]] bool empty() const noexcept { return count == 0; }
  [[nodiscard]] Direction front() const { return dirs[0]; }
  [[nodiscard]] Direction operator[](std::size_t i) const { return dirs[i]; }
  [[nodiscard]] const Direction* begin() const noexcept { return dirs; }
  [[nodiscard]] const Direction* end() const noexcept { return dirs + count; }
};

/// Directions that bring a message strictly closer to `dest` in `dim`.
/// Mesh dimensions yield at most one direction; torus dimensions can yield
/// both when the two ways around the ring tie.  Empty if already aligned.
[[nodiscard]] DirSet productive_dirs(const Topology& topo, NodeId current,
                                     NodeId dest, std::size_t dim);

/// The single deterministic productive direction used by dimension-ordered
/// algorithms: minimal, ties broken toward kPos.
[[nodiscard]] Direction preferred_dir(const Topology& topo, NodeId current,
                                      NodeId dest, std::size_t dim);

/// Appends every virtual channel of the (current -> neighbor(dim,dir)) link
/// whose vc index lies in [vc_lo, vc_hi] to `out`, in ascending vc order
/// (one read of the topology's link table per vc).
void append_link_vcs(const Topology& topo, NodeId current, std::size_t dim,
                     Direction dir, std::uint8_t vc_lo, std::uint8_t vc_hi,
                     ChannelSet& out);

/// Appends every channel on a minimal path toward dest with vc in
/// [vc_lo, vc_hi] to `out`.
void minimal_channels_into(const Topology& topo, NodeId current, NodeId dest,
                           std::uint8_t vc_lo, std::uint8_t vc_hi,
                           ChannelSet& out);

}  // namespace wormnet::routing
