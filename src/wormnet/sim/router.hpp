// Route computation + virtual-channel allocation for blocked packet headers.
//
// Implements both waiting disciplines of the theory:
//   * wait-on-any  — the header re-arbitrates over every candidate each cycle
//   * wait-specific — on first blocking, the header commits to one waiting
//     channel (the relation's waiting() choice) and only acquires that one
// plus forced-path packets (witness replay), which behave as wait-specific on
// the scripted channel sequence.
#pragma once

#include <optional>

#include "wormnet/reconfig/overlay.hpp"
#include "wormnet/routing/routing_function.hpp"
#include "wormnet/routing/selection.hpp"
#include "wormnet/sim/network.hpp"
#include "wormnet/util/rng.hpp"

namespace wormnet::sim {

using routing::RoutingFunction;
using routing::SelectionPolicy;
using routing::WaitMode;

/// Overrides the relation's own wait mode (used by experiments contrasting
/// the two disciplines on the same algorithm).
enum class WaitOverride : std::uint8_t { kFollowRouting, kForceAny, kForceSpecific };

class RouteAllocator {
 public:
  /// `faulty`, when set, is a borrowed live fault mask (the simulator's ft
  /// overlay): faulty channels are removed from every candidate set —
  /// relation candidates, forced paths and wait commitments alike — and a
  /// blocked header only ever commits to a live waiting channel.
  /// `transition`, when set, is the simulator's borrowed reconfig overlay:
  /// injected packets route by the pure relation of their stamped
  /// `route_version`, source-queued packets by the destination's current
  /// version (in-flight coherence rule, DESIGN 3.12).
  RouteAllocator(const Topology& topo, const RoutingFunction& routing,
                 SelectionPolicy selection, WaitOverride wait_override,
                 std::uint32_t buffer_depth, std::uint64_t seed,
                 const std::vector<bool>* faulty = nullptr,
                 const reconfig::TransitionOverlay* transition = nullptr);

  /// Attempts to allocate the next channel for `pkt`, whose header sits at
  /// node `current` having arrived on `input` (kInvalidChannel at the
  /// source).  On success returns the acquired channel and marks its owner;
  /// on failure updates the packet's wait commitment per the discipline.
  [[nodiscard]] std::optional<ChannelId> attempt(Packet& pkt, ChannelId input,
                                                 NodeId current,
                                                 NetworkState& net);

  /// After a failed attempt: the live channels the packet's next attempt
  /// will evaluate (the relation's candidates, or just the wait-specific
  /// commitment the failure made).  All are owned; only a release of one of
  /// them, or a change of the candidate space, can turn the outcome.
  [[nodiscard]] const routing::ChannelSet& last_candidates() const noexcept {
    return cands_;
  }

  /// How many live candidates the last attempt evaluated (before a
  /// wait-specific failure narrowed them to its commitment).
  [[nodiscard]] std::size_t last_evaluated() const noexcept {
    return evaluated_;
  }

  /// Candidate channels the blocked packet is currently waiting on — used by
  /// the deadlock detector.  Empty result means the packet is not blocked on
  /// channel acquisition.
  [[nodiscard]] routing::ChannelSet blocked_on(const Packet& pkt,
                                               ChannelId input,
                                               NodeId current) const;

  [[nodiscard]] WaitMode effective_wait_mode() const;

 private:
  /// Clears `set` and fills it with the packet's current candidate channels
  /// (forced path / wait commitment / routing relation, fault-filtered).
  void candidates_into(const Packet& pkt, ChannelId input, NodeId current,
                       routing::ChannelSet& set) const;

  /// The pure relation routing `pkt` right now (per-packet under a
  /// transition overlay, the bound relation otherwise).
  [[nodiscard]] const RoutingFunction& relation_for(const Packet& pkt) const;

  const Topology* topo_;
  const RoutingFunction* routing_;
  SelectionPolicy selection_;
  WaitOverride wait_override_;
  std::uint32_t buffer_depth_;
  util::Xoshiro256 rng_;
  const std::vector<bool>* faulty_;
  const reconfig::TransitionOverlay* transition_;
  // Scratch reused across attempts (hot path: no per-call allocation).
  std::vector<bool> free_;
  std::vector<std::uint32_t> credits_;
  routing::ChannelSet cands_;
  std::size_t evaluated_ = 0;
};

}  // namespace wormnet::sim
