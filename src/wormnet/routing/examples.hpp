// Small hand-built example networks + routing relations from the literature.
//
// The centerpiece is Duato's *incoherent* example (4 nodes in a line with a
// nonminimal detour), which both papers use to probe the limits of
// coherence-based conditions:
//
//      cH0      cH1       cH2
//   n0 ---> n1 ----> n2 ----> n3      (rightward minimal channels)
//   n0 <--- n1 <---- n2 <---- n3      (leftward minimal channels cL1..cL3)
//            \--cA1--> n2
//            n1 <--cB2--/             (detour channels, dest-n0 only)
//
// Routing: strictly minimal, except that a message destined for n0 may also
// take cA1 at n1 and cB2 at n2 (a nonminimal excursion n1->n2->n1->n0).  The
// relation is incoherent (the permitted path n1->n2->n1->n0 visits n1 twice
// and its prefixes are not permitted), nonminimal, and:
//   * deadlocks if blocked messages commit to one specific waiting channel,
//   * is deadlock-free if they wait on any candidate (companion Theorem 3),
//   * has an acyclic direct-dependency graph for the minimal-channel
//     subfunction yet a cyclic extended CDG (an indirect self-dependency
//     cL2 -> cA1 -> cL2), which experiment EXP-D uses to show why indirect
//     dependencies cannot be omitted.
#pragma once

#include <memory>

#include "wormnet/routing/routing_function.hpp"

namespace wormnet::routing {

/// Channel indices within the incoherent-example topology, in construction
/// order (handy for tests and the worked benchmark output).
struct IncoherentChannels {
  ChannelId cH0, cH1, cH2;  ///< rightward n_i -> n_{i+1}
  ChannelId cL1, cL2, cL3;  ///< leftward  n_i -> n_{i-1}
  ChannelId cA1;            ///< detour n1 -> n2 (dest-n0 messages only)
  ChannelId cB2;            ///< detour n2 -> n1 (dest-n0 messages only)
};

/// Builds the 4-node incoherent-example network.
[[nodiscard]] topology::Topology make_incoherent_net();

/// Channel handles for a topology built by make_incoherent_net().
[[nodiscard]] IncoherentChannels incoherent_channels(
    const topology::Topology& topo);

class IncoherentRouting final : public RoutingFunction {
 public:
  /// wait_specific selects the Section-6 failure mode: blocked messages
  /// commit to a single waiting channel (deadlockable) instead of waiting on
  /// the whole candidate set (deadlock-free).
  IncoherentRouting(const Topology& topo, bool wait_specific);
  explicit IncoherentRouting(const Topology& topo)
      : IncoherentRouting(topo, /*wait_specific=*/false) {}

  [[nodiscard]] std::string name() const override {
    return wait_specific_ ? "incoherent(wait-specific)" : "incoherent";
  }
  [[nodiscard]] WaitMode wait_mode() const override {
    return wait_specific_ ? WaitMode::kSpecific : WaitMode::kAnyOf;
  }
  [[nodiscard]] bool minimal() const override { return false; }

  void route_into(ChannelId input, NodeId current, NodeId dest,
                  ChannelSet& out) const override;
  bool waiting_into(ChannelId input, NodeId current, NodeId dest,
                    ChannelSet& out) const override;

 private:
  IncoherentChannels ch_;
  bool wait_specific_;
};

}  // namespace wormnet::routing
