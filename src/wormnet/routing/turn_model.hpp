// Turn-model partially adaptive mesh routing (Glass & Ni).
//
// The turn model prohibits just enough 90-degree turns to break every cycle
// of the channel dependency graph while leaving the rest of the turns — and
// hence a useful amount of adaptiveness — available.  These are the standard
// single-virtual-channel partially adaptive baselines against which less
// restrictive (cyclic-CDG) algorithms are compared.
//
// All three variants here are minimal and input-independent (R : N x N).
#pragma once

#include "wormnet/routing/routing_function.hpp"

namespace wormnet::routing {

/// West-first (2-D mesh): all westward (dim0 -) hops are taken first and
/// exclusively; afterwards the message routes fully adaptively among the
/// remaining productive directions (E/N/S), none of which may turn back west.
class WestFirst final : public RoutingFunction {
 public:
  explicit WestFirst(const Topology& topo);
  [[nodiscard]] std::string name() const override { return "west-first"; }
  void route_into(ChannelId input, NodeId current, NodeId dest,
                  ChannelSet& out) const override;
};

/// North-last (2-D mesh): the message routes fully adaptively among E/W/S;
/// northward (dim1 +) hops are only taken once north is the sole remaining
/// productive direction, and then exclusively.
class NorthLast final : public RoutingFunction {
 public:
  explicit NorthLast(const Topology& topo);
  [[nodiscard]] std::string name() const override { return "north-last"; }
  void route_into(ChannelId input, NodeId current, NodeId dest,
                  ChannelSet& out) const override;
};

/// Negative-first (n-D mesh): all negative-direction hops are routed first,
/// fully adaptively among the needed negative dimensions; then all positive
/// hops, fully adaptively among the needed positive dimensions.
///
/// The nonminimal variant (Glass & Ni's fault-tolerance extension) may take
/// ANY negative channel during the negative phase, even unneeded ones —
/// still deadlock-free, since every negative hop strictly decreases the
/// coordinate sum (no cycle among negative channels is possible) and the
/// phase order forbids positive -> negative edges.
class NegativeFirst final : public RoutingFunction {
 public:
  NegativeFirst(const Topology& topo, bool nonminimal);
  explicit NegativeFirst(const Topology& topo)
      : NegativeFirst(topo, /*nonminimal=*/false) {}
  [[nodiscard]] std::string name() const override {
    return nonminimal_ ? "negative-first-nonmin" : "negative-first";
  }
  [[nodiscard]] bool minimal() const override { return !nonminimal_; }
  void route_into(ChannelId input, NodeId current, NodeId dest,
                  ChannelSet& out) const override;

 private:
  bool nonminimal_;
};

}  // namespace wormnet::routing
