// Unrestricted minimal adaptive routing: every productive channel on every
// virtual channel, no restrictions at all.
//
// This is the *negative* baseline of the theory: its channel dependency graph
// is cyclic on any topology with opposing traffic (2-D mesh, hypercube,
// ring), no escape subfunction exists with a single unstructured VC class,
// and the simulator demonstrably deadlocks it under load.  It exists so that
// the necessary half of the condition has something to bite on.
#pragma once

#include "wormnet/routing/routing_function.hpp"

namespace wormnet::routing {

class UnrestrictedMinimal final : public RoutingFunction {
 public:
  explicit UnrestrictedMinimal(const Topology& topo);

  [[nodiscard]] std::string name() const override { return "unrestricted"; }
  void route_into(ChannelId input, NodeId current, NodeId dest,
                  ChannelSet& out) const override;
};

}  // namespace wormnet::routing
