// Deterministic dimension-order ("e-cube") routing for meshes and hypercubes.
//
// The message corrects dimensions strictly in increasing order; within the
// active dimension it may use any virtual channel in [vc_lo, vc_hi].  The
// channel dependency graph is acyclic (channels ordered by (dim, position,
// direction)), so this is the canonical deadlock-free deterministic baseline
// and the escape layer of Duato's mesh/hypercube constructions.
//
// Not valid on wraparound (torus) dimensions — use DatelineRouting there.
#pragma once

#include "wormnet/routing/routing_function.hpp"

namespace wormnet::routing {

class DimensionOrder final : public RoutingFunction {
 public:
  /// Routes on virtual channels [vc_lo, vc_hi] of each link.  The default
  /// uses every VC.  Throws if the topology has a wraparound dimension.
  DimensionOrder(const Topology& topo, std::uint8_t vc_lo, std::uint8_t vc_hi);
  explicit DimensionOrder(const Topology& topo);

  [[nodiscard]] std::string name() const override;
  void route_into(ChannelId input, NodeId current, NodeId dest,
                  ChannelSet& out) const override;

 private:
  std::uint8_t vc_lo_;
  std::uint8_t vc_hi_;
};

}  // namespace wormnet::routing
