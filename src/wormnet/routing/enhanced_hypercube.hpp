// [companion] Enhanced Fully Adaptive hypercube routing (2 VCs/link).
//
// The second virtual channel (vc1) is usable on any minimal hop at any time.
// The first virtual channel (vc0) is partially adaptive: with l the lowest
// dimension in which the message still needs to route,
//   * if the message needs the NEGATIVE direction of l, vc0 of any minimal
//     hop may be used;
//   * if it needs the POSITIVE direction of l, vc0 may be used only in
//     dimension l itself.
// A blocked message waits for vc0 of dimension l.
//
// The companion text proves (via the channel waiting graph) that this is
// deadlock-free and that relaxing the single vc0 restriction creates a True
// Cycle.  `relaxed = true` builds exactly that broken variant, which the
// necessity experiments use as a known-deadlocking instance.
#pragma once

#include "wormnet/routing/routing_function.hpp"

namespace wormnet::routing {

class EnhancedFullyAdaptive final : public RoutingFunction {
 public:
  EnhancedFullyAdaptive(const Topology& topo, bool relaxed);
  explicit EnhancedFullyAdaptive(const Topology& topo)
      : EnhancedFullyAdaptive(topo, /*relaxed=*/false) {}

  [[nodiscard]] std::string name() const override {
    return relaxed_ ? "enhanced-relaxed" : "enhanced";
  }
  [[nodiscard]] WaitMode wait_mode() const override {
    return WaitMode::kSpecific;
  }

  void route_into(ChannelId input, NodeId current, NodeId dest,
                  ChannelSet& out) const override;
  bool waiting_into(ChannelId input, NodeId current, NodeId dest,
                    ChannelSet& out) const override;

 private:
  /// Lowest dimension where current and dest differ plus the needed
  /// direction there.
  [[nodiscard]] std::pair<std::size_t, Direction> lowest_needed(
      NodeId current, NodeId dest) const;

  bool relaxed_;
};

}  // namespace wormnet::routing
