// Dally–Seitz dateline routing for rings and tori.
//
// Wraparound dimensions have an inherent channel-dependency cycle; the
// classic fix splits each physical link into two virtual-channel classes and
// switches class when the message crosses the dateline (the wrap link).
// Within a dimension, with travel direction fixed, the message uses
//
//   class B (vc 1)  while the wrap link still lies ahead of it,
//   class A (vc 0)  once no wrap remains on its way,
//
// so the dependence chain is B -> B -> ... -> (wrap) -> A -> ... -> A, which
// is totally ordered and therefore acyclic.  Dimensions are corrected in
// increasing order, which orders the per-dimension chains globally.
//
// This is the `R : N x N` deterministic baseline for tori and the escape
// layer of Duato's torus construction.  On non-wrap dimensions it degrades
// to plain dimension-order on class A.
#pragma once

#include "wormnet/routing/routing_function.hpp"

namespace wormnet::routing {

class DatelineRouting final : public RoutingFunction {
 public:
  /// vc_a / vc_b are the two virtual-channel indices used as class A ("no
  /// wrap ahead") and class B ("wrap ahead").  Defaults: 0 and 1.
  DatelineRouting(const Topology& topo, std::uint8_t vc_a, std::uint8_t vc_b);
  explicit DatelineRouting(const Topology& topo);

  [[nodiscard]] std::string name() const override;
  void route_into(ChannelId input, NodeId current, NodeId dest,
                  ChannelSet& out) const override;

  /// True iff the remaining travel in `dim` (from current toward dest along
  /// the deterministic preferred direction) crosses the wrap link.
  [[nodiscard]] bool wrap_ahead(NodeId current, NodeId dest,
                                std::size_t dim) const;

 private:
  std::uint8_t vc_a_;
  std::uint8_t vc_b_;
};

}  // namespace wormnet::routing
