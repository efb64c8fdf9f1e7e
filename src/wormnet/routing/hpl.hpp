// [companion] Highest-Positive-Last partially adaptive mesh routing.
//
// From the companion text (Schwiebert & Jayasimha): a partially adaptive,
// optionally nonminimal n-D mesh algorithm that needs NO virtual channels and
// whose channel *dependency* graph is cyclic, while its channel *waiting*
// graph is acyclic — the showcase for waiting-graph-based proofs.
//
// Let p be the highest dimension in which the message still must travel in
// the negative direction.
//   * If p exists: the message may use the negative channel of every needed
//     negative dimension, the positive channel of every needed positive
//     dimension BELOW p, and (nonminimal mode) any channel in a dimension
//     below p.  It WAITS only for the negative channel of dimension p.
//   * Otherwise (positive-only): it must take the positive channel of the
//     lowest needed dimension, and waits for exactly that channel.
// 180-degree turns are restricted as in the original: + -> - in dim q only
// when the message needs - in q and in some higher dimension; - -> + in q
// only when it needs + in q (this makes the nonminimal variant a genuine
// R : C x N x N relation, outside the scope of input-independent conditions).
#pragma once

#include "wormnet/routing/routing_function.hpp"

namespace wormnet::routing {

class HighestPositiveLast final : public RoutingFunction {
 public:
  /// `nonminimal` enables misrouting on any channel in dimensions below p
  /// (the full algorithm of the text); false keeps the minimal core.
  HighestPositiveLast(const Topology& topo, bool nonminimal);
  explicit HighestPositiveLast(const Topology& topo)
      : HighestPositiveLast(topo, /*nonminimal=*/true) {}

  [[nodiscard]] std::string name() const override {
    return nonminimal_ ? "hpl" : "hpl-minimal";
  }
  [[nodiscard]] RelationForm form() const override {
    return nonminimal_ ? RelationForm::kChannelNodeDest
                       : RelationForm::kNodeDest;
  }
  [[nodiscard]] WaitMode wait_mode() const override {
    return WaitMode::kSpecific;
  }
  [[nodiscard]] bool minimal() const override { return !nonminimal_; }

  void route_into(ChannelId input, NodeId current, NodeId dest,
                  ChannelSet& out) const override;
  bool waiting_into(ChannelId input, NodeId current, NodeId dest,
                    ChannelSet& out) const override;

 private:
  /// Highest dimension needing negative travel, or -1.
  [[nodiscard]] int highest_negative(NodeId current, NodeId dest) const;
  [[nodiscard]] bool turn_allowed(ChannelId input, std::size_t out_dim,
                                  Direction out_dir, NodeId current,
                                  NodeId dest) const;

  bool nonminimal_;
};

}  // namespace wormnet::routing
