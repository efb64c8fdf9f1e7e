// TableRouting: a routing relation defined by an explicit table.
//
// Used for (a) hand-built counterexample relations in tests, (b) replaying
// deadlock witnesses (core/witness) where each message must follow an exact
// channel sequence, and (c) fuzzing the checkers with randomly generated
// relations.
#pragma once

#include <map>
#include <string>

#include "wormnet/routing/routing_function.hpp"

namespace wormnet::routing {

class TableRouting final : public RoutingFunction {
 public:
  /// Key: (input channel, current node, destination).  Input-independent
  /// entries use kInvalidChannel as a wildcard input; exact-input entries
  /// take precedence when both exist.
  using Key = std::tuple<ChannelId, NodeId, NodeId>;

  TableRouting(const Topology& topo, std::string label,
               std::map<Key, ChannelSet> table,
               RelationForm form = RelationForm::kNodeDest,
               WaitMode wait = WaitMode::kAnyOf);

  [[nodiscard]] std::string name() const override { return label_; }
  [[nodiscard]] RelationForm form() const override { return form_; }
  [[nodiscard]] WaitMode wait_mode() const override { return wait_; }
  [[nodiscard]] bool minimal() const override { return false; }

  void route_into(ChannelId input, NodeId current, NodeId dest,
                  ChannelSet& out) const override;

  /// Optional distinct waiting table (subset of route per state); empty means
  /// waiting == route.
  void set_waiting(std::map<Key, ChannelSet> waiting_table);
  bool waiting_into(ChannelId input, NodeId current, NodeId dest,
                    ChannelSet& out) const override;

 private:
  std::string label_;
  std::map<Key, ChannelSet> table_;
  std::map<Key, ChannelSet> waiting_;
  RelationForm form_;
  WaitMode wait_;
};

}  // namespace wormnet::routing
