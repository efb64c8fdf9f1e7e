// Fault injection for routing relations (the fault-tolerance facet of
// Definitions 3-4: a selection function sees channels as free/busy/FAULTY).
//
// FaultAwareRouting wraps any base relation and removes faulty channels from
// both the candidate and the waiting sets — modeling a router that has
// marked channels dead and never allocates them.  Whether the degraded
// relation still delivers every pair (relation_connected) and remains
// deadlock-free (the usual checkers) depends on the base algorithm's
// path diversity: deterministic relations lose connectivity at the first
// fault on their unique path, adaptive relations route around faults in the
// adaptive layer but are vulnerable in the escape layer.
#pragma once

#include <memory>

#include "wormnet/routing/routing_function.hpp"
#include "wormnet/util/rng.hpp"

namespace wormnet::routing {

class FaultAwareRouting final : public RoutingFunction {
 public:
  /// `faulty[c]` marks channel c dead.  The wrapper owns the base relation.
  FaultAwareRouting(const Topology& topo,
                    std::unique_ptr<RoutingFunction> base,
                    std::vector<bool> faulty);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] RelationForm form() const override { return base_->form(); }
  [[nodiscard]] WaitMode wait_mode() const override {
    return base_->wait_mode();
  }
  [[nodiscard]] bool minimal() const override { return base_->minimal(); }

  void route_into(ChannelId input, NodeId current, NodeId dest,
                  ChannelSet& out) const override;
  bool waiting_into(ChannelId input, NodeId current, NodeId dest,
                    ChannelSet& out) const override;

  [[nodiscard]] std::size_t fault_count() const noexcept { return count_; }
  [[nodiscard]] bool is_faulty(ChannelId c) const { return faulty_[c]; }

 private:
  std::unique_ptr<RoutingFunction> base_;
  std::vector<bool> faulty_;
  std::size_t count_ = 0;
};

/// Marks every virtual channel of `links` randomly chosen physical links
/// (both directions) faulty.  Deterministic given the seed.
[[nodiscard]] std::vector<bool> random_link_faults(const Topology& topo,
                                                   std::size_t links,
                                                   std::uint64_t seed);

/// Marks all virtual channels of the physical link src -> dst faulty in
/// `faulty` (single direction) and returns how many channels were marked.
/// Zero means src and dst are not adjacent — callers must not assume a
/// fault was injected (the silent no-op this guards against).
[[nodiscard]] std::size_t mark_link_faulty(const Topology& topo, NodeId src,
                                           NodeId dst,
                                           std::vector<bool>& faulty);

}  // namespace wormnet::routing
