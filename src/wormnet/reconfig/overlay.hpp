// Live transition state shared between the Simulator and its allocator.
//
// The overlay tracks, per destination, which routing version is *current*
// (what new injections are stamped with) and exposes the pure relation for
// any version (what an in-flight packet stamped earlier keeps using — the
// in-flight coherence rule, DESIGN 3.12).  Cutover steps are applied
// between cycles; because compilation pruned no-op assignments, every
// applied assignment is a real routing change and apply() reports exactly
// the destinations that switched.
#pragma once

#include <cstdint>
#include <vector>

#include "wormnet/reconfig/transition_plan.hpp"
#include "wormnet/routing/routing_function.hpp"

namespace wormnet::reconfig {

class TransitionOverlay {
 public:
  /// `plan` may be null (no transition); it is borrowed and must outlive
  /// the overlay.  `base` is the relation version 0 stamps resolve to.
  TransitionOverlay(const routing::RoutingFunction& base,
                    const CompiledTransitionPlan* plan)
      : plan_(plan) {
    relations_.push_back(&base);
    if (plan_ != nullptr) {
      for (const auto& target : plan_->targets) {
        relations_.push_back(target.get());
      }
      version_.assign(plan_->num_nodes, 0);
    }
  }

  [[nodiscard]] bool active() const noexcept {
    return plan_ != nullptr && !plan_->empty();
  }

  /// The pure relation a packet stamped with `version` is routed by.
  [[nodiscard]] const routing::RoutingFunction& relation(
      std::uint32_t version) const {
    return *relations_[version];
  }

  /// Versions a stamp can name: the base, then one per plan target.
  [[nodiscard]] std::size_t num_versions() const noexcept {
    return relations_.size();
  }

  /// The version new injections toward `dest` are stamped with.
  [[nodiscard]] std::uint32_t current(NodeId dest) const {
    return version_.empty() ? 0 : version_[dest];
  }

  /// Transition epochs applied so far (== the epoch number of the last
  /// applied step; epoch 0 is the pre-transition network).
  [[nodiscard]] std::uint32_t epoch() const noexcept { return epoch_; }

  /// Applies one compiled cutover step; returns the destinations that
  /// switched (all of the step's, by construction) in ascending order.
  std::vector<NodeId> apply(const CompiledCutover& step) {
    std::vector<NodeId> switched;
    switched.reserve(step.assignments.size());
    for (const CutoverAssignment& a : step.assignments) {
      version_[a.dest] = a.version;
      switched.push_back(a.dest);
    }
    if (!switched.empty()) ++epoch_;
    return switched;
  }

 private:
  const CompiledTransitionPlan* plan_;
  std::vector<const routing::RoutingFunction*> relations_;
  std::vector<std::uint32_t> version_;
  std::uint32_t epoch_ = 0;
};

}  // namespace wormnet::reconfig
