// The live epoch of a running simulation: which channels are dead and which
// routing version new packets toward each destination take.
//
// The Simulator advances it between cycles, one step of the run's
// reconfig::EpochSchedule at a time, and the sim::RouteAllocator borrows it:
// every candidate set is filtered through the dead mask, and a packet routes
// by the pure relation of its stamped version (in-flight coherence rule,
// DESIGN 3.12).  Every consumer sees a new epoch the cycle after its step
// fires, with no rebuild of any routing function.
//
// A fault step reports only the channels that actually changed state:
// killing a dead channel (say, a random campaign overlapping a scheduled
// kill) is idempotent and adds nothing to the delta, which keeps the
// fault/repair event counts honest.  Compilation prunes no-op cutover
// assignments, so a cutover reports exactly the destinations it switches.
#pragma once

#include <cstdint>
#include <vector>

#include "wormnet/reconfig/schedule.hpp"
#include "wormnet/routing/routing_function.hpp"

namespace wormnet::sim {

class LiveEpoch {
 public:
  /// `schedule` may be null (no epoch changes).  `base` is the relation
  /// version 0 stamps resolve to; both are borrowed.
  LiveEpoch(const topology::Topology& topo,
            const routing::RoutingFunction& base,
            const reconfig::EpochSchedule* schedule)
      : dead_(topo.num_channels(), false), relations_{&base} {
    if (schedule == nullptr) return;
    faults_ = schedule->has_faults();
    if (schedule->has_cutovers()) {
      for (const auto& target : schedule->plan.targets) {
        relations_.push_back(target.get());
      }
      version_.assign(topo.num_nodes(), 0);
    }
  }

  /// True when the schedule has fault steps.  Only then can a channel die,
  /// so only then do the allocator and the flit mover read the mask.
  [[nodiscard]] bool faults() const noexcept { return faults_; }
  /// True when the schedule has cutovers.  Only then can a destination
  /// leave version 0, so only then are versions read.
  [[nodiscard]] bool versions() const noexcept { return !version_.empty(); }

  [[nodiscard]] bool is_dead(topology::ChannelId c) const { return dead_[c]; }
  /// The dead mask, one entry per channel.
  [[nodiscard]] const std::vector<bool>& dead() const { return dead_; }

  /// The version new injections toward `dest` are stamped with.
  [[nodiscard]] std::uint32_t current(topology::NodeId dest) const {
    return version_.empty() ? 0 : version_[dest];
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

  /// Fault steps applied so far: fault epoch e has the dead mask
  /// epoch_masks()[e] of the schedule's fault plan.
  [[nodiscard]] std::uint64_t fault_epoch() const noexcept {
    return fault_epoch_;
  }
  /// Cutovers that switched a destination so far (epoch 0 is the
  /// pre-transition network).
  [[nodiscard]] std::uint32_t transition_epoch() const noexcept {
    return transition_epoch_;
  }

  struct FaultDelta {
    std::vector<topology::ChannelId> downed;    ///< healthy -> dead
    std::vector<topology::ChannelId> repaired;  ///< dead -> healthy
  };

  /// Applies one fault step (downs first, then ups, matching
  /// CompiledFaultPlan::epoch_masks) and advances the fault epoch.
  FaultDelta apply(const ft::CompiledStep& step) {
    FaultDelta delta;
    for (const topology::ChannelId c : step.down) {
      if (!dead_[c]) {
        dead_[c] = true;
        delta.downed.push_back(c);
      }
    }
    for (const topology::ChannelId c : step.up) {
      if (dead_[c]) {
        dead_[c] = false;
        delta.repaired.push_back(c);
      }
    }
    ++fault_epoch_;
    return delta;
  }

  /// Applies one cutover; returns the destinations that switched, in
  /// ascending order, and advances the transition epoch if any did.
  std::vector<topology::NodeId> apply(const reconfig::CompiledCutover& step) {
    std::vector<topology::NodeId> switched;
    switched.reserve(step.assignments.size());
    for (const reconfig::CutoverAssignment& a : step.assignments) {
      version_[a.dest] = a.version;
      switched.push_back(a.dest);
    }
    if (!switched.empty()) ++transition_epoch_;
    return switched;
  }

 private:
  std::vector<bool> dead_;
  std::vector<std::uint32_t> version_;  ///< empty without cutovers
  std::vector<const routing::RoutingFunction*> relations_;
  bool faults_ = false;
  std::uint64_t fault_epoch_ = 0;
  std::uint32_t transition_epoch_ = 0;
};

}  // namespace wormnet::sim
