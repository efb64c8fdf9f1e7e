// The live fault mask of a running simulation.
//
// FaultOverlay owns the mutable per-channel fault vector a simulation routes
// around: the Simulator applies CompiledSteps between cycles, and the
// sim::RouteAllocator reads the mask by reference, filtering every candidate
// set through it — so every consumer sees the new epoch the cycle after an
// event fires, with no rebuild of the routing function.
//
// apply() reports the channels that actually changed state; killing a dead
// channel (e.g. a random campaign overlapping a scheduled kill) is idempotent
// and contributes nothing to the delta, which keeps the fault/repair event
// counts honest.
#pragma once

#include <cstdint>
#include <vector>

#include "wormnet/ft/fault_plan.hpp"

namespace wormnet::ft {

class FaultOverlay {
 public:
  explicit FaultOverlay(std::size_t num_channels)
      : mask_(num_channels, false) {}

  /// The live mask; the reference stays valid (and its address stable) for
  /// the overlay's lifetime, so borrowers may hold onto it.
  [[nodiscard]] const std::vector<bool>& mask() const noexcept {
    return mask_;
  }
  [[nodiscard]] bool is_faulty(ChannelId c) const { return mask_[c]; }
  [[nodiscard]] std::size_t fault_count() const noexcept { return count_; }
  /// Steps applied so far; epoch e uses masks()[e] of the compiled plan.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  struct Delta {
    std::vector<ChannelId> downed;    ///< transitioned healthy -> faulty
    std::vector<ChannelId> repaired;  ///< transitioned faulty -> healthy
  };

  /// Applies one compiled step (downs first, then ups, matching
  /// CompiledFaultPlan::epoch_masks) and advances the epoch.
  Delta apply(const CompiledStep& step) {
    Delta delta;
    for (ChannelId c : step.down) {
      if (!mask_[c]) {
        mask_[c] = true;
        ++count_;
        delta.downed.push_back(c);
      }
    }
    for (ChannelId c : step.up) {
      if (mask_[c]) {
        mask_[c] = false;
        --count_;
        delta.repaired.push_back(c);
      }
    }
    ++epoch_;
    return delta;
  }

 private:
  std::vector<bool> mask_;
  std::size_t count_ = 0;
  std::uint64_t epoch_ = 0;
};

}  // namespace wormnet::ft
