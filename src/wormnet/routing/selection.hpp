// Selection functions (Definition 3): given the candidate output channels of
// the routing relation and their availability, pick the one to acquire.
//
// Selection never affects deadlock freedom under wait-on-any semantics (any
// candidate is acceptable); it affects performance and, for wait-specific
// algorithms, which waiting channel the message commits to.
#pragma once

#include <cstdint>
#include <span>

#include "wormnet/routing/routing_function.hpp"
#include "wormnet/util/rng.hpp"

namespace wormnet::routing {

enum class SelectionPolicy : std::uint8_t {
  /// First free candidate in the relation's preference order (adaptive
  /// channels before escape channels, productive before misroutes).
  kInOrder,
  /// Uniformly random free candidate — decorrelates traffic.
  kRandom,
};

[[nodiscard]] const char* to_string(SelectionPolicy policy);

/// Returns the index into `candidates` of the selected channel, or -1 if none
/// is free.  `is_free(c)` reports channel c's state when asked, so the
/// caller's own state is read in place: nothing is copied.  kRandom draws
/// once from `rng`, and only when some candidate is free.
template <class IsFree>
[[nodiscard]] int select_channel(SelectionPolicy policy,
                                 std::span<const ChannelId> candidates,
                                 IsFree&& is_free, util::Xoshiro256& rng) {
  const int n = static_cast<int>(candidates.size());
  switch (policy) {
    case SelectionPolicy::kInOrder: {
      for (int i = 0; i < n; ++i) {
        if (is_free(candidates[i])) return i;
      }
      return -1;
    }
    case SelectionPolicy::kRandom: {
      std::uint32_t count = 0;
      for (const ChannelId c : candidates) {
        if (is_free(c)) ++count;
      }
      if (count == 0) return -1;
      std::uint64_t pick = rng.below(count);
      for (int i = 0; i < n; ++i) {
        if (is_free(candidates[i]) && pick-- == 0) return i;
      }
      return -1;
    }
  }
  return -1;
}

}  // namespace wormnet::routing
