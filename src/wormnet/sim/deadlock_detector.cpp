#include "wormnet/sim/deadlock_detector.hpp"

#include <algorithm>
#include <utility>

namespace wormnet::sim {

WaitAnalysis::WaitAnalysis(std::vector<BlockedPacket> blocked,
                           std::span<const PacketId> owner)
    : blocked_(std::move(blocked)) {
  const auto n = static_cast<std::uint32_t>(blocked_.size());
  by_packet_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    by_packet_.emplace_back(blocked_[i].packet, i);
  }
  std::sort(by_packet_.begin(), by_packet_.end());
  const auto index_of = [this](PacketId id) {
    const auto it = std::lower_bound(
        by_packet_.begin(), by_packet_.end(), id,
        [](const auto& entry, PacketId key) { return entry.first < key; });
    return it != by_packet_.end() && it->first == id ? it->second : kNone;
  };

  // Greatest fixpoint: drop every entry with a target outside the set until
  // nothing changes; the fixpoint is unique, so the sweep order does not
  // matter.  The first sweep resolves each waiting channel's owner to a
  // blocked index (flat: entry i's targets at [first[i], first[i + 1])).  A
  // self-wait resolves to the entry itself, so it never removes the entry;
  // a free channel or one held outside the list resolves to kNone.  An
  // entry stops resolving at its first target outside the set, since a
  // dropped entry's targets are never read again.
  std::vector<std::uint8_t> alive(n, 1);
  std::vector<std::uint32_t> first(n + 1, 0);
  std::vector<std::uint32_t> target;
  target.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const BlockedPacket& bp = blocked_[i];
    alive[i] = !bp.waiting_on.empty();
    for (const ChannelId c : bp.waiting_on) {
      const std::uint32_t t = owner[c] == bp.packet   ? i
                              : owner[c] == kNoPacket ? kNone
                                                      : index_of(owner[c]);
      target.push_back(t);
      if (t == kNone || !alive[t]) {
        alive[i] = 0;
        break;
      }
    }
    first[i + 1] = static_cast<std::uint32_t>(target.size());
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (!alive[i]) continue;
      for (std::uint32_t k = first[i]; k < first[i + 1]; ++k) {
        if (!alive[target[k]]) {
          alive[i] = 0;
          changed = true;
          break;
        }
      }
    }
  }

  next_.assign(n, kNone);
  via_.assign(n, kInvalidChannel);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!alive[i]) continue;
    next_[i] = target[first[i]];  // every target of a member is a member
    via_[i] = blocked_[i].waiting_on.front();
  }
}

std::uint32_t WaitAnalysis::follow(std::uint32_t start, std::uint32_t walk,
                                   std::vector<std::uint32_t>& seen) const {
  std::uint32_t at = start;
  while (seen[at] == kNone) {
    seen[at] = walk;
    at = next_[at];
  }
  return at;
}

std::vector<WaitHop> WaitAnalysis::cycle_at(std::uint32_t at) const {
  std::vector<WaitHop> hops;
  std::uint32_t i = at;
  do {
    hops.push_back({blocked_[i].packet, via_[i]});
    i = next_[i];
  } while (i != at);
  return hops;
}

std::optional<DeadlockInfo> WaitAnalysis::deadlock(std::uint64_t cycle) const {
  const auto start = std::find_if(next_.begin(), next_.end(),
                                  [](std::uint32_t j) { return j != kNone; });
  if (start == next_.end()) return std::nullopt;
  std::vector<std::uint32_t> seen(next_.size(), kNone);
  DeadlockInfo info;
  info.cycle = cycle;
  const auto begin = static_cast<std::uint32_t>(start - next_.begin());
  for (const WaitHop& hop : cycle_at(follow(begin, 0, seen))) {
    info.packet_cycle.push_back(hop.packet);
    info.blocked_channels.push_back(hop.waits_for);
  }
  return info;
}

std::vector<std::vector<WaitHop>> WaitAnalysis::cycles() const {
  // The successor graph is functional, so the walk from any member ends in
  // exactly one cycle, and distinct cycles are disjoint: a walk that closes
  // on an entry an earlier walk marked leads into that walk's cycle.
  std::vector<std::vector<WaitHop>> out;
  std::vector<std::uint32_t> seen(next_.size(), kNone);
  for (std::uint32_t walk = 0; walk < by_packet_.size(); ++walk) {
    const std::uint32_t start = by_packet_[walk].second;
    if (next_[start] == kNone || seen[start] != kNone) continue;
    const std::uint32_t at = follow(start, walk, seen);
    if (seen[at] == walk) out.push_back(cycle_at(at));
  }
  return out;
}

}  // namespace wormnet::sim
