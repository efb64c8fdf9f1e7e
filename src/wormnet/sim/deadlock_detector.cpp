#include "wormnet/sim/deadlock_detector.hpp"

#include <algorithm>
#include <utility>

namespace wormnet::sim {

namespace {

/// Index of `id` in the (packet-id-sorted) table, or npos.
std::size_t lookup(const std::vector<std::pair<PacketId, std::uint32_t>>& table,
                   PacketId id) {
  const auto it = std::lower_bound(
      table.begin(), table.end(), id,
      [](const auto& entry, PacketId key) { return entry.first < key; });
  if (it == table.end() || it->first != id) return static_cast<std::size_t>(-1);
  return it->second;
}

}  // namespace

std::optional<DeadlockInfo> find_wait_cycle(
    const std::vector<BlockedPacket>& blocked,
    const std::function<PacketId(ChannelId)>& owner_of, std::uint64_t cycle) {
  if (blocked.empty()) return std::nullopt;

  const std::size_t n = blocked.size();
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  // Flat packet-id -> blocked-index table (sorted vector + binary search;
  // no per-check hash maps on the hot path).
  std::vector<std::pair<PacketId, std::uint32_t>> index_of;
  index_of.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i)
    index_of.emplace_back(blocked[i].packet, i);
  std::sort(index_of.begin(), index_of.end());

  // Greatest-fixpoint knot detection: keep only packets whose EVERY waiting
  // channel is owned by another kept packet.  Any packet with a free channel
  // or a channel held by a progressing (non-blocked) packet can eventually
  // move, so it cannot be part of a deadlock.  A non-empty fixpoint is a
  // genuine, permanent deadlock under wormhole channel release rules.
  // The fixpoint is unique, so the sweep order does not affect the result.
  std::vector<std::uint8_t> alive(n, 1);
  std::size_t alive_count = n;
  bool changed = true;
  while (changed && alive_count > 0) {
    changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (!alive[i]) continue;
      bool all_held_inside = true;
      for (ChannelId c : blocked[i].waiting_on) {
        const PacketId owner = owner_of(c);
        // Waiting on a channel the packet itself owns can never resolve —
        // that is the n = 1 deadlock; such edges keep the packet in the set.
        if (owner == blocked[i].packet) continue;
        if (owner == kNoPacket) {
          all_held_inside = false;
          break;
        }
        const std::size_t j = lookup(index_of, owner);
        if (j == kNone || !alive[j]) {
          all_held_inside = false;
          break;
        }
      }
      if (!all_held_inside) {
        alive[i] = 0;
        --alive_count;
        changed = true;
      }
    }
  }
  if (alive_count == 0) return std::nullopt;

  // Extract one cycle for the report: follow "first waiting channel held by
  // a set member" edges until a packet repeats.  Start from the first
  // surviving packet in blocked order (deterministic).
  DeadlockInfo info;
  info.cycle = cycle;
  std::size_t start = 0;
  while (!alive[start]) ++start;

  std::vector<std::size_t> position(n, kNone);
  std::vector<std::pair<PacketId, ChannelId>> walk;
  std::size_t current = start;
  while (position[current] == kNone) {
    position[current] = walk.size();
    const BlockedPacket& bp = blocked[current];
    std::size_t next = kNone;
    ChannelId via = kInvalidChannel;
    for (ChannelId c : bp.waiting_on) {
      const PacketId owner = owner_of(c);
      if (owner == bp.packet) {  // self-deadlock
        next = current;
        via = c;
        break;
      }
      if (owner != kNoPacket) {
        const std::size_t j = lookup(index_of, owner);
        if (j != kNone && alive[j]) {
          next = j;
          via = c;
          break;
        }
      }
    }
    walk.emplace_back(bp.packet, via);
    current = next;
  }
  for (std::size_t i = position[current]; i < walk.size(); ++i) {
    info.packet_cycle.push_back(walk[i].first);
    info.blocked_channels.push_back(walk[i].second);
  }
  return info;
}

}  // namespace wormnet::sim
