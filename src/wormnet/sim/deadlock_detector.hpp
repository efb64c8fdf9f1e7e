// Runtime deadlock detection via the packet wait-for graph.
//
// Periodically, every blocked packet (header unable to acquire any of the
// channels it is waiting on) contributes edges to the packets owning those
// channels.  A directed cycle in this graph is a genuine deadlock — every
// packet in the cycle waits on channels held by the next, and wormhole
// channels are only released by forward progress.  A no-progress watchdog
// backs this up for pathologies outside the wait-for model.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "wormnet/sim/stats.hpp"

namespace wormnet::sim {

struct BlockedPacket {
  PacketId packet = kNoPacket;
  /// Channels the packet is waiting on (all currently owned by others).
  std::vector<ChannelId> waiting_on;
};

/// Detects a wait-for cycle among `blocked` packets.  `owner_of(channel)`
/// maps a channel to its current owner (kNoPacket if free).  Returns the
/// cycle (packets + one blocked channel per hop) if one exists.
[[nodiscard]] std::optional<DeadlockInfo> find_wait_cycle(
    const std::vector<BlockedPacket>& blocked,
    const std::function<PacketId(ChannelId)>& owner_of, std::uint64_t cycle);

}  // namespace wormnet::sim
