// Runtime deadlock detection via the packet wait-for graph.
//
// Periodically, every blocked packet (header unable to acquire any of the
// channels it is waiting on) contributes edges to the packets owning those
// channels.  The paper's deadlock is a set of packets that each wait only on
// channels held by packets of the same set; the largest such set (the knot)
// is a genuine, permanent deadlock, since wormhole channels are only
// released by forward progress.  One `WaitAnalysis` computes the knot once
// and serves both the live detector (one cycle) and postmortems (every
// cycle).  A no-progress watchdog backs it up for pathologies outside the
// wait-for model.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "wormnet/sim/stats.hpp"

namespace wormnet::sim {

struct BlockedPacket {
  PacketId packet = kNoPacket;
  /// Channels the packet is waiting on.
  std::vector<ChannelId> waiting_on;
};

/// One hop of a wait cycle: `packet` waits on `waits_for`, which the next
/// hop's packet holds (the packet itself, for a self-wait).
struct WaitHop {
  PacketId packet = kNoPacket;
  ChannelId waits_for = kInvalidChannel;
};

/// The wait-for analysis of one blocked list (distinct packet ids).  The
/// knot is the greatest fixpoint of "every waiting channel is held by a
/// member": a packet with a free channel, or one held by a progressing
/// (non-blocked) packet, can eventually move.  A channel the packet itself
/// holds never resolves (the n = 1 deadlock), and a packet waiting on
/// nothing never joins.  Each member's successor is the owner of its first
/// waiting channel (itself or another member); every walk below follows
/// these successors until a packet repeats and keeps the closed portion.
class WaitAnalysis {
 public:
  /// `owner[c]` is channel c's owner (kNoPacket when free); it is read only
  /// here, so the analysis keeps no view of it.
  WaitAnalysis(std::vector<BlockedPacket> blocked,
               std::span<const PacketId> owner);

  [[nodiscard]] const std::vector<BlockedPacket>& blocked() const noexcept {
    return blocked_;
  }
  /// The live detector's report, or nullopt when the knot is empty: the
  /// cycle walked from the first knot member in blocked order.
  [[nodiscard]] std::optional<DeadlockInfo> deadlock(
      std::uint64_t cycle) const;
  /// Every cycle of the knot: one walk from each member not yet visited, in
  /// packet-id order.  A walk that runs into an earlier walk (a wait tail
  /// leading into a reported cycle) reports nothing.
  [[nodiscard]] std::vector<std::vector<WaitHop>> cycles() const;

 private:
  static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

  /// Follows successors from `start`, marking each entry with `walk` in
  /// `seen`, until it reaches a marked entry, which it returns.
  std::uint32_t follow(std::uint32_t start, std::uint32_t walk,
                       std::vector<std::uint32_t>& seen) const;
  /// The cycle through knot member `at`, starting there.
  [[nodiscard]] std::vector<WaitHop> cycle_at(std::uint32_t at) const;

  std::vector<BlockedPacket> blocked_;
  /// (packet id, blocked index) in packet-id order.
  std::vector<std::pair<PacketId, std::uint32_t>> by_packet_;
  /// Per blocked entry: the successor's blocked index (kNone outside the
  /// knot) and the waiting channel held by it.
  std::vector<std::uint32_t> next_;
  std::vector<ChannelId> via_;
};

}  // namespace wormnet::sim
