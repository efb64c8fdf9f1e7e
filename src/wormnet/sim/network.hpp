// Per-channel simulator state (SoA) and physical-link arbitration groups.
//
// Virtual channels that share a physical link (same src -> dst node pair)
// compete for its bandwidth: one flit per link per cycle, round-robin.
// Ejection is one flit per node per cycle, also round-robin.
//
// Channel state is struct-of-arrays (DESIGN 3.11): the wormhole invariant —
// one packet per channel queue at a time, flits in order, header first —
// means a channel's flit FIFO never needs to store flits at all.  It is
// fully described by three integers:
//
//   owner      the packet holding the channel (kNoPacket when free)
//   front_seq  sequence number (0-based flit index within the owner) of the
//              flit at the FIFO front
//   occupancy  flits currently queued
//
// The k-th flit of a packet is the head iff k == 0 and the tail iff
// k == length - 1, so head/tail bits are derived, not stored.  Flits enter
// every channel in sequence order (wormhole pipelining), so a push is
// occupancy + 1 and a pop is {front_seq + 1, occupancy - 1} — no deque, no
// per-cycle allocation, and every hot-path lookup is an index into a flat
// array.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "wormnet/sim/flit.hpp"
#include "wormnet/topology/topology.hpp"

namespace wormnet::sim {

using topology::Topology;

/// All virtual channels multiplexed over one physical link.
struct LinkGroup {
  std::vector<ChannelId> vcs;
  std::uint32_t rr = 0;  ///< round-robin pointer (index into candidates)
};

class NetworkState {
 public:
  explicit NetworkState(const Topology& topo);

  // --- SoA channel state ------------------------------------------------
  [[nodiscard]] PacketId owner(ChannelId c) const { return owner_[c]; }
  [[nodiscard]] PacketId& owner(ChannelId c) { return owner_[c]; }
  /// Every channel's owner, indexed by channel id.
  [[nodiscard]] std::span<const PacketId> owners() const { return owner_; }
  [[nodiscard]] ChannelId out(ChannelId c) const { return out_[c]; }
  [[nodiscard]] bool out_assigned(ChannelId c) const {
    return out_kind_[c] != kNoOutput;
  }
  [[nodiscard]] bool out_eject(ChannelId c) const {
    return out_kind_[c] == kEjectOutput;
  }
  /// Assigned a downstream channel (not ejection): the queue's flits move
  /// over a link.
  [[nodiscard]] bool out_forward(ChannelId c) const {
    return out_kind_[c] == kForwardOutput;
  }
  [[nodiscard]] std::uint32_t occupancy(ChannelId c) const {
    return occupancy_[c];
  }
  /// Sequence number of the FIFO-front flit (0 = the packet's header).
  /// Meaningful only while occupancy(c) > 0.
  [[nodiscard]] std::uint32_t front_seq(ChannelId c) const {
    return front_seq_[c];
  }

  /// A flit arrived at the tail of c's FIFO.  Flits arrive in sequence
  /// order, so the new flit's sequence number is implied.
  void push_flit(ChannelId c) { ++occupancy_[c]; }

  /// The FIFO-front flit left; returns its sequence number.
  std::uint32_t pop_flit(ChannelId c) {
    --occupancy_[c];
    return front_seq_[c]++;
  }

  /// Header routing decided: downstream channel assignment.
  void assign_output(ChannelId c, ChannelId downstream) {
    out_[c] = downstream;
    out_kind_[c] = kForwardOutput;
  }

  /// Header arrived at its destination router: ejection assignment.
  void assign_eject(ChannelId c) { out_kind_[c] = kEjectOutput; }

  /// Tail flit left (or an abort flushed the worm): the channel is free
  /// again and primed for the next header (sequence numbers restart at 0).
  void release(ChannelId c) {
    owner_[c] = kNoPacket;
    out_[c] = kInvalidChannel;
    out_kind_[c] = kNoOutput;
    front_seq_[c] = 0;
  }

  /// Abort flush: discard every queued flit (the queue holds only the
  /// aborting packet's flits by the one-message-per-channel invariant).
  void clear_queue(ChannelId c) {
    occupancy_[c] = 0;
    front_seq_[c] = 0;
  }

  // --- physical-link arbitration ----------------------------------------
  [[nodiscard]] std::size_t link_index(ChannelId c) const {
    return link_of_[c];
  }
  [[nodiscard]] std::vector<LinkGroup>& links() { return links_; }

  [[nodiscard]] std::uint32_t& eject_rr(NodeId node) { return eject_rr_[node]; }

  [[nodiscard]] std::size_t num_channels() const { return owner_.size(); }

 private:
  // One entry per channel, index-addressed (SoA).
  std::vector<PacketId> owner_;
  // What the header decided: nothing yet, a downstream channel (out_) or
  // ejection.
  static constexpr std::uint8_t kNoOutput = 0;
  static constexpr std::uint8_t kForwardOutput = 1;
  static constexpr std::uint8_t kEjectOutput = 2;

  std::vector<ChannelId> out_;
  std::vector<std::uint8_t> out_kind_;
  std::vector<std::uint32_t> front_seq_;
  std::vector<std::uint32_t> occupancy_;

  std::vector<LinkGroup> links_;
  std::vector<std::uint32_t> link_of_;
  std::vector<std::uint32_t> eject_rr_;
};

}  // namespace wormnet::sim
