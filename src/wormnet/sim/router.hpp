// Route computation + virtual-channel allocation for blocked packet headers.
//
// Implements both waiting disciplines of the theory:
//   * wait-on-any  — the header re-arbitrates over every candidate each cycle
//   * wait-specific — on first blocking, the header commits to one waiting
//     channel (the relation's waiting() choice) and only acquires that one
// plus forced-path packets (witness replay), which behave as wait-specific on
// the scripted channel sequence.
//
// Route computation reads a per-run relation table (DESIGN 3.11): one row
// per (routing version, input or node, destination), filled by one
// route_into call the first time it is needed and kept as a slice of one
// flat array.  The live epoch's dead mask is applied after the lookup, so
// rows never depend on it.
#pragma once

#include <optional>
#include <span>

#include "wormnet/routing/routing_function.hpp"
#include "wormnet/routing/selection.hpp"
#include "wormnet/sim/live_epoch.hpp"
#include "wormnet/sim/network.hpp"
#include "wormnet/util/rng.hpp"

namespace wormnet::sim {

using routing::RoutingFunction;
using routing::SelectionPolicy;
using routing::WaitMode;

/// Overrides the relation's own wait mode (used by experiments contrasting
/// the two disciplines on the same algorithm).
enum class WaitOverride : std::uint8_t { kFollowRouting, kForceAny, kForceSpecific };

class RouteAllocator {
 public:
  /// `epoch`, when set, is the simulator's borrowed live epoch.  When its
  /// schedule has fault steps, dead channels are removed from every
  /// candidate set — relation candidates, forced paths and wait commitments
  /// alike — and a blocked header only ever commits to a live waiting
  /// channel.  When it has cutovers, injected packets route by the pure
  /// relation of their stamped `route_version`, source-queued packets by the
  /// destination's current version (in-flight coherence rule, DESIGN 3.12).
  RouteAllocator(const Topology& topo, const RoutingFunction& routing,
                 SelectionPolicy selection, WaitOverride wait_override,
                 std::uint64_t seed, const LiveEpoch* epoch = nullptr);

  /// Attempts to allocate the next channel for `pkt`, whose header sits at
  /// node `current` having arrived on `input` (kInvalidChannel at the
  /// source).  On success returns the acquired channel and marks its owner;
  /// on failure updates the packet's wait commitment per the discipline.
  [[nodiscard]] std::optional<ChannelId> attempt(Packet& pkt, ChannelId input,
                                                 NodeId current,
                                                 NetworkState& net);

  /// After a failed attempt: the live channels the packet's next attempt
  /// will evaluate (the relation's candidates, or just the wait-specific
  /// commitment the failure made).  All are owned; only a release of one of
  /// them, or a change of the candidate space, can turn the outcome.  Valid
  /// until the next attempt.
  [[nodiscard]] std::span<const ChannelId> last_candidates() const noexcept {
    return last_;
  }

  /// How many live candidates the last attempt evaluated (before a
  /// wait-specific failure narrowed them to its commitment).
  [[nodiscard]] std::size_t last_evaluated() const noexcept {
    return evaluated_;
  }

  /// Candidate channels the blocked packet is currently waiting on — used by
  /// the deadlock detector.  Empty result means the packet is not blocked on
  /// channel acquisition.
  [[nodiscard]] routing::ChannelSet blocked_on(const Packet& pkt,
                                               ChannelId input,
                                               NodeId current) const;

  /// Relation-table reads by attempts, and how many of them filled a row.
  [[nodiscard]] std::uint64_t route_lookups() const noexcept {
    return route_lookups_;
  }
  [[nodiscard]] std::uint64_t route_fills() const noexcept {
    return route_fills_;
  }

  /// The table oracle, over every filled row: true when each equals a fresh
  /// route_into of its version's relation, in contents and order.
  [[nodiscard]] bool table_matches_relations() const;

  /// The table oracle at one lookup: true when the row `pkt` routes by at
  /// (input, current) equals its relation's route for that exact input.
  /// This is what keying an N x N relation's rows by node relies on.
  [[nodiscard]] bool row_matches_relation(const Packet& pkt, ChannelId input,
                                          NodeId current) const;

 private:
  /// The packet's live candidates: its forced hop, its wait commitment or
  /// the row `row()` yields, minus dead channels.  The result is either that
  /// row or `scratch`.
  template <class RowFn>
  std::span<const ChannelId> live_candidates(const Packet& pkt, RowFn&& row,
                                             routing::ChannelSet& scratch) const;

  /// The routing version `pkt` follows right now (its stamp once injecting,
  /// its destination's current version at the source; always 0 without
  /// cutovers).
  [[nodiscard]] std::uint32_t version_for(const Packet& pkt) const;
  [[nodiscard]] const RoutingFunction& relation(std::uint32_t version) const;
  /// One routing version's rows: row_at maps each key to its row's offset
  /// in rows_ (kUnfilled until first use) and is allocated on the version's
  /// first lookup.
  struct Table {
    /// The relation is R: N x N -> P(C) (RelationForm::kNodeDest): the
    /// input is not an argument, so rows are keyed by node and shared by
    /// every input into it and the node's source front.
    bool by_node = false;
    std::vector<std::uint32_t> row_at;
  };
  /// Table key: the row's first argument (the current node for an N x N
  /// relation; else the input channel, or num_channels + node for a source
  /// front) times num_nodes, plus the destination.  Exact because relations
  /// are pure and the current node is always the input's head node.
  [[nodiscard]] std::size_t key(const Table& table, ChannelId input,
                                NodeId current, NodeId dest) const;
  /// The row of (version, input, dest), filled on first use.
  std::span<const ChannelId> row(std::uint32_t version, ChannelId input,
                                 NodeId current, NodeId dest);
  /// The same row without storing it: the filled row, or a fresh
  /// evaluation into `eval`.
  std::span<const ChannelId> peek_row(std::uint32_t version, ChannelId input,
                                      NodeId current, NodeId dest,
                                      routing::ChannelSet& eval) const;
  /// True when `row` is exactly version `version`'s route at the state.
  [[nodiscard]] bool is_route(std::span<const ChannelId> row,
                              std::uint32_t version, ChannelId input,
                              NodeId current, NodeId dest) const;

  static constexpr std::uint32_t kUnfilled = UINT32_MAX;

  const Topology* topo_;
  const RoutingFunction* routing_;
  SelectionPolicy selection_;
  /// A blocked header commits to one waiting channel: the relation's own
  /// discipline, unless the run overrides it.
  bool wait_specific_;
  util::Xoshiro256 rng_;
  const LiveEpoch* epoch_;
  bool faults_;    ///< epoch_ can have dead channels: read the mask
  bool versions_;  ///< epoch_ can have non-base versions: read them
  // The relation table: one Table per routing version, and the rows of all
  // of them, each stored as its length followed by its channels.
  std::vector<Table> tables_;
  routing::ChannelSet rows_;
  std::uint64_t route_lookups_ = 0;
  std::uint64_t route_fills_ = 0;
  // The last attempt's live candidates: a table row, or cands_ when forced,
  // committed or fault-filtered.
  routing::ChannelSet cands_;
  std::span<const ChannelId> last_;
  std::size_t evaluated_ = 0;
};

}  // namespace wormnet::sim
