#include "wormnet/sim/router.hpp"

#include <algorithm>
#include <cassert>

namespace wormnet::sim {

RouteAllocator::RouteAllocator(const Topology& topo,
                               const RoutingFunction& routing,
                               SelectionPolicy selection,
                               WaitOverride wait_override, std::uint64_t seed,
                               const LiveEpoch* epoch)
    : topo_(&topo), routing_(&routing), selection_(selection),
      wait_specific_(
          wait_override == WaitOverride::kForceSpecific ||
          (wait_override == WaitOverride::kFollowRouting &&
           routing.wait_mode() == WaitMode::kSpecific)),
      rng_(seed), epoch_(epoch),
      faults_(epoch != nullptr && epoch->faults()),
      versions_(epoch != nullptr && epoch->versions()),
      tables_(epoch != nullptr ? epoch->num_versions() : 1) {
  for (std::uint32_t v = 0; v < tables_.size(); ++v) {
    tables_[v].by_node =
        relation(v).form() == routing::RelationForm::kNodeDest;
  }
}

std::uint32_t RouteAllocator::version_for(const Packet& pkt) const {
  if (!versions_) return 0;
  return pkt.injecting ? pkt.route_version : epoch_->current(pkt.dst);
}

const RoutingFunction& RouteAllocator::relation(std::uint32_t version) const {
  return epoch_ != nullptr ? epoch_->relation(version) : *routing_;
}

std::size_t RouteAllocator::key(const Table& table, ChannelId input,
                                NodeId current, NodeId dest) const {
  assert(input == kInvalidChannel || topo_->channel(input).dst == current);
  std::size_t from = current;
  if (!table.by_node) {
    from = input != kInvalidChannel ? input : topo_->num_channels() + current;
  }
  return from * topo_->num_nodes() + dest;
}

std::span<const ChannelId> RouteAllocator::row(std::uint32_t version,
                                               ChannelId input, NodeId current,
                                               NodeId dest) {
  Table& table = tables_[version];
  if (table.row_at.empty()) {
    const std::size_t froms =
        topo_->num_nodes() + (table.by_node ? 0 : topo_->num_channels());
    table.row_at.assign(froms * topo_->num_nodes(), kUnfilled);
  }
  std::uint32_t& slot = table.row_at[key(table, input, current, dest)];
  if (slot == kUnfilled) {
    slot = static_cast<std::uint32_t>(rows_.size());
    rows_.push_back(0);
    relation(version).route_into(input, current, dest, rows_);
    rows_[slot] = static_cast<ChannelId>(rows_.size() - slot - 1);
    ++route_fills_;
  }
  return {rows_.data() + slot + 1, rows_[slot]};
}

std::span<const ChannelId> RouteAllocator::peek_row(
    std::uint32_t version, ChannelId input, NodeId current, NodeId dest,
    routing::ChannelSet& eval) const {
  const Table& table = tables_[version];
  if (!table.row_at.empty()) {
    const std::uint32_t slot =
        table.row_at[key(table, input, current, dest)];
    if (slot != kUnfilled) return {rows_.data() + slot + 1, rows_[slot]};
  }
  eval.clear();
  relation(version).route_into(input, current, dest, eval);
  return eval;
}

bool RouteAllocator::is_route(std::span<const ChannelId> row,
                              std::uint32_t version, ChannelId input,
                              NodeId current, NodeId dest) const {
  routing::ChannelSet fresh;
  relation(version).route_into(input, current, dest, fresh);
  return std::ranges::equal(row, fresh);
}

template <class RowFn>
std::span<const ChannelId> RouteAllocator::live_candidates(
    const Packet& pkt, RowFn&& row, routing::ChannelSet& scratch) const {
  const auto live = [this](ChannelId c) {
    return !faults_ || !epoch_->is_dead(c);
  };
  scratch.clear();
  if (!pkt.forced_path.empty()) {
    if (pkt.forced_next < pkt.forced_path.size() &&
        live(pkt.forced_path[pkt.forced_next])) {
      scratch.push_back(pkt.forced_path[pkt.forced_next]);
    }
    return scratch;
  }
  if (pkt.committed_wait != kInvalidChannel) {
    if (live(pkt.committed_wait)) scratch.push_back(pkt.committed_wait);
    return scratch;
  }
  const std::span<const ChannelId> cands = row();
  if (!faults_) return cands;
  for (const ChannelId c : cands) {
    if (live(c)) scratch.push_back(c);
  }
  return scratch;
}

std::optional<ChannelId> RouteAllocator::attempt(Packet& pkt, ChannelId input,
                                                 NodeId current,
                                                 NetworkState& net) {
  last_ = live_candidates(
      pkt,
      [&] {
        ++route_lookups_;
        return row(version_for(pkt), input, current, pkt.dst);
      },
      cands_);
  evaluated_ = last_.size();
  if (last_.empty()) return std::nullopt;

  const int pick = routing::select_channel(
      selection_, last_,
      [&net](ChannelId c) { return net.owner(c) == kNoPacket; }, rng_);
  if (pick >= 0) {
    const ChannelId acquired = last_[static_cast<std::size_t>(pick)];
    net.owner(acquired) = pkt.id;
    pkt.committed_wait = kInvalidChannel;
    if (!pkt.forced_path.empty()) ++pkt.forced_next;
    pkt.path.push_back(acquired);
    return acquired;
  }

  // Blocked: commit under wait-specific discipline.
  if (wait_specific_ && pkt.committed_wait == kInvalidChannel &&
      pkt.forced_path.empty()) {
    // The relation's preferred live waiting channel; deterministic
    // commitment.  A dead channel is never committed to: it could never be
    // granted.
    for (const ChannelId c :
         relation(version_for(pkt)).waiting(input, current, pkt.dst)) {
      if (!faults_ || !epoch_->is_dead(c)) {
        pkt.committed_wait = c;
        cands_.assign(1, c);  // the next attempt evaluates only this one
        last_ = cands_;
        break;
      }
    }
  }
  return std::nullopt;
}

routing::ChannelSet RouteAllocator::blocked_on(const Packet& pkt,
                                               ChannelId input,
                                               NodeId current) const {
  routing::ChannelSet eval;
  routing::ChannelSet scratch;
  const std::span<const ChannelId> cands = live_candidates(
      pkt,
      [&] { return peek_row(version_for(pkt), input, current, pkt.dst, eval); },
      scratch);
  return {cands.begin(), cands.end()};
}

bool RouteAllocator::table_matches_relations() const {
  const std::size_t channels = topo_->num_channels();
  const std::size_t nodes = topo_->num_nodes();
  for (std::uint32_t v = 0; v < tables_.size(); ++v) {
    const Table& table = tables_[v];
    for (std::size_t k = 0; k < table.row_at.size(); ++k) {
      const std::uint32_t slot = table.row_at[k];
      if (slot == kUnfilled) continue;
      const std::size_t from = k / nodes;
      ChannelId input = kInvalidChannel;
      NodeId current = static_cast<NodeId>(from);
      if (!table.by_node) {
        if (from < channels) {
          input = static_cast<ChannelId>(from);
          current = topo_->channel(input).dst;
        } else {
          current = static_cast<NodeId>(from - channels);
        }
      }
      if (slot >= rows_.size() || slot + 1 + rows_[slot] > rows_.size() ||
          !is_route({rows_.data() + slot + 1, rows_[slot]}, v, input, current,
                    static_cast<NodeId>(k % nodes))) {
        return false;
      }
    }
  }
  return true;
}

bool RouteAllocator::row_matches_relation(const Packet& pkt, ChannelId input,
                                          NodeId current) const {
  if (!pkt.forced_path.empty() || pkt.committed_wait != kInvalidChannel) {
    return true;
  }
  const std::uint32_t version = version_for(pkt);
  routing::ChannelSet eval;
  return is_route(peek_row(version, input, current, pkt.dst, eval), version,
                  input, current, pkt.dst);
}

}  // namespace wormnet::sim
