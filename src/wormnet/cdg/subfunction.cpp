#include "wormnet/cdg/subfunction.hpp"

#include <algorithm>
#include <stdexcept>

namespace wormnet::cdg {

Subfunction::Subfunction(const StateGraph& states, std::vector<bool> c1,
                         std::string label)
    : states_(&states), c1_(std::move(c1)), label_(std::move(label)) {
  if (c1_.size() != states.topo().num_channels()) {
    throw std::invalid_argument("C1 size mismatch");
  }
  c1_union_ = c1_;
}

Subfunction::Subfunction(const StateGraph& states,
                         std::vector<std::vector<bool>> c1_by_dest,
                         std::string label)
    : states_(&states), c1_by_dest_(std::move(c1_by_dest)),
      label_(std::move(label)) {
  const std::size_t channels = states.topo().num_channels();
  if (c1_by_dest_.size() != states.topo().num_nodes()) {
    throw std::invalid_argument("per-destination C1 count mismatch");
  }
  c1_union_.assign(channels, false);
  for (const auto& set : c1_by_dest_) {
    if (set.size() != channels) {
      throw std::invalid_argument("C1 size mismatch");
    }
    for (std::size_t c = 0; c < channels; ++c) {
      if (set[c]) c1_union_[c] = true;
    }
  }
}

ChannelSet Subfunction::r1(ChannelId input, NodeId current,
                           NodeId dest) const {
  ChannelSet out;
  for (ChannelId c : states_->routing().route(input, current, dest)) {
    if (in_c1(c, dest)) out.push_back(c);
  }
  return out;
}

std::string SubfunctionWitness::describe(const Topology& topo) const {
  switch (kind) {
    case Kind::kNone:
      return "ok";
    case Kind::kUnreachableNode:
      return "node " + std::to_string(node) + " cannot reach destination " +
             std::to_string(dest) + " on escape channels alone";
    case Kind::kNoEscape:
      return "state (" + topo.channel_name(channel) + ", dest " +
             std::to_string(dest) + ") has no escape channel to wait on";
    case Kind::kNoEscapeFirstHop:
      return "injection at node " + std::to_string(node) +
             " for destination " + std::to_string(dest) +
             " has no escape first hop";
  }
  return "?";
}

SubfunctionWitness Subfunction::connectivity_witness() const {
  SubfunctionWitness witness;
  const Topology& topo = states_->topo();
  const NodeId nodes = topo.num_nodes();
  // For each destination, reverse-BFS from dest over "u -> v is an R1 hop for
  // dest" edges; every node must be reached.
  std::vector<bool> ok(nodes, false);
  std::vector<NodeId> stack;
  for (NodeId dest = 0; dest < nodes; ++dest) {
    std::fill(ok.begin(), ok.end(), false);
    ok[dest] = true;
    stack.assign(1, dest);
    // Build reverse reachability by scanning in-channels of reached nodes.
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      for (ChannelId c : topo.in_channels(v)) {
        const NodeId u = topo.channel(c).src;
        if (ok[u] || u == dest) continue;
        // The hop must actually be supplied by R for dest, as a first hop
        // at u or mid-route: exactly when (c, dest) is a reachable state,
        // since every first hop is one.
        if (!in_c1(c, dest) || !states_->reachable(c, dest)) continue;
        ok[u] = true;
        stack.push_back(u);
      }
    }
    for (NodeId u = 0; u < nodes; ++u) {
      if (!ok[u]) {
        witness.kind = SubfunctionWitness::Kind::kUnreachableNode;
        witness.node = u;
        witness.dest = dest;
        return witness;
      }
    }
  }
  return witness;
}

SubfunctionWitness Subfunction::escape_witness() const {
  SubfunctionWitness witness;
  const Topology& topo = states_->topo();
  for (NodeId dest = 0; dest < topo.num_nodes(); ++dest) {
    for (ChannelId c = 0; c < topo.num_channels(); ++c) {
      if (!states_->reachable(c, dest)) continue;
      const NodeId head = topo.channel(c).dst;
      if (head == dest) continue;
      bool has_escape = false;
      for (ChannelId next : states_->successors(c, dest)) {
        if (in_c1(next, dest)) {
          has_escape = true;
          break;
        }
      }
      if (!has_escape) {
        witness.kind = SubfunctionWitness::Kind::kNoEscape;
        witness.channel = c;
        witness.dest = dest;
        return witness;
      }
    }
    // Injection states need an escape too.
    for (NodeId src = 0; src < topo.num_nodes(); ++src) {
      if (src == dest) continue;
      bool has_escape = false;
      for (ChannelId c : states_->injection(src, dest)) {
        if (in_c1(c, dest)) {
          has_escape = true;
          break;
        }
      }
      if (!has_escape) {
        witness.kind = SubfunctionWitness::Kind::kNoEscapeFirstHop;
        witness.node = src;
        witness.dest = dest;
        return witness;
      }
    }
  }
  return witness;
}

bool Subfunction::connected() const {
  return connectivity_witness().ok();
}

bool Subfunction::escape_everywhere() const {
  return escape_witness().ok();
}

Subfunction per_destination_from_escape(const StateGraph& states,
                                        const RoutingFunction& escape,
                                        std::string label) {
  const Topology& topo = states.topo();
  const StateGraph escape_states(topo, escape);
  std::vector<std::vector<bool>> c1_by_dest(
      topo.num_nodes(), std::vector<bool>(topo.num_channels(), false));
  for (NodeId d = 0; d < topo.num_nodes(); ++d) {
    for (ChannelId c = 0; c < topo.num_channels(); ++c) {
      if (escape_states.reachable(c, d)) c1_by_dest[d][c] = true;
    }
  }
  return Subfunction(states, std::move(c1_by_dest), std::move(label));
}

std::size_t Subfunction::channel_count() const {
  std::size_t count = 0;
  for (bool b : c1_union_) count += b ? 1 : 0;
  return count;
}

}  // namespace wormnet::cdg
