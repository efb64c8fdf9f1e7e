#include "wormnet/cdg/subfunction.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace wormnet::cdg {

namespace {

/// Appends `set` (one flag per channel) to `rows` as one row of words.
void append_row(const std::vector<bool>& set, std::size_t words,
                std::vector<Word>& rows) {
  const std::size_t at = rows.size();
  rows.resize(at + words, 0);
  for (std::size_t c = 0; c < set.size(); ++c) {
    if (set[c]) set_bit(&rows[at], c);
  }
}

}  // namespace

Subfunction::Subfunction(const StateGraph& states,
                         const std::vector<bool>& c1, std::string label)
    : states_(&states),
      words_(row_words(states.topo().num_channels())),
      per_destination_(false),
      label_(std::move(label)) {
  if (c1.size() != states.topo().num_channels()) {
    throw std::invalid_argument("C1 size mismatch");
  }
  append_row(c1, words_, c1_);
  c1_union_ = c1_;
}

Subfunction::Subfunction(const StateGraph& states,
                         const std::vector<std::vector<bool>>& c1_by_dest,
                         std::string label)
    : states_(&states),
      words_(row_words(states.topo().num_channels())),
      per_destination_(true),
      label_(std::move(label)) {
  if (c1_by_dest.size() != states.topo().num_nodes()) {
    throw std::invalid_argument("per-destination C1 count mismatch");
  }
  c1_.reserve(c1_by_dest.size() * words_);
  c1_union_.assign(words_, 0);
  for (const auto& set : c1_by_dest) {
    if (set.size() != states.topo().num_channels()) {
      throw std::invalid_argument("C1 size mismatch");
    }
    append_row(set, words_, c1_);
    const Word* row = &c1_[c1_.size() - words_];
    for (std::size_t w = 0; w < words_; ++w) c1_union_[w] |= row[w];
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
  // dest" edges; every node must be reached.  The hop must actually be
  // supplied by R for dest, as a first hop at u or mid-route: exactly when
  // (c, dest) is a reachable state, since every first hop is one.  So the
  // hops are the channels of the row C1(dest) ∧ reachable(·, dest).
  std::vector<Word> usable(words_);
  std::vector<char> ok(nodes);
  std::vector<NodeId> stack;
  for (NodeId dest = 0; dest < nodes; ++dest) {
    const Word* c1 = c1_words(dest).data();
    const Word* reachable = states_->reachable_words(dest).data();
    for (std::size_t w = 0; w < words_; ++w) usable[w] = c1[w] & reachable[w];
    std::fill(ok.begin(), ok.end(), 0);
    ok[dest] = 1;
    stack.assign(1, dest);
    // Build reverse reachability by scanning in-channels of reached nodes.
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      for (ChannelId c : topo.in_channels(v)) {
        const NodeId u = topo.channel(c).src;
        if (ok[u] || !test_bit(usable.data(), c)) continue;
        ok[u] = 1;
        stack.push_back(u);
      }
    }
    const auto stranded = std::ranges::find(ok, 0);
    if (stranded != ok.end()) {
      witness.kind = SubfunctionWitness::Kind::kUnreachableNode;
      witness.node = static_cast<NodeId>(stranded - ok.begin());
      witness.dest = dest;
      return witness;
    }
  }
  return witness;
}

SubfunctionWitness Subfunction::escape_witness() const {
  SubfunctionWitness witness;
  const Topology& topo = states_->topo();
  for (NodeId dest = 0; dest < topo.num_nodes(); ++dest) {
    const Word* c1 = c1_words(dest).data();
    const auto no_escape = [c1](std::span<const ChannelId> outputs) {
      return std::ranges::none_of(
          outputs, [c1](ChannelId c) { return test_bit(c1, c); });
    };
    const ChannelId stuck = find_bit(
        states_->reachable_words(dest).data(), words_, [&](ChannelId c) {
          return topo.channel(c).dst != dest &&
                 no_escape(states_->successors(c, dest));
        });
    if (stuck != kNoBit) {
      witness.kind = SubfunctionWitness::Kind::kNoEscape;
      witness.channel = stuck;
      witness.dest = dest;
      return witness;
    }
    // Injection states need an escape too.
    for (NodeId src = 0; src < topo.num_nodes(); ++src) {
      if (src != dest && no_escape(states_->injection(src, dest))) {
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
    for_each_bit(escape_states.reachable_words(d).data(),
                 row_words(topo.num_channels()),
                 [&](ChannelId c) { c1_by_dest[d][c] = true; });
  }
  return Subfunction(states, c1_by_dest, std::move(label));
}

std::size_t Subfunction::channel_count() const {
  std::size_t count = 0;
  for (Word w : c1_union_) count += static_cast<std::size_t>(std::popcount(w));
  return count;
}

}  // namespace wormnet::cdg
