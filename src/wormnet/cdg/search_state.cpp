#include "wormnet/cdg/search_state.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "wormnet/obs/probe.hpp"

namespace wormnet::cdg {

SearchState::SearchState(const StateGraph& states)
    : states_(states),
      channels_(states.topo().num_channels()),
      nodes_(states.topo().num_nodes()),
      words_(row_words(channels_)),
      kernel_(states),
      assembler_(channels_),
      targets_(nodes_),
      stale_(nodes_, 1) {
  // Which counted states list each channel, as CSR: a first pass sizes the
  // rows, a second fills them.  A sink state lists nothing.
  listed_in_begin_.assign(channels_ + 1, 0);
  first_hop_of_begin_.assign(channels_ + 1, 0);
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<std::uint32_t> listed_at(listed_in_begin_);
    std::vector<std::uint32_t> first_hop_at(first_hop_of_begin_);
    for (NodeId d = 0; d < nodes_; ++d) {
      for_each_bit(states.reachable_words(d).data(), words_, [&](ChannelId c) {
        for (const ChannelId next : states.successors(c, d)) {
          if (pass == 0) {
            ++listed_in_begin_[next + 1];
          } else {
            listed_in_[listed_at[next]++] =
                static_cast<std::uint32_t>(d * channels_ + c);
          }
        }
      });
      for (NodeId src = 0; src < nodes_; ++src) {
        if (src == d) continue;
        for (const ChannelId first : states.injection(src, d)) {
          if (pass == 0) {
            ++first_hop_of_begin_[first + 1];
          } else {
            first_hop_of_[first_hop_at[first]++] = src * nodes_ + d;
          }
        }
      }
    }
    if (pass == 0) {
      for (std::size_t c = 0; c < channels_; ++c) {
        listed_in_begin_[c + 1] += listed_in_begin_[c];
        first_hop_of_begin_[c + 1] += first_hop_of_begin_[c];
      }
      listed_in_.resize(listed_in_begin_.back());
      first_hop_of_.resize(first_hop_of_begin_.back());
    }
  }
  assign(std::vector<bool>(channels_, true));
}

void SearchState::assign(const std::vector<bool>& c1) {
  c1_ = c1;
  c1_bits_.assign(words_, 0);
  for (ChannelId c = 0; c < channels_; ++c) {
    if (c1_[c]) set_bit(c1_bits_.data(), c);
  }
  log_.clear();
  saved_trees_.clear();
  for (DestTargets& targets : saved_targets_) {
    spare_targets_.push_back(std::move(targets));
  }
  saved_targets_.clear();
  depth_ = 0;

  usable_.resize(nodes_ * words_);
  for (NodeId d = 0; d < nodes_; ++d) {
    const Word* reachable = states_.reachable_words(d).data();
    for (std::size_t w = 0; w < words_; ++w) {
      usable_[d * words_ + w] = reachable[w] & c1_bits_[w];
    }
  }
  tree_.assign(static_cast<std::size_t>(nodes_) * nodes_,
               topology::kInvalidChannel);
  disconnected_ = false;
  for (NodeId d = 0; d < nodes_ && !disconnected_; ++d) {
    disconnected_ = !grow_tree(d);
  }

  escapes_counted_ = false;
  std::fill(stale_.begin(), stale_.end(), 1);
}

bool SearchState::escape_everywhere() {
  if (!escapes_counted_) count_all_escapes();
  return escapeless_ == 0;
}

void SearchState::count_all_escapes() {
  const Topology& topo = states_.topo();
  escapes_counted_ = true;
  escapeless_ = 0;
  state_escapes_.assign(nodes_ * channels_, 0);
  injection_escapes_.assign(static_cast<std::size_t>(nodes_) * nodes_, 0);
  for (NodeId d = 0; d < nodes_; ++d) {
    for_each_bit(states_.reachable_words(d).data(), words_, [&](ChannelId c) {
      if (topo.channel(c).dst == d) return;
      std::uint32_t& count = state_escapes_[d * channels_ + c];
      for (const ChannelId next : states_.successors(c, d)) {
        count += test_bit(c1_bits_.data(), next) ? 1 : 0;
      }
      escapeless_ += count == 0 ? 1 : 0;
    });
    for (NodeId src = 0; src < nodes_; ++src) {
      if (src == d) continue;
      std::uint32_t& count = injection_escapes_[src * nodes_ + d];
      for (const ChannelId first : states_.injection(src, d)) {
        count += test_bit(c1_bits_.data(), first) ? 1 : 0;
      }
      escapeless_ += count == 0 ? 1 : 0;
    }
  }
}

void SearchState::set_usable(NodeId d, ChannelId c, bool on) {
  Word& word = usable_[d * words_ + c / 64];
  const Word bit = Word{1} << (c % 64);
  word = on ? word | bit : word & ~bit;
}

bool SearchState::grow_tree(NodeId d) {
  const Topology& topo = states_.topo();
  ChannelId* parent = &tree_[static_cast<std::size_t>(d) * nodes_];
  std::fill(parent, parent + nodes_, topology::kInvalidChannel);
  NodeId reached = 1;
  bfs_.assign(1, d);
  while (!bfs_.empty()) {
    const NodeId v = bfs_.back();
    bfs_.pop_back();
    for (const ChannelId c : topo.in_channels(v)) {
      const NodeId u = topo.channel(c).src;
      if (u == d || parent[u] != topology::kInvalidChannel) continue;
      if (!usable(d, c)) continue;
      parent[u] = c;
      ++reached;
      bfs_.push_back(u);
    }
  }
  return reached == nodes_;
}

bool SearchState::rehang(NodeId d, NodeId u) {
  const Topology& topo = states_.topo();
  const ChannelId* parent = &tree_[static_cast<std::size_t>(d) * nodes_];
  for (const ChannelId c : topo.out_channels(u)) {
    if (!usable(d, c)) continue;
    NodeId w = topo.channel(c).dst;
    while (w != d && w != u) w = topo.channel(parent[w]).dst;
    if (w == d) {
      tree_[static_cast<std::size_t>(d) * nodes_ + u] = c;
      return true;
    }
  }
  return false;
}

void SearchState::count_escapes(ChannelId c, int delta) {
  const auto apply = [&](std::uint32_t& count) {
    if (delta < 0) {
      if (--count == 0) ++escapeless_;
    } else if (count++ == 0) {
      --escapeless_;
    }
  };
  for (std::uint32_t i = listed_in_begin_[c]; i < listed_in_begin_[c + 1];
       ++i) {
    apply(state_escapes_[listed_in_[i]]);
  }
  for (std::uint32_t i = first_hop_of_begin_[c];
       i < first_hop_of_begin_[c + 1]; ++i) {
    apply(injection_escapes_[first_hop_of_[i]]);
  }
}

void SearchState::drop(ChannelId c) {
  assert(!disconnected_);
  if (!escapes_counted_) count_all_escapes();
  ++depth_;
  if (!c1_[c]) {
    log_.push_back({Edit::Kind::kDrop, topology::kInvalidChannel});
    return;
  }
  log_.push_back({Edit::Kind::kDrop, c});
  c1_[c] = false;
  c1_bits_[c / 64] &= ~(Word{1} << (c % 64));
  count_escapes(c, -1);
  // Only the destinations that reach c can lose a tree edge or change
  // targets.  Mend each tree that hung a node on c, until one cannot be.
  const NodeId tail = states_.topo().channel(c).src;
  for (NodeId d = 0; d < nodes_; ++d) {
    if (!states_.reachable(c, d)) continue;
    set_usable(d, c, false);
    if (!stale_[d]) {
      stale_[d] = 1;
      log_.push_back({Edit::Kind::kStale, d});
    }
    const std::size_t row = static_cast<std::size_t>(d) * nodes_;
    if (disconnected_ || tree_[row + tail] != c) continue;
    if (rehang(d, tail)) {
      saved_trees_.push_back(c);
      log_.push_back(
          {Edit::Kind::kTreeEdge, static_cast<std::uint32_t>(row + tail)});
      continue;
    }
    saved_trees_.insert(saved_trees_.end(), tree_.begin() + row,
                        tree_.begin() + row + nodes_);
    log_.push_back({Edit::Kind::kTree, d});
    if (!grow_tree(d)) {
      disconnected_ = true;
      log_.push_back({Edit::Kind::kDisconnect, d});
    }
  }
}

void SearchState::undo() {
  assert(depth_ > 0);
  --depth_;
  while (true) {
    const Edit edit = log_.back();
    log_.pop_back();
    const NodeId d = edit.value;
    switch (edit.kind) {
      case Edit::Kind::kTree: {
        const auto saved = saved_trees_.end() - nodes_;
        std::copy(saved, saved_trees_.end(),
                  tree_.begin() + static_cast<std::size_t>(d) * nodes_);
        saved_trees_.erase(saved, saved_trees_.end());
        break;
      }
      case Edit::Kind::kTreeEdge:
        tree_[edit.value] = saved_trees_.back();
        saved_trees_.pop_back();
        break;
      case Edit::Kind::kDisconnect:
        disconnected_ = false;
        break;
      case Edit::Kind::kStale:
        stale_[d] = 0;
        break;
      case Edit::Kind::kTargets:
        spare_targets_.push_back(std::move(targets_[d]));
        targets_[d] = std::move(saved_targets_.back());
        saved_targets_.pop_back();
        stale_[d] = 1;
        break;
      case Edit::Kind::kDrop: {
        const ChannelId c = edit.value;
        if (c == topology::kInvalidChannel) return;
        c1_[c] = true;
        c1_bits_[c / 64] |= Word{1} << (c % 64);
        count_escapes(c, +1);
        for (NodeId dest = 0; dest < nodes_; ++dest) {
          if (states_.reachable(c, dest)) set_usable(dest, c, true);
        }
        return;
      }
    }
  }
}

const ExtendedCdg& SearchState::ecdg() {
  const obs::PhaseTimer timer("ecdg_build");
  for (NodeId d = 0; d < nodes_; ++d) {
    if (!stale_[d]) continue;
    stale_[d] = 0;
    if (depth_ == 0) {
      kernel_.run(d, c1_bits_.data(), c1_bits_.data(), targets_[d]);
      continue;
    }
    // Keep the stale targets for undo; run the kernel into spare storage.
    DestTargets fresh;
    if (!spare_targets_.empty()) {
      fresh = std::move(spare_targets_.back());
      spare_targets_.pop_back();
    }
    kernel_.run(d, c1_bits_.data(), c1_bits_.data(), fresh);
    saved_targets_.push_back(std::exchange(targets_[d], std::move(fresh)));
    log_.push_back({Edit::Kind::kTargets, d});
  }
  for (NodeId d = 0; d < nodes_; ++d) {
    assembler_.add(targets_[d], c1_bits_.data());
  }
  assembler_.finish(ecdg_);
  return ecdg_;
}

}  // namespace wormnet::cdg
