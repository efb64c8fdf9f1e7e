#include "wormnet/cdg/extended_cdg.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "wormnet/obs/probe.hpp"

namespace wormnet::cdg {

const char* to_string(DepKind kind) {
  switch (kind) {
    case DepKind::kDirect:
      return "direct";
    case DepKind::kIndirect:
      return "indirect";
    case DepKind::kDirectCross:
      return "direct-cross";
    case DepKind::kIndirectCross:
      return "indirect-cross";
  }
  return "?";
}

namespace {

using Word = std::uint64_t;

void set_bit(Word* row, ChannelId c) { row[c / 64] |= Word{1} << (c % 64); }

[[nodiscard]] bool test_bit(const Word* row, ChannelId c) {
  return (row[c / 64] >> (c % 64)) & 1;
}

void or_into(Word* dst, const Word* src, std::size_t words) {
  for (std::size_t w = 0; w < words; ++w) dst[w] |= src[w];
}

/// The escape-target closure of one destination d.  Over the subgraph of
/// reachable states (c, d) with c NOT in C1(d) — the channels a message may
/// use on an excursion away from the escape set — it computes for each state
/// the set E(c, d) of escape channels (C1 of any destination) supplied
/// anywhere along an excursion starting at c.  One Tarjan pass per
/// destination does it: every state of a strongly connected component shares
/// one set, and the components complete in reverse topological order, so a
/// component's set is the union of its members' own escape successors and
/// the finished sets of the components it leads to.  States are entered
/// lazily, only from the escape states whose excursions need them.
class ExcursionClosure {
 public:
  ExcursionClosure(const Subfunction& sub, std::size_t words,
                   obs::CheckerStats* probe)
      : states_(sub.states()),
        words_(words),
        probe_(probe),
        sets_(states_.topo().num_channels(), words),
        order_(states_.topo().num_channels()),
        low_(states_.topo().num_channels()),
        any_c1_(words) {
    for (ChannelId c = 0; c < states_.topo().num_channels(); ++c) {
      if (sub.in_any_c1(c)) set_bit(any_c1_.data(), c);
    }
  }

  /// Forgets every set: the next queries are for destination `dest`, whose
  /// escape set C1(dest) is the bitset `escape`.
  void reset(NodeId dest, const Word* escape) {
    dest_ = dest;
    escape_ = escape;
    std::fill(order_.begin(), order_.end(), kUnvisited);
    next_order_ = 0;
  }

  /// E(c, dest) for a non-escape channel c of a reachable state.
  [[nodiscard]] const Word* targets(ChannelId c) {
    if (order_[c] == kUnvisited) close_from(c);
    return sets_.row(c);
  }

 private:
  static constexpr std::uint32_t kUnvisited = ~std::uint32_t{0};
  static constexpr std::uint32_t kDone = kUnvisited - 1;

  struct Frame {
    ChannelId channel;
    std::uint32_t next;  ///< index of the next successor to explore
  };

  void close_from(ChannelId root) {
    enter(root);
    while (!calls_.empty()) {
      Frame& frame = calls_.back();
      const ChannelId u = frame.channel;
      const auto succ = states_.successors(u, dest_);
      if (frame.next < succ.size()) {
        const ChannelId v = succ[frame.next++];
        if (test_bit(any_c1_.data(), v)) set_bit(sets_.row(u), v);
        if (test_bit(escape_, v)) continue;
        if (order_[v] == kUnvisited) {
          enter(v);
        } else if (order_[v] == kDone) {
          or_into(sets_.row(u), sets_.row(v), words_);
        } else {
          low_[u] = std::min(low_[u], order_[v]);
        }
        continue;
      }
      calls_.pop_back();
      if (low_[u] == order_[u]) finish_component(u);
      if (!calls_.empty()) {
        const ChannelId parent = calls_.back().channel;
        if (order_[u] == kDone) {
          or_into(sets_.row(parent), sets_.row(u), words_);
        } else {
          low_[parent] = std::min(low_[parent], low_[u]);
        }
      }
    }
  }

  /// Pushes state (c, dest) with an empty set; scanning its successors
  /// adds its escape successors and the sets of the components they lead to.
  void enter(ChannelId c) {
    order_[c] = low_[c] = next_order_++;
    calls_.push_back(Frame{c, 0});
    members_.push_back(c);
    if (probe_ != nullptr) ++probe_->ecdg_excursion_visits;
    Word* row = sets_.row(c);
    std::fill(row, row + words_, 0);
  }

  /// Pops the component rooted at `root` and gives every member its union.
  void finish_component(ChannelId root) {
    Word* shared = sets_.row(root);
    auto first = members_.end();
    do {
      --first;
    } while (*first != root);
    for (auto it = first + 1; it != members_.end(); ++it) {
      or_into(shared, sets_.row(*it), words_);
    }
    for (auto it = first; it != members_.end(); ++it) {
      if (*it != root) std::copy(shared, shared + words_, sets_.row(*it));
      order_[*it] = kDone;
    }
    members_.erase(first, members_.end());
  }

  const StateGraph& states_;
  std::size_t words_;
  obs::CheckerStats* probe_;
  NodeId dest_ = 0;
  const Word* escape_ = nullptr;
  BitRows sets_;                      ///< E(c, dest), row per channel
  std::vector<std::uint32_t> order_;  ///< DFS order, kUnvisited or kDone
  std::vector<std::uint32_t> low_;
  std::uint32_t next_order_ = 0;
  std::vector<Frame> calls_;
  std::vector<ChannelId> members_;  ///< Tarjan stack of open components
  std::vector<Word> any_c1_;        ///< union of C1 over destinations
};

/// The strongest kind of edge u -> v given which ways it was witnessed:
/// direct beats indirect and same-destination beats cross, so a cycle
/// witness always shows the simplest way each dependency arises.
DepKind strongest_kind(bool direct_same, bool direct, bool indirect_same) {
  if (direct_same) return DepKind::kDirect;
  if (direct) return DepKind::kDirectCross;
  if (indirect_same) return DepKind::kIndirect;
  return DepKind::kIndirectCross;
}

}  // namespace

DepKind ExtendedCdg::kind(graph::Vertex from, graph::Vertex to) const {
  assert(graph.has_edge(from, to));
  return strongest_kind(direct_same.test(from, to), direct.test(from, to),
                        indirect_same.test(from, to));
}

ExtendedCdg build_extended_cdg(const Subfunction& sub) {
  const obs::PhaseTimer timer("ecdg_build");
  obs::CheckerStats* const probe = obs::checker_probe();
  const StateGraph& states = sub.states();
  const Topology& topo = states.topo();
  const std::size_t channels = topo.num_channels();
  const std::size_t words = (channels + 63) / 64;

  // Per source channel: every edge, the directly witnessed ones, and the
  // directly / indirectly witnessed ones whose target is escape for the
  // witnessing destination itself (not cross).
  BitRows any(channels, words);
  BitRows direct(channels, words);
  BitRows direct_same(channels, words);
  BitRows indirect_same(channels, words);
  ExcursionClosure closure(sub, words, probe);
  std::vector<Word> escape(words);  // C1(dest)
  std::vector<Word> indirect_to(words);

  // Counts follow first discovery: destinations ascending and, for one
  // state, its direct edges before its indirect ones.  An edge counts once,
  // as the kind that first found it, and as cross iff its target is not
  // escape for that first destination.
  ExtendedCdg out;
  for (NodeId dest = 0; dest < topo.num_nodes(); ++dest) {
    if (dest == 0 || sub.per_destination()) {
      std::fill(escape.begin(), escape.end(), 0);
      for (ChannelId c = 0; c < channels; ++c) {
        if (sub.in_c1(c, dest)) set_bit(escape.data(), c);
      }
    }
    closure.reset(dest, escape.data());
    for (ChannelId ci = 0; ci < channels; ++ci) {
      if (!test_bit(escape.data(), ci) || !states.reachable(ci, dest)) continue;
      Word* seen = any.row(ci);
      // Direct targets: the escape successors of (ci, dest).
      bool excursions = false;
      for (const ChannelId cj : states.successors(ci, dest)) {
        if (!test_bit(escape.data(), cj)) excursions = true;
        if (!sub.in_any_c1(cj)) continue;
        const bool same = test_bit(escape.data(), cj);
        if (!test_bit(seen, cj)) {
          set_bit(seen, cj);
          ++out.direct_edges;
          if (!same) ++out.cross_edges;
        }
        set_bit(direct.row(ci), cj);
        if (same) set_bit(direct_same.row(ci), cj);
      }
      if (!excursions) continue;
      // Indirect targets: the closures of its non-escape successors.
      std::fill(indirect_to.begin(), indirect_to.end(), 0);
      for (const ChannelId cj : states.successors(ci, dest)) {
        if (!test_bit(escape.data(), cj)) {
          or_into(indirect_to.data(), closure.targets(cj), words);
        }
      }
      Word* ind_same = indirect_same.row(ci);
      for (std::size_t w = 0; w < words; ++w) {
        const Word fresh = indirect_to[w] & ~seen[w];
        out.indirect_edges += static_cast<std::size_t>(std::popcount(fresh));
        out.cross_edges +=
            static_cast<std::size_t>(std::popcount(fresh & ~escape[w]));
        seen[w] |= indirect_to[w];
        ind_same[w] |= indirect_to[w] & escape[w];
      }
    }
  }

  out.graph = graph::Digraph(channels);
  out.direct_only = graph::Digraph(channels);
  for (ChannelId ci = 0; ci < channels; ++ci) {
    const Word* row = any.row(ci);
    for (std::size_t w = 0; w < words; ++w) {
      for (Word bits = row[w]; bits != 0; bits &= bits - 1) {
        const auto cj =
            static_cast<ChannelId>(w * 64 + std::countr_zero(bits));
        out.graph.add_edge(ci, cj);
        if (test_bit(direct.row(ci), cj)) out.direct_only.add_edge(ci, cj);
      }
    }
  }
  out.direct = std::move(direct);
  out.direct_same = std::move(direct_same);
  out.indirect_same = std::move(indirect_same);
  if (probe) {
    ++probe->ecdg_builds;
    probe->ecdg_direct_edges += out.direct_edges;
    probe->ecdg_indirect_edges += out.indirect_edges;
    probe->ecdg_cross_edges += out.cross_edges;
  }
  return out;
}

}  // namespace wormnet::cdg
