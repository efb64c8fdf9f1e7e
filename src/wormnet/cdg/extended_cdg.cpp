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

/// std::popcount, skipping the call for the common zero word: without a
/// hardware popcount the portable build makes it a library call.
[[nodiscard]] std::size_t count_bits(Word w) {
  return w == 0 ? 0 : static_cast<std::size_t>(std::popcount(w));
}

void or_into(Word* dst, const Word* src, std::size_t words) {
  for (std::size_t w = 0; w < words; ++w) dst[w] |= src[w];
}

/// Sets `graph`'s out-row of every channel to its `rows` row read in
/// ascending order; `scratch` holds one row meanwhile.
void set_rows(graph::Digraph& graph, const BitRows& rows,
              std::vector<ChannelId>& scratch) {
  for (ChannelId ci = 0; ci < graph.num_vertices(); ++ci) {
    scratch.clear();
    for_each_bit(rows.row(ci), rows.words,
                 [&](ChannelId cj) { scratch.push_back(cj); });
    graph.set_out(ci, scratch);
  }
}

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

graph::Digraph ExtendedCdg::direct_graph() const {
  graph::Digraph out(graph.num_vertices());
  std::vector<ChannelId> scratch;
  set_rows(out, direct, scratch);
  return out;
}

ExcursionClosure::ExcursionClosure(const StateGraph& states)
    : states_(states),
      words_(row_words(states.topo().num_channels())),
      sets_(states.topo().num_channels(), words_),
      order_(states.topo().num_channels()),
      low_(states.topo().num_channels()) {}

void ExcursionClosure::reset(NodeId dest, const Word* escape,
                             const Word* any_c1) {
  probe_ = obs::checker_probe();
  dest_ = dest;
  escape_ = escape;
  any_c1_ = any_c1;
  std::fill(order_.begin(), order_.end(), kUnvisited);
  next_order_ = 0;
}

void ExcursionClosure::close_from(ChannelId root) {
  enter(root);
  while (!calls_.empty()) {
    Frame& frame = calls_.back();
    const ChannelId u = frame.channel;
    const auto succ = states_.successors(u, dest_);
    if (frame.next < succ.size()) {
      const ChannelId v = succ[frame.next++];
      if (test_bit(any_c1_, v)) set_bit(sets_.row(u), v);
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

/// Pushes state (c, dest) with an empty set; scanning its successors adds its
/// escape successors and the sets of the components they lead to.
void ExcursionClosure::enter(ChannelId c) {
  order_[c] = low_[c] = next_order_++;
  calls_.push_back(Frame{c, 0});
  members_.push_back(c);
  if (probe_ != nullptr) ++probe_->ecdg_excursion_visits;
  Word* row = sets_.row(c);
  std::fill(row, row + words_, 0);
}

/// Pops the component rooted at `root` and gives every member its union.
void ExcursionClosure::finish_component(ChannelId root) {
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

void EcdgKernel::run(NodeId dest, const Word* escape, const Word* any_c1,
                     DestTargets& out) {
  const std::size_t channels = states_.topo().num_channels();
  const std::size_t words = row_words(channels);
  closure_.reset(dest, escape, any_c1);
  out.sources.clear();
  out.direct_begin.clear();
  out.direct_to.clear();
  out.excursions.clear();
  // At most one source per channel: size the lists once, not by doubling.
  out.sources.reserve(channels);
  out.direct_begin.reserve(channels + 1);
  out.direct_to.reserve(channels);
  out.excursions.reserve(channels);
  // The sources are the bits of C1(dest) ∧ reachable(·, dest).
  for_each_common_bit(
      escape, states_.reachable_words(dest).data(), words,
      [&](ChannelId ci) {
        bool excursion = false;
        out.direct_begin.push_back(
            static_cast<std::uint32_t>(out.direct_to.size()));
        for (const ChannelId cj : states_.successors(ci, dest)) {
          if (test_bit(any_c1, cj)) out.direct_to.push_back(cj);
          if (!test_bit(escape, cj)) excursion = true;
        }
        if (excursion) {
          out.excursions.push_back(
              static_cast<std::uint32_t>(out.sources.size()));
        }
        out.sources.push_back(ci);
      });
  out.direct_begin.push_back(static_cast<std::uint32_t>(out.direct_to.size()));
  out.indirect.reset(out.excursions.size(), words);
  for (std::size_t k = 0; k < out.excursions.size(); ++k) {
    Word* indirect = out.indirect.row(k);
    for (const ChannelId cj :
         states_.successors(out.sources[out.excursions[k]], dest)) {
      if (!test_bit(escape, cj)) {
        or_into(indirect, closure_.targets(cj), words);
      }
    }
  }
}

EcdgAssembler::EcdgAssembler(std::size_t channels)
    : channels_(channels),
      words_(row_words(channels)),
      any_(channels, words_),
      direct_(channels, words_),
      direct_same_(channels, words_),
      indirect_same_(channels, words_) {}

void EcdgAssembler::add(const DestTargets& targets, const Word* escape) {
  if (finished_) {
    // The rows went to the last ECDG; start over on the ones it gave back.
    any_.reset(channels_, words_);
    direct_.reset(channels_, words_);
    direct_same_.reset(channels_, words_);
    indirect_same_.reset(channels_, words_);
    finished_ = false;
  }
  // Counts follow first discovery: for one state, its direct edges before
  // its indirect ones.  An edge counts once, as the kind that first found
  // it, and as cross iff its target is not escape for that first
  // destination.  Each source has its own rows, so taking every direct
  // target of the destination before any indirect one keeps that order.
  for (std::size_t i = 0; i < targets.sources.size(); ++i) {
    const ChannelId ci = targets.sources[i];
    Word* seen = any_.row(ci);
    Word* direct = direct_.row(ci);
    Word* direct_same = direct_same_.row(ci);
    for (std::uint32_t t = targets.direct_begin[i];
         t < targets.direct_begin[i + 1]; ++t) {
      const ChannelId cj = targets.direct_to[t];
      const bool same = test_bit(escape, cj);
      if (!test_bit(seen, cj)) {
        set_bit(seen, cj);
        ++direct_edges_;
        if (!same) ++cross_edges_;
      }
      set_bit(direct, cj);
      if (same) set_bit(direct_same, cj);
    }
  }
  for (std::size_t k = 0; k < targets.excursions.size(); ++k) {
    const ChannelId ci = targets.sources[targets.excursions[k]];
    const Word* indirect_to = targets.indirect.row(k);
    Word* seen = any_.row(ci);
    Word* indirect_same = indirect_same_.row(ci);
    for (std::size_t w = 0; w < words_; ++w) {
      const Word fresh = indirect_to[w] & ~seen[w];
      indirect_edges_ += count_bits(fresh);
      cross_edges_ += count_bits(fresh & ~escape[w]);
      seen[w] |= indirect_to[w];
      indirect_same[w] |= indirect_to[w] & escape[w];
    }
  }
}

void EcdgAssembler::finish(ExtendedCdg& out) {
  if (out.graph.num_vertices() != channels_) {
    out.graph = graph::Digraph(channels_);
  }
  set_rows(out.graph, any_, row_);
  out.direct_edges = std::exchange(direct_edges_, 0);
  out.indirect_edges = std::exchange(indirect_edges_, 0);
  out.cross_edges = std::exchange(cross_edges_, 0);
  std::swap(out.direct, direct_);
  std::swap(out.direct_same, direct_same_);
  std::swap(out.indirect_same, indirect_same_);
  finished_ = true;
  if (auto* probe = obs::checker_probe()) {
    ++probe->ecdg_builds;
    probe->ecdg_direct_edges += out.direct_edges;
    probe->ecdg_indirect_edges += out.indirect_edges;
    probe->ecdg_cross_edges += out.cross_edges;
  }
}

ExtendedCdg build_extended_cdg(const Subfunction& sub) {
  const obs::PhaseTimer timer("ecdg_build");
  const StateGraph& states = sub.states();
  EcdgKernel kernel(states);
  EcdgAssembler assembler(states.topo().num_channels());
  DestTargets targets;
  for (NodeId dest = 0; dest < states.topo().num_nodes(); ++dest) {
    const Word* escape = sub.c1_words(dest).data();  // C1(dest)
    kernel.run(dest, escape, sub.any_c1_words().data(), targets);
    assembler.add(targets, escape);
  }
  ExtendedCdg out;
  assembler.finish(out);
  return out;
}

}  // namespace wormnet::cdg
