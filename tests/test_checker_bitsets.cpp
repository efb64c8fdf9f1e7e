// The checker's word-wide loops against their bit-by-bit form.
//
// StateGraph keeps its reachable states as per-destination word rows, the
// Subfunction its escape sets as rows, and the ECDG kernel and both gates
// visit only the set bits of those rows.  The references below keep the
// plain form: a std::vector<bool> reachable set grown by a std::deque
// fixpoint over route(), C1 as one std::vector<bool> per destination, and
// gates and a kernel loop that test every (channel, destination) slot.
// Over the search cases, the masked epochs of test_state_derive, and
// uniform, per-destination and seeded random escape sets, the two must
// agree on the reachable set and its count, on every gate witness (kind,
// node, channel, destination), and on every destination's kernel output.
#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <sstream>
#include <string>
#include <vector>

#include "epoch_masks.hpp"
#include "search_cases.hpp"
#include "test_helpers.hpp"

namespace wormnet::cdg {
namespace {

using reconfig::RelationExpr;

/// C1 as one flag vector per destination.
using EscapeSets = std::vector<std::vector<bool>>;

/// The reachable states of `relation`, per destination: a std::vector<bool>
/// grown by a std::deque fixpoint over route().
EscapeSets reference_reachable(const Topology& topo,
                               const routing::RoutingFunction& relation) {
  EscapeSets reachable(topo.num_nodes(),
                       std::vector<bool>(topo.num_channels(), false));
  for (NodeId d = 0; d < topo.num_nodes(); ++d) {
    std::vector<bool>& reached = reachable[d];
    std::deque<ChannelId> frontier;
    const auto enqueue = [&](const routing::ChannelSet& route) {
      for (ChannelId c : route) {
        if (!reached[c]) {
          reached[c] = true;
          frontier.push_back(c);
        }
      }
    };
    for (NodeId s = 0; s < topo.num_nodes(); ++s) {
      if (s != d) enqueue(relation.route(topology::kInvalidChannel, s, d));
    }
    while (!frontier.empty()) {
      const ChannelId c = frontier.front();
      frontier.pop_front();
      const NodeId head = topo.channel(c).dst;
      if (head != d) enqueue(relation.route(c, head, d));
    }
  }
  return reachable;
}

/// Describes the first way `states` differs from `want`, the
/// reference_reachable sets of its relation, or "" when they agree.
std::string reachable_difference(const StateGraph& states,
                                 const EscapeSets& want) {
  const Topology& topo = states.topo();
  std::size_t count = 0;
  for (NodeId d = 0; d < topo.num_nodes(); ++d) {
    for (ChannelId c = 0; c < topo.num_channels(); ++c) {
      if (states.reachable(c, d) != want[d][c]) {
        return "reachable(" + topo.channel_name(c) + ", " +
               std::to_string(d) + ")";
      }
      count += want[d][c] ? 1 : 0;
    }
  }
  if (states.num_reachable_states() != count) return "num_reachable_states";
  if (states.states().size() != count) return "states()";
  return "";
}

/// Subfunction::connectivity_witness, testing every slot of `reachable`
/// (reference_reachable's sets) and `c1`.
SubfunctionWitness reference_connectivity(const StateGraph& states,
                                          const EscapeSets& reachable,
                                          const EscapeSets& c1) {
  SubfunctionWitness witness;
  const Topology& topo = states.topo();
  const NodeId nodes = topo.num_nodes();
  std::vector<bool> ok(nodes, false);
  std::vector<NodeId> stack;
  for (NodeId dest = 0; dest < nodes; ++dest) {
    std::fill(ok.begin(), ok.end(), false);
    ok[dest] = true;
    stack.assign(1, dest);
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      for (ChannelId c : topo.in_channels(v)) {
        const NodeId u = topo.channel(c).src;
        if (ok[u] || u == dest) continue;
        if (!c1[dest][c] || !reachable[dest][c]) continue;
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

/// Subfunction::escape_witness, testing every slot.
SubfunctionWitness reference_escape(const StateGraph& states,
                                    const EscapeSets& reachable,
                                    const EscapeSets& c1) {
  SubfunctionWitness witness;
  const Topology& topo = states.topo();
  for (NodeId dest = 0; dest < topo.num_nodes(); ++dest) {
    for (ChannelId c = 0; c < topo.num_channels(); ++c) {
      if (!reachable[dest][c]) continue;
      if (topo.channel(c).dst == dest) continue;
      bool has_escape = false;
      for (ChannelId next : states.successors(c, dest)) {
        has_escape = has_escape || c1[dest][next];
      }
      if (!has_escape) {
        witness.kind = SubfunctionWitness::Kind::kNoEscape;
        witness.channel = c;
        witness.dest = dest;
        return witness;
      }
    }
    for (NodeId src = 0; src < topo.num_nodes(); ++src) {
      if (src == dest) continue;
      bool has_escape = false;
      for (ChannelId c : states.injection(src, dest)) {
        has_escape = has_escape || c1[dest][c];
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

/// EcdgKernel::run's output, from a loop over every channel that tests
/// escape and reachability bit by bit.  The indirect rows come from the
/// same ExcursionClosure the kernel uses.
DestTargets reference_targets(const StateGraph& states, NodeId dest,
                              const std::vector<bool>& reachable,
                              const std::vector<bool>& escape,
                              const std::vector<bool>& any_c1,
                              const Word* escape_words,
                              const Word* any_words) {
  const std::size_t channels = states.topo().num_channels();
  ExcursionClosure closure(states);
  closure.reset(dest, escape_words, any_words);
  DestTargets out;
  for (ChannelId ci = 0; ci < channels; ++ci) {
    if (!escape[ci] || !reachable[ci]) continue;
    bool excursion = false;
    out.direct_begin.push_back(
        static_cast<std::uint32_t>(out.direct_to.size()));
    for (const ChannelId cj : states.successors(ci, dest)) {
      if (any_c1[cj]) out.direct_to.push_back(cj);
      if (!escape[cj]) excursion = true;
    }
    if (excursion) {
      out.excursions.push_back(static_cast<std::uint32_t>(out.sources.size()));
    }
    out.sources.push_back(ci);
  }
  out.direct_begin.push_back(static_cast<std::uint32_t>(out.direct_to.size()));
  const std::size_t words = row_words(channels);
  out.indirect.reset(out.excursions.size(), words);
  for (std::size_t k = 0; k < out.excursions.size(); ++k) {
    Word* row = out.indirect.row(k);
    for (const ChannelId cj :
         states.successors(out.sources[out.excursions[k]], dest)) {
      if (escape[cj]) continue;
      const Word* set = closure.targets(cj);
      for (std::size_t w = 0; w < words; ++w) row[w] |= set[w];
    }
  }
  return out;
}

std::string describe(const SubfunctionWitness& w) {
  std::ostringstream os;
  os << "kind " << static_cast<int>(w.kind) << " node " << w.node
     << " channel " << w.channel << " dest " << w.dest;
  return os.str();
}

/// Describes the first way the word-wide checker differs from the
/// references for the escape sets `c1`, or "" when they agree.
std::string checker_difference(const StateGraph& states,
                               const EscapeSets& reachable,
                               const EscapeSets& c1, const Subfunction& sub) {
  const std::size_t channels = states.topo().num_channels();
  const auto connectivity = sub.connectivity_witness();
  const auto want_connectivity = reference_connectivity(states, reachable, c1);
  if (describe(connectivity) != describe(want_connectivity)) {
    return "connectivity witness " + describe(connectivity) + " vs " +
           describe(want_connectivity);
  }
  const auto escape = sub.escape_witness();
  const auto want_escape = reference_escape(states, reachable, c1);
  if (describe(escape) != describe(want_escape)) {
    return "escape witness " + describe(escape) + " vs " +
           describe(want_escape);
  }
  std::vector<bool> any_c1(channels, false);
  for (const auto& set : c1) {
    for (ChannelId c = 0; c < channels; ++c) {
      if (set[c]) any_c1[c] = true;
    }
  }
  EcdgKernel kernel(states);
  DestTargets got;
  for (NodeId d = 0; d < states.topo().num_nodes(); ++d) {
    const Word* escape_words = sub.c1_words(d).data();
    const Word* any_words = sub.any_c1_words().data();
    kernel.run(d, escape_words, any_words, got);
    const DestTargets want =
        reference_targets(states, d, reachable[d], c1[d], any_c1,
                          escape_words, any_words);
    const std::string at = " of destination " + std::to_string(d);
    if (got.sources != want.sources) return "sources" + at;
    if (got.direct_begin != want.direct_begin) return "direct_begin" + at;
    if (got.direct_to != want.direct_to) return "direct_to" + at;
    if (got.excursions != want.excursions) return "excursions" + at;
    if (got.indirect.words != want.indirect.words ||
        got.indirect.bits != want.indirect.bits) {
      return "indirect rows" + at;
    }
  }
  return "";
}

/// How many gate witnesses of each SubfunctionWitness::Kind were compared.
using KindTally = std::array<std::size_t, 4>;

/// Runs the comparisons over `states` for a spread of escape sets: the
/// full set, every VC class, two seeded random uniform sets and a seeded
/// random per-destination set.  Returns the number of escape sets tried.
std::size_t expect_checker_matches(const StateGraph& states,
                                   const routing::RoutingFunction& relation,
                                   util::Xoshiro256& rng, KindTally& kinds) {
  const Topology& topo = states.topo();
  const std::size_t channels = topo.num_channels();
  const NodeId nodes = topo.num_nodes();
  const EscapeSets reachable = reference_reachable(topo, relation);
  EXPECT_EQ(reachable_difference(states, reachable), "");
  std::size_t sets = 0;
  const auto check = [&](const EscapeSets& c1, const Subfunction& sub) {
    ++sets;
    EXPECT_EQ(checker_difference(states, reachable, c1, sub), "")
        << sub.label();
    ++kinds[static_cast<std::size_t>(sub.connectivity_witness().kind)];
    ++kinds[static_cast<std::size_t>(sub.escape_witness().kind)];
  };
  const auto uniform = [&](const std::vector<bool>& c1,
                           const std::string& label) {
    check(EscapeSets(nodes, c1), Subfunction(states, c1, label));
  };
  std::uint8_t vcs = 1;
  for (ChannelId c = 0; c < channels; ++c) {
    vcs = std::max<std::uint8_t>(vcs, topo.channel(c).vc + 1);
  }
  for (std::uint32_t mask = 1; mask < (1u << vcs); ++mask) {
    std::vector<bool> c1(channels, false);
    for (ChannelId c = 0; c < channels; ++c) {
      c1[c] = (mask >> topo.channel(c).vc) & 1;
    }
    uniform(c1, "vc-mask:" + std::to_string(mask));
  }
  for (const double density : {0.6, 0.9}) {
    std::vector<bool> c1(channels, false);
    for (ChannelId c = 0; c < channels; ++c) c1[c] = rng.chance(density);
    uniform(c1, "random uniform");
  }
  EscapeSets by_dest(nodes, std::vector<bool>(channels, false));
  for (auto& c1 : by_dest) {
    for (ChannelId c = 0; c < channels; ++c) c1[c] = rng.chance(0.7);
  }
  check(by_dest, Subfunction(states, by_dest, "random per-destination"));
  return sets;
}

TEST(CheckerBitsets, SearchCasesMatchBitByBitReferences) {
  util::Xoshiro256 rng(31);
  KindTally kinds{};
  std::size_t sets = 0;
  for (const test::SearchCase& c : test::search_cases()) {
    SCOPED_TRACE(c.relation.key(c.topology));
    const Topology topo = core::make_topology(c.topology);
    const auto relation = c.relation.build(topo);
    const StateGraph states(topo, *relation);
    sets += expect_checker_matches(states, *relation, rng, kinds);
  }
  EXPECT_GT(sets, 500u);
  // Passing gates and every kind of failure witness were compared.
  for (const std::size_t seen : kinds) EXPECT_GT(seen, 0u);
}

TEST(CheckerBitsets, MaskedEpochsMatchBitByBitReferences) {
  util::Xoshiro256 rng(32);
  KindTally kinds{};
  std::uint64_t seed = 2026;
  std::size_t epochs = 0;
  for (const char* spec :
       {"mesh:4x4:2", "torus:4x4:3", "hypercube:4:2", "ring:6:2"}) {
    const Topology topo = core::make_topology(spec);
    for (const core::AlgorithmEntry* entry : core::algorithms_for(topo)) {
      const auto parent = RelationExpr(entry->name).build(topo);
      const StateGraph parent_states(topo, *parent);
      for (const auto& mask : test::random_masks(topo, ++seed)) {
        const RelationExpr masked(entry->name, mask);
        SCOPED_TRACE(masked.key(spec));
        const auto relation = masked.build(topo);
        const StateGraph derived(parent_states, *relation, mask);
        (void)expect_checker_matches(derived, *relation, rng, kinds);
        ++epochs;
      }
    }
  }
  EXPECT_GE(epochs, 128u);
}

TEST(CheckerBitsets, PerDestinationEscapeRelationsMatch) {
  // C1(d) from an escape relation's reachable channels, as lint and the
  // per-destination examples build it.
  util::Xoshiro256 rng(33);
  KindTally kinds{};
  for (const char* spec : {"ring:7:2", "torus:4x4:3"}) {
    const Topology topo = core::make_topology(spec);
    const routing::UnrestrictedMinimal relation(topo);
    const routing::DatelineRouting dateline(topo);
    const StateGraph states(topo, relation);
    EXPECT_EQ(checker_difference(states, reference_reachable(topo, relation),
                                 reference_reachable(topo, dateline),
                                 per_destination_from_escape(
                                     states, dateline, "dateline-per-dest")),
              "")
        << spec;
    (void)expect_checker_matches(states, relation, rng, kinds);
  }
}

}  // namespace
}  // namespace wormnet::cdg
