#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "test_helpers.hpp"

namespace wormnet::cdg {
namespace {

using topology::make_hypercube;
using topology::make_mesh;
using topology::make_torus;

std::vector<bool> vc_class(const Topology& topo, std::uint8_t vc_max) {
  std::vector<bool> c1(topo.num_channels(), false);
  for (ChannelId c = 0; c < topo.num_channels(); ++c) {
    if (topo.channel(c).vc <= vc_max) c1[c] = true;
  }
  return c1;
}

TEST(ExtendedCdg, DuatoMeshEscapeIsAcyclicWithIndirectEdges) {
  // EXP-C core: the full CDG is cyclic, but the escape subfunction's
  // extended CDG — including the indirect dependencies created by adaptive
  // excursions — is acyclic.
  const Topology topo = make_mesh({4, 4}, 2);
  const auto routing = routing::make_duato_mesh(topo);
  const StateGraph states(topo, *routing);
  const Subfunction sub(states, vc_class(topo, 0), "vc0");
  const ExtendedCdg ecdg = build_extended_cdg(sub);
  EXPECT_FALSE(ecdg.graph.has_cycle());
  EXPECT_GT(ecdg.direct_edges, 0u);
  EXPECT_GT(ecdg.indirect_edges, 0u);  // adaptive excursions exist
  EXPECT_EQ(ecdg.cross_edges, 0u);     // uniform C1: no cross dependencies
}

TEST(ExtendedCdg, AdaptiveClassAsEscapeIsCyclic) {
  // Choosing the unrestricted class as the "escape" must fail: it has all
  // the turns, hence cycles.
  const Topology topo = make_mesh({4, 4}, 2);
  const auto routing = routing::make_duato_mesh(topo);
  const StateGraph states(topo, *routing);
  std::vector<bool> c1(topo.num_channels(), false);
  for (ChannelId c = 0; c < topo.num_channels(); ++c) {
    if (topo.channel(c).vc == 1) c1[c] = true;
  }
  const Subfunction sub(states, c1, "vc1");
  EXPECT_TRUE(build_extended_cdg(sub).graph.has_cycle());
}

TEST(ExtendedCdg, FullSetEqualsPlainCdg) {
  // With C1 = C there are no excursions: extended CDG == CDG.
  const Topology topo = make_mesh({3, 3}, 2);
  const auto routing = routing::make_duato_mesh(topo);
  const StateGraph states(topo, *routing);
  const Subfunction sub(states, std::vector<bool>(topo.num_channels(), true),
                        "all");
  const ExtendedCdg ecdg = build_extended_cdg(sub);
  EXPECT_EQ(ecdg.indirect_edges, 0u);
  const auto cdg = build_cdg(states);
  EXPECT_EQ(ecdg.graph.num_edges(), cdg.num_edges());
}

TEST(ExtendedCdg, IndirectSelfDependencyInIncoherentExample) {
  // EXP-D core: for the incoherent example with C1 = the minimal channels,
  // the direct dependency graph of R1 is ACYCLIC, but the detour through
  // cA1 (not in C1) lets a dest-n0 message that used cL2 need cL2 again —
  // an indirect self-dependency that closes a cycle.  A checker that omits
  // indirect dependencies would wrongly certify this relation.
  const Topology topo = routing::make_incoherent_net();
  const routing::IncoherentRouting routing(topo);
  const StateGraph states(topo, routing);
  const auto ch = routing::incoherent_channels(topo);
  std::vector<bool> c1(topo.num_channels(), true);
  c1[ch.cA1] = false;
  c1[ch.cB2] = false;
  const Subfunction sub(states, c1, "minimal-channels");
  EXPECT_TRUE(sub.connected());
  EXPECT_TRUE(sub.escape_everywhere());
  const ExtendedCdg ecdg = build_extended_cdg(sub);
  EXPECT_FALSE(ecdg.direct_graph().has_cycle())
      << "direct dependencies alone must be acyclic here";
  EXPECT_TRUE(ecdg.graph.has_cycle())
      << "indirect dependencies must close a cycle";
  EXPECT_GT(ecdg.indirect_edges, 0u);
  // The specific indirect self-dependency: cL2 -> cL2 via cA1.
  EXPECT_TRUE(ecdg.graph.has_edge(ch.cL2, ch.cL2));
  EXPECT_FALSE(ecdg.direct.test(ch.cL2, ch.cL2));
}

TEST(ExtendedCdg, PerDestinationCrossDependencies) {
  // Per-destination escape sets create cross dependencies: give destination
  // d0 the vc0 class and every other destination the vc1 class on a 2-VC
  // mesh; escape channels of one class then depend on the other class's.
  const Topology topo = make_mesh({3, 3}, 2);
  const routing::UnrestrictedMinimal routing(topo);
  const StateGraph states(topo, routing);
  std::vector<std::vector<bool>> by_dest(topo.num_nodes());
  for (NodeId d = 0; d < topo.num_nodes(); ++d) {
    by_dest[d].assign(topo.num_channels(), false);
    for (ChannelId c = 0; c < topo.num_channels(); ++c) {
      const std::uint8_t want = (d == 0) ? 0 : 1;
      if (topo.channel(c).vc == want) by_dest[d][c] = true;
    }
  }
  const Subfunction sub(states, by_dest, "split-by-dest");
  const ExtendedCdg ecdg = build_extended_cdg(sub);
  EXPECT_GT(ecdg.cross_edges, 0u);
}

TEST(ExtendedCdg, DatelineEscapeOnTorus) {
  const Topology topo = make_torus({4, 4}, 3);
  const auto routing = routing::make_duato_torus(topo);
  const StateGraph states(topo, *routing);
  const Subfunction sub(states, vc_class(topo, 1), "vc01");
  const ExtendedCdg ecdg = build_extended_cdg(sub);
  EXPECT_FALSE(ecdg.graph.has_cycle());
  EXPECT_GT(ecdg.indirect_edges, 0u);
}

TEST(ExtendedCdg, BrokenTorusEscapeIsCyclic) {
  // Escape = plain minimal on vc0/vc1 (no dateline): the wrap dependency
  // cycle survives in the extended CDG.
  const Topology topo = make_torus({4}, 3);
  const routing::UnrestrictedMinimal routing(topo);
  const StateGraph states(topo, routing);
  const Subfunction sub(states, vc_class(topo, 1), "vc01-no-dateline");
  EXPECT_TRUE(build_extended_cdg(sub).graph.has_cycle());
}

// ------------------------------------------------------------------------
// Equivalence with a naive reference builder.
//
// The reference follows the definitions literally and shares no code with
// build_extended_cdg or StateGraph: it finds the reachable states with its
// own fixpoint over route(), then walks a separate excursion DFS from every
// escape state (ci, d), noting each discovery in a dense channel-pair table
// that it finally turns into std::set / std::map.  Counts use the
// first-discovery rule: destinations ascending, and for one state its
// direct edges before its indirect ones.

struct ReferenceEcdg {
  std::set<std::pair<ChannelId, ChannelId>> edges;
  std::set<std::pair<ChannelId, ChannelId>> direct;
  std::map<std::pair<ChannelId, ChannelId>, DepKind> kinds;
  std::size_t direct_edges = 0;
  std::size_t indirect_edges = 0;
  std::size_t cross_edges = 0;
};

int rank(DepKind kind) {
  switch (kind) {
    case DepKind::kDirect:
      return 0;
    case DepKind::kDirectCross:
      return 1;
    case DepKind::kIndirect:
      return 2;
    case DepKind::kIndirectCross:
      return 3;
  }
  return 4;
}

/// The reference's own reachable states: states[d][c] holds the successor
/// list of state (c, d) when it is reachable (empty for sink states).
using ReferenceStates =
    std::vector<std::vector<std::optional<routing::ChannelSet>>>;

ReferenceStates reference_states(const Topology& topo,
                                 const routing::RoutingFunction& routing) {
  ReferenceStates states(
      topo.num_nodes(),
      std::vector<std::optional<routing::ChannelSet>>(topo.num_channels()));
  for (NodeId d = 0; d < topo.num_nodes(); ++d) {
    auto& succ = states[d];
    std::vector<ChannelId> work;
    const auto reach = [&](ChannelId c) {
      if (succ[c]) return;
      succ[c].emplace();
      work.push_back(c);
    };
    for (NodeId s = 0; s < topo.num_nodes(); ++s) {
      if (s == d) continue;
      for (ChannelId c : routing.route(topology::kInvalidChannel, s, d)) {
        reach(c);
      }
    }
    while (!work.empty()) {
      const ChannelId c = work.back();
      work.pop_back();
      const NodeId head = topo.channel(c).dst;
      if (head == d) continue;
      routing::ChannelSet next = routing.route(c, head, d);
      for (ChannelId n : next) reach(n);
      *succ[c] = std::move(next);
    }
  }
  return states;
}

ReferenceEcdg reference_ecdg(const ReferenceStates& states,
                             const Subfunction& sub) {
  const std::size_t channels = sub.states().topo().num_channels();
  // Strongest kind seen so far per channel pair (rank, 4 = no edge yet) and
  // whether the pair was ever witnessed directly.
  std::vector<int> best(channels * channels, 4);
  std::vector<char> direct(channels * channels, 0);
  ReferenceEcdg ref;
  const auto note = [&](ChannelId from, ChannelId to, bool indirect,
                        bool cross) {
    const std::size_t at = from * channels + to;
    if (best[at] == 4) {
      ++(indirect ? ref.indirect_edges : ref.direct_edges);
      if (cross) ++ref.cross_edges;
    }
    const DepKind kind = indirect ? (cross ? DepKind::kIndirectCross
                                           : DepKind::kIndirect)
                                  : (cross ? DepKind::kDirectCross
                                           : DepKind::kDirect);
    best[at] = std::min(best[at], rank(kind));
    if (!indirect) direct[at] = 1;
  };
  std::vector<char> any(channels);
  for (ChannelId c = 0; c < channels; ++c) any[c] = sub.in_any_c1(c);
  std::vector<char> escape(channels);
  std::vector<char> visited(channels);
  for (NodeId d = 0; d < states.size(); ++d) {
    const auto& succ = states[d];
    for (ChannelId c = 0; c < channels; ++c) escape[c] = sub.in_c1(c, d);
    for (ChannelId ci = 0; ci < channels; ++ci) {
      if (!succ[ci] || !escape[ci]) continue;
      for (ChannelId cj : *succ[ci]) {
        if (any[cj]) note(ci, cj, false, !escape[cj]);
      }
      // Excursion DFS from (ci, d) through non-escape channels; every
      // escape channel supplied along the way is an indirect target.
      std::fill(visited.begin(), visited.end(), 0);
      std::vector<ChannelId> stack;
      const auto visit = [&](ChannelId c) {
        if (escape[c] || visited[c]) return;
        visited[c] = 1;
        stack.push_back(c);
      };
      for (ChannelId mid : *succ[ci]) visit(mid);
      while (!stack.empty()) {
        const ChannelId mid = stack.back();
        stack.pop_back();
        for (ChannelId cj : *succ[mid]) {
          if (any[cj]) note(ci, cj, true, !escape[cj]);
          visit(cj);
        }
      }
    }
  }
  constexpr DepKind kByRank[] = {DepKind::kDirect, DepKind::kDirectCross,
                                 DepKind::kIndirect, DepKind::kIndirectCross};
  for (ChannelId from = 0; from < channels; ++from) {
    for (ChannelId to = 0; to < channels; ++to) {
      const std::size_t at = from * channels + to;
      if (best[at] == 4) continue;
      ref.edges.insert({from, to});
      ref.kinds.emplace(std::make_pair(from, to), kByRank[best[at]]);
      if (direct[at]) ref.direct.insert({from, to});
    }
  }
  return ref;
}

/// True iff `g` has exactly the edges of `want`.
bool same_edges(const graph::Digraph& g,
                const std::set<std::pair<ChannelId, ChannelId>>& want) {
  std::vector<std::pair<ChannelId, ChannelId>> edges;
  for (graph::Vertex u = 0; u < g.num_vertices(); ++u) {
    for (graph::Vertex v : g.out(u)) edges.emplace_back(u, v);
  }
  return std::ranges::equal(edges, want);
}

/// Returns the number of mismatching fields (0 when equivalent).
int compare_with_reference(const ReferenceStates& states,
                           const Subfunction& sub, const std::string& name) {
  const ExtendedCdg got = build_extended_cdg(sub);
  const ReferenceEcdg want = reference_ecdg(states, sub);
  int mismatches = 0;
  const auto expect = [&](bool same, const char* field) {
    if (same) return;
    ++mismatches;
    ADD_FAILURE() << name << ": " << field << " differs from the reference";
  };
  expect(same_edges(got.graph, want.edges), "edges");
  expect(same_edges(got.direct_graph(), want.direct), "direct");
  bool same_kinds = true;
  for (const auto& [edge, kind] : want.kinds) {
    if (!got.graph.has_edge(edge.first, edge.second)) continue;  // "edges"
    same_kinds = same_kinds && got.kind(edge.first, edge.second) == kind;
  }
  expect(same_kinds, "kind");
  expect(got.direct_edges == want.direct_edges, "direct_edges");
  expect(got.indirect_edges == want.indirect_edges, "indirect_edges");
  expect(got.cross_edges == want.cross_edges, "cross_edges");
  return mismatches;
}

TEST(ExtendedCdg, MatchesNaiveReferenceBuilder) {
  std::size_t cases = 0;
  int mismatches = 0;
  util::Xoshiro256 rng(20260613);
  for (const char* spec :
       {"mesh:4x4:2", "torus:4x4:2", "hypercube:3:2", "ring:7:2",
        "incoherent"}) {
    const Topology topo = core::make_topology(spec);
    // A one-link fault on the link of the middle channel.
    std::vector<bool> faulted(topo.num_channels(), false);
    const auto& first = topo.channel(topo.num_channels() / 2);
    (void)routing::mark_link_faulty(topo, first.src, first.dst, faulted);
    for (const core::AlgorithmEntry* alg : core::algorithms_for(topo)) {
      for (const bool with_fault : {false, true}) {
        std::unique_ptr<routing::RoutingFunction> relation = alg->make(topo);
        if (with_fault) {
          relation = std::make_unique<routing::FaultAwareRouting>(
              topo, std::move(relation), faulted);
        }
        const StateGraph states(topo, *relation);
        const ReferenceStates ref_states = reference_states(topo, *relation);
        const std::string name = std::string(spec) + " " + alg->name +
                                 (with_fault ? " +fault" : "");
        const auto run = [&](const Subfunction& sub) {
          ++cases;
          mismatches +=
              compare_with_reference(ref_states, sub, name + " " + sub.label());
        };
        // Every VC-class mask (the full set included).
        std::uint8_t vcs = 1;
        for (ChannelId c = 0; c < topo.num_channels(); ++c) {
          vcs = std::max<std::uint8_t>(vcs, topo.channel(c).vc + 1);
        }
        for (std::uint32_t mask = 1; mask < (1u << vcs); ++mask) {
          std::vector<bool> c1(topo.num_channels(), false);
          for (ChannelId c = 0; c < topo.num_channels(); ++c) {
            c1[c] = (mask >> topo.channel(c).vc) & 1;
          }
          run(Subfunction(states, c1, "vc-mask:" + std::to_string(mask)));
        }
        // A seeded random uniform mask.
        std::vector<bool> c1(topo.num_channels(), false);
        for (ChannelId c = 0; c < topo.num_channels(); ++c) {
          c1[c] = rng.chance(0.6);
        }
        run(Subfunction(states, c1, "random"));
        // A random per-destination mask: cross dependencies.
        std::vector<std::vector<bool>> by_dest(
            topo.num_nodes(), std::vector<bool>(topo.num_channels()));
        for (auto& c1 : by_dest) {
          for (ChannelId c = 0; c < topo.num_channels(); ++c) {
            c1[c] = rng.chance(0.5);
          }
        }
        run(Subfunction(states, by_dest, "random-per-dest"));
      }
    }
  }
  RecordProperty("cases", static_cast<int>(cases));
  EXPECT_EQ(mismatches, 0);
  EXPECT_GT(cases, 200u);
}

// Exact edge counts, pinned so the first-discovery counting rule (an edge
// counts once, as the kind and cross-ness of the destination that first
// finds it) cannot drift.

TEST(ExtendedCdg, PinnedCountsDuatoMeshVc0) {
  const Topology topo = make_mesh({4, 4}, 2);
  const auto routing = routing::make_duato_mesh(topo);
  const StateGraph states(topo, *routing);
  const ExtendedCdg ecdg =
      build_extended_cdg(Subfunction(states, vc_class(topo, 0), "vc0"));
  EXPECT_EQ(ecdg.direct_edges, 68u);
  EXPECT_EQ(ecdg.indirect_edges, 196u);
  EXPECT_EQ(ecdg.cross_edges, 0u);
  EXPECT_EQ(ecdg.graph.num_edges(), 264u);
  EXPECT_EQ(ecdg.direct_graph().num_edges(), 68u);
}

TEST(ExtendedCdg, PinnedCountsPerDestinationDatelineRing) {
  const Topology topo = core::make_topology("ring:7:2");
  const routing::UnrestrictedMinimal routing(topo);
  const routing::DatelineRouting dateline(topo);
  const StateGraph states(topo, routing);
  const ExtendedCdg ecdg = build_extended_cdg(
      per_destination_from_escape(states, dateline, "dateline-per-dest"));
  EXPECT_EQ(ecdg.direct_edges, 22u);
  EXPECT_EQ(ecdg.indirect_edges, 18u);
  EXPECT_EQ(ecdg.cross_edges, 10u);
  EXPECT_EQ(ecdg.graph.num_edges(), 40u);
  EXPECT_EQ(ecdg.direct_graph().num_edges(), 22u);
}

TEST(ExtendedCdg, PinnedCountsIncoherent) {
  const Topology topo = routing::make_incoherent_net();
  const routing::IncoherentRouting routing(topo);
  const StateGraph states(topo, routing);
  const auto ch = routing::incoherent_channels(topo);
  std::vector<bool> c1(topo.num_channels(), true);
  c1[ch.cA1] = false;
  c1[ch.cB2] = false;
  const ExtendedCdg ecdg =
      build_extended_cdg(Subfunction(states, c1, "minimal-channels"));
  EXPECT_EQ(ecdg.direct_edges, 4u);
  EXPECT_EQ(ecdg.indirect_edges, 2u);
  EXPECT_EQ(ecdg.cross_edges, 0u);
  EXPECT_EQ(ecdg.graph.num_edges(), 6u);
  EXPECT_EQ(ecdg.direct_graph().num_edges(), 4u);
}

}  // namespace
}  // namespace wormnet::cdg
