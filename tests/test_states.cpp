#include <gtest/gtest.h>

#include <algorithm>

#include "test_helpers.hpp"

namespace wormnet::cdg {
namespace {

using topology::make_mesh;
using topology::make_unidirectional_ring;

TEST(StateGraph, EcubeReachabilityMatchesPaths) {
  const Topology topo = make_mesh({3, 3});
  const routing::DimensionOrder routing(topo);
  const StateGraph states(topo, routing);
  // Deterministic XY routing: channel (0,0)->(1,0) is reachable for dest
  // (2,2) (on the unique path from (0,0)) but channel (0,0)->(0,1) is not
  // (Y moves happen only after X is resolved).
  const NodeId dest = topo.node_at(std::vector<std::uint32_t>{2, 2});
  const ChannelId x_first =
      topo.find_channel(topo.node_at(std::vector<std::uint32_t>{0, 0}),
                        topo.node_at(std::vector<std::uint32_t>{1, 0}), 0);
  const ChannelId y_first =
      topo.find_channel(topo.node_at(std::vector<std::uint32_t>{0, 0}),
                        topo.node_at(std::vector<std::uint32_t>{0, 1}), 0);
  EXPECT_TRUE(states.reachable(x_first, dest));
  EXPECT_FALSE(states.reachable(y_first, dest));
}

TEST(StateGraph, SinkStatesHaveNoSuccessors) {
  const Topology topo = make_mesh({3, 3});
  const routing::UnrestrictedMinimal routing(topo);
  const StateGraph states(topo, routing);
  for (NodeId d = 0; d < topo.num_nodes(); ++d) {
    for (ChannelId c = 0; c < topo.num_channels(); ++c) {
      if (states.reachable(c, d) && topo.channel(c).dst == d) {
        EXPECT_TRUE(states.successors(c, d).empty());
      }
    }
  }
}

TEST(StateGraph, InjectionSetsMatchRelation) {
  const Topology topo = make_mesh({3, 3});
  const routing::UnrestrictedMinimal routing(topo);
  const StateGraph states(topo, routing);
  for (NodeId s = 0; s < topo.num_nodes(); ++s) {
    for (NodeId d = 0; d < topo.num_nodes(); ++d) {
      if (s == d) continue;
      EXPECT_TRUE(std::ranges::equal(
          states.injection(s, d),
          routing.route(topology::kInvalidChannel, s, d)));
      EXPECT_TRUE(std::ranges::equal(
          states.injection_waiting(s, d),
          routing.waiting(topology::kInvalidChannel, s, d)));
    }
  }
}

TEST(StateGraph, ReachesIsReflexiveAndFollowsEdges) {
  const Topology topo = make_unidirectional_ring(4, 1);
  const routing::UnrestrictedMinimal routing(topo);
  const StateGraph states(topo, routing);
  // Ring channels 0->1->2->3->0; message 0 -> 3 passes channels c01, c12, c23.
  const ChannelId c01 = topo.find_channel(0, 1, 0);
  const ChannelId c12 = topo.find_channel(1, 2, 0);
  const ChannelId c23 = topo.find_channel(2, 3, 0);
  const ChannelId c30 = topo.find_channel(3, 0, 0);
  EXPECT_TRUE(states.reaches(c01, c01, 3));
  EXPECT_TRUE(states.reaches(c01, c23, 3));
  EXPECT_TRUE(states.reaches(c12, c23, 3));
  EXPECT_FALSE(states.reaches(c23, c01, 3));  // delivered at 3
  EXPECT_FALSE(states.reachable(c30, 3));     // never used toward dest 3
}

TEST(StateGraph, InputDependentRelationExactness) {
  // The incoherent example: with input cA1 at n2 (dest n0), the successors
  // must include both cL2 and cB2; reachability must include the detour
  // channels only for dest n0.
  const Topology topo = routing::make_incoherent_net();
  const routing::IncoherentRouting routing(topo);
  const StateGraph states(topo, routing);
  const auto ch = routing::incoherent_channels(topo);
  EXPECT_TRUE(states.reachable(ch.cA1, 0));
  EXPECT_TRUE(states.reachable(ch.cB2, 0));
  EXPECT_FALSE(states.reachable(ch.cA1, 1));
  EXPECT_FALSE(states.reachable(ch.cB2, 3));
  const auto succ = states.successors(ch.cA1, 0);
  EXPECT_EQ(succ.size(), 2u);
  EXPECT_NE(std::find(succ.begin(), succ.end(), ch.cL2), succ.end());
  EXPECT_NE(std::find(succ.begin(), succ.end(), ch.cB2), succ.end());
}

TEST(StateGraph, StatesListMatchesCount) {
  const Topology topo = make_mesh({3, 3}, 2);
  const routing::UnrestrictedMinimal routing(topo);
  const StateGraph states(topo, routing);
  EXPECT_EQ(states.states().size(), states.num_reachable_states());
  EXPECT_GT(states.num_reachable_states(), 0u);
}

// Every first hop is a reachable state: the fixpoint enqueues each
// injection list, so "supplied as a first hop at u" implies reachable(c, d).
// Subfunction::connectivity_witness relies on this, for fresh and derived
// graphs alike.
TEST(StateGraph, InjectionFirstHopsAreReachableStates) {
  const auto expect_first_hops_reachable = [](const StateGraph& states) {
    const Topology& topo = states.topo();
    for (NodeId d = 0; d < topo.num_nodes(); ++d) {
      for (NodeId s = 0; s < topo.num_nodes(); ++s) {
        if (s == d) continue;
        for (const ChannelId c : states.injection(s, d)) {
          ASSERT_TRUE(states.reachable(c, d))
              << states.routing().name() << ": first hop "
              << topo.channel_name(c) << " of " << s << " -> " << d;
        }
      }
    }
  };
  std::size_t relations = 0;
  for (const char* spec : {"mesh:4x4:2", "torus:4x4:3", "ring:6:2"}) {
    const Topology topo = core::make_topology(spec);
    for (const core::AlgorithmEntry* entry : core::algorithms_for(topo)) {
      SCOPED_TRACE(std::string(spec) + " " + entry->name);
      const auto relation = entry->make(topo);
      const StateGraph states(topo, *relation);
      expect_first_hops_reachable(states);
      std::vector<bool> dead(topo.num_channels(), false);
      dead[relations % topo.num_channels()] = true;
      dead[(7 * relations + 3) % topo.num_channels()] = true;
      const auto masked = reconfig::RelationExpr(entry->name, dead).build(topo);
      expect_first_hops_reachable(StateGraph(states, *masked, dead));
      ++relations;
    }
  }
  EXPECT_GE(relations, 10u);
}

// relation_minimal reads each destination's distances from a table filled
// once per destination; the answer must equal the definition's form, two
// Topology::distance calls per successor of every reachable state.
bool minimal_per_successor(const StateGraph& states) {
  const Topology& topo = states.topo();
  for (NodeId d = 0; d < topo.num_nodes(); ++d) {
    for (ChannelId c = 0; c < topo.num_channels(); ++c) {
      if (!states.reachable(c, d)) continue;
      const NodeId at = topo.channel(c).dst;
      if (at == d) continue;
      for (ChannelId next : states.successors(c, d)) {
        if (topo.distance(topo.channel(next).dst, d) + 1 !=
            topo.distance(at, d)) {
          return false;
        }
      }
    }
  }
  return true;
}

TEST(StateGraph, RelationMinimalMatchesPerSuccessorDistances) {
  std::size_t minimal = 0;
  std::size_t nonminimal = 0;
  for (const char* spec :
       {"mesh:4x4:2", "torus:4x4:3", "hypercube:3:2", "incoherent"}) {
    const Topology topo = core::make_topology(spec);
    for (const core::AlgorithmEntry* entry : core::algorithms_for(topo)) {
      SCOPED_TRACE(std::string(spec) + " " + entry->name);
      const auto relation = entry->make(topo);
      const StateGraph states(topo, *relation);
      const bool want = minimal_per_successor(states);
      EXPECT_EQ(relation_minimal(states), want);
      ++(want ? minimal : nonminimal);
      std::vector<bool> dead(topo.num_channels(), false);
      dead[(minimal + nonminimal) % topo.num_channels()] = true;
      const auto masked = reconfig::RelationExpr(entry->name, dead).build(topo);
      const StateGraph derived(states, *masked, dead);
      EXPECT_EQ(relation_minimal(derived), minimal_per_successor(derived));
    }
  }
  // negative-first-nonmin on the mesh and both incoherent relations.
  EXPECT_GE(nonminimal, 3u);
  EXPECT_GE(minimal, 10u);
}

}  // namespace
}  // namespace wormnet::cdg
