#include <gtest/gtest.h>

#include <algorithm>

#include "wormnet/graph/digraph.hpp"
#include "wormnet/util/rng.hpp"

namespace wormnet::graph {
namespace {

TEST(Digraph, AddAndRemoveEdges) {
  Digraph g(4);
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_FALSE(g.add_edge(0, 1));  // duplicate
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.remove_edge(0, 1));
  EXPECT_FALSE(g.remove_edge(0, 1));
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Digraph, OutEdgesSorted) {
  Digraph g(5);
  g.add_edge(0, 3);
  g.add_edge(0, 1);
  g.add_edge(0, 4);
  auto out = g.out(0);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  EXPECT_EQ(out.size(), 3u);
}

TEST(Digraph, AcyclicChainHasNoCycle) {
  Digraph g(5);
  for (Vertex v = 0; v + 1 < 5; ++v) g.add_edge(v, v + 1);
  EXPECT_FALSE(g.has_cycle());
  auto order = g.topological_order();
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(order->size(), 5u);
}

TEST(Digraph, DetectsSimpleCycle) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  EXPECT_TRUE(g.has_cycle());
  auto cycle = g.find_cycle();
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->size(), 3u);
  // The returned sequence must actually be a cycle.
  for (std::size_t i = 0; i < cycle->size(); ++i) {
    EXPECT_TRUE(g.has_edge((*cycle)[i], (*cycle)[(i + 1) % cycle->size()]));
  }
  EXPECT_FALSE(g.topological_order().has_value());
}

TEST(Digraph, SelfLoopIsCycle) {
  Digraph g(2);
  g.add_edge(1, 1);
  EXPECT_TRUE(g.has_cycle());
  auto cycle = g.find_cycle();
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->size(), 1u);
  EXPECT_EQ((*cycle)[0], 1u);
}

TEST(Digraph, TopologicalOrderRespectsEdges) {
  Digraph g(6);
  g.add_edge(5, 2);
  g.add_edge(5, 0);
  g.add_edge(4, 0);
  g.add_edge(4, 1);
  g.add_edge(2, 3);
  g.add_edge(3, 1);
  auto order = g.topological_order();
  ASSERT_TRUE(order.has_value());
  std::vector<std::size_t> pos(6);
  for (std::size_t i = 0; i < order->size(); ++i) pos[(*order)[i]] = i;
  for (Vertex u = 0; u < 6; ++u) {
    for (Vertex v : g.out(u)) {
      EXPECT_LT(pos[u], pos[v]);
    }
  }
}

TEST(Digraph, TarjanSccComponents) {
  Digraph g(7);
  // SCC {0,1,2}, SCC {3,4}, singletons {5}, {6}.
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.add_edge(4, 3);
  g.add_edge(4, 5);
  std::size_t count = 0;
  auto comp = g.tarjan_scc(count);
  EXPECT_EQ(count, 4u);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[3]);
  EXPECT_NE(comp[5], comp[6]);
}

TEST(Digraph, ReachableFrom) {
  Digraph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  auto reach = g.reachable_from(0);
  EXPECT_TRUE(reach[0]);
  EXPECT_TRUE(reach[1]);
  EXPECT_TRUE(reach[2]);
  EXPECT_FALSE(reach[3]);
  EXPECT_FALSE(reach[4]);
}

TEST(Digraph, DotExportContainsEdges) {
  Digraph g(2);
  g.add_edge(0, 1);
  auto dot = g.to_dot([](Vertex v) {
    std::string name = "v";
    name += std::to_string(v);
    return name;
  });
  EXPECT_NE(dot.find("\"v0\" -> \"v1\""), std::string::npos);
}

// Property test: has_cycle agrees with topological_order on random graphs.
class RandomGraphCycle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomGraphCycle, CycleIffNoTopologicalOrder) {
  util::Xoshiro256 rng(GetParam());
  const std::size_t n = 2 + rng.below(30);
  Digraph g(n);
  const std::size_t edges = rng.below(3 * n);
  for (std::size_t i = 0; i < edges; ++i) {
    g.add_edge(static_cast<Vertex>(rng.below(n)),
               static_cast<Vertex>(rng.below(n)));
  }
  EXPECT_EQ(g.has_cycle(), !g.topological_order().has_value());
  // Tarjan agreement: a cycle exists iff some SCC has > 1 vertex or a
  // self-loop exists.
  std::size_t comp_count = 0;
  auto comp = g.tarjan_scc(comp_count);
  bool scc_cycle = comp_count < n;
  for (Vertex v = 0; v < n && !scc_cycle; ++v) {
    if (g.has_edge(v, v)) scc_cycle = true;
  }
  EXPECT_EQ(g.has_cycle(), scc_cycle);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphCycle,
                         ::testing::Range<std::uint64_t>(0, 50));

}  // namespace
}  // namespace wormnet::graph
