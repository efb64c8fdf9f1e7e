#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "test_helpers.hpp"

namespace wormnet::sim {
namespace {

using topology::make_hypercube;
using topology::make_mesh;
using topology::make_torus;

TEST(Traffic, UniformNeverSelfAndCoversAll) {
  const topology::Topology topo = make_mesh({4, 4});
  TrafficGenerator gen(topo, Pattern::kUniform, 1);
  std::vector<int> hits(topo.num_nodes(), 0);
  for (int i = 0; i < 8000; ++i) {
    const auto dst = gen.destination(5);
    ASSERT_TRUE(dst.has_value());
    ASSERT_NE(*dst, 5u);
    ++hits[*dst];
  }
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    if (n == 5) {
      EXPECT_EQ(hits[n], 0);
    } else {
      EXPECT_GT(hits[n], 0) << "node " << n << " never targeted";
    }
  }
}

TEST(Traffic, TransposeIsDeterministicSwap) {
  const topology::Topology topo = make_mesh({4, 4});
  TrafficGenerator gen(topo, Pattern::kTranspose, 1);
  const NodeId src = topo.node_at(std::vector<std::uint32_t>{1, 3});
  const auto dst = gen.destination(src);
  ASSERT_TRUE(dst.has_value());
  EXPECT_EQ(*dst, topo.node_at(std::vector<std::uint32_t>{3, 1}));
  // Diagonal nodes map to themselves -> no packet.
  const NodeId diag = topo.node_at(std::vector<std::uint32_t>{2, 2});
  EXPECT_FALSE(gen.destination(diag).has_value());
}

TEST(Traffic, BitComplement) {
  const topology::Topology topo = make_hypercube(4);
  TrafficGenerator gen(topo, Pattern::kBitComplement, 1);
  EXPECT_EQ(*gen.destination(0b0000), 0b1111u);
  EXPECT_EQ(*gen.destination(0b1010), 0b0101u);
}

TEST(Traffic, BitReverse) {
  const topology::Topology topo = make_hypercube(4);
  TrafficGenerator gen(topo, Pattern::kBitReverse, 1);
  EXPECT_EQ(*gen.destination(0b0001), 0b1000u);
  EXPECT_FALSE(gen.destination(0b1001).has_value());  // palindrome
}

TEST(Traffic, Shuffle) {
  const topology::Topology topo = make_hypercube(4);
  TrafficGenerator gen(topo, Pattern::kShuffle, 1);
  EXPECT_EQ(*gen.destination(0b0011), 0b0110u);
  EXPECT_EQ(*gen.destination(0b1000), 0b0001u);
}

TEST(Traffic, TornadoOnTorus) {
  const topology::Topology topo = make_torus({8});
  TrafficGenerator gen(topo, Pattern::kTornado, 1);
  EXPECT_EQ(*gen.destination(0), 4u);
  EXPECT_EQ(*gen.destination(6), 2u);
}

TEST(Traffic, HotspotSkewsTowardHotNode) {
  const topology::Topology topo = make_mesh({4, 4});
  TrafficGenerator gen(topo, Pattern::kHotspot, 1, 0.5, {3});
  int hot = 0, total = 0;
  for (int i = 0; i < 4000; ++i) {
    if (const auto dst = gen.destination(9)) {
      ++total;
      if (*dst == 3) ++hot;
    }
  }
  // ~50% direct hotspot traffic plus the uniform share.
  EXPECT_GT(static_cast<double>(hot) / total, 0.4);
}

TEST(Traffic, ArrivalRateMatchesExpectation) {
  const topology::Topology topo = make_mesh({4, 4});
  TrafficGenerator gen(topo, Pattern::kUniform, 2);
  const double rate = 0.2;
  const std::uint32_t length = 4;
  int arrivals = 0;
  constexpr int kCycles = 40000;
  for (int i = 0; i < kCycles; ++i) {
    if (gen.arrival(rate, length)) ++arrivals;
  }
  EXPECT_NEAR(arrivals, kCycles * rate / length, kCycles * 0.01);
}

/// The destination of a deterministic pattern computed from coordinates on
/// every call: what TrafficGenerator's per-node table must reproduce.
std::optional<NodeId> reference_destination(const topology::Topology& topo,
                                            Pattern pattern, NodeId src) {
  const NodeId n = topo.num_nodes();
  std::uint32_t bits = 1;
  while ((NodeId{1} << bits) < n) ++bits;
  const NodeId mask = ((NodeId{1} << bits) - 1) & (n - 1);
  NodeId dst = 0;
  switch (pattern) {
    case Pattern::kTranspose:
    case Pattern::kTornado: {
      if (!topo.is_cube()) {
        dst = (src + n / 2) % n;
        break;
      }
      std::vector<std::uint32_t> xs = topo.coords(src);
      const auto& radices = topo.cube().radices;
      if (pattern == Pattern::kTranspose) {
        std::reverse(xs.begin(), xs.end());
        for (std::size_t d = 0; d < xs.size(); ++d) {
          xs[d] = std::min(xs[d], radices[d] - 1);
        }
      } else {
        for (std::size_t d = 0; d < xs.size(); ++d) {
          xs[d] = (xs[d] + radices[d] / 2) % radices[d];
        }
      }
      dst = topo.node_at(xs);
      break;
    }
    case Pattern::kBitComplement:
      dst = ~src & mask;
      break;
    case Pattern::kBitReverse:
      for (std::uint32_t b = 0; b < bits; ++b) {
        if (src & (1u << b)) dst |= 1u << (bits - 1 - b);
      }
      dst &= n - 1;
      break;
    case Pattern::kShuffle:
      dst = ((src << 1) | ((src >> (bits - 1)) & 1u)) & mask;
      break;
    default:
      ADD_FAILURE() << "not a deterministic pattern";
  }
  if (dst == src || dst >= n) return std::nullopt;
  return dst;
}

TEST(Traffic, DeterministicPatternsReadTheirPerCallDestination) {
  const topology::Topology topologies[] = {
      make_mesh({4, 4}),    make_mesh({3, 5}),  make_mesh({2, 3, 4}),
      make_torus({4, 4}),   make_torus({8}),    make_torus({8, 8}, 3),
      make_hypercube(4),    topology::make_ring(6)};
  for (const topology::Topology& topo : topologies) {
    for (const Pattern pattern :
         {Pattern::kTranspose, Pattern::kBitComplement, Pattern::kBitReverse,
          Pattern::kShuffle, Pattern::kTornado}) {
      SCOPED_TRACE(::testing::Message()
                   << to_string(pattern) << " on " << topo.num_nodes()
                   << " nodes");
      TrafficGenerator gen(topo, pattern, 7);
      for (NodeId src = 0; src < topo.num_nodes(); ++src) {
        EXPECT_EQ(gen.destination(src),
                  reference_destination(topo, pattern, src))
            << "source " << src;
      }
    }
  }
}

/// arrival_below(chance_threshold(p)) draws and decides as arrival() does.
TEST(Traffic, ThresholdArrivalMatchesArrival) {
  const topology::Topology topo = make_mesh({4, 4});
  for (const double rate : {0.0, 0.02, 0.1, 0.5, 0.9, 1.0, 8.0, 9.5}) {
    SCOPED_TRACE(rate);
    TrafficGenerator a(topo, Pattern::kUniform, 3);
    TrafficGenerator b(topo, Pattern::kUniform, 3);
    const std::uint64_t threshold =
        util::Xoshiro256::chance_threshold(rate / 8.0);
    for (int i = 0; i < 20000; ++i) {
      ASSERT_EQ(b.arrival_below(threshold), a.arrival(rate, 8)) << i;
    }
    // Both consumed the same draws: the streams stay in step.
    EXPECT_EQ(a.destination(0), b.destination(0));
  }
}

TEST(Traffic, PatternNames) {
  EXPECT_STREQ(to_string(Pattern::kUniform), "uniform");
  EXPECT_STREQ(to_string(Pattern::kTornado), "tornado");
  EXPECT_STREQ(to_string(Pattern::kHotspot), "hotspot");
}

}  // namespace
}  // namespace wormnet::sim
