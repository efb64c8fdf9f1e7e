// The topology's flat adjacency and its per-(node, dim, dir) link table,
// against a reference that scans the channel list itself.
//
// Topology keeps its out/in adjacency as flat offset + id arrays, and cube
// topologies a table of each link's channels by vc, both built in one pass
// over the channels.  append_link_vcs reads that table.  The reference here
// is the scan the table replaced: walk the node's out-channels in id order
// and take, per vc, the first channel into neighbor(node, dim, dir) — by
// head node, not by the channel's own (dim, dir), which is what makes a
// two-node one-way ring list its one link under both directions.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "wormnet/routing/routing_function.hpp"
#include "wormnet/topology/builders.hpp"

namespace wormnet::topology {
namespace {

using routing::ChannelSet;

/// Channels whose source (or head) is `node`, in id order, from the channel
/// list alone.
ChannelSet scan_adjacency(const Topology& topo, NodeId node, bool out) {
  ChannelSet result;
  for (ChannelId c = 0; c < topo.num_channels(); ++c) {
    const Channel& ch = topo.channel(c);
    if ((out ? ch.src : ch.dst) == node) result.push_back(c);
  }
  return result;
}

/// The out-adjacency scan append_link_vcs made before the link table: per
/// vc in [vc_lo, vc_hi], the first out-channel of `node` into the (dim,
/// dir) neighbour with that vc.
ChannelSet scan_link_vcs(const Topology& topo, NodeId node, std::size_t dim,
                         Direction dir, int vc_lo, int vc_hi) {
  ChannelSet result;
  const auto next = topo.neighbor(node, dim, dir);
  if (!next) return result;
  const ChannelSet out = scan_adjacency(topo, node, /*out=*/true);
  for (int vc = vc_lo; vc <= vc_hi; ++vc) {
    for (const ChannelId c : out) {
      if (topo.channel(c).dst == *next && topo.channel(c).vc == vc) {
        result.push_back(c);
        break;
      }
    }
  }
  return result;
}

ChannelSet as_set(std::span<const ChannelId> span) {
  return {span.begin(), span.end()};
}

void expect_adjacency_matches_scan(const Topology& topo) {
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    EXPECT_EQ(as_set(topo.out_channels(n)), scan_adjacency(topo, n, true))
        << topo.name() << " out of node " << n;
    EXPECT_EQ(as_set(topo.in_channels(n)), scan_adjacency(topo, n, false))
        << topo.name() << " into node " << n;
  }
}

void expect_links_match_scan(const Topology& topo) {
  const int vcs = topo.cube().vcs;
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    for (std::size_t dim = 0; dim < topo.num_dims(); ++dim) {
      for (const Direction dir : {Direction::kPos, Direction::kNeg}) {
        // Every range inside the link's vcs, plus ranges that run past them
        // (vc_hi up to 255) and empty ones (vc_lo > vc_hi).
        for (int lo = 0; lo <= vcs + 1; ++lo) {
          for (int hi : {lo - 1, lo, lo + 1, vcs - 1, vcs, 255}) {
            if (hi < 0) continue;
            ChannelSet got{kInvalidChannel};  // append contract: kept
            routing::append_link_vcs(topo, n, dim, dir,
                                     static_cast<std::uint8_t>(lo),
                                     static_cast<std::uint8_t>(hi), got);
            ChannelSet want{kInvalidChannel};
            const ChannelSet scan = scan_link_vcs(topo, n, dim, dir, lo, hi);
            want.insert(want.end(), scan.begin(), scan.end());
            EXPECT_EQ(got, want)
                << topo.name() << " node " << n << " dim " << dim << " dir "
                << int(dir) << " vcs [" << lo << ", " << hi << "]";
          }
        }
        const auto row = topo.link_channels(n, dim, dir);
        EXPECT_EQ(row.size(), static_cast<std::size_t>(vcs));
      }
    }
  }
}

class LinkTable : public ::testing::TestWithParam<int> {};

TEST_P(LinkTable, EveryBuilderShapeMatchesTheScan) {
  const auto vcs = static_cast<std::uint8_t>(GetParam());
  const std::vector<Topology> shapes = [&] {
    std::vector<Topology> t;
    t.push_back(make_mesh({4, 4}, vcs));
    t.push_back(make_mesh({2, 3}, vcs));        // radix-2 dimension
    t.push_back(make_mesh({3, 2, 2}, vcs));
    t.push_back(make_torus({4, 3}, vcs));
    t.push_back(make_torus({2, 5}, vcs));       // radix 2: no wrap links
    t.push_back(make_hypercube(4, vcs));
    t.push_back(make_ring(5, vcs));
    t.push_back(make_ring(2, vcs));
    t.push_back(make_unidirectional_ring(5, vcs));
    t.push_back(make_unidirectional_ring(2, vcs));  // both dirs: one link
    t.push_back(make_cylinder({3, 4}, {true, false}, vcs));
    return t;
  }();
  for (const Topology& topo : shapes) {
    expect_adjacency_matches_scan(topo);
    expect_links_match_scan(topo);
  }
}

INSTANTIATE_TEST_SUITE_P(Vcs, LinkTable, ::testing::Values(1, 2, 3));

TEST(LinkTable, TwoNodeUniringListsItsLinkUnderBothDirections) {
  // The wrap makes node 0's (dim 0, -) neighbour node 1, which its one +
  // link reaches: the scan found that link by head node, so the table must.
  const Topology topo = make_unidirectional_ring(2, 2);
  for (NodeId n = 0; n < 2; ++n) {
    const auto pos = topo.link_channels(n, 0, Direction::kPos);
    const auto neg = topo.link_channels(n, 0, Direction::kNeg);
    EXPECT_EQ(as_set(neg), as_set(pos));
    EXPECT_EQ(topo.channel(pos[1]).vc, 1);
  }
}

TEST(LinkTable, MeshBoundaryRowIsEmpty) {
  const Topology topo = make_mesh({3, 3}, 2);
  for (const ChannelId c : topo.link_channels(0, 0, Direction::kNeg)) {
    EXPECT_EQ(c, kInvalidChannel);
  }
  ChannelSet out;
  routing::append_link_vcs(topo, 0, 1, Direction::kNeg, 0, 255, out);
  EXPECT_TRUE(out.empty());
}

TEST(LinkTable, HandBuiltCubeKeepsTheFirstParallelChannel) {
  // A cube-family network with two vc-0 channels on one link and a vc
  // above CubeInfo::vcs: the table keeps the first in id order (as
  // find_channel does) and still lists the extra vc.
  std::vector<Channel> channels{
      {0, 1, 0, Direction::kPos, 0, false, {}},
      {0, 1, 0, Direction::kPos, 0, false, "dup"},
      {1, 0, 0, Direction::kNeg, 0, false, {}},
      {0, 1, 0, Direction::kPos, 3, false, {}},
  };
  CubeInfo info;
  info.radices = {2};
  info.wraps = {false};
  info.vcs = 1;
  const Topology topo("hand", 2, std::move(channels), std::move(info));
  expect_adjacency_matches_scan(topo);
  const auto row = topo.link_channels(0, 0, Direction::kPos);
  ASSERT_EQ(row.size(), 4u);
  EXPECT_EQ(row[0], 0u);
  EXPECT_EQ(row[0], topo.find_channel(0, 1, 0));
  EXPECT_EQ(row[3], 3u);
  ChannelSet out;
  routing::append_link_vcs(topo, 0, 0, Direction::kPos, 0, 255, out);
  EXPECT_EQ(out, scan_link_vcs(topo, 0, 0, Direction::kPos, 0, 255));
}

TEST(FlatAdjacency, CustomNetworkKeepsContentsAndOrder) {
  // Channels listed out of node order, with parallel channels.
  std::vector<Channel> channels{
      {2, 0, 0, Direction::kPos, 0, false, "a"},
      {0, 1, 0, Direction::kPos, 0, false, "b"},
      {1, 2, 0, Direction::kPos, 0, false, "c"},
      {0, 1, 0, Direction::kPos, 1, false, "d"},
      {2, 1, 0, Direction::kPos, 0, false, "e"},
      {0, 2, 0, Direction::kPos, 0, false, "f"},
  };
  const Topology topo("custom", 4, std::move(channels));  // node 3 isolated
  expect_adjacency_matches_scan(topo);
  EXPECT_EQ(as_set(topo.out_channels(0)), (ChannelSet{1, 3, 5}));
  EXPECT_EQ(as_set(topo.in_channels(1)), (ChannelSet{1, 3, 4}));
  EXPECT_TRUE(topo.out_channels(3).empty());
  EXPECT_TRUE(topo.in_channels(3).empty());
  EXPECT_EQ(topo.channels_between(0, 1), (ChannelSet{1, 3}));
}

}  // namespace
}  // namespace wormnet::topology
