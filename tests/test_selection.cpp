#include <gtest/gtest.h>

#include <algorithm>

#include "test_helpers.hpp"

namespace wormnet::routing {
namespace {

using test::ChannelId;

/// Selects among `cands` with free state given parallel to them.
int choose(SelectionPolicy policy, const ChannelSet& cands,
           const std::vector<bool>& free, util::Xoshiro256& rng) {
  const auto index = [&cands](ChannelId c) {
    return static_cast<std::size_t>(
        std::find(cands.begin(), cands.end(), c) - cands.begin());
  };
  return select_channel(
      policy, cands, [&](ChannelId c) { return free[index(c)]; }, rng);
}

TEST(Selection, InOrderPicksFirstFree) {
  util::Xoshiro256 rng(1);
  const ChannelSet cands{10, 11, 12};
  EXPECT_EQ(choose(SelectionPolicy::kInOrder, cands, {false, true, true}, rng),
            1);
  EXPECT_EQ(choose(SelectionPolicy::kInOrder, cands, {true, false, true}, rng),
            0);
  EXPECT_EQ(
      choose(SelectionPolicy::kInOrder, cands, {false, false, false}, rng),
      -1);
}

TEST(Selection, RandomOnlyPicksFree) {
  util::Xoshiro256 rng(2);
  const ChannelSet cands{5, 6, 7, 8};
  const std::vector<bool> free{false, true, false, true};
  std::vector<int> hits(4, 0);
  for (int i = 0; i < 2000; ++i) {
    const int pick = choose(SelectionPolicy::kRandom, cands, free, rng);
    ASSERT_TRUE(pick == 1 || pick == 3);
    ++hits[pick];
  }
  // Roughly uniform between the two free slots.
  EXPECT_NEAR(hits[1], 1000, 120);
  EXPECT_NEAR(hits[3], 1000, 120);
}

TEST(Selection, PolicyNames) {
  EXPECT_STREQ(to_string(SelectionPolicy::kInOrder), "in-order");
  EXPECT_STREQ(to_string(SelectionPolicy::kRandom), "random");
}

TEST(RouteAllocator, AcquiresAndMarksOwnership) {
  const topology::Topology topo = topology::make_mesh({3, 3});
  const DimensionOrder routing(topo);
  sim::NetworkState net(topo);
  sim::RouteAllocator allocator(topo, routing, SelectionPolicy::kInOrder,
                                sim::WaitOverride::kFollowRouting, 1);
  sim::Packet pkt;
  pkt.id = 0;
  pkt.src = 0;
  pkt.dst = 2;
  const auto acquired =
      allocator.attempt(pkt, topology::kInvalidChannel, 0, net);
  ASSERT_TRUE(acquired.has_value());
  EXPECT_EQ(net.owner(*acquired), pkt.id);
  EXPECT_EQ(pkt.path.size(), 1u);
  EXPECT_EQ(pkt.path.front(), *acquired);
}

TEST(RouteAllocator, WaitSpecificCommitsAndSticks) {
  const topology::Topology topo = topology::make_mesh({3, 3});
  const UnrestrictedMinimal routing(topo);
  sim::NetworkState net(topo);
  sim::RouteAllocator allocator(topo, routing, SelectionPolicy::kInOrder,
                                sim::WaitOverride::kForceSpecific, 1);
  // Occupy every candidate from 0 toward 8 (both productive dirs).
  sim::Packet blocker;
  blocker.id = 99;
  for (ChannelId c : routing.route(topology::kInvalidChannel, 0, 8)) {
    net.owner(c) = blocker.id;
  }
  sim::Packet pkt;
  pkt.id = 1;
  pkt.src = 0;
  pkt.dst = 8;
  EXPECT_FALSE(allocator.attempt(pkt, topology::kInvalidChannel, 0, net));
  ASSERT_NE(pkt.committed_wait, topology::kInvalidChannel);
  const ChannelId committed = pkt.committed_wait;
  // Free the OTHER candidate: a committed packet must not take it.
  for (ChannelId c : routing.route(topology::kInvalidChannel, 0, 8)) {
    if (c != committed) net.owner(c) = sim::kNoPacket;
  }
  EXPECT_FALSE(allocator.attempt(pkt, topology::kInvalidChannel, 0, net));
  // Free the committed channel: now it proceeds and the commitment clears.
  net.owner(committed) = sim::kNoPacket;
  const auto acquired =
      allocator.attempt(pkt, topology::kInvalidChannel, 0, net);
  ASSERT_TRUE(acquired.has_value());
  EXPECT_EQ(*acquired, committed);
  EXPECT_EQ(pkt.committed_wait, topology::kInvalidChannel);
}

TEST(RouteAllocator, ForcedPathOverridesRelation) {
  const topology::Topology topo = topology::make_mesh({3, 3});
  const DimensionOrder routing(topo);
  sim::NetworkState net(topo);
  sim::RouteAllocator allocator(topo, routing, SelectionPolicy::kInOrder,
                                sim::WaitOverride::kFollowRouting, 1);
  sim::Packet pkt;
  pkt.id = 2;
  pkt.src = 0;
  pkt.dst = 8;
  // Force a Y-first hop, which dimension-order would never choose.
  const ChannelId y_first = topo.find_channel(0, 3, 0);
  ASSERT_NE(y_first, topology::kInvalidChannel);
  pkt.forced_path = {y_first};
  const auto acquired =
      allocator.attempt(pkt, topology::kInvalidChannel, 0, net);
  ASSERT_TRUE(acquired.has_value());
  EXPECT_EQ(*acquired, y_first);
  EXPECT_EQ(pkt.forced_next, 1u);
  // Script exhausted: no more candidates.
  EXPECT_TRUE(allocator.blocked_on(pkt, y_first, 3).empty());
}

}  // namespace
}  // namespace wormnet::routing
