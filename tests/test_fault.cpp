#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "test_helpers.hpp"

namespace wormnet::routing {
namespace {

using topology::make_mesh;
using topology::make_torus;

TEST(Fault, FilterRemovesFaultyChannels) {
  const Topology topo = make_mesh({4, 4}, 2);
  std::vector<bool> faulty(topo.num_channels(), false);
  EXPECT_EQ(mark_link_faulty(topo, 0, 1, faulty), 2u);
  FaultAwareRouting routing(topo, std::make_unique<UnrestrictedMinimal>(topo),
                            faulty);
  EXPECT_EQ(routing.fault_count(), 2u);  // both VCs of the link
  const auto out = routing.route(topology::kInvalidChannel, 0, 1);
  for (ChannelId c : out) {
    EXPECT_FALSE(routing.is_faulty(c));
    EXPECT_NE(topo.channel(c).dst, 1u);  // must detour... wait: minimal only
  }
  // Minimal relation with the only direct link dead: no candidates remain
  // toward an adjacent destination.
  EXPECT_TRUE(out.empty());
}

TEST(Fault, DeterministicRelationLosesConnectivity) {
  const Topology topo = make_mesh({4, 4});
  std::vector<bool> faulty(topo.num_channels(), false);
  // Fault the first X-hop of e-cube's unique path from (0,0) eastward.
  EXPECT_EQ(mark_link_faulty(topo, 0, 1, faulty), 1u);
  FaultAwareRouting routing(topo, std::make_unique<DimensionOrder>(topo),
                            faulty);
  const cdg::StateGraph states(topo, routing);
  EXPECT_FALSE(cdg::relation_connected(states));
}

TEST(Fault, AdaptiveLayerFaultIsTolerated) {
  // Kill one *adaptive* (vc1) channel of Duato's mesh construction: the
  // relation stays connected, the condition still holds, and the simulator
  // still delivers everything.
  const Topology topo = make_mesh({4, 4}, 2);
  std::vector<bool> faulty(topo.num_channels(), false);
  const ChannelId victim = topo.find_channel(5, 6, 1);
  ASSERT_NE(victim, topology::kInvalidChannel);
  faulty[victim] = true;
  FaultAwareRouting routing(topo, make_duato_mesh(topo), faulty);

  const cdg::StateGraph states(topo, routing);
  EXPECT_TRUE(cdg::relation_connected(states));
  const cdg::SearchResult search = cdg::search(states);
  EXPECT_TRUE(search.found);

  sim::SimConfig cfg;
  cfg.injection_rate = 0.2;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 2000;
  cfg.drain_cycles = 6000;
  cfg.seed = 4;
  const sim::SimStats stats = sim::run(topo, routing, cfg);
  EXPECT_FALSE(stats.deadlocked);
  EXPECT_EQ(stats.measured_delivered, stats.measured_created);
}

TEST(Fault, EscapeLayerFaultBreaksTheProof) {
  // Kill an *escape* (vc0) channel instead: escape-everywhere fails for the
  // canonical subfunction, and the checker no longer certifies via vc0.
  const Topology topo = make_mesh({4, 4}, 2);
  std::vector<bool> faulty(topo.num_channels(), false);
  const ChannelId victim = topo.find_channel(5, 6, 0);
  ASSERT_NE(victim, topology::kInvalidChannel);
  faulty[victim] = true;
  FaultAwareRouting routing(topo, make_duato_mesh(topo), faulty);

  const cdg::StateGraph states(topo, routing);
  std::vector<bool> c1(topo.num_channels(), false);
  for (ChannelId c = 0; c < topo.num_channels(); ++c) {
    if (topo.channel(c).vc == 0 && !faulty[c]) c1[c] = true;
  }
  const cdg::Subfunction sub(states, c1, "vc0-degraded");
  EXPECT_FALSE(sub.connected());
}

TEST(Fault, RandomFaultsAreDeterministic) {
  const Topology topo = make_torus({4, 4}, 2);
  const auto a = random_link_faults(topo, 3, 99);
  const auto b = random_link_faults(topo, 3, 99);
  EXPECT_EQ(a, b);
  const auto c = random_link_faults(topo, 3, 100);
  EXPECT_NE(a, c);
  std::size_t count = 0;
  for (bool f : a) count += f ? 1 : 0;
  EXPECT_EQ(count, 3u * 2u);  // 3 links x 2 VCs
}

TEST(Fault, MarkLinkFaultyReportsNonAdjacentPairs) {
  const Topology topo = make_mesh({3, 3}, 2);
  std::vector<bool> faulty;
  // (0,0) and (1,1) share no link: zero channels marked, mask untouched.
  EXPECT_EQ(mark_link_faulty(topo, 0, 4, faulty), 0u);
  EXPECT_EQ(std::count(faulty.begin(), faulty.end(), true), 0);
  // Marking an adjacent pair counts each channel once, even when repeated.
  EXPECT_EQ(mark_link_faulty(topo, 0, 1, faulty), 2u);
  EXPECT_EQ(mark_link_faulty(topo, 0, 1, faulty), 0u);
}

TEST(Fault, AllocatorFollowsLiveMask) {
  // The simulator routes a fault run by the pure relation; the allocator
  // filters it through the live epoch's dead mask.  hpl-minimal from (0,1)
  // to (0,0) routes — and waits, wait-specific — on both VCs of the one
  // southward link, so the mask alone decides candidates and commitment.
  const Topology topo = make_mesh({4, 4}, 2);
  const auto base = core::make_algorithm("hpl-minimal", topo);
  const NodeId at = topo.node_at(std::vector<std::uint32_t>{0, 1});
  const NodeId dest = topo.node_at(std::vector<std::uint32_t>{0, 0});
  const ChannelId vc0 = topo.find_channel(at, dest, 0);
  const ChannelId vc1 = topo.find_channel(at, dest, 1);
  ASSERT_EQ(base->route(topology::kInvalidChannel, at, dest),
            (ChannelSet{vc0, vc1}));
  ASSERT_EQ(base->waiting(topology::kInvalidChannel, at, dest),
            (ChannelSet{vc0, vc1}));

  // The schedule's steps, applied by hand below: vc0 dies, then vc1, then
  // both come back.
  std::string plan = "killch:";
  plan += std::to_string(vc0);
  plan += "@1+killch:";
  plan += std::to_string(vc1);
  plan += "@2+repairch:";
  plan += std::to_string(vc0);
  plan += "@3+repairch:";
  plan += std::to_string(vc1);
  plan += "@3";
  const auto schedule = reconfig::build_epoch_schedule(
      topo, ft::compile(ft::parse_fault_plan(plan), topo));
  const auto& steps = schedule->faults.steps;
  sim::LiveEpoch epoch(topo, *base, schedule.get());
  sim::RouteAllocator allocator(topo, *base, SelectionPolicy::kInOrder,
                                sim::WaitOverride::kFollowRouting,
                                /*seed=*/1, &epoch);
  sim::NetworkState net(topo);
  sim::Packet pkt;
  pkt.id = 1;
  pkt.src = at;
  pkt.dst = dest;
  const auto candidates = [&] {
    return allocator.blocked_on(pkt, topology::kInvalidChannel, at);
  };
  EXPECT_EQ(candidates(), (ChannelSet{vc0, vc1}));

  // Kill vc0 mid-lifetime: the candidates follow with no rebuild.
  (void)epoch.apply(steps[0]);
  EXPECT_EQ(candidates(), (ChannelSet{vc1}));

  // Blocked on the busy survivor, the header commits to the first *live*
  // waiting channel, never to the dead front of waiting().
  net.owner(vc1) = 2;
  EXPECT_FALSE(allocator.attempt(pkt, topology::kInvalidChannel, at, net));
  EXPECT_EQ(pkt.committed_wait, vc1);
  EXPECT_EQ(candidates(), (ChannelSet{vc1}));

  // A commitment to a channel that dies later is filtered out too (the
  // simulator voids it at the fault step).
  (void)epoch.apply(steps[1]);
  EXPECT_TRUE(candidates().empty());

  // With every waiting channel dead there is nothing to commit to, and a
  // repair restores the full candidate set.
  pkt.committed_wait = topology::kInvalidChannel;
  EXPECT_FALSE(allocator.attempt(pkt, topology::kInvalidChannel, at, net));
  EXPECT_EQ(pkt.committed_wait, topology::kInvalidChannel);
  (void)epoch.apply(steps[2]);
  EXPECT_EQ(candidates(), (ChannelSet{vc0, vc1}));
}

TEST(Fault, MaskSizeMismatchThrows) {
  const Topology topo = make_mesh({3, 3});
  EXPECT_THROW(FaultAwareRouting(topo,
                                 std::make_unique<UnrestrictedMinimal>(topo),
                                 std::vector<bool>(3, false)),
               std::invalid_argument);
}

TEST(Fault, NonminimalHplRoutesAroundFaults) {
  // HPL's nonminimal freedom below dimension p lets it pass a dead link
  // that would strand a minimal algorithm, for the pairs whose highest
  // negative dimension lies above the fault.
  const Topology topo = make_mesh({4, 4});
  std::vector<bool> faulty(topo.num_channels(), false);
  // Kill the eastward link in row 3 between (1,3) and (2,3).
  const NodeId a = topo.node_at(std::vector<std::uint32_t>{1, 3});
  const NodeId b = topo.node_at(std::vector<std::uint32_t>{2, 3});
  ASSERT_EQ(mark_link_faulty(topo, a, b, faulty), 1u);
  FaultAwareRouting hpl(topo, std::make_unique<HighestPositiveLast>(topo, true),
                        faulty);
  // A message from (0,3) to (3,0): needs +x, -y; p=1, so it may drop south
  // first and cross in another row — candidates must remain nonempty at the
  // fault site.
  const auto out = hpl.route(topology::kInvalidChannel, a,
                             topo.node_at(std::vector<std::uint32_t>{3, 0}));
  EXPECT_FALSE(out.empty());
}

TEST(Fault, RouteIntoMatchesRouteUnderFaultMask) {
  // Property: for seeded random fault masks, the wrapper's route() and
  // route_into() give the base relation's route() minus the dead channels,
  // in the base's order.  Both the wrapper and every base relation honour
  // the append contract: route_into appends after whatever the caller's
  // vector already holds and leaves that prefix alone.  The simulator's
  // relation table relies on route_into; the checkers and the certificate
  // auditor on route().
  std::size_t calls = 0;
  std::vector<std::string> mismatches;
  for (const char* spec : {"mesh:4x4:2", "torus:4x4:3", "hypercube:3:2"}) {
    const Topology topo = core::make_topology(spec);
    for (const core::AlgorithmEntry* alg : core::algorithms_for(topo)) {
      const auto base = alg->make(topo);
      for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        util::Xoshiro256 rng(seed);
        std::vector<bool> mask(topo.num_channels(), false);
        for (ChannelId c = 0; c < topo.num_channels(); ++c) {
          mask[c] = rng.chance(0.2);
        }
        const FaultAwareRouting wrapper(topo, alg->make(topo), mask);
        for (NodeId at = 0; at < topo.num_nodes(); ++at) {
          const auto in = topo.in_channels(at);
          for (NodeId dest = 0; dest < topo.num_nodes(); ++dest) {
            if (at == dest) continue;
            // The injection input plus one seeded arrival channel.
            const ChannelId arrival = in[rng.below(in.size())];
            for (ChannelId input : {topology::kInvalidChannel, arrival}) {
              const ChannelSet full = base->route(input, at, dest);
              ChannelSet filtered;
              for (ChannelId c : full) {
                if (!mask[c]) filtered.push_back(c);
              }
              const std::pair<const RoutingFunction*, const ChannelSet*>
                  relations[] = {{&wrapper, &filtered}, {base.get(), &full}};
              for (const auto& [relation, want] : relations) {
                ChannelSet got{topology::kInvalidChannel};
                relation->route_into(input, at, dest, got);
                ++calls;
                if (relation->route(input, at, dest) != *want ||
                    got.front() != topology::kInvalidChannel ||
                    !std::equal(want->begin(), want->end(), got.begin() + 1,
                                got.end())) {
                  mismatches.push_back(
                      std::string(spec) + " " + relation->name() + " seed " +
                      std::to_string(seed) + " at " + std::to_string(at) +
                      " dest " + std::to_string(dest));
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(calls, 5000u);
  EXPECT_TRUE(mismatches.empty()) << mismatches.size() << " mismatches, first: "
                                  << (mismatches.empty() ? "" : mismatches[0]);
}

}  // namespace
}  // namespace wormnet::routing
