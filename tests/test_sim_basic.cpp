#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace wormnet::sim {
namespace {

using topology::make_hypercube;
using topology::make_mesh;
using topology::make_torus;

TEST(SimBasic, SinglePacketDeliveredWithPipelineLatency) {
  const topology::Topology topo = make_mesh({4, 4});
  const routing::DimensionOrder routing(topo);
  SimConfig cfg;
  cfg.scripted_only = true;
  ScriptedPacket pkt;
  pkt.src = 0;
  pkt.dst = topo.node_at(std::vector<std::uint32_t>{3, 3});
  pkt.length = 5;
  pkt.inject_cycle = 0;
  cfg.script.push_back(pkt);
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 100;
  cfg.drain_cycles = 400;

  Simulator sim(topo, routing, cfg);
  const SimStats stats = sim.run();
  EXPECT_FALSE(stats.deadlocked);
  EXPECT_EQ(stats.packets_delivered, 1u);
  const Packet& p = sim.packet(0);
  EXPECT_TRUE(p.done);
  // Wormhole pipeline: ~hops + length cycles, plus per-hop overheads from
  // the allocate-then-move model.  Bound it sensibly rather than exactly.
  const std::uint64_t lower = topo.distance(pkt.src, pkt.dst) + pkt.length - 1;
  EXPECT_GE(p.finished - p.created, lower);
  EXPECT_LE(p.finished - p.created, 4 * lower + 16);
  // Path legality: consecutive channels chain from src to dst.
  ASSERT_FALSE(p.path.empty());
  EXPECT_EQ(topo.channel(p.path.front()).src, pkt.src);
  EXPECT_EQ(topo.channel(p.path.back()).dst, pkt.dst);
  for (std::size_t i = 0; i + 1 < p.path.size(); ++i) {
    EXPECT_EQ(topo.channel(p.path[i]).dst, topo.channel(p.path[i + 1]).src);
  }
  EXPECT_EQ(p.path.size(), topo.distance(pkt.src, pkt.dst));
}

TEST(SimBasic, AllPacketsDeliveredAtLowLoad) {
  const topology::Topology topo = make_mesh({4, 4}, 2);
  const auto routing = routing::make_duato_mesh(topo);
  SimConfig cfg;
  cfg.injection_rate = 0.05;
  cfg.packet_length = 4;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 2000;
  cfg.drain_cycles = 4000;
  cfg.seed = 3;
  const SimStats stats = run(topo, *routing, cfg);
  EXPECT_FALSE(stats.deadlocked);
  EXPECT_FALSE(stats.saturated);
  EXPECT_GT(stats.measured_created, 0u);
  EXPECT_EQ(stats.measured_delivered, stats.measured_created);
  EXPECT_GT(stats.avg_latency, 0.0);
  EXPECT_GE(stats.p99_latency, stats.p50_latency);
}

TEST(SimBasic, DeterministicAcrossRuns) {
  const topology::Topology topo = make_mesh({4, 4});
  const routing::DimensionOrder routing(topo);
  SimConfig cfg;
  cfg.injection_rate = 0.1;
  cfg.warmup_cycles = 100;
  cfg.measure_cycles = 1000;
  cfg.seed = 42;
  const SimStats a = run(topo, routing, cfg);
  const SimStats b = run(topo, routing, cfg);
  EXPECT_EQ(a.packets_created, b.packets_created);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_DOUBLE_EQ(a.avg_latency, b.avg_latency);
  EXPECT_EQ(a.cycles_run, b.cycles_run);
}

TEST(SimBasic, DifferentSeedsDiffer) {
  const topology::Topology topo = make_mesh({4, 4});
  const routing::DimensionOrder routing(topo);
  SimConfig cfg;
  cfg.injection_rate = 0.1;
  cfg.warmup_cycles = 100;
  cfg.measure_cycles = 1000;
  cfg.seed = 1;
  const SimStats a = run(topo, routing, cfg);
  cfg.seed = 2;
  const SimStats b = run(topo, routing, cfg);
  EXPECT_NE(a.packets_created, b.packets_created);
}

TEST(SimBasic, ThroughputTracksOfferedLoadBelowSaturation) {
  const topology::Topology topo = make_mesh({4, 4}, 2);
  const auto routing = routing::make_duato_mesh(topo);
  SimConfig cfg;
  cfg.injection_rate = 0.08;
  cfg.packet_length = 4;
  cfg.warmup_cycles = 500;
  cfg.measure_cycles = 4000;
  cfg.drain_cycles = 6000;
  cfg.seed = 11;
  const SimStats stats = run(topo, *routing, cfg);
  EXPECT_FALSE(stats.deadlocked);
  EXPECT_NEAR(stats.accepted_throughput, 0.08, 0.02);
}

TEST(SimBasic, HigherLoadHigherLatency) {
  const topology::Topology topo = make_mesh({4, 4}, 2);
  const auto routing = routing::make_duato_mesh(topo);
  SimConfig low;
  low.injection_rate = 0.05;
  low.warmup_cycles = 300;
  low.measure_cycles = 3000;
  low.seed = 5;
  SimConfig high = low;
  high.injection_rate = 0.30;
  const SimStats a = run(topo, *routing, low);
  const SimStats b = run(topo, *routing, high);
  ASSERT_FALSE(a.deadlocked);
  ASSERT_FALSE(b.deadlocked);
  EXPECT_GT(b.avg_latency, a.avg_latency);
}

TEST(SimBasic, SingleFlitPackets) {
  const topology::Topology topo = make_mesh({3, 3});
  const routing::DimensionOrder routing(topo);
  SimConfig cfg;
  cfg.injection_rate = 0.1;
  cfg.packet_length = 1;
  cfg.warmup_cycles = 100;
  cfg.measure_cycles = 1000;
  cfg.drain_cycles = 2000;
  const SimStats stats = run(topo, routing, cfg);
  EXPECT_FALSE(stats.deadlocked);
  EXPECT_GT(stats.packets_delivered, 0u);
  EXPECT_EQ(stats.measured_delivered, stats.measured_created);
}

TEST(SimBasic, FlitConservation) {
  // Every injected flit is eventually ejected (no creation or loss).
  const topology::Topology topo = make_torus({4, 4}, 2);
  const routing::DatelineRouting routing(topo);
  SimConfig cfg;
  cfg.injection_rate = 0.1;
  cfg.packet_length = 6;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 2000;
  cfg.drain_cycles = 6000;
  Simulator sim(topo, routing, cfg);
  const SimStats stats = sim.run();
  ASSERT_FALSE(stats.deadlocked);
  ASSERT_EQ(stats.packets_delivered, stats.packets_created);
  for (PacketId id = 0; id < stats.packets_created; ++id) {
    const Packet& p = sim.packet(id);
    EXPECT_EQ(p.flits_injected, p.length);
    EXPECT_EQ(p.flits_ejected, p.length);
  }
  // All queues drained.
  for (topology::ChannelId c = 0; c < topo.num_channels(); ++c) {
    EXPECT_EQ(sim.network().occupancy(c), 0u);
    EXPECT_EQ(sim.network().owner(c), kNoPacket);
  }
}

TEST(SimBasic, BufferDepthOneWorks) {
  const topology::Topology topo = make_mesh({3, 3});
  const routing::DimensionOrder routing(topo);
  SimConfig cfg;
  cfg.injection_rate = 0.05;
  cfg.buffer_depth = 1;
  cfg.warmup_cycles = 100;
  cfg.measure_cycles = 1000;
  cfg.drain_cycles = 4000;
  const SimStats stats = run(topo, routing, cfg);
  EXPECT_FALSE(stats.deadlocked);
  EXPECT_EQ(stats.measured_delivered, stats.measured_created);
}

// Selection policies all deliver correctly on an adaptive algorithm.
class SelectionPolicies
    : public ::testing::TestWithParam<routing::SelectionPolicy> {};

TEST_P(SelectionPolicies, DuatoMeshDelivers) {
  const topology::Topology topo = make_mesh({4, 4}, 2);
  const auto routing = routing::make_duato_mesh(topo);
  SimConfig cfg;
  cfg.injection_rate = 0.15;
  cfg.selection = GetParam();
  cfg.warmup_cycles = 300;
  cfg.measure_cycles = 2000;
  cfg.drain_cycles = 6000;
  cfg.seed = 17;
  const SimStats stats = run(topo, *routing, cfg);
  EXPECT_FALSE(stats.deadlocked);
  EXPECT_EQ(stats.measured_delivered, stats.measured_created);
}

INSTANTIATE_TEST_SUITE_P(
    All, SelectionPolicies,
    ::testing::Values(routing::SelectionPolicy::kInOrder,
                      routing::SelectionPolicy::kRandom));

}  // namespace
}  // namespace wormnet::sim
