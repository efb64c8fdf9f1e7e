#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace wormnet::sim {
namespace {

using topology::make_hypercube;
using topology::make_mesh;
using topology::make_torus;

/// Steps `sim` up to `cycles` times, checking every invariant (including
/// the no-lost-wakeup check on the waiter lists) after each cycle; stops
/// early at a detected deadlock.
void step_checked(Simulator& sim, int cycles) {
  for (int cycle = 0; cycle < cycles; ++cycle) {
    sim.step();
    ASSERT_NO_THROW(sim.validate_invariants()) << "cycle " << cycle;
    if (sim.deadlock_detected()) return;
  }
}

/// The channel path `routing` takes from src to dst when each hop follows
/// its first candidate.
std::vector<topology::ChannelId> first_choice_path(
    const topology::Topology& topo, const routing::RoutingFunction& routing,
    topology::NodeId src, topology::NodeId dst) {
  std::vector<topology::ChannelId> path;
  topology::ChannelId input = topology::kInvalidChannel;
  for (topology::NodeId at = src; at != dst;) {
    input = routing.route(input, at, dst).front();
    path.push_back(input);
    at = topo.channel(input).dst;
  }
  return path;
}

/// Blocking edges the flight recorder saw (non-vacuity: the wakeup check
/// only bites while some header is blocked).
std::size_t header_waits(const Simulator& sim) {
  std::size_t waits = 0;
  for (const obs::FlightEvent& ev : sim.flight().tail(sim.flight().capacity())) {
    if (ev.kind == obs::EventKind::kBlock) ++waits;
  }
  return waits;
}

// Wait-on-any: duato-mesh at load 0.4 (a blocked header waits on every
// candidate and is woken by a release of any of them).
TEST(SimInvariants, HoldEveryCycleUnderLoad) {
  const topology::Topology topo = make_mesh({4, 4}, 2);
  const auto routing = routing::make_duato_mesh(topo);
  SimConfig cfg;
  cfg.injection_rate = 0.4;
  cfg.packet_length = 6;
  cfg.buffer_depth = 2;
  cfg.seed = 77;
  Simulator sim(topo, *routing, cfg);
  step_checked(sim, 3000);
}

TEST(SimInvariants, WaitSpecificHplWakesOnItsCommitment) {
  // hpl commits a blocked header to one waiting channel, which need not be
  // the first candidate it evaluated: only that channel's release wakes it.
  const topology::Topology topo = make_mesh({4, 4});
  const routing::HighestPositiveLast routing(topo);
  SimConfig cfg;
  cfg.injection_rate = 0.4;
  cfg.packet_length = 6;
  cfg.buffer_depth = 2;
  cfg.seed = 5;
  Simulator sim(topo, routing, cfg);
  step_checked(sim, 3000);
  EXPECT_GT(header_waits(sim), 0u);
  EXPECT_FALSE(sim.deadlock_detected());
}

TEST(SimInvariants, WaitSpecificIncoherentUntilItDeadlocks) {
  // The Section-6 failure mode: wait-specific commitments on the incoherent
  // example wedge the network; the wakeup invariant holds all the way in.
  const topology::Topology topo = routing::make_incoherent_net();
  const routing::IncoherentRouting routing(topo, /*wait_specific=*/true);
  SimConfig cfg = test::stress_config();
  cfg.injection_rate = 0.9;
  cfg.packet_length = 12;
  cfg.seed = 3;
  Simulator sim(topo, routing, cfg);
  step_checked(sim, 20000);
  EXPECT_TRUE(sim.deadlock_detected());
}

TEST(SimInvariants, ForcedPathsContending) {
  // Scripted packets pinned to their dimension-order paths, all injected in
  // the same few cycles so their headers queue behind each other's worms.
  const topology::Topology topo = make_mesh({4, 4});
  const routing::DimensionOrder routing(topo);
  SimConfig cfg;
  cfg.scripted_only = true;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 50;
  cfg.drain_cycles = 2000;
  cfg.buffer_depth = 2;
  for (std::uint32_t x = 0; x < 4; ++x) {
    for (std::uint32_t y = 0; y < 4; ++y) {
      const topology::NodeId src =
          topo.node_at(std::vector<std::uint32_t>{x, y});
      const topology::NodeId dst =
          topo.node_at(std::vector<std::uint32_t>{3 - y, x});
      if (src == dst) continue;
      ScriptedPacket pkt;
      pkt.src = src;
      pkt.dst = dst;
      pkt.length = 10;
      pkt.inject_cycle = (x + y) % 3;
      pkt.forced_path = first_choice_path(topo, routing, src, dst);
      cfg.script.push_back(pkt);
    }
  }
  Simulator sim(topo, routing, cfg);
  step_checked(sim, 600);
  EXPECT_GT(header_waits(sim), 0u);
  EXPECT_EQ(sim.packets_in_flight(), 0u);
  EXPECT_FALSE(sim.deadlock_detected());
}

TEST(SimInvariants, HoldAcrossFaultAbortRetry) {
  // A killed adaptive VC mid-window plus abort-retry recovery: fault steps
  // and aborts wake every blocked header; releases wake only their waiters.
  const topology::Topology topo = make_mesh({4, 4}, 2);
  const auto routing = routing::make_duato_mesh(topo);
  const ft::CompiledFaultPlan plan = ft::compile(
      ft::parse_fault_plan("killch:27@100+killch:40@300+repairch:27@900"),
      topo);
  SimConfig cfg;
  cfg.injection_rate = 0.5;
  cfg.packet_length = 6;
  cfg.buffer_depth = 2;
  cfg.warmup_cycles = 50;
  cfg.measure_cycles = 1500;
  cfg.drain_cycles = 3000;
  cfg.deadlock_check_interval = 64;
  cfg.seed = 11;
  cfg.schedule = reconfig::build_epoch_schedule(topo, plan);
  cfg.recovery.policy = ft::RecoveryPolicy::kAbortRetry;
  cfg.recovery.packet_timeout = 120;
  cfg.recovery.retry_budget = 3;
  Simulator sim(topo, *routing, cfg);
  step_checked(sim, 2500);
  const SimStats stats = sim.run();
  EXPECT_GT(stats.fault_epochs, 0u);
  EXPECT_GT(stats.packets_aborted, 0u);
}

TEST(SimInvariants, HoldAcrossTransitionCutovers) {
  // A staged e-cube -> west-first ramp: source fronts toward a switched
  // destination re-route under the new relation after each cutover.
  const topology::Topology topo = make_mesh({4, 4});
  const routing::DimensionOrder routing(topo);
  reconfig::CompiledTransitionPlan plan = reconfig::compile(
      reconfig::parse_transition_plan("ramp:west-first/4/100@200"), topo,
      "e-cube");
  SimConfig cfg;
  cfg.injection_rate = 0.5;
  cfg.packet_length = 6;
  cfg.buffer_depth = 2;
  cfg.warmup_cycles = 100;
  cfg.measure_cycles = 1500;
  cfg.drain_cycles = 2000;
  cfg.seed = 13;
  cfg.schedule = reconfig::build_epoch_schedule(topo, {}, std::move(plan));
  Simulator sim(topo, routing, cfg);
  step_checked(sim, 2000);
  const SimStats stats = sim.run();
  EXPECT_FALSE(stats.deadlocked);
  EXPECT_EQ(stats.reconfig_epochs, 4u);
}

TEST(SimInvariants, HoldDuringDeadlock) {
  // Even a wedged network must keep the structural invariants.
  const topology::Topology topo = topology::make_unidirectional_ring(4, 1);
  const routing::UnrestrictedMinimal routing(topo);
  SimConfig cfg = test::stress_config();
  cfg.injection_rate = 0.9;
  cfg.packet_length = 12;
  Simulator sim(topo, routing, cfg);
  step_checked(sim, 2000);
  EXPECT_TRUE(sim.deadlock_detected());
  sim.validate_invariants();
}

TEST(SimInvariants, HoldAcrossPatternsAndPolicies) {
  const topology::Topology topo = make_torus({4, 4}, 3);
  const auto routing = routing::make_duato_torus(topo);
  for (Pattern pattern : {Pattern::kUniform, Pattern::kTranspose,
                          Pattern::kTornado, Pattern::kHotspot}) {
    SimConfig cfg;
    cfg.injection_rate = 0.3;
    cfg.pattern = pattern;
    cfg.selection = routing::SelectionPolicy::kRandom;
    cfg.seed = 31;
    Simulator sim(topo, *routing, cfg);
    for (int cycle = 0; cycle < 1200; ++cycle) sim.step();
    ASSERT_NO_THROW(sim.validate_invariants()) << to_string(pattern);
  }
}

TEST(SimInvariants, WatchdogCatchesSilentStall) {
  // A forced-path packet whose script ends short of its destination can
  // neither move nor wait on anything — invisible to the wait-for-graph
  // detector, caught by the no-progress watchdog.
  const topology::Topology topo = make_mesh({4, 4});
  const routing::DimensionOrder routing(topo);
  SimConfig cfg;
  cfg.scripted_only = true;
  ScriptedPacket pkt;
  pkt.src = 0;
  pkt.dst = topo.node_at(std::vector<std::uint32_t>{3, 0});
  pkt.length = 4;
  pkt.forced_path = {topo.find_channel(0, 1, 0)};  // stops after one hop
  cfg.script.push_back(pkt);
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 100;
  cfg.drain_cycles = 10000;
  cfg.watchdog_cycles = 500;
  cfg.deadlock_check_interval = 32;
  const SimStats stats = run(topo, routing, cfg);
  EXPECT_TRUE(stats.deadlocked);
  EXPECT_TRUE(stats.deadlock.from_watchdog);
}

}  // namespace
}  // namespace wormnet::sim
