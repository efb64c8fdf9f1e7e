// Self-healing reconfiguration battery (DESIGN 3.13): automatic rollback,
// drain-then-switch fallback, and the fault x reconfig composed space.
//
// The guard walk of build_epoch_schedule follows the merged fault x
// transition timeline and certifies every prospective composed epoch.
// Where an epoch is refuted it picks the repair the simulator will apply
// live:
//
//   * rollback — the union of everything currently live plus the base
//     relation everywhere is certified, so migrated destinations revert to
//     version 0 while in-flight packets keep their stamped route_version
//     (packet conservation: delivered == created, nothing dropped);
//   * drain-then-switch — even rollback is uncertifiable; the network
//     drains (conservation: delivered + dropped == created) and the steady
//     state applies through an empty network.
//
// The composed differential property extends DESIGN 3.12's per-axis one: a
// simulated deadlock on a composed (fault x transition) point implies some
// composed epoch refused to certify, and the property is non-vacuous in
// both directions — the battery pins a certified composed point delivering
// 100% and a refuted composed point that genuinely deadlocks.
//
// The rollback campaign JSONL is pinned byte-for-byte against
// tests/golden/rollback_campaign.jsonl across thread counts 1..8.
// Regenerate fixtures:  WORMNET_UPDATE_GOLDEN=1 ./test_reconfig_rollback
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "wormnet/core/registry.hpp"
#include "wormnet/exp/sweep_io.hpp"
#include "wormnet/exp/sweep_runner.hpp"
#include "wormnet/ft/fault_plan.hpp"
#include "wormnet/ft/recovery.hpp"
#include "wormnet/obs/flight.hpp"
#include "wormnet/reconfig/schedule.hpp"
#include "wormnet/reconfig/transition_plan.hpp"
#include "wormnet/sim/simulator.hpp"

namespace wormnet::reconfig {
namespace {

#ifndef WORMNET_GOLDEN_DIR
#error "tests/CMakeLists.txt must define WORMNET_GOLDEN_DIR"
#endif

/// The load point every scenario runs at (the campaign standard: high
/// enough that refuted epochs reliably deadlock, low enough that certified
/// ones deliver everything).
sim::SimConfig base_config() {
  sim::SimConfig cfg;
  cfg.injection_rate = 0.8;
  cfg.seed = 9;
  cfg.packet_length = 8;
  cfg.buffer_depth = 2;
  cfg.warmup_cycles = 100;
  cfg.measure_cycles = 2000;
  cfg.drain_cycles = 6000;
  cfg.deadlock_check_interval = 64;
  return cfg;
}

std::size_t count_flight(const sim::Simulator& simulator,
                         obs::EventKind kind) {
  std::size_t n = 0;
  for (const obs::FlightEvent& ev : simulator.flight().snapshot()) {
    if (ev.kind == kind) ++n;
  }
  return n;
}

/// Counts destinations routed by any non-base version in a union spec —
/// the knob the stub certifiers below decide on.
std::size_t non_base_dests(const UnionSpec& spec) {
  std::size_t n = 0;
  for (std::size_t d = 0; d < spec.num_nodes; ++d) {
    for (std::size_t v = 1; v < spec.active.size(); ++v) {
      if (spec.active[v][d]) {
        ++n;
        break;
      }
    }
  }
  return n;
}

// --- guard decisions, real certifier -------------------------------------

TEST(TransitionGuard, CertifiedPlanProceedsEverywhere) {
  const topology::Topology topo = core::make_topology("mesh:3x3:1");
  const auto schedule = build_epoch_schedule(
      topo, {},
      compile(parse_transition_plan("switch:west-first@300"), topo, "e-cube"),
      GuardWalk{});
  ASSERT_EQ(schedule->steps.size(), schedule->plan.steps.size());
  EXPECT_TRUE(schedule->all_proceed());
  for (const EpochStep& step : schedule->steps) {
    const GuardDecision& d = step.decision;
    EXPECT_EQ(d.action, GuardAction::kProceed);
    // The judged epoch is canonical relation text, and a transition-only
    // walk is pristine: a union with no fault mask.
    const RelationExpr epoch = RelationExpr::parse(d.epoch, topo);
    EXPECT_TRUE(epoch.transition.has_value()) << d.epoch;
    EXPECT_TRUE(epoch.fault_mask.empty()) << d.epoch;
  }
}

TEST(TransitionGuard, RollbackOfARefutedSwitchIsCertified) {
  // e-cube + negative-first close a turn cycle neither permits alone: the
  // switch's union epoch is refuted with *nothing yet migrated*, so the
  // certified repair is a rollback with an empty cutover — the transition
  // simply never starts.
  const topology::Topology topo = core::make_topology("mesh:3x3:1");
  const auto schedule = build_epoch_schedule(
      topo, {},
      compile(parse_transition_plan("switch:negative-first@300"), topo,
              "e-cube"),
      GuardWalk{});
  ASSERT_EQ(schedule->steps.size(), 1u);
  EXPECT_FALSE(schedule->all_proceed());
  const GuardDecision& d = schedule->steps[0].decision;
  EXPECT_EQ(d.action, GuardAction::kRollback);
  EXPECT_TRUE(d.cutover.assignments.empty());
  EXPECT_TRUE(RelationExpr::parse(d.epoch, topo).transition.has_value());
  EXPECT_TRUE(
      RelationExpr::parse(d.rollback_epoch, topo).transition.has_value());
}

// --- guard decisions + live repair, stub certifiers ----------------------

/// Two-stage migration whose second stage a stub certifier refuses: the
/// first four destinations are live on the target when the refusal lands,
/// so the rollback cutover must revert exactly those four.
constexpr const char* kStagedPlan =
    "stage:west-first/0-3@300+stage:west-first/4-8@600";

TEST(TransitionGuard, MidPlanRefutationRollsBackMigratedDests) {
  const topology::Topology topo = core::make_topology("mesh:3x3:1");
  const auto routing = core::make_algorithm("e-cube", topo);
  CompiledTransitionPlan plan =
      compile(parse_transition_plan(kStagedPlan), topo, "e-cube");
  // Accept any epoch touching at most four destinations: stage one (4)
  // certifies, stage two (9) is refuted, and the rollback union (the four
  // already-migrated destinations plus base) certifies again.
  const GuardCertifier accept_small = [](const RelationExpr& relation) {
    return non_base_dests(*relation.transition) <= 4;
  };
  const auto schedule = build_epoch_schedule(topo, {}, std::move(plan),
                                             GuardWalk{accept_small});
  const std::vector<EpochStep>& steps = schedule->steps;
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps[0].decision.action, GuardAction::kProceed);
  ASSERT_EQ(steps[1].decision.action, GuardAction::kRollback);
  ASSERT_EQ(steps[1].decision.cutover.assignments.size(), 4u);
  for (const CutoverAssignment& a : steps[1].decision.cutover.assignments) {
    EXPECT_LE(a.dest, 3u);
    EXPECT_EQ(a.version, 0u);  // back to the base relation
  }

  // Live repair: the rollback preserves every packet (in-flight ones keep
  // their stamped version) and the run finishes clean.
  sim::SimConfig cfg = base_config();
  cfg.schedule = schedule;
  cfg.flight_capacity = 1u << 20;  // the default 1024-slot ring would wrap
  sim::Simulator simulator(topo, *routing, cfg);
  const sim::SimStats stats = simulator.run();
  EXPECT_FALSE(stats.deadlocked);
  EXPECT_EQ(stats.rollbacks, 1u);
  EXPECT_EQ(stats.rollback_dests, 4u);
  EXPECT_EQ(stats.drain_switches, 0u);
  EXPECT_EQ(stats.packets_delivered, stats.packets_created);
  EXPECT_EQ(stats.packets_dropped, 0u);
  EXPECT_GE(count_flight(simulator, obs::EventKind::kRollback), 1u);
}

TEST(TransitionGuard, UncertifiableRollbackFallsBackToDrainThenSwitch) {
  const topology::Topology topo = core::make_topology("mesh:3x3:1");
  const auto routing = core::make_algorithm("e-cube", topo);
  CompiledTransitionPlan plan =
      compile(parse_transition_plan(kStagedPlan), topo, "e-cube");
  // Accept only the first consulted epoch.  The walk is sequential, so the
  // calls are: stage-one union (accepted), stage-two union (refused), then
  // the rollback union (refused) — leaving drain-then-switch as the only
  // repair.  This also pins the walk's consultation order.
  std::size_t calls = 0;
  const GuardCertifier accept_first = [&calls](const RelationExpr&) {
    return ++calls == 1;
  };
  const auto schedule = build_epoch_schedule(topo, {}, std::move(plan),
                                             GuardWalk{accept_first});
  const std::vector<EpochStep>& steps = schedule->steps;
  EXPECT_EQ(calls, 3u);
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps[0].decision.action, GuardAction::kProceed);
  ASSERT_EQ(steps[1].decision.action, GuardAction::kDrainThenSwitch);
  // The deferred cutover lands every destination on its steady version.
  ASSERT_FALSE(steps[1].decision.cutover.assignments.empty());
  for (const CutoverAssignment& a : steps[1].decision.cutover.assignments) {
    EXPECT_EQ(a.version, 1u);  // steady state: west-first everywhere
  }

  // Live repair: draining conserves packets — delivered + dropped is
  // exactly created, and the post-drain steady state does not deadlock.
  sim::SimConfig cfg = base_config();
  cfg.schedule = schedule;
  cfg.flight_capacity = 1u << 20;
  sim::Simulator simulator(topo, *routing, cfg);
  const sim::SimStats stats = simulator.run();
  EXPECT_FALSE(stats.deadlocked);
  EXPECT_EQ(stats.rollbacks, 0u);
  EXPECT_EQ(stats.drain_switches, 1u);
  EXPECT_EQ(stats.packets_delivered + stats.packets_dropped,
            stats.packets_created);
  EXPECT_GE(count_flight(simulator, obs::EventKind::kDrainSwitch), 1u);
}

// --- chaos: a fault refutes an already-certified ramp mid-flight ---------

TEST(TransitionGuard, ChaosKillchMidRampRollsBackAndDeliversEverything) {
  // On the 2-VC 4x4 mesh the first negative-first ramp batch certifies,
  // the second's cumulative union is refuted, and the guard's pre-walked
  // repair reverts the four migrated destinations live — no drain, no
  // loss.  killch:3@420 then lands on the *healed* network, where the
  // ordinary per-fault-epoch verification covers the pure base relation:
  // the chaos run absorbs both the refutation and the kill with zero
  // deadlock and 100% delivery.
  const topology::Topology topo = core::make_topology("mesh:4x4:2");
  const auto routing = core::make_algorithm("e-cube", topo);
  const auto schedule = build_epoch_schedule(
      topo, ft::compile(ft::parse_fault_plan("killch:3@420"), topo),
      compile(parse_transition_plan("ramp:negative-first/4/50@300"), topo,
              "e-cube"),
      GuardWalk{});
  // Cutovers at 300, 350, 400 and 450; the kill at 420 is step 3.
  const std::vector<EpochStep>& steps = schedule->steps;
  ASSERT_EQ(steps.size(), 5u);
  EXPECT_EQ(steps[0].decision.action, GuardAction::kProceed);
  ASSERT_EQ(steps[1].decision.action, GuardAction::kRollback);
  EXPECT_EQ(steps[1].decision.cutover.assignments.size(), 4u);
  ASSERT_EQ(steps[3].kind, EpochStep::Kind::kFault);
  EXPECT_EQ(steps[3].decision.action, GuardAction::kProceed);

  sim::SimConfig cfg = base_config();
  cfg.schedule = schedule;
  cfg.flight_capacity = 1u << 20;
  sim::Simulator simulator(topo, *routing, cfg);
  const sim::SimStats stats = simulator.run();
  EXPECT_FALSE(stats.deadlocked);
  EXPECT_EQ(stats.rollbacks, 1u);
  EXPECT_EQ(stats.rollback_dests, 4u);
  EXPECT_EQ(stats.packets_delivered, stats.packets_created);
  EXPECT_EQ(stats.packets_dropped, 0u);
  EXPECT_GE(count_flight(simulator, obs::EventKind::kRollback), 1u);
}

// --- postmortem stamps: the relation live at capture ---------------------

/// (cycle, relation) of every postmortem of a run on `schedule` in which
/// each packet stalled for 16 cycles is aborted and dropped: the
/// retry-exhaustion captures sample the live epoch across the timeline.
std::vector<std::pair<std::uint64_t, std::string>> sample_stamps(
    const topology::Topology& topo, const std::string& base,
    std::shared_ptr<const EpochSchedule> schedule) {
  const auto routing = core::make_algorithm(base, topo);
  sim::SimConfig cfg = base_config();
  cfg.schedule = std::move(schedule);
  cfg.recovery.policy = ft::RecoveryPolicy::kAbortRetry;
  cfg.recovery.retry_budget = 0;
  cfg.recovery.packet_timeout = 16;
  cfg.max_postmortems = 10000;
  sim::Simulator simulator(topo, *routing, cfg);
  (void)simulator.run();
  std::vector<std::pair<std::uint64_t, std::string>> stamps;
  for (const obs::RuntimePostmortem& pm : simulator.postmortems()) {
    stamps.emplace_back(pm.cycle, pm.relation);
    EXPECT_EQ(pm.steady_state,
              RelationExpr(cfg.schedule->plan.steady_state()).to_string());
  }
  return stamps;
}

TEST(PostmortemStamp, NamesTheRollbackUnionAfterARepair) {
  const topology::Topology topo = core::make_topology("mesh:3x3:1");
  const GuardCertifier accept_small = [](const RelationExpr& relation) {
    return non_base_dests(*relation.transition) <= 4;
  };
  const auto schedule = build_epoch_schedule(
      topo, {}, compile(parse_transition_plan(kStagedPlan), topo, "e-cube"),
      GuardWalk{accept_small});
  const std::vector<EpochStep>& steps = schedule->steps;
  ASSERT_EQ(steps[1].decision.action, GuardAction::kRollback);
  std::size_t after_repair = 0;
  for (const auto& [cycle, relation] : sample_stamps(topo, "e-cube",
                                                     schedule)) {
    if (cycle < steps[0].cycle) {
      EXPECT_EQ(relation, "e-cube") << cycle;
    } else if (cycle > steps[0].cycle && cycle < steps[1].cycle) {
      EXPECT_EQ(relation, steps[0].decision.epoch) << cycle;
    } else if (cycle > steps[1].cycle) {
      EXPECT_EQ(relation, steps[1].decision.rollback_epoch) << cycle;
      ++after_repair;
    }
  }
  EXPECT_GT(after_repair, 0u);
}

TEST(PostmortemStamp, NamesTheSteadyStateOnceADrainSwitchCompletes) {
  const topology::Topology topo = core::make_topology("mesh:3x3:1");
  std::size_t calls = 0;
  const GuardCertifier accept_first = [&calls](const RelationExpr&) {
    return ++calls == 1;
  };
  const auto schedule = build_epoch_schedule(
      topo, {}, compile(parse_transition_plan(kStagedPlan), topo, "e-cube"),
      GuardWalk{accept_first});
  const std::vector<EpochStep>& steps = schedule->steps;
  ASSERT_EQ(steps[1].decision.action, GuardAction::kDrainThenSwitch);
  // While the network drains, the union the refused stage left live stays
  // live; once it is empty, only the steady state routes.
  const std::string steady =
      RelationExpr(schedule->plan.steady_state()).to_string();
  const auto stamps = sample_stamps(topo, "e-cube", schedule);
  ASSERT_FALSE(stamps.empty());
  EXPECT_EQ(stamps.back().second, steady);
  for (const auto& [cycle, relation] : stamps) {
    if (cycle > steps[1].cycle && relation != steady) {
      EXPECT_EQ(relation, steps[0].decision.epoch) << cycle;
    }
  }
}

TEST(PostmortemStamp, AFaultAfterARollbackMasksTheRollbackUnion) {
  // The chaos plan: the second ramp batch is rolled back at 350, then
  // killch:3@420 degrades the rollback union.  The row never verified that
  // composed epoch (the walk stops at its repair); the stamp still names
  // it, mask and all.
  const topology::Topology topo = core::make_topology("mesh:4x4:2");
  const auto schedule = build_epoch_schedule(
      topo, ft::compile(ft::parse_fault_plan("killch:3@420"), topo),
      compile(parse_transition_plan("ramp:negative-first/4/50@300"), topo,
              "e-cube"),
      GuardWalk{});
  const std::vector<EpochStep>& steps = schedule->steps;
  ASSERT_EQ(steps[1].decision.action, GuardAction::kRollback);
  std::vector<bool> dead(topo.num_channels(), false);
  dead[3] = true;
  RelationExpr masked = RelationExpr::parse(steps[1].decision.rollback_epoch,
                                            topo);
  masked.fault_mask = dead;
  std::size_t after_kill = 0;
  for (const auto& [cycle, relation] : sample_stamps(topo, "e-cube",
                                                     schedule)) {
    if (cycle > steps[1].cycle && cycle < steps[3].cycle) {
      EXPECT_EQ(relation, steps[1].decision.rollback_epoch) << cycle;
    } else if (cycle > steps[3].cycle) {
      EXPECT_EQ(relation, masked.to_string()) << cycle;
      ++after_kill;
    }
  }
  EXPECT_GT(after_kill, 0u);
}

}  // namespace
}  // namespace wormnet::reconfig

// --- the composed differential property (exp layer) ----------------------

namespace wormnet::exp {
namespace {

SweepSpec one_point_spec(const std::string& topo, const std::string& fault,
                         const std::string& reconfig) {
  SweepSpec spec;
  spec.topologies = {topo};
  spec.routings = {"e-cube"};
  spec.fault_plans = {fault};
  spec.reconfig_plans = {reconfig};
  spec.loads = {0.8};
  spec.replications = 1;
  spec.seed = 9;
  spec.base.packet_length = 8;
  spec.base.buffer_depth = 2;
  spec.base.warmup_cycles = 100;
  spec.base.measure_cycles = 2000;
  spec.base.drain_cycles = 6000;
  spec.base.deadlock_check_interval = 64;
  return spec;
}

/// Deadlock on a composed point implies an uncertified composed epoch —
/// non-vacuous in both directions.
TEST(ComposedDifferential, CertifiedCompositionDeliversEverything) {
  // killch:3@400 lands mid-ramp, yet every composed union (west-first
  // partial unions under the degraded mask) certifies: the point stays
  // certified and must behave like one.
  const SweepOutcome outcome = run_sweep(
      one_point_spec("mesh:4x4:2", "killch:3@400", "ramp:west-first/4/50@300"),
      {});
  ASSERT_EQ(outcome.results.size(), 1u);
  const SweepResult& r = outcome.results[0];
  EXPECT_TRUE(r.certified);
  EXPECT_GT(r.composed_epochs, 0u);
  EXPECT_EQ(r.uncertified_composed_epochs, 0u);
  EXPECT_FALSE(r.stats.deadlocked);
  EXPECT_EQ(r.stats.packets_delivered, r.stats.packets_created);
  EXPECT_EQ(r.stats.packets_dropped, 0u);
  EXPECT_EQ(outcome.aggregate.certified_deadlocks, 0u);
}

TEST(ComposedDifferential, RefutedCompositionIsAllowedToDeadlock) {
  // The same staged west-first migration certifies on the pristine 3x3
  // mesh, but killch:2@500 degrades both remaining composed unions —
  // and without the rollback opt-in the run genuinely deadlocks.  The
  // differential direction: the deadlock lands on an *uncertified* point.
  const SweepOutcome outcome = run_sweep(
      one_point_spec("mesh:3x3:1", "killch:2@500",
                     "stage:west-first/0-3@300+stage:west-first/4-8@600"),
      {});
  ASSERT_EQ(outcome.results.size(), 1u);
  const SweepResult& r = outcome.results[0];
  EXPECT_FALSE(r.certified);
  EXPECT_EQ(r.uncertified_transition_epochs, 0u);  // pristine unions fine
  EXPECT_GT(r.uncertified_composed_epochs, 0u);    // the composition isn't
  EXPECT_TRUE(r.stats.deadlocked);
  EXPECT_EQ(outcome.aggregate.certified_deadlocks, 0u);
}

TEST(ComposedDifferential, RollbackOptInHealsWithoutWideningCertification) {
  // The guard's repair turns the refused negative-first switch into a
  // no-loss non-event at run time — but the *point* stays uncertified:
  // self-healing never widens the certified bit.
  RunnerOptions options;
  options.rollback = true;
  const SweepOutcome outcome = run_sweep(
      one_point_spec("mesh:3x3:1", "none", "switch:negative-first@300"),
      options);
  ASSERT_EQ(outcome.results.size(), 1u);
  const SweepResult& r = outcome.results[0];
  EXPECT_FALSE(r.certified);
  EXPECT_GT(r.uncertified_transition_epochs, 0u);
  EXPECT_EQ(r.stats.rollbacks, 1u);
  EXPECT_FALSE(r.stats.deadlocked);
  EXPECT_EQ(r.stats.packets_delivered, r.stats.packets_created);
  EXPECT_EQ(r.stats.packets_dropped, 0u);
  EXPECT_EQ(outcome.aggregate.rollbacks, 1u);
}

// --- the rollback campaign: golden JSONL + thread determinism ------------

/// fault x reconfig grid with the rollback opt-in and abort-retry
/// recovery: both repair kinds appear (the refused negative-first switch
/// rolls back; the killch x west-first composition drain-switches), no row
/// deadlocks, and every row conserves packets.
SweepSpec campaign_spec() {
  SweepSpec spec;
  spec.topologies = {"mesh:3x3:1"};
  spec.routings = {"e-cube"};
  spec.fault_plans = {"none", "killch:2@500"};
  spec.reconfig_plans = {"none", "switch:west-first@300",
                         "switch:negative-first@300"};
  spec.loads = {0.8};
  spec.replications = 1;
  spec.seed = 9;
  spec.base.packet_length = 8;
  spec.base.buffer_depth = 2;
  spec.base.warmup_cycles = 100;
  spec.base.measure_cycles = 2000;
  spec.base.drain_cycles = 6000;
  spec.base.deadlock_check_interval = 64;
  spec.base.recovery.policy = ft::RecoveryPolicy::kAbortRetry;
  spec.base.recovery.packet_timeout = 150;
  spec.base.recovery.retry_budget = 3;
  return spec;
}

std::string campaign_jsonl(std::size_t threads) {
  RunnerOptions options;
  options.threads = threads;
  options.rollback = true;
  std::ostringstream os;
  write_jsonl(os, run_sweep(campaign_spec(), options));
  return os.str();
}

void expect_matches_golden(const std::string& actual,
                           const std::string& filename) {
  const std::string path = std::string(WORMNET_GOLDEN_DIR) + "/" + filename;
  if (std::getenv("WORMNET_UPDATE_GOLDEN") != nullptr) {
    std::ofstream file(path, std::ios::binary);
    ASSERT_TRUE(file.good()) << "cannot write " << path;
    file << actual;
    GTEST_SKIP() << "updated " << path;
  }
  std::ifstream file(path, std::ios::binary);
  std::ostringstream expected;
  expected << file.rdbuf();
  ASSERT_FALSE(expected.str().empty())
      << path << " missing — regenerate with WORMNET_UPDATE_GOLDEN=1";
  EXPECT_EQ(actual, expected.str()) << "golden drift in " << filename;
}

TEST(RollbackCampaign, SelfHealsBothWaysAndConservesPackets) {
  RunnerOptions options;
  options.threads = 4;
  options.rollback = true;
  const SweepOutcome outcome = run_sweep(campaign_spec(), options);
  ASSERT_EQ(outcome.results.size(), 6u);
  for (const SweepResult& r : outcome.results) {
    EXPECT_FALSE(r.stats.deadlocked) << r.point.reconfig_plan;
    EXPECT_EQ(r.stats.packets_delivered + r.stats.packets_dropped,
              r.stats.packets_created)
        << r.point.fault_plan << " x " << r.point.reconfig_plan;
  }
  EXPECT_EQ(outcome.aggregate.rollbacks, 2u);       // negative-first rows
  EXPECT_EQ(outcome.aggregate.drain_switches, 1u);  // killch x west-first
  EXPECT_EQ(outcome.aggregate.certified_deadlocks, 0u);
}

TEST(RollbackCampaign, JsonlMatchesGoldenFile) {
  expect_matches_golden(campaign_jsonl(4), "rollback_campaign.jsonl");
}

TEST(RollbackCampaign, ByteIdenticalAcrossThreadCounts) {
  const std::string inline_run = campaign_jsonl(1);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    EXPECT_EQ(campaign_jsonl(threads), inline_run) << threads << " threads";
  }
}

}  // namespace
}  // namespace wormnet::exp
