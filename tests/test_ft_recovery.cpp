// Recovery-policy tests: the differential properties the ft layer promises.
//
//   * halt + an empty plan is byte-identical to the fault-free simulator
//     (the overlay and the recovery machinery are transparent when idle);
//   * the same seed + the same plan is bit-identical, run to run;
//   * on a fault plan whose degraded relation re-certifies (the escape
//     subfunction survives), abort-retry delivers every accepted packet —
//     the paper's deadlock-freedom guarantee carried through fault epochs;
//   * on an escape-disconnecting plan, stranded packets exhaust their retry
//     budget and are dropped — counted, reported, and the run terminates;
//   * drain stops admissions instead of retrying.
//
// Configure with -DWORMNET_STRESS_TESTS=ON to multiply the determinism
// rounds (ctest label `fault` selects these tests; see README "Testing").
#include <gtest/gtest.h>

#include <string>

#include "test_helpers.hpp"
#include "wormnet/core/registry.hpp"
#include "wormnet/core/verifier.hpp"
#include "wormnet/ft/fault_plan.hpp"
#include "wormnet/obs/trace.hpp"
#include "wormnet/routing/fault.hpp"

namespace wormnet::sim {
namespace {

using test::stress_config;

#ifdef WORMNET_STRESS_TESTS
constexpr int kDeterminismRounds = 10;
#else
constexpr int kDeterminismRounds = 2;
#endif

/// Duato's protocol on a 4x4 mesh with 2 VCs: vc0 is the dimension-order
/// escape layer, vc1 the adaptive layer.
struct DuatoMesh {
  topology::Topology topo = core::make_topology("mesh:4x4:2");
  std::unique_ptr<routing::RoutingFunction> routing =
      core::make_algorithm("duato-mesh", topo);
};

core::Conclusion degraded_verdict(const topology::Topology& topo,
                                  const std::string& algorithm,
                                  const std::vector<bool>& mask) {
  routing::FaultAwareRouting degraded(
      topo, core::make_algorithm(algorithm, topo), mask);
  core::VerifyOptions options;
  options.method = core::Method::kDuato;
  return core::verify(topo, degraded, options).conclusion;
}

TEST(FtRecovery, HaltWithEmptyPlanIsByteIdenticalToFaultFree) {
  const DuatoMesh m;
  SimConfig cfg = stress_config(21);
  cfg.injection_rate = 0.3;
  cfg.measure_cycles = 2000;
  cfg.drain_cycles = 4000;

  const SimStats plain = run(m.topo, *m.routing, cfg);

  // Same run with the whole ft pipeline armed but idle: a schedule built
  // from an empty compiled plan must be perfectly transparent.
  const ft::CompiledFaultPlan empty =
      ft::compile(ft::parse_fault_plan("none"), m.topo);
  cfg.schedule = reconfig::build_epoch_schedule(m.topo, empty);
  const SimStats overlaid = run(m.topo, *m.routing, cfg);

  EXPECT_EQ(plain.to_json(), overlaid.to_json());
}

TEST(FtRecovery, HaltStillHaltsOnRealDeadlock) {
  // The ft machinery must not perturb the pre-existing halt behaviour: a
  // 1-VC ring under unrestricted routing still wedges and reports a cycle.
  const topology::Topology topo = topology::make_unidirectional_ring(4, 1);
  const routing::UnrestrictedMinimal routing(topo);
  SimConfig cfg = stress_config();
  cfg.injection_rate = 0.8;
  cfg.packet_length = 12;
  const ft::CompiledFaultPlan empty =
      ft::compile(ft::parse_fault_plan("none"), topo);
  cfg.schedule = reconfig::build_epoch_schedule(topo, empty);
  const SimStats stats = run(topo, routing, cfg);
  EXPECT_TRUE(stats.deadlocked);
  EXPECT_EQ(stats.packets_aborted, 0u);
  EXPECT_EQ(stats.packets_dropped, 0u);
}

TEST(FtRecovery, ComposedRunCommitsToLiveWaitingChannel) {
  // Fault plan x transition plan on a wait-specific relation.  hpl-minimal
  // from (0,1) to (0,0) routes and waits on both VCs of the southward link.
  // A forced blocker holds vc1, a fault kills vc0, then the victim arrives:
  // it blocks and must commit to vc1, the first *live* waiting channel.
  // Under a transition the allocator routes by the pure stamped relation,
  // whose waiting() still lists the dead vc0 first; committing to it would
  // strand the victim with no candidate until some later fault step.
  const topology::Topology topo = core::make_topology("mesh:4x4:2");
  const auto routing = core::make_algorithm("hpl-minimal", topo);
  const NodeId at = topo.node_at(std::vector<std::uint32_t>{0, 1});
  const NodeId dest = topo.node_at(std::vector<std::uint32_t>{0, 0});
  const ChannelId vc0 = topo.find_channel(at, dest, 0);
  const ChannelId vc1 = topo.find_channel(at, dest, 1);

  const ft::CompiledFaultPlan faults = ft::compile(
      ft::parse_fault_plan("killch:" + std::to_string(vc0) + "@2"), topo);
  reconfig::CompiledTransitionPlan plan = reconfig::compile(
      reconfig::parse_transition_plan("switch:hpl@100000"), topo,
      "hpl-minimal");
  ASSERT_FALSE(plan.empty());

  SimConfig cfg;
  cfg.injection_rate = 0.0;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 100;
  cfg.drain_cycles = 2000;
  cfg.schedule =
      reconfig::build_epoch_schedule(topo, faults, std::move(plan));
  cfg.script = {{at, dest, 64, 0, {vc1}},  // blocker
                {at, dest, 8, 10, {}}};    // victim
  const SimStats stats = run(topo, *routing, cfg);
  EXPECT_FALSE(stats.deadlocked);
  EXPECT_EQ(stats.packets_created, 2u);
  EXPECT_EQ(stats.packets_delivered, 2u);
}

TEST(FtRecovery, SameSeedSamePlanIsBitIdentical) {
  const DuatoMesh m;
  const ft::CompiledFaultPlan plan = ft::compile(
      ft::parse_fault_plan("kill:5-6@300+repair:5-6@900"), m.topo);
  for (int round = 0; round < kDeterminismRounds; ++round) {
    SimConfig cfg = stress_config(33 + static_cast<std::uint64_t>(round));
    cfg.injection_rate = 0.4;
    cfg.measure_cycles = 1500;
    cfg.drain_cycles = 5000;
    cfg.schedule = reconfig::build_epoch_schedule(m.topo, plan);
    cfg.recovery.policy = ft::RecoveryPolicy::kAbortRetry;
    cfg.recovery.packet_timeout = 150;
    cfg.recovery.retry_budget = 4;

    const SimStats first = run(m.topo, *m.routing, cfg);
    const SimStats second = run(m.topo, *m.routing, cfg);
    EXPECT_EQ(first.to_json(), second.to_json()) << "round " << round;
  }
}

TEST(FtRecovery, AbortRetryDeliversEverythingOnCertifiedDegradedRelation) {
  const DuatoMesh m;
  // Kill only the *adaptive* VC of link 5->6: the escape layer survives, so
  // the degraded relation must re-certify under the Duato condition...
  const topology::ChannelId adaptive = m.topo.find_channel(5, 6, 1);
  ASSERT_NE(adaptive, topology::kInvalidChannel);
  const ft::CompiledFaultPlan plan = ft::compile(
      ft::parse_fault_plan("killch:" + std::to_string(adaptive) + "@300"),
      m.topo);
  const auto masks = plan.epoch_masks();
  ASSERT_EQ(masks.size(), 2u);
  ASSERT_EQ(degraded_verdict(m.topo, "duato-mesh", masks[1]),
            core::Conclusion::kDeadlockFree);

  // ...and under abort-retry with an aggressive per-packet timeout, every
  // accepted packet is delivered: aborts happen (the property is not
  // vacuous), drops never.
  SimConfig cfg;
  cfg.injection_rate = 0.6;
  cfg.packet_length = 8;
  cfg.buffer_depth = 4;
  cfg.warmup_cycles = 100;
  cfg.measure_cycles = 600;
  cfg.drain_cycles = 6000;
  cfg.deadlock_check_interval = 64;
  cfg.seed = 12966619160104079557ULL;
  cfg.schedule = reconfig::build_epoch_schedule(m.topo, plan);
  cfg.recovery.policy = ft::RecoveryPolicy::kAbortRetry;
  cfg.recovery.packet_timeout = 100;
  cfg.recovery.retry_budget = 20;

  const SimStats stats = run(m.topo, *m.routing, cfg);
  EXPECT_FALSE(stats.deadlocked);
  EXPECT_GT(stats.packets_aborted, 0u) << "property would be vacuous";
  EXPECT_EQ(stats.packets_dropped, 0u);
  EXPECT_EQ(stats.packets_delivered, stats.packets_created);
  EXPECT_GT(stats.recovered_packets, 0u);
}

TEST(FtRecovery, EscapeDisconnectingPlanDropsViaBudgetAndTerminates) {
  const DuatoMesh m;
  // Kill both VCs of link 5->6: destinations behind the dead link become
  // unreachable for some sources, the degraded escape is disconnected, and
  // the relation must NOT re-certify.
  const ft::CompiledFaultPlan plan =
      ft::compile(ft::parse_fault_plan("kill:5-6@400"), m.topo);
  const auto masks = plan.epoch_masks();
  ASSERT_NE(degraded_verdict(m.topo, "duato-mesh", masks[1]),
            core::Conclusion::kDeadlockFree);

  SimConfig cfg = stress_config(5);
  cfg.injection_rate = 0.2;
  cfg.packet_length = 8;
  cfg.buffer_depth = 4;
  cfg.warmup_cycles = 100;
  cfg.measure_cycles = 500;
  cfg.drain_cycles = 6000;
  cfg.schedule = reconfig::build_epoch_schedule(m.topo, plan);
  cfg.recovery.policy = ft::RecoveryPolicy::kAbortRetry;
  cfg.recovery.packet_timeout = 150;
  cfg.recovery.retry_budget = 3;

  const SimStats stats = run(m.topo, *m.routing, cfg);
  // Stranded packets burn their budget and are dropped — counted, never
  // silent — and the run terminates instead of hanging in the drain phase.
  EXPECT_FALSE(stats.deadlocked);
  EXPECT_GT(stats.packets_dropped, 0u);
  EXPECT_GT(stats.packets_aborted, stats.packets_dropped);
  EXPECT_EQ(stats.packets_delivered + stats.packets_dropped,
            stats.packets_created);
}

TEST(FtRecovery, AbortRetryResolvesATrueDeadlockWithoutAFaultPlan) {
  // Recovery is useful beyond fault injection: the same 1-VC ring that
  // wedges under halt makes progress under abort-retry — victims release
  // their channels, and the retry budget bounds livelock.
  const topology::Topology topo = topology::make_unidirectional_ring(4, 1);
  const routing::UnrestrictedMinimal routing(topo);
  SimConfig cfg = stress_config();
  cfg.injection_rate = 0.8;
  cfg.packet_length = 12;
  cfg.measure_cycles = 4000;
  cfg.drain_cycles = 6000;
  cfg.recovery.policy = ft::RecoveryPolicy::kAbortRetry;
  cfg.recovery.retry_budget = 5;
  cfg.recovery.packet_timeout = 400;

  const SimStats stats = run(topo, routing, cfg);
  EXPECT_FALSE(stats.deadlocked);
  EXPECT_GT(stats.packets_aborted, 0u);
  EXPECT_EQ(stats.packets_delivered + stats.packets_dropped,
            stats.packets_created);
  EXPECT_GT(stats.packets_delivered, 0u);
}

TEST(FtRecovery, DrainStopsAdmittingInsteadOfRetrying) {
  const DuatoMesh m;
  const ft::CompiledFaultPlan plan =
      ft::compile(ft::parse_fault_plan("kill:5-6@400"), m.topo);
  SimConfig cfg = stress_config(5);
  cfg.injection_rate = 0.2;
  cfg.packet_length = 8;
  cfg.warmup_cycles = 100;
  cfg.measure_cycles = 500;
  cfg.drain_cycles = 6000;
  cfg.schedule = reconfig::build_epoch_schedule(m.topo, plan);
  cfg.recovery.policy = ft::RecoveryPolicy::kDrain;
  cfg.recovery.packet_timeout = 150;

  const SimStats stats = run(m.topo, *m.routing, cfg);
  EXPECT_FALSE(stats.deadlocked);
  EXPECT_EQ(stats.packets_retried, 0u) << "drain never re-injects";
  EXPECT_GT(stats.packets_dropped, 0u);
  EXPECT_EQ(stats.packets_delivered + stats.packets_dropped,
            stats.packets_created);
}

TEST(FtRecovery, TraceCarriesFaultAndRecoveryEvents) {
  const DuatoMesh m;
  const ft::CompiledFaultPlan plan = ft::compile(
      ft::parse_fault_plan("kill:5-6@300+repair:5-6@1200"), m.topo);
  SimConfig cfg = stress_config(5);
  cfg.injection_rate = 0.2;
  cfg.packet_length = 8;
  cfg.warmup_cycles = 100;
  cfg.measure_cycles = 500;
  cfg.drain_cycles = 6000;
  cfg.schedule = reconfig::build_epoch_schedule(m.topo, plan);
  cfg.recovery.policy = ft::RecoveryPolicy::kAbortRetry;
  cfg.recovery.packet_timeout = 150;
  cfg.recovery.retry_budget = 3;
  obs::MemoryTraceSink sink;
  cfg.trace = &sink;

  const SimStats stats = run(m.topo, *m.routing, cfg);
  std::uint64_t faults = 0, repairs = 0, aborts = 0, retries = 0;
  for (const obs::TraceEvent& ev : sink.events()) {
    switch (ev.kind) {
      case obs::EventKind::kFault:
        ++faults;
        EXPECT_EQ(ev.list.size(), 2u);  // both VCs of the link
        break;
      case obs::EventKind::kRepair: ++repairs; break;
      case obs::EventKind::kAbort: ++aborts; break;
      case obs::EventKind::kRetry: ++retries; break;
      default: break;
    }
  }
  EXPECT_EQ(faults, 1u);
  EXPECT_EQ(repairs, 1u);
  EXPECT_EQ(aborts, stats.packets_aborted);
  EXPECT_EQ(retries, stats.packets_retried);
  EXPECT_GT(aborts, 0u);
}

TEST(FtRecovery, StatsSurfaceThresholdsAndPolicy) {
  const DuatoMesh m;
  SimConfig cfg = stress_config(3);
  cfg.injection_rate = 0.1;
  cfg.measure_cycles = 500;
  cfg.watchdog_cycles = 2222;
  cfg.recovery.policy = ft::RecoveryPolicy::kAbortRetry;
  cfg.recovery.packet_timeout = 777;
  const SimStats stats = run(m.topo, *m.routing, cfg);
  const std::string json = stats.to_json();
  EXPECT_NE(json.find("\"watchdog_cycles\":2222"), std::string::npos) << json;
  EXPECT_NE(json.find("\"packet_timeout_cycles\":777"), std::string::npos);
  EXPECT_NE(json.find("\"recovery\":\"abort-retry\""), std::string::npos);
}

}  // namespace
}  // namespace wormnet::sim
