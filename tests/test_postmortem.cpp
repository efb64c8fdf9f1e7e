// Deadlock postmortems: the wait-for analysis on fabricated wait-for graphs
// (the detector's cycle and the postmortem's cycles from one blocked list),
// the end-to-end capture pipeline on the canonical non-certified ring, the
// static cross-reference (including the theorem-contradiction flag), and
// byte-exact golden artifacts: the ring, a knot in a faulted epoch and a
// knot mid-transition, each judged against the relation live at capture.
// Regenerate the goldens with:
//   WORMNET_UPDATE_GOLDEN=1 ./test_postmortem
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "test_helpers.hpp"
#include "wormnet/audit/check.hpp"
#include "wormnet/cdg/duato_checker.hpp"
#include "wormnet/core/registry.hpp"
#include "wormnet/exp/sweep_io.hpp"
#include "wormnet/obs/postmortem.hpp"
#include "wormnet/sim/simulator.hpp"

namespace wormnet::obs {
namespace {

#ifndef WORMNET_GOLDEN_DIR
#error "tests/CMakeLists.txt must define WORMNET_GOLDEN_DIR"
#endif

/// Fabricated wait-for world: channel ownership and acquired paths are
/// plain maps, so the wait-for analysis is tested in isolation from the sim.
/// The detector's report and the postmortem's cycles come from one analysis
/// of the same blocked list.
struct FakeWorld {
  std::map<topology::ChannelId, sim::PacketId> owner;
  std::map<sim::PacketId, std::vector<topology::ChannelId>> path;

  /// The analysis of `waits` against the world's channel owners, laid out
  /// as the simulator's owner array (kNoPacket = free; the fabricated
  /// worlds use channels below 32).
  sim::WaitAnalysis analyse(std::vector<sim::BlockedPacket> waits) const {
    std::vector<sim::PacketId> owner_of(32, sim::kNoPacket);
    for (const auto& [c, p] : owner) owner_of.at(c) = p;
    return sim::WaitAnalysis(std::move(waits), owner_of);
  }

  std::optional<sim::DeadlockInfo> detect(
      const std::vector<sim::BlockedPacket>& waits) const {
    return analyse(waits).deadlock(0);
  }

  std::vector<RuntimeCycle> extract(
      const std::vector<sim::BlockedPacket>& waits) const {
    std::vector<RuntimeCycle> cycles;
    for (const std::vector<sim::WaitHop>& hops : analyse(waits).cycles()) {
      std::vector<std::span<const topology::ChannelId>> paths;
      for (const sim::WaitHop& hop : hops) {
        const auto it = path.find(hop.packet);
        paths.emplace_back(it == path.end()
                               ? std::span<const topology::ChannelId>()
                               : std::span<const topology::ChannelId>(
                                     it->second));
      }
      cycles.push_back(lift_wait_cycle(hops, paths));
    }
    return cycles;
  }
};

std::vector<sim::PacketId> packets_of(const RuntimeCycle& cycle) {
  std::vector<sim::PacketId> out;
  for (const CycleHop& hop : cycle.hops) out.push_back(hop.packet);
  return out;
}

std::vector<topology::ChannelId> waits_of(const RuntimeCycle& cycle) {
  std::vector<topology::ChannelId> out;
  for (const CycleHop& hop : cycle.hops) out.push_back(hop.waits_for);
  return out;
}

using Packets = std::vector<sim::PacketId>;
using Channels = std::vector<topology::ChannelId>;

TEST(WaitAnalysis, ReleasableWaitsAreNoDeadlock) {
  // p0 waits on p1's channel, p1 on a free channel; p2 waits on a channel
  // held by a packet that is not blocked (it can still move).
  FakeWorld world;
  world.owner = {{0, 0}, {1, 1}, {2, 2}, {3, 9}};
  const std::vector<sim::BlockedPacket> blocked = {
      {0, {1}}, {1, {5}}, {2, {3}}};
  EXPECT_FALSE(world.detect(blocked).has_value());
  EXPECT_TRUE(world.extract(blocked).empty());
}

TEST(WaitAnalysis, WaitTailFirstInBlockedOrder) {
  // p5 waits on p0's channel but is not on the cycle p0 <-> p1.  Listed
  // first, it starts the detector's walk, which still reports the cycle
  // alone; the postmortem's walk from p5 funnels into the same cycle and
  // adds nothing.
  FakeWorld world;
  world.owner = {{0, 0}, {1, 1}, {5, 5}};
  world.path = {{0, {0}}, {1, {1}}, {5, {5}}};
  const std::vector<sim::BlockedPacket> blocked = {
      {5, {0}}, {0, {1}}, {1, {0}}};

  const auto info = world.detect(blocked);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->packet_cycle, (Packets{0, 1}));
  EXPECT_EQ(info->blocked_channels, (Channels{1, 0}));
  EXPECT_FALSE(info->from_watchdog);

  const auto cycles = world.extract(blocked);
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(packets_of(cycles[0]), info->packet_cycle);
  EXPECT_EQ(waits_of(cycles[0]), info->blocked_channels);
}

TEST(WaitAnalysis, SelfWaitIsTheOnePacketDeadlock) {
  // p3 waits on c7, the channel it holds itself (n = 1).  p4 also waits on
  // its own channel, but on a free one too, so it can still move.
  FakeWorld world;
  world.owner = {{7, 3}, {8, 4}};
  world.path = {{3, {6, 7}}, {4, {8}}};
  const std::vector<sim::BlockedPacket> blocked = {{4, {8, 9}}, {3, {7}}};

  const auto info = world.detect(blocked);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->packet_cycle, (Packets{3}));
  EXPECT_EQ(info->blocked_channels, (Channels{7}));

  const auto cycles = world.extract(blocked);
  ASSERT_EQ(cycles.size(), 1u);
  ASSERT_EQ(cycles[0].hops.size(), 1u);
  EXPECT_EQ(cycles[0].hops[0].packet, 3u);
  EXPECT_EQ(cycles[0].hops[0].waits_for, 7u);
  // The chain runs from the channel the previous hop (p3 itself) waits on.
  EXPECT_EQ(cycles[0].hops[0].chain, (Channels{7}));
}

TEST(WaitAnalysis, MemberWaitingOnTwoKnotChannelsFollowsTheFirst) {
  // p0 waits on c1 (p1's) and c2 (p2's); p1 and p2 both wait on c0 (p0's).
  // Every walk follows p0's first waiting channel, so the cycle is p0 <->
  // p1 and p2 is a tail; listing c2 first makes it p0 <-> p2.
  FakeWorld world;
  world.owner = {{0, 0}, {1, 1}, {2, 2}};
  world.path = {{0, {0}}, {1, {1}}, {2, {2}}};
  for (const auto& [waits, partner] :
       {std::pair{Channels{1, 2}, sim::PacketId{1}},
        std::pair{Channels{2, 1}, sim::PacketId{2}}}) {
    const std::vector<sim::BlockedPacket> blocked = {
        {0, waits}, {1, {0}}, {2, {0}}};
    const auto info = world.detect(blocked);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->packet_cycle, (Packets{0, partner}));
    EXPECT_EQ(info->blocked_channels, (Channels{partner, 0}));

    const auto cycles = world.extract(blocked);
    ASSERT_EQ(cycles.size(), 1u);
    EXPECT_EQ(packets_of(cycles[0]), info->packet_cycle);
    EXPECT_EQ(waits_of(cycles[0]), info->blocked_channels);
  }
}

TEST(WaitAnalysis, DetectorFollowsBlockedOrderPostmortemsPacketOrder) {
  // Two disjoint 2-cycles, the higher ids listed first: the detector
  // reports the first one in blocked order, the postmortem lists both in
  // packet-id order, so the detector's cycle is cycles[1].
  FakeWorld world;
  world.owner = {{0, 0}, {1, 1}, {10, 10}, {11, 11}};
  world.path = {{0, {0}}, {1, {1}}, {10, {10}}, {11, {11}}};
  const std::vector<sim::BlockedPacket> blocked = {
      {11, {10}}, {10, {11}}, {1, {0}}, {0, {1}}};

  const auto info = world.detect(blocked);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->packet_cycle, (Packets{11, 10}));
  EXPECT_EQ(info->blocked_channels, (Channels{10, 11}));

  const auto cycles = world.extract(blocked);
  ASSERT_EQ(cycles.size(), 2u);
  EXPECT_EQ(packets_of(cycles[0]), (Packets{0, 1}));
  EXPECT_EQ(packets_of(cycles[1]), (Packets{10, 11}));
  EXPECT_EQ(waits_of(cycles[1]), (Channels{11, 10}));
}

TEST(Postmortem, ExtractsASimpleThreeCycle) {
  // p0 holds c0 waits c1; p1 holds c1 waits c2; p2 holds c2 waits c0.
  FakeWorld world;
  world.owner = {{0, 0}, {1, 1}, {2, 2}};
  world.path = {{0, {0}}, {1, {1}}, {2, {2}}};
  const std::vector<sim::BlockedPacket> blocked = {
      {0, {1}}, {1, {2}}, {2, {0}}};

  const auto cycles = world.extract(blocked);
  ASSERT_EQ(cycles.size(), 1u);
  ASSERT_EQ(cycles[0].hops.size(), 3u);
  EXPECT_EQ(cycles[0].hops[0].packet, 0u);
  EXPECT_EQ(cycles[0].hops[0].waits_for, 1u);
  EXPECT_EQ(cycles[0].hops[1].packet, 1u);
  EXPECT_EQ(cycles[0].hops[2].packet, 2u);
  // The lifted channel cycle is c0 -> c1 -> c2.
  const auto channels = cycles[0].channel_cycle();
  ASSERT_EQ(channels.size(), 3u);
  EXPECT_EQ(channels[0], 0u);
  EXPECT_EQ(channels[1], 1u);
  EXPECT_EQ(channels[2], 2u);
}

TEST(Postmortem, ExtractsEveryDisjointCycle) {
  // Two independent 2-cycles; the live detector would stop at the first.
  FakeWorld world;
  world.owner = {{0, 0}, {1, 1}, {10, 10}, {11, 11}};
  world.path = {{0, {0}}, {1, {1}}, {10, {10}}, {11, {11}}};
  const std::vector<sim::BlockedPacket> blocked = {
      {0, {1}}, {1, {0}}, {10, {11}}, {11, {10}}};

  const auto cycles = world.extract(blocked);
  ASSERT_EQ(cycles.size(), 2u);
  EXPECT_EQ(cycles[0].hops[0].packet, 0u);
  EXPECT_EQ(cycles[1].hops[0].packet, 10u);
}

TEST(Postmortem, WaitTailsFunnelIntoOneReportedCycle) {
  // p5 waits on a channel held by a cycle member: it is part of the knot
  // but its walk rediscovers the same cycle, which must not be duplicated.
  FakeWorld world;
  world.owner = {{0, 0}, {1, 1}, {5, 5}};
  world.path = {{0, {0}}, {1, {1}}, {5, {5}}};
  const std::vector<sim::BlockedPacket> blocked = {
      {0, {1}}, {1, {0}}, {5, {0}}};

  const auto cycles = world.extract(blocked);
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].hops.size(), 2u);
}

TEST(Postmortem, MultiHopChainCoversAcquiredSuffix) {
  // p0 holds [c0]; p1 holds [c1, c2, c3] (acquired c1 first).  p0 waits on
  // c3 (p1's head), p1 waits on c0.  p0's chain starts at the channel p0
  // owns that the previous hop (p1) waits on: c0.  p1's chain runs from the
  // channel p0 waits on (c3)... i.e. each hop's chain starts at the channel
  // the previous hop waits for.
  FakeWorld world;
  world.owner = {{0, 0}, {1, 1}, {2, 1}, {3, 1}};
  world.path = {{0, {0}}, {1, {1, 2, 3}}};
  const std::vector<sim::BlockedPacket> blocked = {{0, {3}}, {1, {0}}};

  const auto cycles = world.extract(blocked);
  ASSERT_EQ(cycles.size(), 1u);
  ASSERT_EQ(cycles[0].hops.size(), 2u);
  // Hop for p1 carries the suffix from c3 (what p0 waits for) to its head.
  const CycleHop& p1_hop =
      cycles[0].hops[0].packet == 1 ? cycles[0].hops[0] : cycles[0].hops[1];
  ASSERT_EQ(p1_hop.chain.size(), 1u);
  EXPECT_EQ(p1_hop.chain[0], 3u);
  const auto channels = cycles[0].channel_cycle();
  ASSERT_EQ(channels.size(), 2u);
}

/// The canonical non-certified deadlock: a bidirectional ring under
/// unrestricted minimal routing, wedged at high load (PR-3's differential
/// scenario).  Deterministic: fixed seed, fixed config.
sim::SimConfig ring_wedge_config() {
  sim::SimConfig cfg;
  cfg.injection_rate = 0.6;
  cfg.packet_length = 8;
  cfg.buffer_depth = 2;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 10000;
  cfg.drain_cycles = 5000;
  cfg.deadlock_check_interval = 64;
  cfg.seed = 13;
  return cfg;
}

TEST(Postmortem, RingDeadlockCapturesAndCrossReferences) {
  const topology::Topology topo = core::make_topology("ring:8");
  const auto routing = core::make_algorithm("unrestricted", topo);
  sim::Simulator simulator(topo, *routing, ring_wedge_config());
  const sim::SimStats stats = simulator.run();
  ASSERT_TRUE(stats.deadlocked);
  ASSERT_EQ(simulator.postmortems().size(), 1u);
  EXPECT_EQ(stats.postmortems_emitted, 1u);

  const RuntimePostmortem& pm = simulator.postmortems().front();
  EXPECT_EQ(pm.reason, PostmortemReason::kWaitCycle);
  EXPECT_EQ(pm.victim, sim::kNoPacket);  // halt policy: no victim
  EXPECT_FALSE(pm.wait_for.empty());
  ASSERT_FALSE(pm.cycles.empty());
  EXPECT_FALSE(pm.flight_tail.empty());
  EXPECT_GT(pm.flight_recorded, 0u);

  // Without an epoch schedule the stamp is the routing's own name.
  EXPECT_EQ(pm.relation, "unrestricted");
  EXPECT_TRUE(pm.steady_state.empty());

  const cdg::StateGraph states(topo, *routing);
  EXPECT_FALSE(cdg::search(states).found);  // the ring is not certifiable

  const PostmortemReport report = cross_reference(states, {}, "", pm, "ring:8");
  EXPECT_EQ(report.relation, "unrestricted");
  EXPECT_FALSE(report.certified);
  EXPECT_FALSE(report.contradiction);
  ASSERT_EQ(report.cycles.size(), pm.cycles.size());
  for (const CycleXref& x : report.cycles) {
    // The acceptance property: the runtime wait cycle maps onto a static
    // CDG cycle containing no escape edge.
    EXPECT_TRUE(x.maps_to_cdg);
    EXPECT_FALSE(x.escape_confined);
    for (const EdgeXref& e : x.edges) {
      EXPECT_TRUE(e.in_cdg);
      EXPECT_FALSE(e.escape);
      EXPECT_EQ(e.kind, "adaptive");
    }
  }
}

TEST(Postmortem, CertifiedConfigEmitsNoPostmortems) {
  const topology::Topology topo = core::make_topology("mesh:4x4:2");
  const auto routing = core::make_algorithm("duato-mesh", topo);
  sim::SimConfig cfg;
  cfg.injection_rate = 0.3;
  cfg.warmup_cycles = 100;
  cfg.measure_cycles = 2000;
  cfg.drain_cycles = 5000;
  cfg.deadlock_check_interval = 64;
  cfg.seed = 5;
  sim::Simulator simulator(topo, *routing, cfg);
  const sim::SimStats stats = simulator.run();
  EXPECT_FALSE(stats.deadlocked);
  EXPECT_TRUE(simulator.postmortems().empty());
  EXPECT_EQ(stats.postmortems_emitted, 0u);
}

TEST(Postmortem, ForgedCertificateRejectedYetFlagsContradiction) {
  // No real certified configuration can produce an escape-confined cycle
  // (that is the theorem), so forge one *through the production schema*:
  // a Certificate claiming the FULL channel set is a certified escape
  // subfunction of the unrestricted ring.  The forgery is well-formed JSON
  // and passes both gates (every state escapes on some channel; every node
  // reaches every destination) — and the independent auditor still rejects
  // it, because the full set's extended CDG is cyclic, so no order of it
  // holds.  Feeding the same forged escape set to the cross-reference then
  // trips the contradiction flag on the runtime cycle, as it must.
  const topology::Topology topo = core::make_topology("ring:8");
  const auto routing = core::make_algorithm("unrestricted", topo);
  sim::Simulator simulator(topo, *routing, ring_wedge_config());
  (void)simulator.run();
  ASSERT_FALSE(simulator.postmortems().empty());

  audit::Certificate forged;
  forged.kind = audit::CertKind::kCertified;
  forged.method = "duato";
  forged.topology = "ring:8";
  forged.relation = "unrestricted";
  forged.num_nodes = topo.num_nodes();
  forged.num_channels = static_cast<std::uint32_t>(topo.num_channels());
  forged.subfunction = "full-set (forged)";
  for (topology::ChannelId c = 0; c < topo.num_channels(); ++c) {
    forged.escape_channels.push_back(c);
    forged.topological_order.push_back(c);
  }
  // The forgery survives the strict parser (it is schema-valid data) ...
  const audit::ParseResult parsed = audit::parse_certificate(forged.to_json());
  ASSERT_TRUE(parsed.certificate.has_value()) << parsed.error;
  ASSERT_EQ(*parsed.certificate, forged);
  // ... and dies at the auditor: the relation does not support the claim.
  const audit::AuditResult audit = audit::check(topo, *routing, forged);
  EXPECT_FALSE(audit.ok());
  EXPECT_EQ(audit.code, audit::AuditCode::kOrderViolation) << audit.detail;

  const cdg::StateGraph states(topo, *routing);
  const PostmortemReport report = cross_reference(
      states, parsed.certificate->escape_channels,
      parsed.certificate->subfunction, simulator.postmortems().front(),
      "ring:8");
  EXPECT_TRUE(report.certified);
  ASSERT_FALSE(report.cycles.empty());
  EXPECT_TRUE(report.cycles.front().escape_confined);
  EXPECT_TRUE(report.cycles.front().contradiction);
  EXPECT_TRUE(report.contradiction);
  for (const EdgeXref& e : report.cycles.front().edges) {
    EXPECT_TRUE(e.escape);
    EXPECT_NE(e.kind, "adaptive");
  }
}

TEST(Postmortem, RetryExhaustionCapturesPostmortem) {
  const topology::Topology topo = topology::make_unidirectional_ring(4, 1);
  const routing::UnrestrictedMinimal routing(topo);
  sim::SimConfig cfg = test::stress_config(9);
  cfg.injection_rate = 0.8;
  cfg.recovery.policy = ft::RecoveryPolicy::kAbortRetry;
  cfg.recovery.retry_budget = 1;
  // Every detection under abort-retry captures a wait-cycle postmortem
  // first; leave room for the later retry-exhaustion capture.
  cfg.max_postmortems = 64;
  sim::Simulator simulator(topo, routing, cfg);
  const sim::SimStats stats = simulator.run();
  ASSERT_GT(stats.packets_dropped, 0u);

  bool saw_retry_exhausted = false;
  for (const RuntimePostmortem& pm : simulator.postmortems()) {
    if (pm.reason == PostmortemReason::kRetryExhausted) {
      saw_retry_exhausted = true;
      EXPECT_NE(pm.victim, sim::kNoPacket);
    }
  }
  EXPECT_TRUE(saw_retry_exhausted);
  // The cap bounds capture cost no matter how long the run thrashes.
  EXPECT_LE(simulator.postmortems().size(), cfg.max_postmortems);
  EXPECT_EQ(stats.postmortems_emitted, simulator.postmortems().size());
}

/// Records the cycle of every packet drop.
class DropLog : public TraceSink {
 public:
  void emit(const TraceEvent& event) override {
    if (event.kind == EventKind::kDrop) dropped_at[event.packet] = event.cycle;
  }
  std::map<sim::PacketId, std::uint64_t> dropped_at;
};

TEST(Postmortem, DrainPostmortemPrecedesTheDrainsDrops) {
  // Engaging drain refuses every source-queued packet that never began
  // injecting, blocked source fronts included.  The wait-cycle postmortem
  // of the check that engages it is captured first, so the artifact shows
  // the knot as detected: its flight tail drops no packet its wait_for
  // still lists as blocked.
  std::size_t blocked_then_dropped = 0;
  const struct {
    const char* topology;
    std::uint64_t seed;
  } kRuns[] = {{"ring:8", 13},     {"ring:16", 6},     {"mesh:4x4:1", 5},
               {"torus:4x4:1", 6}, {"torus:8x8:1", 9}};
  for (const auto& run : kRuns) {
    SCOPED_TRACE(std::string(run.topology) + " seed " +
                 std::to_string(run.seed));
    const topology::Topology topo = core::make_topology(run.topology);
    const auto routing = core::make_algorithm("unrestricted", topo);
    DropLog drops;
    sim::SimConfig cfg = ring_wedge_config();
    cfg.seed = run.seed;
    cfg.recovery.policy = ft::RecoveryPolicy::kDrain;
    cfg.trace = &drops;
    sim::Simulator simulator(topo, *routing, cfg);
    (void)simulator.run();
    for (const RuntimePostmortem& pm : simulator.postmortems()) {
      if (pm.reason != PostmortemReason::kWaitCycle) continue;
      for (const WaitForNode& node : pm.wait_for) {
        const auto it = drops.dropped_at.find(node.packet);
        if (it != drops.dropped_at.end() && it->second == pm.cycle) {
          ++blocked_then_dropped;
        }
        for (const FlightEvent& event : pm.flight_tail) {
          EXPECT_FALSE(event.kind == EventKind::kDrop &&
                       event.packet == node.packet)
              << "blocked packet " << node.packet
              << " dropped in the flight tail at cycle " << event.cycle;
        }
      }
    }
  }
  // The drain must refuse packets the analysis saw blocked, or the order of
  // capture and drain would not matter.
  EXPECT_GT(blocked_then_dropped, 0u);
}

// ---------------------------------------------------------------------------
// Golden artifact
// ---------------------------------------------------------------------------

std::string golden_path(const std::string& name) {
  return std::string(WORMNET_GOLDEN_DIR) + "/" + name;
}

/// Compares `actual` with the committed golden `name`, or rewrites it under
/// WORMNET_UPDATE_GOLDEN.
void expect_golden(const std::string& actual, const std::string& name) {
  const std::string path = golden_path(name);
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
  EXPECT_EQ(actual, expected.str()) << "golden drift in " << name;
}

/// The artifact wormnet-sweep --postmortem-dir writes for `pm`, judged
/// through a fresh certifying analysis cache.
std::string render_artifact(const std::string& topo_spec,
                            const RuntimePostmortem& pm) {
  exp::AnalysisCache cache(false, nullptr, true);
  std::ostringstream os;
  exp::write_postmortem(os, cache, topo_spec, pm);
  return os.str();
}

std::string render_ring8_artifact() {
  const topology::Topology topo = core::make_topology("ring:8");
  const auto routing = core::make_algorithm("unrestricted", topo);
  sim::Simulator simulator(topo, *routing, ring_wedge_config());
  (void)simulator.run();
  if (simulator.postmortems().empty()) return {};
  return render_artifact("ring:8", simulator.postmortems().front());
}

TEST(Postmortem, GoldenRing8Artifact) {
  const std::string actual = render_ring8_artifact();
  ASSERT_FALSE(actual.empty()) << "wedge config did not deadlock";
  // Two fresh captures render byte-identically before comparing to disk.
  ASSERT_EQ(actual, render_ring8_artifact());
  expect_golden(actual, "postmortem_ring8.json");

  // The artifact parses, and carries the acceptance property in-band.
  const audit::json::Value root = audit::json::parse(actual);
  const audit::json::Value& pm = root.at("postmortem");
  EXPECT_EQ(pm.at("relation").as_string(), "unrestricted");
  EXPECT_FALSE(pm.at("certified").as_bool());
  EXPECT_FALSE(pm.at("contradiction").as_bool());
  const auto& cycles = pm.at("cycles").as_array();
  ASSERT_FALSE(cycles.empty());
  const audit::json::Value& cycle = cycles.front();
  EXPECT_TRUE(cycle.at("maps_to_cdg").as_bool());
  EXPECT_FALSE(cycle.at("escape_confined").as_bool());
  for (const auto& edge : cycle.at("edges").as_array()) {
    EXPECT_TRUE(edge.at("in_cdg").as_bool());
    EXPECT_FALSE(edge.at("escape").as_bool());
  }
}

/// The first wait-cycle postmortem of `spec`'s sweep, rendered as its
/// --postmortem-dir artifact ("" when no point captured one).
std::string render_sweep_artifact(exp::SweepSpec spec) {
  spec.base.warmup_cycles = 100;
  spec.base.measure_cycles = 1500;
  spec.base.drain_cycles = 6000;
  exp::RunnerOptions options;
  options.threads = 1;
  for (const exp::SweepResult& r : exp::run_sweep(spec, options).results) {
    for (const RuntimePostmortem& pm : r.postmortems) {
      if (pm.reason == PostmortemReason::kWaitCycle) {
        return render_artifact(r.point.topology, pm);
      }
    }
  }
  return {};
}

TEST(Postmortem, GoldenFaultedEpochArtifact) {
  // duato-mesh is certified, but the plan kills the escape layer (vc0) of
  // the mesh's first 16 channels at cycle 1.  The knot forms in that
  // faulted epoch, so the artifact names the masked relation and reports
  // its verdict, not the pristine base's.
  exp::SweepSpec spec;
  spec.topologies = {"mesh:4x4:2"};
  spec.routings = {"duato-mesh"};
  std::string plan;
  for (int c = 0; c <= 30; c += 2) {
    plan += (c == 0 ? "" : "+") + ("killch:" + std::to_string(c)) + "@1";
  }
  spec.fault_plans = {plan};
  spec.loads = {0.8};
  spec.replications = 3;
  const std::string actual = render_sweep_artifact(spec);
  ASSERT_FALSE(actual.empty()) << "no wait-cycle postmortem";
  expect_golden(actual, "postmortem_faulted_epoch.json");

  const audit::json::Value root = audit::json::parse(actual);
  const audit::json::Value& pm = root.at("postmortem");
  EXPECT_EQ(pm.at("relation").as_string(),
            "duato-mesh|000000000000000055555555");
  EXPECT_FALSE(pm.at("certified").as_bool());
  EXPECT_FALSE(pm.at("contradiction").as_bool());
  exp::AnalysisCache cache;
  EXPECT_TRUE(
      cache.get("mesh:4x4:2", reconfig::RelationExpr("duato-mesh")).certified);
  for (const auto& cycle : pm.at("cycles").as_array()) {
    EXPECT_TRUE(cycle.at("maps_to_cdg").as_bool());
    EXPECT_FALSE(cycle.has("union_crossing"));
  }
}

TEST(Postmortem, GoldenMidTransitionArtifact) {
  // west-first ramps to negative-first in four batches from cycle 300.
  // The union of the two turn models closes a turn cycle, and the knot
  // forms while only the first batch has switched: the artifact names
  // that cumulative union, and its cycle needs an edge of each relation.
  exp::SweepSpec spec;
  spec.topologies = {"mesh:3x3:1"};
  spec.routings = {"west-first"};
  spec.reconfig_plans = {"ramp:negative-first/4/400@300"};
  spec.loads = {0.9};
  spec.replications = 2;
  spec.base.buffer_depth = 2;
  const std::string actual = render_sweep_artifact(spec);
  ASSERT_FALSE(actual.empty()) << "no wait-cycle postmortem";
  expect_golden(actual, "postmortem_mid_transition.json");

  const audit::json::Value root = audit::json::parse(actual);
  const audit::json::Value& pm = root.at("postmortem");
  EXPECT_EQ(pm.at("relation").as_string(),
            "transition|west-first>negative-first/1ff.003");
  EXPECT_LT(pm.at("cycle").as_number(), 700.0);  // before the second batch
  EXPECT_FALSE(pm.at("certified").as_bool());
  const auto& cycles = pm.at("cycles").as_array();
  ASSERT_FALSE(cycles.empty());
  for (const auto& cycle : cycles) {
    EXPECT_TRUE(cycle.at("union_crossing").as_bool());
    std::map<std::string, int> origins;
    for (const auto& edge : cycle.at("edges").as_array()) {
      ++origins[edge.at("origin").as_string()];
    }
    EXPECT_GT(origins["old-only"], 0);
    EXPECT_GT(origins["new-only"], 0);
    EXPECT_EQ(origins["neither"], 0);
  }
}

// ---------------------------------------------------------------------------
// Wait-knot golden: the detector's cycle and every postmortem's cycles
// ---------------------------------------------------------------------------

template <typename T>
void write_list(std::ostream& os, const std::vector<T>& items) {
  os << '[';
  for (std::size_t i = 0; i < items.size(); ++i) {
    os << (i == 0 ? "" : " ") << items[i];
  }
  os << ']';
}

/// One line per run: the detector's DeadlockInfo, then each postmortem's
/// reason, victim and cycles (hop packet > waits_for channel : chain).
std::string wait_knot_line(const std::string& name,
                           const topology::Topology& topo,
                           const routing::RoutingFunction& routing,
                           const sim::SimConfig& cfg) {
  sim::Simulator simulator(topo, routing, cfg);
  (void)simulator.run();
  std::ostringstream os;
  os << name << " | deadlock ";
  if (const auto& info = simulator.deadlock()) {
    os << "cycle=" << info->cycle << " watchdog=" << info->from_watchdog
       << " packets=";
    write_list(os, info->packet_cycle);
    os << " blocked=";
    write_list(os, info->blocked_channels);
  } else {
    os << "none";
  }
  for (const RuntimePostmortem& pm : simulator.postmortems()) {
    os << " | pm " << to_string(pm.reason) << " cycle=" << pm.cycle
       << " victim=";
    if (pm.victim == sim::kNoPacket) {
      os << '-';
    } else {
      os << pm.victim;
    }
    os << " cycles={";
    for (std::size_t i = 0; i < pm.cycles.size(); ++i) {
      os << (i == 0 ? "" : " ") << '(';
      const auto& hops = pm.cycles[i].hops;
      for (std::size_t h = 0; h < hops.size(); ++h) {
        os << (h == 0 ? "" : " ") << hops[h].packet << '>'
           << hops[h].waits_for << ':';
        write_list(os, hops[h].chain);
      }
      os << ')';
    }
    os << '}';
  }
  return os.str();
}

std::string render_wait_knots() {
  std::ostringstream out;
  const topology::Topology ring = core::make_topology("ring:8");
  const auto ring_routing = core::make_algorithm("unrestricted", ring);

  // Halt on the canonical wedge: one wait-cycle postmortem, no victim.
  out << wait_knot_line("ring8_halt", ring, *ring_routing,
                        ring_wedge_config())
      << '\n';

  // Abort-retry with no retry budget: every wait-cycle victim is also a
  // retry exhaustion, so both reasons alternate until the capture cap.
  sim::SimConfig budget0 = ring_wedge_config();
  budget0.recovery.policy = ft::RecoveryPolicy::kAbortRetry;
  budget0.recovery.retry_budget = 0;
  out << wait_knot_line("ring8_abort_retry_budget0", ring, *ring_routing,
                        budget0)
      << '\n';
  budget0.max_postmortems = 24;
  out << wait_knot_line("ring8_abort_retry_budget0_cap24", ring,
                        *ring_routing, budget0)
      << '\n';

  sim::SimConfig drain = ring_wedge_config();
  drain.recovery.policy = ft::RecoveryPolicy::kDrain;
  out << wait_knot_line("ring8_drain", ring, *ring_routing, drain) << '\n';

  // Larger knots: unrestricted minimal routing on a longer ring, a mesh and
  // a torus, where blocked headers wait on several channels and one knot
  // holds two or three disjoint cycles.
  const struct {
    const char* topology;
    std::uint64_t seed;
  } kKnots[] = {{"ring:16", 6}, {"mesh:4x4:1", 5}, {"torus:8x8:1", 9}};
  for (const auto& knot : kKnots) {
    const topology::Topology topo = core::make_topology(knot.topology);
    const auto routing = core::make_algorithm("unrestricted", topo);
    const std::string stem =
        std::string(knot.topology) + "_seed" + std::to_string(knot.seed);
    sim::SimConfig cfg = ring_wedge_config();
    cfg.seed = knot.seed;
    out << wait_knot_line(stem + "_halt", topo, *routing, cfg) << '\n';
    cfg.recovery.policy = ft::RecoveryPolicy::kAbortRetry;
    cfg.recovery.retry_budget = 1;
    cfg.max_postmortems = 16;
    out << wait_knot_line(stem + "_abort_retry", topo, *routing, cfg)
        << '\n';
  }

  // The silent stall: a forced path ends one hop out, so the packet waits
  // on nothing and only the no-progress watchdog fires.
  const topology::Topology mesh = topology::make_mesh({4, 4});
  const routing::DimensionOrder xy(mesh);
  sim::SimConfig stall;
  stall.scripted_only = true;
  sim::ScriptedPacket pkt;
  pkt.src = 0;
  pkt.dst = mesh.node_at(std::vector<std::uint32_t>{3, 0});
  pkt.length = 4;
  pkt.forced_path = {mesh.find_channel(0, 1, 0)};
  stall.script.push_back(pkt);
  stall.warmup_cycles = 0;
  stall.measure_cycles = 100;
  stall.drain_cycles = 10000;
  stall.watchdog_cycles = 500;
  stall.deadlock_check_interval = 32;
  out << wait_knot_line("mesh4x4_watchdog", mesh, xy, stall) << '\n';
  return out.str();
}

TEST(Postmortem, WaitKnotGolden) {
  const std::string actual = render_wait_knots();
  // The runs must reach every capture reason and at least one knot that
  // holds more than one cycle, or the golden pins too little.
  for (const char* reason : {" | pm wait_cycle ", " | pm watchdog ",
                             " | pm retry_exhausted "}) {
    EXPECT_NE(actual.find(reason), std::string::npos) << reason;
  }
  EXPECT_NE(actual.find(") ("), std::string::npos)
      << "no postmortem holds two cycles";

  expect_golden(actual, "wait_knots.txt");
}

}  // namespace
}  // namespace wormnet::obs
