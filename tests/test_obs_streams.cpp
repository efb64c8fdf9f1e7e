// Event-stream fixtures: the JSONL trace and the full flight-recorder stream
// of runs that exercise the rare event kinds — fault and repair epochs,
// abort-retry recovery and drops, wait-commitment voids, guarded rollback,
// drain-then-switch and the no-progress watchdog.  Each run is pinned
// byte-for-byte in two fixtures: <name>.jsonl (the trace) and
// <name>.flight.jsonl (every recorder event, one JSON object per line, with
// the fields the postmortem renderer prints).  Together with the older
// goldens they must name every trace kind and every flight kind.
//
// The same runs check the recorder against the event stream: the flight
// stream must equal FlightRecorder's projection of every event the
// simulator emitted (captured by an unbounded MemoryTraceSink), so no site
// can record to the ring without emitting its event.
//
// A last fixture set pins one ordinary run under each selection policy: its
// stats JSON and its flight stream (selection_<policy>.*), and two untraced
// saturated runs the same way (saturated_<name>.*).
//
// Regenerate fixtures:  WORMNET_UPDATE_GOLDEN=1 ./test_obs_streams
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>

#include "wormnet/core/registry.hpp"
#include "wormnet/ft/fault_plan.hpp"
#include "wormnet/ft/recovery.hpp"
#include "wormnet/obs/flight.hpp"
#include "wormnet/obs/json.hpp"
#include "wormnet/obs/trace.hpp"
#include "wormnet/reconfig/schedule.hpp"
#include "wormnet/reconfig/transition_plan.hpp"
#include "wormnet/reconfig/union_routing.hpp"
#include "wormnet/routing/dimension_order.hpp"
#include "wormnet/routing/duato_adaptive.hpp"
#include "wormnet/routing/selection.hpp"
#include "wormnet/sim/simulator.hpp"
#include "wormnet/topology/builders.hpp"

namespace wormnet::obs {
namespace {

#ifndef WORMNET_GOLDEN_DIR
#error "tests/CMakeLists.txt must define WORMNET_GOLDEN_DIR"
#endif

/// Consumes one configured run.  Each scenario below builds its topology,
/// relation and plans, and hands them to a runner.
using Runner = std::function<void(const topology::Topology&,
                                  const routing::RoutingFunction&,
                                  sim::SimConfig)>;

/// One flight event per line, with the postmortem renderer's fields.
std::string render_flight(const topology::Topology& topo,
                          const std::vector<FlightEvent>& events) {
  std::ostringstream os;
  for (const FlightEvent& ev : events) {
    JsonWriter w(os);
    w.begin_object();
    w.field("cycle", ev.cycle);
    w.field("kind", ev.name());
    if (ev.packet != FlightEvent::kNone) w.field("packet", ev.packet);
    if (ev.channel != FlightEvent::kNone) {
      w.field("channel", topo.channel_name(ev.channel));
    }
    if (ev.aux != FlightEvent::kNone) w.field("aux", ev.aux);
    w.end_object();
    os << '\n';
  }
  return os.str();
}

/// A recorder large enough never to wrap in these runs.
constexpr std::size_t kFullStream = 1u << 20;

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

/// Runs with a JSONL sink and a full-stream recorder and pins both streams
/// in `stem`.jsonl and `stem`.flight.jsonl.
Runner golden(const std::string& stem) {
  return [stem](const topology::Topology& topo,
                const routing::RoutingFunction& routing,
                sim::SimConfig config) {
    std::ostringstream trace_os;
    JsonlTraceSink trace(trace_os);
    config.trace = &trace;
    config.flight_capacity = kFullStream;
    sim::Simulator simulator(topo, routing, config);
    (void)simulator.run();
    EXPECT_EQ(simulator.flight().dropped(), 0u);
    expect_matches_golden(trace_os.str(), stem + ".jsonl");
    expect_matches_golden(render_flight(topo, simulator.flight().snapshot()),
                          stem + ".flight.jsonl");
  };
}

/// Runs with an unbounded memory sink and checks that the recorder's stream
/// is exactly its projection of the emitted events.
void expect_recorder_is_projection(const topology::Topology& topo,
                                   const routing::RoutingFunction& routing,
                                   sim::SimConfig config) {
  MemoryTraceSink sink;
  config.trace = &sink;
  config.flight_capacity = kFullStream;
  sim::Simulator simulator(topo, routing, config);
  (void)simulator.run();
  FlightRecorder projection(kFullStream);
  for (const TraceEvent& ev : sink.events()) projection.record(ev);
  EXPECT_GT(simulator.flight().recorded(), 0u);
  EXPECT_EQ(render_flight(topo, simulator.flight().snapshot()),
            render_flight(topo, projection.snapshot()));
}

// --- the runs --------------------------------------------------------------

/// mesh:4x4:2 under wait-specific hpl-minimal: vc 12 dies at cycle 100 and
/// returns at 260, inside the generation window.  Headers committed to it
/// have their commitment voided; packets that can only route through it
/// time out, abort, retry, and either recover after the repair or exhaust
/// their one-retry budget and drop.
void fault_retry_run(const Runner& run) {
  const auto topo = core::make_topology("mesh:4x4:2");
  const auto routing = core::make_algorithm("hpl-minimal", topo);
  const ft::CompiledFaultPlan plan = ft::compile(
      ft::parse_fault_plan("killch:12@100+repairch:12@260"), topo);
  sim::SimConfig config;
  config.injection_rate = 0.3;
  config.packet_length = 6;
  config.buffer_depth = 2;
  config.warmup_cycles = 50;
  config.measure_cycles = 250;
  config.drain_cycles = 4000;
  config.deadlock_check_interval = 32;
  config.seed = 17;
  config.schedule = reconfig::build_epoch_schedule(topo, plan);
  config.recovery.policy = ft::RecoveryPolicy::kAbortRetry;
  config.recovery.packet_timeout = 40;
  config.recovery.retry_budget = 1;
  run(topo, *routing, config);
}

/// Destinations routed by any non-base version of a union spec.
std::size_t non_base_dests(const reconfig::UnionSpec& spec) {
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

/// The two-stage e-cube -> west-first migration of test_reconfig_rollback
/// on mesh:3x3:1 with a stub certifier deciding the guard: `rollback`
/// refuses the second stage but accepts the rollback union, otherwise every
/// epoch after the first is refused and the guard drains then switches.
/// Load 0.4 over a 600-cycle window keeps the fixtures small while both
/// plan steps (cycles 300 and 600) land inside the generation window.
void guarded_run(bool rollback, const Runner& run) {
  const topology::Topology topo = core::make_topology("mesh:3x3:1");
  const auto routing = core::make_algorithm("e-cube", topo);
  reconfig::CompiledTransitionPlan plan = reconfig::compile(
      reconfig::parse_transition_plan(
          "stage:west-first/0-3@300+stage:west-first/4-8@600"),
      topo, "e-cube");
  std::size_t calls = 0;
  reconfig::GuardCertifier certifier;
  if (rollback) {
    certifier = [](const reconfig::RelationExpr& relation) {
      return non_base_dests(*relation.transition) <= 4;
    };
  } else {
    certifier = [&calls](const reconfig::RelationExpr&) {
      return ++calls == 1;
    };
  }
  sim::SimConfig config;
  config.injection_rate = 0.4;
  config.seed = 9;
  config.packet_length = 8;
  config.buffer_depth = 2;
  config.warmup_cycles = 100;
  config.measure_cycles = 600;
  config.drain_cycles = 6000;
  config.deadlock_check_interval = 64;
  config.schedule = reconfig::build_epoch_schedule(
      topo, {}, std::move(plan), reconfig::GuardWalk{certifier});
  run(topo, *routing, config);
}

/// The silent stall of SimInvariants.WatchdogCatchesSilentStall: a
/// forced-path packet whose script ends one hop out waits on nothing, so
/// only the no-progress watchdog fires.
void watchdog_run(const Runner& run) {
  const topology::Topology topo = topology::make_mesh({4, 4});
  const routing::DimensionOrder routing(topo);
  sim::SimConfig config;
  config.scripted_only = true;
  sim::ScriptedPacket pkt;
  pkt.src = 0;
  pkt.dst = topo.node_at(std::vector<std::uint32_t>{3, 0});
  pkt.length = 4;
  pkt.forced_path = {topo.find_channel(0, 1, 0)};
  config.script.push_back(pkt);
  config.warmup_cycles = 0;
  config.measure_cycles = 100;
  config.drain_cycles = 10000;
  config.watchdog_cycles = 500;
  config.deadlock_check_interval = 32;
  run(topo, routing, config);
}

void rollback_run(const Runner& run) { guarded_run(true, run); }
void drain_switch_run(const Runner& run) { guarded_run(false, run); }

const struct {
  const char* stem;
  void (*scenario)(const Runner&);
} kRuns[] = {
    {"stream_fault_retry", fault_retry_run},
    {"stream_rollback", rollback_run},
    {"stream_drain_switch", drain_switch_run},
    {"stream_watchdog", watchdog_run},
};

TEST(ObsStreams, RunsMatchGoldens) {
  for (const auto& r : kRuns) {
    SCOPED_TRACE(r.stem);
    r.scenario(golden(r.stem));
  }
}

TEST(ObsStreams, RecorderIsTheProjectionOfTheEventStream) {
  for (const auto& r : kRuns) {
    SCOPED_TRACE(r.stem);
    r.scenario(expect_recorder_is_projection);
  }
}

/// The run of SelectionPolicies.DuatoMeshDelivers (mesh:4x4:2, duato-mesh,
/// load 0.15, seed 17) under each selection policy, pinned by its stats JSON
/// and its full flight stream in selection_<policy>.{stats.json,flight.jsonl}.
/// Which free candidate a header takes, and the RNG draws kRandom makes,
/// show in every acquire event and in the latency figures.
TEST(ObsStreams, SelectionPoliciesMatchGoldens) {
  const topology::Topology topo = topology::make_mesh({4, 4}, 2);
  const auto routing = routing::make_duato_mesh(topo);
  for (const routing::SelectionPolicy policy :
       {routing::SelectionPolicy::kInOrder, routing::SelectionPolicy::kRandom}) {
    const std::string stem =
        std::string("selection_") + routing::to_string(policy);
    SCOPED_TRACE(stem);
    sim::SimConfig config;
    config.injection_rate = 0.15;
    config.selection = policy;
    config.warmup_cycles = 300;
    config.measure_cycles = 2000;
    config.drain_cycles = 6000;
    config.seed = 17;
    config.flight_capacity = kFullStream;
    sim::Simulator simulator(topo, *routing, config);
    const sim::SimStats stats = simulator.run();
    EXPECT_EQ(simulator.flight().dropped(), 0u);
    expect_matches_golden(stats.to_json() + "\n", stem + ".stats.json");
    expect_matches_golden(render_flight(topo, simulator.flight().snapshot()),
                          stem + ".flight.jsonl");
  }
}

/// Saturated untraced runs, pinned by their stats JSON and full flight
/// stream in saturated_<name>.{stats.json,flight.jsonl}.  Load 0.9 is past
/// saturation on both networks, so links see several forwarding and
/// injection candidates in one cycle and nodes several ejecting inputs;
/// depth-1 buffers on the torus make every queue drain and refill on
/// alternate flits.  No sink is attached, so these runs take the flit path
/// that skips every trace-only emit.
TEST(ObsStreams, SaturatedUntracedRunsMatchGoldens) {
  const struct {
    const char* name;
    const char* topology;
    const char* relation;
    std::uint32_t buffer_depth;
    std::uint64_t measure_cycles;
  } kSaturated[] = {
      {"torus4x4_depth1", "torus:4x4:3", "duato-torus", 1, 300},
      {"mesh8x8", "mesh:8x8:2", "duato-mesh", 4, 30},
  };
  for (const auto& run : kSaturated) {
    const std::string stem = std::string("saturated_") + run.name;
    SCOPED_TRACE(stem);
    const topology::Topology topo = core::make_topology(run.topology);
    const auto routing = core::make_algorithm(run.relation, topo);
    sim::SimConfig config;
    config.injection_rate = 0.9;
    config.buffer_depth = run.buffer_depth;
    config.warmup_cycles = 30;
    config.measure_cycles = run.measure_cycles;
    config.drain_cycles = 6000;
    config.seed = 23;
    config.flight_capacity = kFullStream;
    sim::Simulator simulator(topo, *routing, config);
    const sim::SimStats stats = simulator.run();
    EXPECT_FALSE(stats.deadlocked);
    EXPECT_EQ(simulator.flight().dropped(), 0u);
    expect_matches_golden(stats.to_json() + "\n", stem + ".stats.json");
    expect_matches_golden(render_flight(topo, simulator.flight().snapshot()),
                          stem + ".flight.jsonl");
  }
}

/// Every `"KEY":"NAME"` string value in the committed goldens.
std::set<std::string> golden_values(const std::string& key) {
  std::set<std::string> names;
  const std::string needle = "\"" + key + "\":\"";
  for (const auto& entry :
       std::filesystem::directory_iterator(WORMNET_GOLDEN_DIR)) {
    std::ifstream file(entry.path(), std::ios::binary);
    std::ostringstream text;
    text << file.rdbuf();
    const std::string body = text.str();
    for (std::size_t at = body.find(needle); at != std::string::npos;
         at = body.find(needle, at + 1)) {
      const std::size_t start = at + needle.size();
      names.insert(body.substr(start, body.find('"', start) - start));
    }
  }
  return names;
}

TEST(ObsStreams, GoldensCoverEveryTraceAndFlightKind) {
  const std::set<std::string> trace_names = golden_values("ev");
  for (const char* name :
       {"create", "inject", "route", "vc_alloc", "flit", "block", "unblock",
        "eject", "done", "dl_check", "deadlock", "fault", "repair", "abort",
        "retry", "recovered", "switch", "rollback", "drain_switch"}) {
    EXPECT_TRUE(trace_names.count(name)) << "no golden shows trace " << name;
  }
  const std::set<std::string> flight_names = golden_values("kind");
  for (const char* name :
       {"acquire", "release", "wait", "wait_void", "fault", "repair", "abort",
        "retry", "drop", "deadlock", "watchdog", "switch", "rollback",
        "drain-switch"}) {
    EXPECT_TRUE(flight_names.count(name)) << "no golden shows flight " << name;
  }
}

}  // namespace
}  // namespace wormnet::obs
