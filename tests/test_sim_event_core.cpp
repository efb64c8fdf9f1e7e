// Parity suite for the event-driven simulator core (DESIGN 3.11).
//
// The core schedules routers and channels from an event queue (flit arrival,
// credit return, fault epoch, retry, metrics deadline) instead of polling
// every structure every cycle, and run() fast-forwards across quiescent
// spans.  The contract is that none of this is observable: stats, JSONL
// traces and flight-recorder streams must be *byte-identical* to the polled
// semantics.  This suite pins that contract three ways:
//
//   1. fast_forward on/off produce identical stats JSON, identical JSONL
//      trace bytes and identical flight-recorder event streams — the
//      quiescent-skip path and the cycle-by-cycle path may never diverge;
//   2. traces and stats for the registry example workloads match committed
//      golden fixtures byte-for-byte (regenerate with
//      WORMNET_UPDATE_GOLDEN=1 ./test_sim_event_core);
//   3. a fault-campaign round (fault epochs + abort-retry recovery) is
//      deterministic across repeated runs and across the fast-forward knob.
//
// Part 1 also covers saturated runs whose blocked headers wait into the
// drain window, where a cycle of pure waiting does no work (a blocked header
// is only re-attempted when a channel it waits on is released).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "wormnet/core/registry.hpp"
#include "wormnet/ft/fault_plan.hpp"
#include "wormnet/ft/recovery.hpp"
#include "wormnet/obs/flight.hpp"
#include "wormnet/obs/trace.hpp"
#include "wormnet/sim/simulator.hpp"

namespace wormnet::sim {
namespace {

#ifndef WORMNET_GOLDEN_DIR
#error "tests/CMakeLists.txt must define WORMNET_GOLDEN_DIR"
#endif

struct Workload {
  const char* name;       ///< fixture stem: golden/event_core_<name>.jsonl
  const char* topology;   ///< registry spec
  const char* algorithm;  ///< registry algorithm
  double load;
};

// The registry example triples the benchmarks use, scaled down so the JSONL
// fixtures stay small while still exercising every event source: injection,
// link traversal, ejection, VC allocation stalls and drain.
const Workload kWorkloads[] = {
    {"ring8", "ring:8:2", "dateline", 0.3},
    {"mesh4x4", "mesh:4x4:2", "duato-mesh", 0.2},
    {"torus4x4", "torus:4x4:3", "duato-torus", 0.2},
};

SimConfig parity_config(double load) {
  SimConfig config;
  config.injection_rate = load;
  config.packet_length = 6;
  config.buffer_depth = 4;
  config.warmup_cycles = 50;
  config.measure_cycles = 200;
  config.drain_cycles = 4000;
  config.deadlock_check_interval = 64;
  config.seed = 17;
  return config;
}

struct RunArtifacts {
  std::string stats_json;
  std::string trace_jsonl;
  std::vector<obs::FlightEvent> flight;
};

/// Runs one workload and captures every externally observable stream.
RunArtifacts run_workload(const Workload& w, bool fast_forward,
                          const std::string& fault_plan = "none") {
  const auto topo = core::make_topology(w.topology);
  const auto algo = core::make_algorithm(w.algorithm, topo);

  SimConfig config = parity_config(w.load);
  config.fast_forward = fast_forward;

  ft::CompiledFaultPlan compiled;
  if (fault_plan != "none") {
    compiled = ft::compile(ft::parse_fault_plan(fault_plan), topo);
    config.schedule = reconfig::build_epoch_schedule(topo, compiled);
    config.recovery.policy = ft::RecoveryPolicy::kAbortRetry;
    config.recovery.packet_timeout = 150;
    config.recovery.retry_budget = 3;
  }

  std::ostringstream trace_os;
  obs::JsonlTraceSink trace(trace_os);
  config.trace = &trace;

  Simulator sim(topo, *algo, config);
  const SimStats stats = sim.run();

  RunArtifacts out;
  out.stats_json = stats.to_json();
  out.trace_jsonl = trace_os.str();
  out.flight = sim.flight().tail(sim.flight().capacity());
  return out;
}

bool flight_equal(const std::vector<obs::FlightEvent>& a,
                  const std::vector<obs::FlightEvent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].cycle != b[i].cycle || a[i].kind != b[i].kind ||
        a[i].packet != b[i].packet || a[i].channel != b[i].channel ||
        a[i].aux != b[i].aux) {
      return false;
    }
  }
  return true;
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

// --- 1. fast-forward parity ----------------------------------------------

TEST(SimEventCore, FastForwardParityOnRegistryExamples) {
  for (const Workload& w : kWorkloads) {
    const RunArtifacts skip = run_workload(w, /*fast_forward=*/true);
    const RunArtifacts step = run_workload(w, /*fast_forward=*/false);
    EXPECT_EQ(skip.stats_json, step.stats_json) << w.name;
    EXPECT_EQ(skip.trace_jsonl, step.trace_jsonl) << w.name;
    EXPECT_TRUE(flight_equal(skip.flight, step.flight)) << w.name;
  }
}

TEST(SimEventCore, FastForwardParityWithBlockedHeadersIntoDrain) {
  // Past saturation, blocked headers outlive the 250-cycle generation
  // window.  They re-attempt only when a channel they wait on is released,
  // so a drain-window cycle whose only pending work is blocked headers does
  // no work at all and may fast-forward.  The second run kills every link
  // into node 5: worms bound there wedge their neighbours, abort, back off
  // and retry, leaving long spans of pure waiting.
  const Workload saturated = {"mesh4x4_saturated", "mesh:4x4:2",
                              "duato-mesh", 0.8};
  for (const char* plan :
       {"none", "kill:1-5@120+kill:4-5@120+kill:6-5@120+kill:9-5@120"}) {
    SCOPED_TRACE(plan);
    const RunArtifacts skip = run_workload(saturated, true, plan);
    const RunArtifacts step = run_workload(saturated, false, plan);
    EXPECT_EQ(skip.stats_json, step.stats_json);
    EXPECT_EQ(skip.trace_jsonl, step.trace_jsonl);
    EXPECT_TRUE(flight_equal(skip.flight, step.flight));
  }
}

// --- 2. committed fixtures ------------------------------------------------

TEST(SimEventCore, TracesMatchGoldenFiles) {
  for (const Workload& w : kWorkloads) {
    SCOPED_TRACE(w.name);
    const RunArtifacts run = run_workload(w, /*fast_forward=*/true);
    expect_matches_golden(run.trace_jsonl,
                          std::string("event_core_") + w.name + ".jsonl");
  }
}

TEST(SimEventCore, StatsMatchGoldenFile) {
  std::ostringstream all;
  for (const Workload& w : kWorkloads) {
    all << w.name << " " << run_workload(w, /*fast_forward=*/true).stats_json
        << "\n";
  }
  expect_matches_golden(all.str(), "event_core_stats.jsonl");
}

// --- 3. fault-campaign determinism round ----------------------------------

TEST(SimEventCore, FaultRoundDeterministicAcrossFastForward) {
  // mesh:4x4:2 under duato with an adaptive-VC kill mid-window (cycle 100,
  // inside the 50+200-cycle generation span) and abort-retry recovery:
  // fault epochs, packet aborts, backoff retries and the recovery
  // bookkeeping must all land on identical cycles with the event queue
  // driving, repeatedly and regardless of quiescent-skip.
  const Workload faulted = {"mesh4x4_fault", "mesh:4x4:2", "duato-mesh", 0.2};
  const RunArtifacts first =
      run_workload(faulted, /*fast_forward=*/true, "killch:27@100");
  const RunArtifacts again =
      run_workload(faulted, /*fast_forward=*/true, "killch:27@100");
  const RunArtifacts stepped =
      run_workload(faulted, /*fast_forward=*/false, "killch:27@100");

  EXPECT_EQ(first.stats_json, again.stats_json) << "repeat run drifted";
  EXPECT_EQ(first.trace_jsonl, again.trace_jsonl) << "repeat run drifted";
  EXPECT_TRUE(flight_equal(first.flight, again.flight)) << "repeat run";

  EXPECT_EQ(first.stats_json, stepped.stats_json) << "fast-forward drifted";
  EXPECT_EQ(first.trace_jsonl, stepped.trace_jsonl) << "fast-forward drifted";
  EXPECT_TRUE(flight_equal(first.flight, stepped.flight)) << "fast-forward";

  expect_matches_golden(first.trace_jsonl, "event_core_fault_round.jsonl");
}

}  // namespace
}  // namespace wormnet::sim
