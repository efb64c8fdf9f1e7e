// Golden-file test for the Chrome trace_event renderer on the scripted
// two-packet ring run — the exact bytes ChromeTraceSink emits, committed
// under tests/golden/.  Because every timestamp derives from simulation
// cycles (never wall clock), the artifact is byte-stable across runs, hosts,
// and build modes.  Regenerate with:
//   WORMNET_UPDATE_GOLDEN=1 ./test_obs_chrome_golden
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "test_helpers.hpp"
#include "wormnet/obs/trace.hpp"
#include "wormnet/routing/unrestricted.hpp"
#include "wormnet/sim/simulator.hpp"
#include "wormnet/topology/builders.hpp"

namespace wormnet::obs {
namespace {

#ifndef WORMNET_GOLDEN_DIR
#error "tests/CMakeLists.txt must define WORMNET_GOLDEN_DIR"
#endif

/// Same scripted workload the JSONL golden pins: two 2-flit packets crossing
/// a 4-node unidirectional ring, fully deterministic.
sim::SimConfig scripted_ring_config() {
  sim::SimConfig cfg;
  cfg.scripted_only = true;
  cfg.script = {{.src = 0, .dst = 2, .length = 2, .inject_cycle = 0},
                {.src = 2, .dst = 0, .length = 2, .inject_cycle = 1}};
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 5;
  cfg.drain_cycles = 50;
  cfg.deadlock_check_interval = 0;
  cfg.seed = 7;
  return cfg;
}

std::string render_chrome_trace() {
  const auto ring = topology::make_unidirectional_ring(4, 1);
  const routing::UnrestrictedMinimal routing(ring);
  sim::SimConfig cfg = scripted_ring_config();
  std::ostringstream out;
  {
    std::vector<std::string> names;
    for (topology::ChannelId c = 0; c < ring.num_channels(); ++c) {
      names.push_back(ring.channel_name(c));
    }
    ChromeTraceSink sink(out, std::move(names));
    cfg.trace = &sink;
    (void)sim::run(ring, routing, cfg);
  }  // destructor closes the document
  return out.str();
}

TEST(ObsChromeGolden, ScriptedRunMatchesGoldenFile) {
  const std::string actual = render_chrome_trace();
  // Determinism first: two renders must agree before disk enters the game.
  ASSERT_EQ(actual, render_chrome_trace());

  const std::string path =
      std::string(WORMNET_GOLDEN_DIR) + "/chrome_trace.json";
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
  EXPECT_EQ(actual, expected.str()) << "golden drift in chrome_trace.json";
}

TEST(ObsChromeGolden, TimestampsDeriveFromCyclesOnly) {
  // The determinism contract, asserted structurally: every "ts" in the
  // document is a whole number of trace microseconds equal to some event's
  // simulation cycle — no wall-clock epoch, no run-dependent offset.
  const audit::json::Value root = audit::json::parse(render_chrome_trace());
  const auto& events = root.at("traceEvents").as_array();
  ASSERT_FALSE(events.empty());

  std::map<double, int> ts_histogram;
  double max_ts = 0.0;
  for (const auto& event : events) {
    if (!event.has("ts")) continue;  // metadata records carry no ts
    const double ts = event.at("ts").as_number();
    EXPECT_GE(ts, 0.0);
    EXPECT_EQ(ts, static_cast<double>(static_cast<std::uint64_t>(ts)))
        << "fractional timestamp: " << ts;
    ++ts_histogram[ts];
    if (ts > max_ts) max_ts = ts;
  }
  ASSERT_FALSE(ts_histogram.empty());
  // The scripted run finishes within its drain window: cycle-derived
  // timestamps are bounded by the configured horizon, which a wall-clock
  // epoch (microseconds since boot/1970) would exceed by many orders.
  const sim::SimConfig cfg = scripted_ring_config();
  EXPECT_LE(max_ts, static_cast<double>(cfg.warmup_cycles +
                                        cfg.measure_cycles +
                                        cfg.drain_cycles));
  // Rendering twice yields the identical timestamp multiset.
  const audit::json::Value root2 = audit::json::parse(render_chrome_trace());
  std::map<double, int> ts_histogram2;
  for (const auto& event : root2.at("traceEvents").as_array()) {
    if (event.has("ts")) ++ts_histogram2[event.at("ts").as_number()];
  }
  EXPECT_EQ(ts_histogram, ts_histogram2);
}

}  // namespace
}  // namespace wormnet::obs
