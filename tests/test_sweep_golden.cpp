// Golden-file tests for the sweep engine's JSONL and CSV output on a tiny
// fixed grid — the exact bytes `wormnet-sweep` would emit, committed under
// tests/golden/.  A drift in field order, number formatting, seed
// derivation, or simulation behaviour shows up as a byte diff here.
//
// The parallel path (4 threads) is rendered against goldens produced once,
// so this doubles as an end-to-end determinism check.  Regenerate with:
//   WORMNET_UPDATE_GOLDEN=1 ./test_sweep_golden
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "test_helpers.hpp"
#include "wormnet/exp/sweep_io.hpp"
#include "wormnet/exp/sweep_runner.hpp"

namespace wormnet::exp {
namespace {

#ifndef WORMNET_GOLDEN_DIR
#error "tests/CMakeLists.txt must define WORMNET_GOLDEN_DIR"
#endif

/// The tiny fixed grid: one certified and one deadlock-prone pair, two
/// loads, two replications — 8 points, < 100 ms.
SweepOutcome tiny_outcome() {
  SweepSpec spec;
  spec.topologies = {"mesh:3x3", "ring:6"};
  spec.routings = {"e-cube", "unrestricted"};
  spec.loads = {0.1, 0.3};
  spec.replications = 2;
  spec.seed = 5;
  spec.base.packet_length = 8;
  spec.base.buffer_depth = 2;
  spec.base.warmup_cycles = 50;
  spec.base.measure_cycles = 400;
  spec.base.drain_cycles = 1500;
  spec.base.deadlock_check_interval = 64;

  RunnerOptions options;
  options.threads = 4;  // the parallel path must hit the same bytes
  return run_sweep(spec, options);
}

std::string golden_path(const std::string& name) {
  return std::string(WORMNET_GOLDEN_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream os;
  os << file.rdbuf();
  return os.str();
}

void compare_or_update(const std::string& name, const std::string& actual) {
  const std::string path = golden_path(name);
  if (std::getenv("WORMNET_UPDATE_GOLDEN") != nullptr) {
    std::ofstream file(path, std::ios::binary);
    ASSERT_TRUE(file.good()) << "cannot write " << path;
    file << actual;
    GTEST_SKIP() << "updated " << path;
  }
  const std::string expected = read_file(path);
  ASSERT_FALSE(expected.empty())
      << path << " missing — regenerate with WORMNET_UPDATE_GOLDEN=1";
  EXPECT_EQ(actual, expected) << "golden drift in " << name;
}

TEST(SweepGolden, JsonlMatchesGoldenFile) {
  std::ostringstream os;
  write_jsonl(os, tiny_outcome());
  compare_or_update("sweep_tiny.jsonl", os.str());
}

TEST(SweepGolden, CsvMatchesGoldenFile) {
  std::ostringstream os;
  write_csv(os, tiny_outcome());
  compare_or_update("sweep_tiny.csv", os.str());
}

TEST(SweepGolden, JsonlRowsParseAndCarryTheContract) {
  std::ostringstream os;
  const SweepOutcome outcome = tiny_outcome();
  write_jsonl(os, outcome);

  std::istringstream lines(os.str());
  std::string line;
  std::size_t rows = 0;
  bool saw_summary = false;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    const audit::json::Value obj = audit::json::parse(line);
    if (obj.has("aggregate")) {
      saw_summary = true;
      const audit::json::Value& aggregate = obj.at("aggregate");
      EXPECT_EQ(aggregate.at("points").as_number(),
                static_cast<double>(outcome.results.size()));
      // The theorem, in one field: certified configs never deadlock.
      EXPECT_EQ(aggregate.at("certified_deadlocks").as_number(), 0.0);
      // 2 topologies × 2 routings minus the skipped ring:6 × e-cube combo.
      EXPECT_EQ(obj.at("cache").at("misses").as_number(), 3.0);
      continue;
    }
    // Point rows: index matches line order, verdict fields are coherent.
    EXPECT_EQ(obj.at("i").as_number(), static_cast<double>(rows));
    EXPECT_TRUE(obj.has("topology"));
    EXPECT_TRUE(obj.has("routing"));
    EXPECT_TRUE(obj.has("seed"));
    if (obj.at("deadlocked").as_bool()) {
      EXPECT_FALSE(obj.at("certified").as_bool());
      EXPECT_NE(obj.at("duato").as_string(), "deadlock-free");
    }
    ++rows;
  }
  EXPECT_EQ(rows, outcome.results.size());
  EXPECT_TRUE(saw_summary);
}

TEST(SweepGolden, CsvHeaderAndShape) {
  std::ostringstream os;
  const SweepOutcome outcome = tiny_outcome();
  write_csv(os, outcome);
  std::istringstream lines(os.str());
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));
  EXPECT_EQ(header.substr(0, 31), "i,topology,routing,pattern,load");
  std::size_t rows = 0;
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    // Every row has exactly as many fields as the header.
    EXPECT_EQ(std::count(line.begin(), line.end(), ','),
              std::count(header.begin(), header.end(), ','));
    ++rows;
  }
  EXPECT_EQ(rows, outcome.results.size());
}

}  // namespace
}  // namespace wormnet::exp
