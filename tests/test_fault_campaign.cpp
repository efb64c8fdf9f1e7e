// Golden-file test for a fault-injection sweep campaign: a small grid with a
// real fault axis (none / adaptive-VC kill / escape-disconnecting link kill)
// under abort-retry, rendered to JSONL and compared byte-for-byte against
// tests/golden/fault_campaign.jsonl.  The parallel path (4 threads) renders
// against the committed fixture and against a single-threaded run, so this
// pins both the output format and the determinism of fault epochs, per-epoch
// re-verification, and recovery bookkeeping.  Regenerate with:
//   WORMNET_UPDATE_GOLDEN=1 ./test_fault_campaign
#include <gtest/gtest.h>

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

/// duato-mesh on mesh:4x4:2 across three plans: pristine, an adaptive-VC
/// kill (channel 27 = vc1 of link 5->6; the escape layer survives, so the
/// epoch re-certifies), and a full link kill (escape disconnected, epoch
/// uncertified, stranded packets dropped via retry-budget exhaustion).
SweepSpec campaign_spec() {
  SweepSpec spec;
  spec.topologies = {"mesh:4x4:2"};
  spec.routings = {"duato"};
  spec.fault_plans = {"none", "killch:27@300", "kill:5-6@400"};
  spec.loads = {0.2};
  spec.replications = 2;
  spec.seed = 9;
  spec.base.packet_length = 8;
  spec.base.buffer_depth = 4;
  spec.base.warmup_cycles = 100;
  spec.base.measure_cycles = 500;
  spec.base.drain_cycles = 6000;
  spec.base.deadlock_check_interval = 64;
  spec.base.recovery.policy = ft::RecoveryPolicy::kAbortRetry;
  spec.base.recovery.packet_timeout = 150;
  spec.base.recovery.retry_budget = 3;
  return spec;
}

SweepOutcome campaign_outcome(std::size_t threads) {
  RunnerOptions options;
  options.threads = threads;
  return run_sweep(campaign_spec(), options);
}

std::string render_jsonl(const SweepOutcome& outcome) {
  std::ostringstream os;
  write_jsonl(os, outcome);
  return os.str();
}

TEST(FaultCampaign, JsonlMatchesGoldenFile) {
  const std::string actual = render_jsonl(campaign_outcome(4));
  const std::string path =
      std::string(WORMNET_GOLDEN_DIR) + "/fault_campaign.jsonl";
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
  EXPECT_EQ(actual, expected.str()) << "golden drift in fault_campaign.jsonl";
}

TEST(FaultCampaign, ByteIdenticalAcrossThreadCounts) {
  const std::string inline_run = render_jsonl(campaign_outcome(1));
  for (const std::size_t threads : {2u, 4u}) {
    EXPECT_EQ(render_jsonl(campaign_outcome(threads)), inline_run)
        << threads << " threads";
  }
}

TEST(FaultCampaign, RowsCarryTheRecoveryContract) {
  const SweepOutcome outcome = campaign_outcome(4);
  std::istringstream lines(render_jsonl(outcome));
  std::string line;
  std::size_t certified_faulted = 0;
  std::size_t uncertified_with_drops = 0;
  while (std::getline(lines, line)) {
    const audit::json::Value obj = audit::json::parse(line);
    if (obj.has("aggregate")) continue;
    const bool certified = obj.at("certified").as_bool();
    const auto created = obj.at("packets_created").as_number();
    const auto delivered = obj.at("packets_delivered").as_number();
    const auto dropped = obj.at("packets_dropped").as_number();
    EXPECT_FALSE(obj.at("deadlocked").as_bool());
    if (certified) {
      // The headline property: certified points (including fault epochs
      // that re-certified) deliver every accepted packet under abort-retry.
      EXPECT_EQ(dropped, 0.0) << line;
      EXPECT_EQ(delivered, created) << line;
      if (obj.at("fault_epochs").as_number() > 0) ++certified_faulted;
    } else {
      EXPECT_GT(obj.at("uncertified_epochs").as_number(), 0.0) << line;
      // Stranded packets are dropped via budget exhaustion, never lost
      // silently — the books still balance.
      EXPECT_EQ(delivered + dropped, created) << line;
      if (dropped > 0.0) ++uncertified_with_drops;
    }
  }
  // The campaign is non-vacuous on both sides of the certification line.
  EXPECT_GT(certified_faulted, 0u);
  EXPECT_GT(uncertified_with_drops, 0u);
  EXPECT_EQ(outcome.aggregate.certified_deadlocks, 0u);
}

}  // namespace
}  // namespace wormnet::exp
