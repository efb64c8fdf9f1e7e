// Property-based tests for the sweep engine.
//
// The differential property is the paper's theorem run at scale: over
// randomized grids, every deadlock the flit-level simulator observes must
// land on a configuration the Duato checker did NOT certify deadlock-free.
// (The converse direction — uncertified configs eventually deadlock — is
// not a theorem at finite simulation length, so it is not asserted.)
//
// The reduction properties pin the metamorphic structure the deterministic
// reduction relies on: Aggregate is a monoid (merge associative, default
// value the identity) and folding half-sweeps then merging equals folding
// the full sweep.
//
// Configure with -DWORMNET_STRESS_TESTS=ON to multiply the randomized
// rounds (ctest label `sweep` selects these tests; see README "Testing").
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "wormnet/exp/sweep_runner.hpp"
#include "wormnet/util/rng.hpp"

namespace wormnet::exp {
namespace {

#ifdef WORMNET_STRESS_TESTS
constexpr int kRandomRounds = 12;
#else
constexpr int kRandomRounds = 3;
#endif

/// Draws a small random grid.  The pool deliberately mixes certified
/// algorithms (e-cube, duato, dateline, west-first) with the canonical
/// deadlock-prone one (unrestricted = minimal adaptive without an escape
/// structure) so both sides of the differential property get exercised.
SweepSpec random_spec(util::Xoshiro256& meta) {
  static const std::vector<std::string> kTopologies{
      "mesh:3x3", "mesh:4x4:2", "ring:6", "ring:8", "hypercube:3:2",
      "torus:4x4:2"};
  static const std::vector<std::string> kRoutings{
      "e-cube", "west-first", "duato", "dateline", "unrestricted"};

  SweepSpec spec;
  const std::size_t num_topos = 1 + meta.below(2);
  for (std::size_t i = 0; i < num_topos; ++i) {
    const std::string& t = kTopologies[meta.below(kTopologies.size())];
    if (std::find(spec.topologies.begin(), spec.topologies.end(), t) ==
        spec.topologies.end()) {
      spec.topologies.push_back(t);
    }
  }
  const std::size_t num_routings = 2 + meta.below(2);
  for (std::size_t i = 0; i < num_routings; ++i) {
    const std::string& r = kRoutings[meta.below(kRoutings.size())];
    if (std::find(spec.routings.begin(), spec.routings.end(), r) ==
        spec.routings.end()) {
      spec.routings.push_back(r);
    }
  }
  spec.loads.clear();
  const std::size_t num_loads = 1 + meta.below(2);
  for (std::size_t i = 0; i < num_loads; ++i) {
    spec.loads.push_back(0.1 + 0.4 * meta.uniform());
  }
  spec.replications = static_cast<std::uint32_t>(1 + meta.below(2));
  spec.seed = meta();
  // Deadlock-hunting methodology: small buffers, long packets, no warmup.
  spec.base.injection_rate = 0.0;  // overwritten per point
  spec.base.packet_length = 8;
  spec.base.buffer_depth = 2;
  spec.base.warmup_cycles = 0;
  spec.base.measure_cycles = 2000;
  spec.base.drain_cycles = 2000;
  spec.base.deadlock_check_interval = 64;
  return spec;
}

TEST(SweepProperties, DeadlocksOnlyOnUncertifiedConfigurations) {
  std::size_t total_points = 0;
  std::size_t total_deadlocks = 0;
  const auto check_outcome = [&](const SweepOutcome& outcome) {
    total_points += outcome.results.size();
    for (const SweepResult& r : outcome.results) {
      if (r.stats.deadlocked) {
        ++total_deadlocks;
        EXPECT_FALSE(r.certified)
            << "deadlock on a Duato-certified configuration: "
            << r.point.topology << " / " << r.point.routing << " load "
            << r.point.load << " seed " << r.point.seed;
        EXPECT_NE(r.duato, core::Conclusion::kDeadlockFree);
      }
      if (r.certified) {
        EXPECT_EQ(r.duato, core::Conclusion::kDeadlockFree);
      }
    }
    EXPECT_EQ(outcome.aggregate.certified_deadlocks, 0u);
  };

  util::Xoshiro256 meta(77);
  for (int round = 0; round < kRandomRounds; ++round) {
    const SweepSpec spec = random_spec(meta);
    RunnerOptions options;
    options.threads = 4;
    check_outcome(run_sweep(spec, options));
  }

  // Small random grids can draw only certified pairs or loads too light to
  // block, so non-vacuity is guaranteed structurally: unrestricted adaptive
  // routing on a ring wedges under the hunting methodology at these loads
  // for every seed observed, and stays subject to the same assertions.
  SweepSpec wedged = random_spec(meta);
  wedged.topologies = {"ring:8"};
  wedged.routings = {"unrestricted", "dateline"};
  wedged.loads = {0.3, 0.5};
  wedged.replications = 3;
  wedged.seed = 11;
  RunnerOptions options;
  options.threads = 4;
  check_outcome(run_sweep(wedged, options));

  EXPECT_GT(total_points, 0u);
  EXPECT_GT(total_deadlocks, 0u);
}

TEST(SweepProperties, CertifiedPairsNeverDeadlockOnDenseSeedGrid) {
  // The focused half of the differential property: hammer *only* certified
  // pairs with many replications; none may ever deadlock.
  SweepSpec spec;
  spec.topologies = {"mesh:4x4:2", "ring:8:2"};
  spec.routings = {"duato", "dateline"};
  spec.loads = {0.45};
  spec.replications = 6;
  spec.seed = 99;
  spec.base.packet_length = 16;
  spec.base.buffer_depth = 2;
  spec.base.warmup_cycles = 0;
  spec.base.measure_cycles = 4000;
  spec.base.drain_cycles = 2000;
  spec.base.deadlock_check_interval = 64;

  RunnerOptions options;
  options.threads = 4;
  const SweepOutcome outcome = run_sweep(spec, options);
  ASSERT_FALSE(outcome.results.empty());
  for (const SweepResult& r : outcome.results) {
    ASSERT_TRUE(r.certified) << r.point.topology << " / " << r.point.routing;
    EXPECT_FALSE(r.stats.deadlocked)
        << r.point.topology << " / " << r.point.routing << " seed "
        << r.point.seed;
  }
}

TEST(SweepProperties, AggregateMergeOfHalvesEqualsFullFold) {
  util::Xoshiro256 meta(31);
  const SweepSpec spec = random_spec(meta);
  RunnerOptions options;
  options.threads = 4;
  const SweepOutcome outcome = run_sweep(spec, options);
  ASSERT_GE(outcome.results.size(), 2u);

  for (const std::size_t split :
       {std::size_t{0}, std::size_t{1}, outcome.results.size() / 2,
        outcome.results.size()}) {
    Aggregate left;
    Aggregate right;
    for (std::size_t i = 0; i < outcome.results.size(); ++i) {
      (i < split ? left : right)
          .add(outcome.results[i].stats, outcome.results[i].certified);
    }
    left.merge(right);

    // Integer fields must match exactly...
    EXPECT_EQ(left.points, outcome.aggregate.points);
    EXPECT_EQ(left.deadlocks, outcome.aggregate.deadlocks);
    EXPECT_EQ(left.saturated, outcome.aggregate.saturated);
    EXPECT_EQ(left.certified_points, outcome.aggregate.certified_points);
    EXPECT_EQ(left.certified_deadlocks,
              outcome.aggregate.certified_deadlocks);
    EXPECT_EQ(left.packets_created, outcome.aggregate.packets_created);
    EXPECT_EQ(left.packets_delivered, outcome.aggregate.packets_delivered);
    EXPECT_EQ(left.measured_delivered,
              outcome.aggregate.measured_delivered);
    EXPECT_EQ(left.cycles_run, outcome.aggregate.cycles_run);
    EXPECT_EQ(left.max_hops, outcome.aggregate.max_hops);
    // ...and the floating sums up to reassociation rounding.
    EXPECT_DOUBLE_EQ(left.latency_weight,
                     outcome.aggregate.latency_weight);
    EXPECT_DOUBLE_EQ(left.latency_sum, outcome.aggregate.latency_sum);
    EXPECT_DOUBLE_EQ(left.throughput_sum,
                     outcome.aggregate.throughput_sum);
    EXPECT_DOUBLE_EQ(left.offered_sum, outcome.aggregate.offered_sum);
    EXPECT_DOUBLE_EQ(left.worst_p99, outcome.aggregate.worst_p99);
  }
}

TEST(SweepProperties, AggregateIdentityAndEmptyMerge) {
  Aggregate empty;
  EXPECT_EQ(empty.points, 0u);
  EXPECT_EQ(empty.mean_latency(), 0.0);
  EXPECT_EQ(empty.mean_throughput(), 0.0);

  sim::SimStats stats;
  stats.measured_delivered = 10;
  stats.avg_latency = 12.5;
  stats.accepted_throughput = 0.3;
  Aggregate one;
  one.add(stats, true);

  Aggregate merged = one;
  merged.merge(empty);          // right identity
  EXPECT_EQ(merged.to_json(), one.to_json());
  Aggregate merged2 = empty;
  merged2.merge(one);           // left identity
  EXPECT_EQ(merged2.to_json(), one.to_json());
}

TEST(SweepProperties, CanonicalOrderMatchesGridNesting) {
  SweepSpec spec;
  spec.topologies = {"mesh:3x3"};
  spec.routings = {"e-cube", "unrestricted"};
  spec.loads = {0.1, 0.2};
  spec.replications = 2;
  const ExpandedSweep expanded = expand(spec);
  ASSERT_EQ(expanded.points.size(), 8u);
  // routing is the outer loop after topology; load then replication inside.
  EXPECT_EQ(expanded.points[0].routing, "e-cube");
  EXPECT_EQ(expanded.points[3].routing, "e-cube");
  EXPECT_EQ(expanded.points[4].routing, "unrestricted");
  EXPECT_EQ(expanded.points[0].load, 0.1);
  EXPECT_EQ(expanded.points[2].load, 0.2);
  EXPECT_EQ(expanded.points[0].replication, 0u);
  EXPECT_EQ(expanded.points[1].replication, 1u);
  for (std::size_t i = 0; i < expanded.points.size(); ++i) {
    EXPECT_EQ(expanded.points[i].index, i);
  }
}

TEST(SweepProperties, InvalidSpecsThrow) {
  SweepSpec spec;
  EXPECT_THROW(expand(spec), std::invalid_argument);  // no topologies
  spec.topologies = {"mesh:3x3"};
  EXPECT_THROW(expand(spec), std::invalid_argument);  // no routings
  spec.routings = {"no-such-algorithm"};
  EXPECT_THROW(expand(spec), std::invalid_argument);  // unknown name
  spec.routings = {"e-cube"};
  spec.replications = 0;
  EXPECT_THROW(expand(spec), std::invalid_argument);

  EXPECT_THROW(parse_grid("topo=mesh:3x3"), std::invalid_argument);
  EXPECT_THROW(parse_grid("bogus"), std::invalid_argument);
  EXPECT_THROW(parse_grid("topo=mesh:3x3;routing=e-cube;pattern=nope"),
               std::invalid_argument);
  EXPECT_THROW(parse_grid("topo=mesh:3x3;routing=e-cube;load=0.4:0.1:0.1"),
               std::invalid_argument);
}

TEST(SweepProperties, GridLoadsAreFiniteAndNonNegative) {
  const auto error = [](const std::string& loads) -> std::string {
    try {
      (void)parse_grid("topo=mesh:3x3;routing=e-cube;load=" + loads);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_EQ(error("nan,-1"), "sweep grid: bad load 'nan'");
  EXPECT_EQ(error("0.1,-1"), "sweep grid: bad load '-1'");
  EXPECT_EQ(error("inf"), "sweep grid: bad load 'inf'");
  EXPECT_EQ(error("nan:1:0.5"), "sweep grid: bad load 'nan'");
  EXPECT_EQ(error("0:inf:0.5"), "sweep grid: bad load 'inf'");
  EXPECT_EQ(error("0.5:0.1:-0.1"), "sweep grid: bad load step '-0.1'");
  // The point count is checked before any allocation.
  EXPECT_EQ(error("0:1:1e-9"),
            "sweep grid: load range '0:1:1e-9' has more than 10000 points");
  EXPECT_EQ(error("0:1e300:1e-300"),
            "sweep grid: load range '0:1e300:1e-300' has more than 10000 "
            "points");
  EXPECT_EQ(error("0:0.5:0.25"), "");
}

TEST(SweepProperties, GridParserRoundTrips) {
  const SweepSpec spec = parse_grid(
      "topo=mesh:4x4:2,ring:8;routing=e-cube,duato;"
      "pattern=uniform,transpose;load=0.05:0.25:0.10;reps=3;seed=42");
  EXPECT_EQ(spec.topologies,
            (std::vector<std::string>{"mesh:4x4:2", "ring:8"}));
  EXPECT_EQ(spec.routings, (std::vector<std::string>{"e-cube", "duato"}));
  ASSERT_EQ(spec.patterns.size(), 2u);
  EXPECT_EQ(spec.patterns[1], sim::Pattern::kTranspose);
  ASSERT_EQ(spec.loads.size(), 3u);
  EXPECT_DOUBLE_EQ(spec.loads[0], 0.05);
  EXPECT_DOUBLE_EQ(spec.loads[2], 0.25);
  EXPECT_EQ(spec.replications, 3u);
  EXPECT_EQ(spec.seed, 42u);
}

}  // namespace
}  // namespace wormnet::exp
