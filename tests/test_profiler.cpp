// obs::Profiler unit tests: sample accumulation, the null-handle no-op
// convention, the metrics-registry bridge, and the JSON shape — plus the
// integration seams (verifier, lint engine, sweep runner) that thread a
// borrowed Profiler* through the analysis layers.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "test_helpers.hpp"
#include "wormnet/core/verifier.hpp"
#include "wormnet/exp/sweep_runner.hpp"
#include "wormnet/lint/engine.hpp"
#include "wormnet/obs/profiler.hpp"

namespace wormnet::obs {
namespace {

TEST(Profiler, AccumulatesSamplesPerPhase) {
  Profiler profiler;
  profiler.add("alpha", 2.0);
  profiler.add("alpha", 4.0);
  profiler.add("beta", 1.5);

  EXPECT_EQ(profiler.samples("alpha"), 2u);
  EXPECT_DOUBLE_EQ(profiler.total_ms("alpha"), 6.0);
  EXPECT_EQ(profiler.samples("beta"), 1u);
  EXPECT_EQ(profiler.samples("missing"), 0u);
  EXPECT_DOUBLE_EQ(profiler.total_ms("missing"), 0.0);

  const std::vector<std::string> phases = profiler.phases();
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0], "alpha");
  EXPECT_EQ(phases[1], "beta");
}

TEST(Profiler, ScopeAddsOneSample) {
  Profiler profiler;
  { Profiler::Scope scope(&profiler, "timed"); }
  EXPECT_EQ(profiler.samples("timed"), 1u);
  EXPECT_GE(profiler.total_ms("timed"), 0.0);
}

TEST(Profiler, NullScopeIsANoOp) {
  // The borrowed-handle convention: a null profiler must not even read the
  // clock.  We can only observe the "does nothing" half here.
  Profiler::Scope scope(nullptr, "ignored");
  SUCCEED();
}

TEST(Profiler, ThreadSafeAccumulation) {
  Profiler profiler;
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&profiler] {
      for (int i = 0; i < 100; ++i) profiler.add("shared", 1.0);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(profiler.samples("shared"), 400u);
  EXPECT_DOUBLE_EQ(profiler.total_ms("shared"), 400.0);
}

TEST(Profiler, ExportsToMetricsRegistry) {
  Profiler profiler;
  profiler.add("verify.duato", 3.0);
  profiler.add("verify.duato", 5.0);

  MetricsRegistry registry;
  profiler.export_to(registry);
  const Histogram& hist = registry.histogram("profile.verify.duato");
  EXPECT_EQ(hist.count(), 2u);
  EXPECT_DOUBLE_EQ(hist.sum(), 8.0);
}

TEST(Profiler, WriteJsonShape) {
  Profiler profiler;
  profiler.add("b_phase", 2.0);
  profiler.add("a_phase", 1.0);
  profiler.add("a_phase", 3.0);

  std::ostringstream os;
  profiler.write_json(os);
  const std::string text = os.str();

  const audit::json::Value root = audit::json::parse(text);
  const audit::json::Value& profile = root.at("profile");
  ASSERT_EQ(profile.keys().size(), 2u);
  const audit::json::Value& a = profile.at("a_phase");
  EXPECT_DOUBLE_EQ(a.at("count").as_number(), 2.0);
  EXPECT_DOUBLE_EQ(a.at("total_ms").as_number(), 4.0);
  EXPECT_DOUBLE_EQ(a.at("min_ms").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(a.at("max_ms").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(a.at("mean_ms").as_number(), 2.0);
  // Phase-name order in the rendered bytes.
  EXPECT_LT(text.find("a_phase"), text.find("b_phase"));
}

TEST(Profiler, VerifierRecordsPhases) {
  const topology::Topology topo = topology::make_mesh({3, 3});
  const routing::DimensionOrder routing(topo);
  Profiler profiler;
  core::VerifyOptions options;
  options.method = core::Method::kDuato;
  options.profiler = &profiler;
  const core::Verdict v = core::verify(topo, routing, options);
  EXPECT_EQ(v.conclusion, core::Conclusion::kDeadlockFree);
  EXPECT_EQ(profiler.samples("verify.state_graph"), 1u);
  EXPECT_EQ(profiler.samples("verify.duato"), 1u);
  // The checker probe's fine-grained phases surface as checker.* samples.
  bool saw_checker_phase = false;
  for (const std::string& phase : profiler.phases()) {
    if (phase.rfind("checker.", 0) == 0) saw_checker_phase = true;
  }
  EXPECT_TRUE(saw_checker_phase);
}

TEST(Profiler, LintEngineRecordsPerRuleTimings) {
  const topology::Topology topo = topology::make_unidirectional_ring(4, 1);
  const auto routing = core::make_algorithm("unrestricted", topo);

  Profiler profiler;
  lint::LintOptions options;
  options.profiler = &profiler;
  (void)lint::run_lint(topo, *routing, options);

  bool saw_rule = false;
  for (const std::string& phase : profiler.phases()) {
    if (phase.rfind("lint.WN", 0) == 0) saw_rule = true;
  }
  EXPECT_TRUE(saw_rule);
}

TEST(Profiler, SweepRunnerRecordsPointsAndAnalysis) {
  exp::SweepSpec spec;
  spec.topologies = {"mesh:3x3"};
  spec.routings = {"e-cube"};
  spec.loads = {0.1};
  spec.replications = 2;
  spec.base.warmup_cycles = 20;
  spec.base.measure_cycles = 100;
  spec.base.drain_cycles = 400;

  Profiler profiler;
  exp::RunnerOptions options;
  options.threads = 1;
  options.profiler = &profiler;
  MetricsRegistry metrics;
  options.metrics = &metrics;
  const exp::SweepOutcome outcome = exp::run_sweep(spec, options);
  ASSERT_EQ(outcome.results.size(), 2u);

  EXPECT_EQ(profiler.samples("sweep.point"), 2u);
  EXPECT_EQ(profiler.samples("sweep.analysis"), 1u);  // one cache miss
  // export_to bridged the phases into the metrics registry.
  EXPECT_EQ(metrics.histogram("profile.sweep.point").count(), 2u);
}

}  // namespace
}  // namespace wormnet::obs
