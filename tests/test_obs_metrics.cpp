// Metrics registry tests: instrument behaviour, JSON export, and the
// per-epoch channel series the simulator populates.
#include <gtest/gtest.h>

#include <sstream>

#include "test_helpers.hpp"

namespace wormnet::obs {
namespace {

TEST(ObsMetrics, CounterAndGaugeBasics) {
  MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());
  reg.counter("flits").inc();
  reg.counter("flits").inc(4);
  EXPECT_EQ(reg.counter("flits").value(), 5u);
  reg.counter("flits").set(2);
  EXPECT_EQ(reg.counter("flits").value(), 2u);
  reg.gauge("load").set(0.25);
  EXPECT_DOUBLE_EQ(reg.gauge("load").value(), 0.25);
  EXPECT_FALSE(reg.empty());
}

TEST(ObsMetrics, RegistryHandsOutStableReferences) {
  MetricsRegistry reg;
  Counter& a = reg.counter("a");
  // Creating many more instruments must not invalidate the first reference.
  for (int i = 0; i < 100; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    reg.counter(name).inc();
  }
  a.inc(7);
  EXPECT_EQ(reg.counter("a").value(), 7u);
  EXPECT_EQ(&a, &reg.counter("a"));
}

TEST(ObsMetrics, HistogramTracksExactMomentsAndBuckets) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);

  h.add(1.0);   // bucket 0 (<= 1)
  h.add(2.0);   // bucket 1 (<= 2)
  h.add(3.0);   // bucket 2 (<= 4)
  h.add(100.0); // bucket 7 (<= 128)
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 106.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 26.5);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.buckets()[7], 1u);

  // Beyond 2^kBuckets lands in the overflow bucket.
  h.add(1e18);
  EXPECT_EQ(h.buckets()[Histogram::kBuckets], 1u);
}

TEST(ObsMetrics, SeriesKeepsSamplesAndLabels) {
  Series s;
  s.set_labels({"ch0", "ch1"});
  s.add(256, {1.0, 2.0});
  s.add(512, {3.0, 4.0});
  ASSERT_EQ(s.samples().size(), 2u);
  EXPECT_EQ(s.samples()[0].cycle, 256u);
  EXPECT_EQ(s.samples()[1].values[1], 4.0);
  ASSERT_EQ(s.labels().size(), 2u);
  EXPECT_EQ(s.labels()[0], "ch0");
}

TEST(ObsMetrics, JsonExportIsDeterministicAndComplete) {
  MetricsRegistry reg;
  reg.counter("zeta").set(3);
  reg.counter("alpha").inc();
  reg.gauge("g").set(1.5);
  reg.histogram("h").add(2.0);
  reg.series("s").set_labels({"x"});
  reg.series("s").add(10, {0.5});

  std::ostringstream a, b;
  reg.write_json(a);
  reg.write_json(b);
  EXPECT_EQ(a.str(), b.str());  // deterministic

  const std::string text = a.str();
  // std::map ordering: "alpha" serializes before "zeta".
  EXPECT_LT(text.find("\"alpha\""), text.find("\"zeta\""));
  for (const char* needle :
       {"\"counters\"", "\"gauges\"", "\"histograms\"", "\"series\"",
        "\"count\":1", "\"mean\":2", "\"labels\":[\"x\"]", "\"cycles\":[10]",
        "\"le\":", "\"g\":1.5"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

TEST(ObsMetrics, SimulatorPopulatesChannelSeriesPerEpoch) {
  const auto topo = topology::make_mesh({4, 4}, 2);
  const auto routing = routing::make_duato_mesh(topo);
  sim::SimConfig cfg;
  cfg.injection_rate = 0.2;
  cfg.warmup_cycles = 128;
  cfg.measure_cycles = 1024;
  cfg.drain_cycles = 4000;
  cfg.seed = 5;
  MetricsRegistry metrics;
  cfg.metrics = &metrics;
  cfg.metrics_epoch = 128;
  const sim::SimStats stats = sim::run(topo, *routing, cfg);
  ASSERT_FALSE(stats.deadlocked);

  for (const char* name : {"channel_occupancy", "channel_stall_cycles",
                           "channel_utilization"}) {
    const Series& s = metrics.series(name);
    EXPECT_EQ(s.labels().size(), topo.num_channels()) << name;
    ASSERT_GE(s.samples().size(),
              (cfg.warmup_cycles + cfg.measure_cycles) / cfg.metrics_epoch)
        << name;
    for (const Series::Sample& sample : s.samples()) {
      EXPECT_EQ(sample.cycle % cfg.metrics_epoch, 0u);
      ASSERT_EQ(sample.values.size(), topo.num_channels());
    }
  }
  // Per-epoch utilization is a rate in [0, 1].
  for (const auto& sample : metrics.series("channel_utilization").samples()) {
    for (double u : sample.values) {
      EXPECT_GE(u, 0.0);
      EXPECT_LE(u, 1.0);
    }
  }
  // End-of-run scalars mirror SimStats.
  EXPECT_EQ(metrics.counter("packets_delivered").value(),
            stats.packets_delivered);
  EXPECT_EQ(metrics.counter("deadlocked").value(), 0u);
  EXPECT_DOUBLE_EQ(metrics.gauge("avg_latency").value(), stats.avg_latency);
  EXPECT_GT(metrics.histogram("packet_latency").count(), 0u);
  EXPECT_EQ(metrics.histogram("packet_latency").count(),
            stats.measured_delivered);
}

TEST(ObsMetrics, SaturatedAllocationWastesFewAttempts) {
  // Work units of the allocation layer.  A blocked header re-attempts only
  // when a channel it waits on is released, so even past saturation most
  // attempts are grants.  Waking every blocked header on every release (the
  // scheme the waiter lists replaced) costs 7.5 attempts per grant on this
  // run; the waiter lists cost 1.7.
  const auto topo = topology::make_mesh({8, 8}, 2);
  const auto routing = routing::make_duato_mesh(topo);
  sim::SimConfig cfg;
  cfg.injection_rate = 0.8;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 2000;
  cfg.drain_cycles = 8000;
  cfg.seed = 99;
  MetricsRegistry metrics;
  cfg.metrics = &metrics;
  const sim::SimStats stats = sim::run(topo, *routing, cfg);
  ASSERT_FALSE(stats.deadlocked);
  ASSERT_LT(stats.accepted_throughput, 0.5 * stats.offered_load);  // saturated
  const std::uint64_t attempts = metrics.counter("alloc_attempts").value();
  const std::uint64_t grants = metrics.counter("alloc_grants").value();
  // Every delivered packet acquired one channel per hop.
  ASSERT_GE(grants, stats.packets_delivered);
  EXPECT_LT(static_cast<double>(attempts) / static_cast<double>(grants), 3.0);
  // Every attempt of this wait-on-any relation reads the relation table,
  // and most reads find their row already filled: 4,023 fills for 126,413
  // lookups on this run.  Duato's mesh relation is R: N x N -> P(C), so its
  // rows are keyed by node; keyed by input channel they would take 0.11
  // fills per lookup.
  const std::uint64_t lookups = metrics.counter("route_lookups").value();
  const std::uint64_t fills = metrics.counter("route_fills").value();
  EXPECT_EQ(lookups, attempts);
  ASSERT_GT(fills, 0u);
  EXPECT_LT(static_cast<double>(fills) / static_cast<double>(lookups), 0.05);
}

TEST(ObsMetrics, CheckerProbeCountsWorkAndPhases) {
  const auto topo = topology::make_mesh({3, 3}, 2);
  const auto routing = routing::make_duato_mesh(topo);
  CheckerStats stats;
  {
    ProbeScope scope(stats);
    const cdg::StateGraph states(topo, *routing);
    const auto result = cdg::search(states);
    EXPECT_TRUE(result.found);
  }
  EXPECT_GT(stats.ecdg_builds, 0u);
  EXPECT_GT(stats.ecdg_direct_edges, 0u);
  EXPECT_GT(stats.subfunction_candidates, 0u);
  EXPECT_FALSE(stats.phase_seconds.empty());
  for (const auto& [phase, seconds] : stats.phase_seconds) {
    EXPECT_GE(seconds, 0.0) << phase;
    EXPECT_GT(stats.phase_calls.at(phase), 0u) << phase;
  }
  std::ostringstream os;
  stats.write_json(os);
  EXPECT_NE(os.str().find("\"ecdg_builds\""), std::string::npos);
  EXPECT_NE(os.str().find("\"phases\""), std::string::npos);

  // Outside the scope the probe is uninstalled: no further accumulation.
  const std::uint64_t before = stats.ecdg_builds;
  const cdg::StateGraph states2(topo, *routing);
  (void)cdg::search(states2);
  EXPECT_EQ(stats.ecdg_builds, before);
}

}  // namespace
}  // namespace wormnet::obs
