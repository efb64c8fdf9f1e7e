// Event-trace tests: the golden JSONL schema, behaviour neutrality of the
// disabled path, and the sink implementations themselves.
#include <gtest/gtest.h>

#include <sstream>

#include "test_helpers.hpp"

namespace wormnet::obs {
namespace {

/// A deterministic scripted run: two 2-flit packets crossing a 4-node
/// unidirectional ring.  Small enough that the full event stream is auditable
/// by hand, which is what pins the JSONL schema down.
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

TEST(ObsTrace, GoldenJsonlForScriptedTwoPacketRun) {
  const auto ring = topology::make_unidirectional_ring(4, 1);
  const routing::UnrestrictedMinimal routing(ring);
  sim::SimConfig cfg = scripted_ring_config();
  std::ostringstream trace;
  JsonlTraceSink sink(trace);
  cfg.trace = &sink;
  const sim::SimStats stats = sim::run(ring, routing, cfg);
  ASSERT_FALSE(stats.deadlocked);
  ASSERT_EQ(stats.packets_delivered, 2u);

  const std::string golden =
      R"({"c":0,"ev":"create","pkt":0,"src":0,"dst":2,"len":2,"measured":true}
{"c":0,"ev":"route","pkt":0,"node":0,"cands":1}
{"c":0,"ev":"vc_alloc","pkt":0,"node":0,"ch":0}
{"c":0,"ev":"inject","pkt":0,"node":0,"ch":0}
{"c":1,"ev":"create","pkt":1,"src":2,"dst":0,"len":2,"measured":true}
{"c":1,"ev":"route","pkt":1,"node":2,"cands":1}
{"c":1,"ev":"vc_alloc","pkt":1,"node":2,"ch":2}
{"c":1,"ev":"route","pkt":0,"node":1,"in":0,"cands":1}
{"c":1,"ev":"vc_alloc","pkt":0,"node":1,"ch":1}
{"c":1,"ev":"flit","pkt":0,"to":0,"tail":true}
{"c":1,"ev":"flit","pkt":0,"to":1,"from":0,"head":true}
{"c":1,"ev":"inject","pkt":1,"node":2,"ch":2}
{"c":2,"ev":"route","pkt":1,"node":3,"in":2,"cands":1}
{"c":2,"ev":"vc_alloc","pkt":1,"node":3,"ch":3}
{"c":2,"ev":"flit","pkt":0,"to":1,"from":0,"tail":true}
{"c":2,"ev":"flit","pkt":1,"to":2,"tail":true}
{"c":2,"ev":"flit","pkt":1,"to":3,"from":2,"head":true}
{"c":2,"ev":"eject","pkt":0,"node":2,"ch":1}
{"c":3,"ev":"flit","pkt":1,"to":3,"from":2,"tail":true}
{"c":3,"ev":"eject","pkt":1,"node":0,"ch":3}
{"c":3,"ev":"eject","pkt":0,"node":2,"ch":1,"tail":true}
{"c":3,"ev":"done","pkt":0,"node":2,"lat":3}
{"c":4,"ev":"eject","pkt":1,"node":0,"ch":3,"tail":true}
{"c":4,"ev":"done","pkt":1,"node":0,"lat":3}
)";
  EXPECT_EQ(trace.str(), golden);
}

/// Compares every SimStats field exactly; doubles must match bit for bit,
/// since tracing is forbidden from perturbing simulation behaviour.
void expect_identical_stats(const sim::SimStats& a, const sim::SimStats& b) {
  EXPECT_EQ(a.deadlocked, b.deadlocked);
  EXPECT_EQ(a.saturated, b.saturated);
  EXPECT_EQ(a.packets_created, b.packets_created);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.measured_created, b.measured_created);
  EXPECT_EQ(a.measured_delivered, b.measured_delivered);
  EXPECT_EQ(a.flits_ejected_in_window, b.flits_ejected_in_window);
  EXPECT_EQ(a.avg_latency, b.avg_latency);
  EXPECT_EQ(a.p50_latency, b.p50_latency);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_EQ(a.avg_network_latency, b.avg_network_latency);
  EXPECT_EQ(a.offered_load, b.offered_load);
  EXPECT_EQ(a.accepted_throughput, b.accepted_throughput);
  EXPECT_EQ(a.avg_channel_utilization, b.avg_channel_utilization);
  EXPECT_EQ(a.max_channel_utilization, b.max_channel_utilization);
  EXPECT_EQ(a.max_hops, b.max_hops);
  EXPECT_EQ(a.cycles_run, b.cycles_run);
}

TEST(ObsTrace, TracedRunIsBitIdenticalToUntracedRun) {
  const auto topo = topology::make_mesh({4, 4}, 2);
  const auto routing = routing::make_duato_mesh(topo);
  sim::SimConfig cfg;
  cfg.injection_rate = 0.25;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 1000;
  cfg.drain_cycles = 4000;
  cfg.seed = 42;

  const sim::SimStats untraced = sim::run(topo, *routing, cfg);

  MemoryTraceSink sink;
  MetricsRegistry metrics;
  cfg.trace = &sink;
  cfg.metrics = &metrics;
  const sim::SimStats traced = sim::run(topo, *routing, cfg);

  EXPECT_GT(sink.total_emitted(), 0u);
  EXPECT_FALSE(metrics.empty());
  expect_identical_stats(untraced, traced);
}

TEST(ObsTrace, UntracedConfigEmitsNothing) {
  // cfg.trace defaults to null; a sink that is never wired up must stay
  // silent even while simulations run next to it.
  const auto ring = topology::make_unidirectional_ring(4, 1);
  const routing::UnrestrictedMinimal routing(ring);
  MemoryTraceSink bystander;
  const sim::SimStats stats = sim::run(ring, routing, scripted_ring_config());
  EXPECT_EQ(stats.packets_delivered, 2u);
  EXPECT_EQ(bystander.total_emitted(), 0u);
  EXPECT_TRUE(bystander.events().empty());
}

TEST(ObsTrace, BlockEventsCarryTheWaitingSet) {
  // The canonical 1-VC ring deadlock: every wedged packet must have logged a
  // block event naming at least one waited-for channel.
  const auto ring = topology::make_unidirectional_ring(4, 1);
  const routing::UnrestrictedMinimal routing(ring);
  sim::SimConfig cfg;
  cfg.injection_rate = 0.9;
  cfg.packet_length = 12;
  cfg.buffer_depth = 2;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 20000;
  cfg.drain_cycles = 5000;
  cfg.deadlock_check_interval = 64;
  cfg.seed = 99;
  MemoryTraceSink sink;
  cfg.trace = &sink;
  const sim::SimStats stats = sim::run(ring, routing, cfg);
  ASSERT_TRUE(stats.deadlocked);
  ASSERT_FALSE(stats.deadlock.packet_cycle.size() < 2);

  const std::vector<TraceEvent> events = sink.events();
  bool saw_detection = false;
  for (const TraceEvent& ev : events) {
    if (ev.kind == EventKind::kBlock) {
      EXPECT_FALSE(ev.list.empty()) << "block event without a waiting set";
    }
    if (ev.kind == EventKind::kDeadlockDetected && !ev.flag) {
      saw_detection = true;
      EXPECT_EQ(ev.list.size(), stats.deadlock.packet_cycle.size());
    }
  }
  EXPECT_TRUE(saw_detection);
  for (const sim::PacketId id : stats.deadlock.packet_cycle) {
    bool blocked = false;
    for (const TraceEvent& ev : events) {
      if (ev.packet == id && ev.kind == EventKind::kBlock) blocked = true;
    }
    EXPECT_TRUE(blocked) << "no block event for wedged packet " << id;
  }
}

TEST(ObsTrace, MemoryTraceSinkKeepsOnlyTheMostRecentEvents) {
  MemoryTraceSink sink(/*capacity=*/4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    TraceEvent ev;
    ev.cycle = i;
    sink.emit(ev);
  }
  EXPECT_EQ(sink.total_emitted(), 10u);
  ASSERT_EQ(sink.events().size(), 4u);
  EXPECT_EQ(sink.events().front().cycle, 6u);
  EXPECT_EQ(sink.events().back().cycle, 9u);
  sink.clear();
  EXPECT_TRUE(sink.events().empty());
}

TEST(ObsTrace, RecorderOnlyKindsRenderNothing) {
  // Channel releases by an abort flush, wait voids and drops exist only for
  // the flight recorder: the trace formats skip them byte for byte.
  std::ostringstream jsonl;
  JsonlTraceSink jsonl_sink(jsonl);
  std::ostringstream chrome;
  {
    ChromeTraceSink chrome_sink(chrome);
    const std::string empty_chrome = chrome.str();
    for (const EventKind kind :
         {EventKind::kRelease, EventKind::kWaitVoid, EventKind::kDrop}) {
      EXPECT_EQ(trace_name(kind), nullptr);
      EXPECT_NE(flight_name(kind), nullptr);
      TraceEvent ev;
      ev.kind = kind;
      ev.packet = 3;
      ev.channel = 5;
      jsonl_sink.emit(ev);
      chrome_sink.emit(ev);
    }
    EXPECT_EQ(chrome.str(), empty_chrome);
  }
  EXPECT_TRUE(jsonl.str().empty());
}

TEST(ObsTrace, ChromeTraceIsStructurallyBalanced) {
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
  }  // destructor closes the JSON document
  const std::string text = out.str();
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_EQ(text.find('{'), 0u);
  EXPECT_EQ(text.rfind("]}"), text.size() - 3);  // "]}\n"

  auto count = [&](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + needle.size())) {
      ++n;
    }
    return n;
  };
  // Every async span opened ("b") is closed ("e"): both packets delivered
  // and no packet ends the run blocked.
  EXPECT_EQ(count("\"ph\":\"b\""), count("\"ph\":\"e\""));
  EXPECT_GT(count("\"ph\":\"i\""), 0u);
  EXPECT_GT(count("\"ph\":\"M\""), 0u);
  // Per-channel track names from the topology show up as thread metadata.
  EXPECT_NE(text.find("n0->n1.v0"), std::string::npos);
}

TEST(ObsTrace, NullTraceSinkCountsEmissions) {
  NullTraceSink sink;
  TraceEvent ev;
  sink.emit(ev);
  sink.emit(ev);
  EXPECT_EQ(sink.count(), 2u);
}

}  // namespace
}  // namespace wormnet::obs
