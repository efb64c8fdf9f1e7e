// FlightRecorder unit tests: ring semantics, wraparound accounting, and the
// determinism contract (DESIGN 3.9) — the recorder's payload derives only
// from simulation state, never from wall clock or thread identity.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "test_helpers.hpp"
#include "wormnet/obs/flight.hpp"
#include "wormnet/sim/simulator.hpp"
#include "wormnet/topology/builders.hpp"
#include "wormnet/routing/unrestricted.hpp"

namespace wormnet::obs {
namespace {

TraceEvent event(std::uint64_t cycle, EventKind kind,
                 std::uint32_t packet = kNoId, std::uint32_t channel = kNoId) {
  TraceEvent ev;
  ev.cycle = cycle;
  ev.kind = kind;
  ev.packet = packet;
  ev.channel = channel;
  return ev;
}

TEST(ObsFlight, RecordsInOrderUpToCapacity) {
  FlightRecorder recorder(4);
  EXPECT_EQ(recorder.capacity(), 4u);
  EXPECT_EQ(recorder.size(), 0u);

  recorder.record(event(10, EventKind::kVcAlloc, 1, 2));
  recorder.record(event(11, EventKind::kBlock, 1, 3));
  EXPECT_EQ(recorder.size(), 2u);
  EXPECT_EQ(recorder.recorded(), 2u);
  EXPECT_EQ(recorder.dropped(), 0u);

  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].cycle, 10u);
  EXPECT_EQ(events[0].kind, EventKind::kVcAlloc);
  EXPECT_EQ(events[1].cycle, 11u);
  EXPECT_EQ(events[1].kind, EventKind::kBlock);
}

TEST(ObsFlight, WraparoundKeepsNewestAndCountsDropped) {
  FlightRecorder recorder(3);
  for (std::uint64_t c = 0; c < 7; ++c) {
    recorder.record(event(c, EventKind::kRelease, 0, 0));
  }
  EXPECT_EQ(recorder.size(), 3u);
  EXPECT_EQ(recorder.recorded(), 7u);
  EXPECT_EQ(recorder.dropped(), 4u);

  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 3u);
  // Oldest-first: the 4 oldest were overwritten.
  EXPECT_EQ(events[0].cycle, 4u);
  EXPECT_EQ(events[1].cycle, 5u);
  EXPECT_EQ(events[2].cycle, 6u);
}

TEST(ObsFlight, TailSlicesTheNewest) {
  FlightRecorder recorder(8);
  for (std::uint64_t c = 0; c < 5; ++c) {
    recorder.record(event(c, EventKind::kVcAlloc, 0, 0));
  }
  const auto tail = recorder.tail(2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].cycle, 3u);
  EXPECT_EQ(tail[1].cycle, 4u);
  // Asking for more than recorded returns everything.
  EXPECT_EQ(recorder.tail(100).size(), 5u);
}

TEST(ObsFlight, ZeroCapacityDisablesRecording) {
  FlightRecorder recorder(0);
  recorder.record(event(1, EventKind::kDeadlockDetected));
  EXPECT_EQ(recorder.capacity(), 0u);
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_EQ(recorder.dropped(), 0u);
  EXPECT_TRUE(recorder.snapshot().empty());
}

TEST(ObsFlight, ClearResetsEverything) {
  FlightRecorder recorder(2);
  recorder.record(event(1, EventKind::kAbort));
  recorder.record(event(2, EventKind::kRetry));
  recorder.record(event(3, EventKind::kDrop));
  recorder.clear();
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_EQ(recorder.dropped(), 0u);
  EXPECT_EQ(recorder.capacity(), 2u);  // capacity survives clear
}

TEST(ObsFlight, KindNamesAreStable) {
  EXPECT_STREQ(flight_name(EventKind::kVcAlloc), "acquire");
  EXPECT_STREQ(flight_name(EventKind::kRelease), "release");
  EXPECT_STREQ(flight_name(EventKind::kBlock), "wait");
  EXPECT_STREQ(flight_name(EventKind::kWaitVoid), "wait_void");
  EXPECT_STREQ(flight_name(EventKind::kFault), "fault");
  EXPECT_STREQ(flight_name(EventKind::kRepair), "repair");
  EXPECT_STREQ(flight_name(EventKind::kAbort), "abort");
  EXPECT_STREQ(flight_name(EventKind::kRetry), "retry");
  EXPECT_STREQ(flight_name(EventKind::kDrop), "drop");
  EXPECT_STREQ(flight_name(EventKind::kDeadlockDetected), "deadlock");
  EXPECT_STREQ(flight_name(EventKind::kDeadlockDetected, /*flag=*/true),
               "watchdog");
  EXPECT_STREQ(flight_name(EventKind::kSwitch), "switch");
  EXPECT_STREQ(flight_name(EventKind::kRollback), "rollback");
  EXPECT_STREQ(flight_name(EventKind::kDrainSwitch), "drain-switch");
}

TEST(ObsFlight, RecordKeepsTheProjection) {
  FlightRecorder recorder(16);
  // Trace-only kinds and non-tail flits leave no record.
  recorder.record(event(1, EventKind::kPacketCreate, 0));
  recorder.record(event(1, EventKind::kRouteCompute, 0));
  TraceEvent flit = event(2, EventKind::kLinkTraverse, 0, 5);
  flit.channel2 = 4;
  recorder.record(flit);
  EXPECT_EQ(recorder.recorded(), 0u);

  // A forwarded tail flit releases the channel it leaves; an injected one
  // (no input channel) releases nothing.
  flit.flag2 = true;
  recorder.record(flit);
  flit.channel2 = kNoId;
  recorder.record(flit);
  // A tail ejection releases the channel it drains.
  TraceEvent eject = event(3, EventKind::kEject, 0, 5);
  eject.flag2 = true;
  recorder.record(eject);
  // A fault epoch becomes one record per channel, stamped with the epoch.
  TraceEvent fault = event(4, EventKind::kFault);
  fault.value = 2;
  fault.list = {7, 9};
  recorder.record(fault);
  // An acquire at a router keeps its input channel; a watchdog its count.
  TraceEvent acquire = event(5, EventKind::kVcAlloc, 1, 6);
  acquire.channel2 = 3;
  recorder.record(acquire);
  TraceEvent watchdog = event(6, EventKind::kDeadlockDetected);
  watchdog.flag = true;
  watchdog.value = 4;
  recorder.record(watchdog);

  const std::vector<FlightEvent> events = recorder.snapshot();
  ASSERT_EQ(events.size(), 6u);
  EXPECT_STREQ(events[0].name(), "release");
  EXPECT_EQ(events[0].channel, 4u);
  EXPECT_STREQ(events[1].name(), "release");
  EXPECT_EQ(events[1].channel, 5u);
  EXPECT_STREQ(events[2].name(), "fault");
  EXPECT_EQ(events[2].channel, 7u);
  EXPECT_EQ(events[2].aux, 2u);
  EXPECT_EQ(events[2].packet, FlightEvent::kNone);
  EXPECT_EQ(events[3].channel, 9u);
  EXPECT_STREQ(events[4].name(), "acquire");
  EXPECT_EQ(events[4].channel, 6u);
  EXPECT_EQ(events[4].aux, 3u);
  EXPECT_STREQ(events[5].name(), "watchdog");
  EXPECT_EQ(events[5].aux, 4u);
}

/// The DESIGN 3.9 contract, observed end to end: two identical runs record
/// byte-identical event streams, and the stream is identical whether or not
/// a trace sink is also attached (instrumentation never perturbs behaviour).
TEST(ObsFlight, SimulatorStreamIsDeterministic) {
  const auto ring = topology::make_unidirectional_ring(4, 1);
  const routing::UnrestrictedMinimal routing(ring);
  sim::SimConfig cfg = test::stress_config(11);
  cfg.injection_rate = 0.4;
  cfg.measure_cycles = 2000;

  auto run_stream = [&](bool with_trace) {
    NullTraceSink sink;
    sim::SimConfig local = cfg;
    if (with_trace) local.trace = &sink;
    sim::Simulator simulator(ring, routing, local);
    (void)simulator.run();
    std::ostringstream os;
    for (const FlightEvent& ev : simulator.flight().snapshot()) {
      os << ev.cycle << '/' << ev.name() << '/' << ev.packet << '/'
         << ev.channel << '/' << ev.aux << '\n';
    }
    return os.str();
  };

  const std::string first = run_stream(false);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, run_stream(false));
  EXPECT_EQ(first, run_stream(true));
}

TEST(ObsFlight, SimStatsCarryRecorderCounters) {
  const auto ring = topology::make_unidirectional_ring(4, 1);
  const routing::UnrestrictedMinimal routing(ring);
  sim::SimConfig cfg = test::stress_config(3);
  cfg.injection_rate = 0.4;
  cfg.flight_capacity = 16;  // tiny ring: wraparound guaranteed

  sim::Simulator simulator(ring, routing, cfg);
  const sim::SimStats stats = simulator.run();
  EXPECT_GT(stats.flight_events_recorded, 16u);
  EXPECT_EQ(stats.flight_events_dropped,
            stats.flight_events_recorded - 16u);
  EXPECT_EQ(stats.flight_events_recorded, simulator.flight().recorded());

  // Capacity 0 turns the recorder off entirely.
  cfg.flight_capacity = 0;
  sim::Simulator off(ring, routing, cfg);
  const sim::SimStats off_stats = off.run();
  EXPECT_EQ(off_stats.flight_events_recorded, 0u);
  EXPECT_EQ(off_stats.flight_events_dropped, 0u);
}

}  // namespace
}  // namespace wormnet::obs
