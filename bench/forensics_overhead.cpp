// EXP-FORENSICS — cost of the deadlock-forensics layer (BENCH_obs.json).
//
// The flight recorder ships ON by default (SimConfig::flight_capacity =
// 1024), so the headline number is FlightOn vs FlightOff on a healthy
// workload: the recorder's projection of each event, then a 24-byte store
// and a counter bump per kept record, which should be noise next to the
// allocator sweep.  The rest prices the pieces that only run on the failure
// path — postmortem capture at deadlock and the static cross-reference —
// plus the profiler scope the analysis layers use.
// The whole-run benches report flits_per_sec (flit moves per wall-second, as
// sim_throughput counts them), which CI gates against BENCH_obs.json.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "wormnet/wormnet.hpp"

namespace {

using namespace wormnet;

void report_flits(benchmark::State& state, std::uint64_t flits) {
  state.counters["flits_per_sec"] = benchmark::Counter(
      static_cast<double>(flits), benchmark::Counter::kIsRate);
}

sim::SimConfig healthy_workload() {
  sim::SimConfig cfg;
  cfg.injection_rate = 0.25;
  cfg.packet_length = 8;
  cfg.buffer_depth = 4;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 1000;
  cfg.drain_cycles = 4000;
  cfg.seed = 31;
  return cfg;
}

/// A 1-VC unidirectional ring under unrestricted minimal routing: the
/// canonical non-certified config (PR-3) that wedges quickly.
sim::SimConfig wedge_workload() {
  sim::SimConfig cfg;
  cfg.injection_rate = 0.8;
  cfg.packet_length = 12;
  cfg.buffer_depth = 2;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 15000;
  cfg.drain_cycles = 8000;
  cfg.deadlock_check_interval = 64;
  cfg.seed = 7;
  return cfg;
}

void BM_SimulateFlightOff(benchmark::State& state) {
  const auto topo = topology::make_mesh({8, 8}, 2);
  const auto routing = core::make_algorithm("duato-mesh", topo);
  sim::SimConfig cfg = healthy_workload();
  cfg.flight_capacity = 0;
  std::uint64_t flits = 0;
  for (auto _ : state) {
    sim::Simulator simulator(topo, *routing, cfg);
    const sim::SimStats stats = simulator.run();
    benchmark::DoNotOptimize(stats.packets_delivered);
    flits += simulator.total_flit_moves();
  }
  report_flits(state, flits);
}
BENCHMARK(BM_SimulateFlightOff)->Unit(benchmark::kMillisecond);

void BM_SimulateFlightOn(benchmark::State& state) {
  const auto topo = topology::make_mesh({8, 8}, 2);
  const auto routing = core::make_algorithm("duato-mesh", topo);
  const sim::SimConfig cfg = healthy_workload();  // default capacity 1024
  std::uint64_t events = 0;
  std::uint64_t flits = 0;
  for (auto _ : state) {
    sim::Simulator simulator(topo, *routing, cfg);
    const sim::SimStats stats = simulator.run();
    benchmark::DoNotOptimize(stats.packets_delivered);
    events = stats.flight_events_recorded;
    flits += simulator.total_flit_moves();
  }
  state.counters["events/run"] = static_cast<double>(events);
  report_flits(state, flits);
}
BENCHMARK(BM_SimulateFlightOn)->Unit(benchmark::kMillisecond);

void BM_FlightRecord(benchmark::State& state) {
  obs::FlightRecorder recorder(1024);
  obs::TraceEvent event;
  event.kind = obs::EventKind::kVcAlloc;
  event.packet = 3;
  event.channel = 5;
  for (auto _ : state) {
    ++event.cycle;
    recorder.record(event);
    benchmark::DoNotOptimize(recorder.recorded());
  }
}
BENCHMARK(BM_FlightRecord);

void BM_DeadlockPostmortem(benchmark::State& state) {
  // End-to-end price of a run that wedges: detection, wait-cycle
  // extraction, and postmortem capture included.
  const auto topo = topology::make_unidirectional_ring(8, 1);
  const routing::UnrestrictedMinimal routing(topo);
  std::uint64_t postmortems = 0;
  std::uint64_t flits = 0;
  for (auto _ : state) {
    sim::Simulator simulator(topo, routing, wedge_workload());
    const sim::SimStats stats = simulator.run();
    benchmark::DoNotOptimize(stats.deadlocked);
    postmortems = simulator.postmortems().size();
    flits += simulator.total_flit_moves();
  }
  state.counters["postmortems/run"] = static_cast<double>(postmortems);
  report_flits(state, flits);
}
BENCHMARK(BM_DeadlockPostmortem)->Unit(benchmark::kMillisecond);

void BM_CrossReference(benchmark::State& state) {
  // Lifting a captured runtime cycle into the static CDG / extended CDG.
  const auto topo = topology::make_unidirectional_ring(8, 1);
  const routing::UnrestrictedMinimal routing(topo);
  sim::Simulator simulator(topo, routing, wedge_workload());
  (void)simulator.run();
  if (simulator.postmortems().empty()) {
    state.SkipWithError("wedge workload did not deadlock");
    return;
  }
  const obs::RuntimePostmortem pm = simulator.postmortems().front();
  const cdg::StateGraph states(topo, routing);  // uncertified: no C1
  for (auto _ : state) {
    const obs::PostmortemReport report =
        obs::cross_reference(states, {}, "", pm, "ring:8");
    benchmark::DoNotOptimize(report.contradiction);
  }
}
BENCHMARK(BM_CrossReference)->Unit(benchmark::kMicrosecond);

void BM_ProfilerScope(benchmark::State& state) {
  obs::Profiler profiler;
  for (auto _ : state) {
    obs::Profiler::Scope scope(&profiler, "bench.phase");
    benchmark::DoNotOptimize(&profiler);
  }
}
BENCHMARK(BM_ProfilerScope);

void BM_ProfilerScopeDisabled(benchmark::State& state) {
  // The shipping default: a null profiler must cost one branch, no clock.
  for (auto _ : state) {
    obs::Profiler::Scope scope(nullptr, "bench.phase");
    benchmark::DoNotOptimize(&scope);
  }
}
BENCHMARK(BM_ProfilerScopeDisabled);

}  // namespace

int main(int argc, char** argv) {
  // google-benchmark only honours a JSON file reporter when --benchmark_out
  // is set, so default it here; flags later in argv (user-supplied) win.
  std::string out_flag = "--benchmark_out=BENCH_obs.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  std::vector<char*> args;
  args.push_back(argv[0]);
  args.push_back(out_flag.data());
  args.push_back(fmt_flag.data());
  for (int i = 1; i < argc; ++i) args.push_back(argv[i]);
  int argn = static_cast<int>(args.size());
  benchmark::Initialize(&argn, args.data());
  if (benchmark::ReportUnrecognizedArguments(argn, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
