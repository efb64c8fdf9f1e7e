// EXP-OBS — cost of the observability layer on the simulator hot path.
//
// Three configurations over the same 8x8 mesh / duato-adaptive workload:
//   * baseline        — cfg.trace and cfg.metrics null (the shipping default;
//     each instrumentation site is one never-taken branch);
//   * null-trace      — a NullTraceSink wired in, isolating the cost of
//     materializing TraceEvent records without any serialization;
//   * metrics         — per-epoch channel series + end-of-run scalars.
// The interesting number is baseline vs null-trace: that gap is what every
// untraced user pays for the instrumentation existing at all, and it should
// be indistinguishable from noise.
// Each reports flits_per_sec (flit moves per wall-second, as sim_throughput
// counts them).  Results land in BENCH_trace.json (google-benchmark JSON
// schema), the committed baseline CI gates that counter against.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "wormnet/wormnet.hpp"

namespace {

using namespace wormnet;

/// Runs one simulation and adds its flit moves to `flits`.
void simulate(const topology::Topology& topo,
              const routing::RoutingFunction& routing,
              const sim::SimConfig& cfg, std::uint64_t& flits) {
  sim::Simulator simulator(topo, routing, cfg);
  const sim::SimStats stats = simulator.run();
  benchmark::DoNotOptimize(stats.packets_delivered);
  flits += simulator.total_flit_moves();
}

void report_flits(benchmark::State& state, std::uint64_t flits) {
  state.counters["flits_per_sec"] = benchmark::Counter(
      static_cast<double>(flits), benchmark::Counter::kIsRate);
}

sim::SimConfig workload() {
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

void BM_SimulateBaseline(benchmark::State& state) {
  const auto topo = topology::make_mesh({8, 8}, 2);
  const auto routing = core::make_algorithm("duato-mesh", topo);
  std::uint64_t flits = 0;
  for (auto _ : state) simulate(topo, *routing, workload(), flits);
  report_flits(state, flits);
}
BENCHMARK(BM_SimulateBaseline)->Unit(benchmark::kMillisecond);

void BM_SimulateNullTrace(benchmark::State& state) {
  const auto topo = topology::make_mesh({8, 8}, 2);
  const auto routing = core::make_algorithm("duato-mesh", topo);
  std::uint64_t events = 0;
  std::uint64_t flits = 0;
  for (auto _ : state) {
    obs::NullTraceSink sink;
    sim::SimConfig cfg = workload();
    cfg.trace = &sink;
    simulate(topo, *routing, cfg, flits);
    events = sink.count();
  }
  state.counters["events/run"] = static_cast<double>(events);
  report_flits(state, flits);
}
BENCHMARK(BM_SimulateNullTrace)->Unit(benchmark::kMillisecond);

void BM_SimulateMetrics(benchmark::State& state) {
  const auto topo = topology::make_mesh({8, 8}, 2);
  const auto routing = core::make_algorithm("duato-mesh", topo);
  std::uint64_t flits = 0;
  for (auto _ : state) {
    obs::MetricsRegistry metrics;
    sim::SimConfig cfg = workload();
    cfg.metrics = &metrics;
    simulate(topo, *routing, cfg, flits);
    benchmark::DoNotOptimize(metrics.empty());
  }
  report_flits(state, flits);
}
BENCHMARK(BM_SimulateMetrics)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // google-benchmark only honours a JSON file reporter when --benchmark_out
  // is set, so default it here; flags later in argv (user-supplied) win.
  std::string out_flag = "--benchmark_out=BENCH_trace.json";
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
