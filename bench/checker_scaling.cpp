// EXP-G — checker cost scaling (google-benchmark).
//
// Wall-clock cost of the analysis pipeline as the network grows: reachable-
// state construction, CDG build + acyclicity, extended-CDG build for the
// canonical escape class, the full subfunction search, and CWG construction.
// Expected: polynomial growth for the graph builders; the subfunction search
// is dominated by its (constant-count) VC-class candidates on these inputs.
//
// StateGraph (fresh and derived), ExtendedCdg and the Duato and greedy
// searches report items_per_second in reachable (channel, destination)
// states, the unit every checker kernel scales with; TopologyBuild reports
// channels built per second.  BENCH_checker.json at
// the repository root is the committed baseline; CI's perf-smoke job
// writes a fresh run to BENCH_checker_current.json and compares the two
// with scripts/check_bench_regression.py on items_per_second, tolerance
// 0.20.
#include <benchmark/benchmark.h>

#include "wormnet/wormnet.hpp"

namespace {

using namespace wormnet;

topology::Topology mesh_for(std::int64_t k) {
  return topology::make_mesh(
      {static_cast<std::uint32_t>(k), static_cast<std::uint32_t>(k)}, 2);
}

void BM_StateGraph(benchmark::State& state) {
  const auto topo = mesh_for(state.range(0));
  const auto routing = routing::make_duato_mesh(topo);
  std::size_t reachable = 0;
  for (auto _ : state) {
    cdg::StateGraph states(topo, *routing);
    reachable = states.num_reachable_states();
    benchmark::DoNotOptimize(reachable);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(reachable));
  state.SetComplexityN(topo.num_nodes());
}
BENCHMARK(BM_StateGraph)->Arg(4)->Arg(6)->Arg(8)->Arg(10)->Complexity();

/// Topology construction from its spec: the channel list, then the flat
/// adjacency and (cube family) the link table, built in one pass over the
/// channels.  items_per_second counts channels.
void BM_TopologyBuild(benchmark::State& state, const char* topology_spec) {
  std::size_t channels = 0;
  for (auto _ : state) {
    const auto topo = core::make_topology(topology_spec);
    channels = topo.num_channels();
    benchmark::DoNotOptimize(channels);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(channels));
}
BENCHMARK_CAPTURE(BM_TopologyBuild, mesh8x8_2, "mesh:8x8:2");
BENCHMARK_CAPTURE(BM_TopologyBuild, hypercube6_2, "hypercube:6:2");
BENCHMARK_CAPTURE(BM_TopologyBuild, torus8x8_3, "torus:8x8:3");

void BM_BuildCdg(benchmark::State& state) {
  const auto topo = mesh_for(state.range(0));
  const auto routing = routing::make_duato_mesh(topo);
  const cdg::StateGraph states(topo, *routing);
  for (auto _ : state) {
    auto cdg_graph = cdg::build_cdg(states);
    benchmark::DoNotOptimize(cdg_graph.num_edges());
  }
  state.SetComplexityN(topo.num_nodes());
}
BENCHMARK(BM_BuildCdg)->Arg(4)->Arg(6)->Arg(8)->Arg(10)->Complexity();

void BM_ExtendedCdg(benchmark::State& state) {
  const auto topo = mesh_for(state.range(0));
  const auto routing = routing::make_duato_mesh(topo);
  const cdg::StateGraph states(topo, *routing);
  std::vector<bool> c1(topo.num_channels(), false);
  for (topology::ChannelId c = 0; c < topo.num_channels(); ++c) {
    if (topo.channel(c).vc == 0) c1[c] = true;
  }
  const cdg::Subfunction sub(states, c1, "vc0");
  for (auto _ : state) {
    auto ecdg = cdg::build_extended_cdg(sub);
    benchmark::DoNotOptimize(ecdg.graph.num_edges());
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(states.num_reachable_states()));
  state.SetComplexityN(topo.num_nodes());
}
BENCHMARK(BM_ExtendedCdg)->Arg(4)->Arg(6)->Arg(8)->Complexity();

/// One Duato verification as a fault campaign runs it per epoch: state
/// graph plus subfunction search, items = reachable states.
void run_search(benchmark::State& state, const topology::Topology& topo,
                const routing::RoutingFunction& routing) {
  std::size_t reachable = 0;
  for (auto _ : state) {
    const cdg::StateGraph states(topo, routing);
    auto result = cdg::search(states);
    benchmark::DoNotOptimize(result.found);
    reachable = states.num_reachable_states();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(reachable));
}

void BM_DuatoSearch(benchmark::State& state) {
  const auto topo = mesh_for(state.range(0));
  const auto routing = routing::make_duato_mesh(topo);
  run_search(state, topo, *routing);
  state.SetComplexityN(topo.num_nodes());
}
BENCHMARK(BM_DuatoSearch)->Arg(4)->Arg(6)->Arg(8)->Complexity();

/// The faulted-epoch mask: one adaptive (vc1) channel dead, the shape of a
/// fault campaign's first kill.  The escape layer survives.
std::vector<bool> one_vc1_dead(const topology::Topology& topo) {
  std::vector<bool> dead(topo.num_channels(), false);
  for (topology::ChannelId c = topo.num_channels() / 2;
       c < topo.num_channels(); ++c) {
    if (topo.channel(c).vc == 1) {
      dead[c] = true;
      break;
    }
  }
  return dead;
}

/// A faulted epoch: mesh:8x8:2 under duato-mesh with one vc1 channel dead.
/// The search certifies at the vc0 candidate.
void BM_DuatoSearchFaultedEpoch(benchmark::State& state) {
  const auto topo = mesh_for(8);
  const routing::FaultAwareRouting routing(
      topo, routing::make_duato_mesh(topo), one_vc1_dead(topo));
  run_search(state, topo, routing);
}
BENCHMARK(BM_DuatoSearchFaultedEpoch);

/// The same faulted epoch's state graph derived from the pristine graph, as
/// AnalysisCache builds every masked epoch's: no relation calls.
void BM_StateGraphDerived(benchmark::State& state) {
  const auto topo = mesh_for(8);
  const auto pristine = routing::make_duato_mesh(topo);
  const cdg::StateGraph parent(topo, *pristine);
  const std::vector<bool> dead = one_vc1_dead(topo);
  const routing::FaultAwareRouting routing(
      topo, routing::make_duato_mesh(topo), dead);
  std::size_t reachable = 0;
  for (auto _ : state) {
    const cdg::StateGraph states(parent, routing, dead);
    reachable = states.num_reachable_states();
    benchmark::DoNotOptimize(reachable);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(reachable));
}
BENCHMARK(BM_StateGraphDerived);

/// The greedy stage at its budget: cdg::search over a prebuilt state graph
/// of a relation no candidate certifies, so every search spends the full
/// greedy budget (2,000 expansions) before giving up.  Two inputs: the
/// unrestricted mesh:4x4:2 relation of wormbench's budget class, and the
/// naive e-cube -> negative-first union on mesh:3x3:2, the failing epoch
/// the staging planner certifies first in `wormnet-lint --rules WN025`.
void BM_GreedySearch(benchmark::State& state, const char* topology_spec,
                     const char* relation_text) {
  const auto topo = core::make_topology(topology_spec);
  const auto routing =
      reconfig::RelationExpr::parse(relation_text, topo).build(topo);
  const cdg::StateGraph states(topo, *routing);
  for (auto _ : state) {
    auto result = cdg::search(states);
    benchmark::DoNotOptimize(result.found);
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(states.num_reachable_states()));
}
BENCHMARK_CAPTURE(BM_GreedySearch, mesh4x4_unrestricted, "mesh:4x4:2",
                  "unrestricted");
BENCHMARK_CAPTURE(BM_GreedySearch, mesh3x3_naive_union, "mesh:3x3:2",
                  "transition|e-cube>negative-first/1ff.1ff");

void BM_CwgBuild(benchmark::State& state) {
  const auto topo = mesh_for(state.range(0));
  const routing::HighestPositiveLast routing(topo, /*nonminimal=*/false);
  const cdg::StateGraph states(topo, routing);
  for (auto _ : state) {
    auto graph = cwg::build_cwg(states);
    benchmark::DoNotOptimize(graph.graph.num_edges());
  }
  state.SetComplexityN(topo.num_nodes());
}
BENCHMARK(BM_CwgBuild)->Arg(3)->Arg(4)->Arg(5)->Arg(6)->Complexity();

void BM_HypercubeSearch(benchmark::State& state) {
  const auto topo =
      topology::make_hypercube(static_cast<std::size_t>(state.range(0)), 2);
  const auto routing = routing::make_duato_hypercube(topo);
  for (auto _ : state) {
    const cdg::StateGraph states(topo, *routing);
    auto result = cdg::search(states);
    benchmark::DoNotOptimize(result.found);
  }
  state.SetComplexityN(topo.num_nodes());
}
BENCHMARK(BM_HypercubeSearch)->Arg(2)->Arg(3)->Arg(4)->Complexity();

void BM_SimulationCycle(benchmark::State& state) {
  // Cost per simulated cycle at moderate load on an 8x8 mesh.
  const auto topo = mesh_for(8);
  const auto routing = routing::make_duato_mesh(topo);
  sim::SimConfig cfg;
  cfg.injection_rate = 0.3;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = static_cast<std::uint64_t>(state.range(0));
  cfg.drain_cycles = 0;
  cfg.deadlock_check_interval = 256;
  for (auto _ : state) {
    auto stats = sim::run(topo, *routing, cfg);
    benchmark::DoNotOptimize(stats.packets_delivered);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulationCycle)->Arg(1000)->Arg(4000);

}  // namespace

BENCHMARK_MAIN();
