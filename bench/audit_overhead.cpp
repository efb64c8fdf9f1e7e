// EXP-AUDIT — cost of proof-carrying verification (BENCH_audit.json).
//
// Three prices, per registry configuration: the bare verdict (what a sweep
// paid before certificates existed), verdict + certificate emission (what
// --certify-out pays per cache miss), and the independent audit of an
// emitted certificate (what wormnet-audit / WN021 pay per re-validation).
// Emission rides the checker's own structures, so its overhead should be a
// modest constant factor; the audit evaluates the relation once per
// reachable state, runs one reverse BFS per destination and walks one
// excursion per escape state, and should stay cheaper than the verification
// it checks — the point of the numbers here
// is to keep both claims honest.  JSON serialize/parse round-trip is priced separately: it is the
// persistence cost, not the verification cost.
//
// Every benchmark reports items_per_second, gated in CI by
// scripts/check_bench_regression.py (tolerance 0.20) against the committed
// BENCH_audit.json: extended-CDG dependencies checked against the order per
// second for the audit, reachable (channel, destination) states per second
// for the others.
#include <benchmark/benchmark.h>

#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "wormnet/wormnet.hpp"

namespace {

using namespace wormnet;

struct Config {
  const char* label;
  const char* topology;
  const char* routing;
};

/// Certified registry configs spanning the topology families (ring with
/// dateline VCs, torus and mesh under layered Duato constructions), plus the
/// two largest relations wormbench's `verify` workload audits.
constexpr Config kConfigs[] = {
    {"ring8x2_dateline", "ring:8:2", "dateline"},
    {"torus4x4_duato", "torus:4x4:3", "duato-torus"},
    {"mesh4x4_duato", "mesh:4x4:2", "duato-mesh"},
    {"mesh8x8_duato", "mesh:8x8:2", "duato-mesh"},
    {"mesh9x9_west_first", "mesh:9x9:1", "west-first"},
};
constexpr int kLastConfig = static_cast<int>(std::size(kConfigs)) - 1;

core::VerifyOptions duato_options() {
  core::VerifyOptions options;
  options.method = core::Method::kDuato;
  return options;
}

/// Counts the relation's reachable states once per iteration.
void count_states(benchmark::State& state, const topology::Topology& topo,
                  const routing::RoutingFunction& routing) {
  const cdg::StateGraph states(topo, routing);
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(states.num_reachable_states()));
}

void BM_VerifyBare(benchmark::State& state) {
  const Config& cfg = kConfigs[state.range(0)];
  const topology::Topology topo = core::make_topology(cfg.topology);
  const auto routing = core::make_algorithm(cfg.routing, topo);
  for (auto _ : state) {
    const core::Verdict verdict = core::verify(topo, *routing, duato_options());
    benchmark::DoNotOptimize(verdict.conclusion);
  }
  state.SetLabel(cfg.label);
  count_states(state, topo, *routing);
}
BENCHMARK(BM_VerifyBare)
    ->DenseRange(0, kLastConfig)
    ->Unit(benchmark::kMillisecond);

void BM_VerifyCertified(benchmark::State& state) {
  const Config& cfg = kConfigs[state.range(0)];
  const topology::Topology topo = core::make_topology(cfg.topology);
  const auto routing = core::make_algorithm(cfg.routing, topo);
  std::size_t cert_bytes = 0;
  for (auto _ : state) {
    const core::CertifiedVerdict result =
        core::verify_certified(topo, *routing, duato_options());
    benchmark::DoNotOptimize(result.verdict.conclusion);
    cert_bytes = result.certificate ? result.certificate->to_json().size() : 0;
  }
  state.SetLabel(cfg.label);
  state.counters["cert_bytes"] = static_cast<double>(cert_bytes);
  count_states(state, topo, *routing);
}
BENCHMARK(BM_VerifyCertified)
    ->DenseRange(0, kLastConfig)
    ->Unit(benchmark::kMillisecond);

void BM_AuditCertificate(benchmark::State& state) {
  const Config& cfg = kConfigs[state.range(0)];
  const topology::Topology topo = core::make_topology(cfg.topology);
  const auto routing = core::make_algorithm(cfg.routing, topo);
  const core::CertifiedVerdict result =
      core::verify_certified(topo, *routing, duato_options());
  if (!result.certificate) {
    state.SkipWithError("configuration did not emit a certificate");
    return;
  }
  std::uint64_t edges = 0;
  for (auto _ : state) {
    const audit::AuditResult audit =
        audit::check(topo, *routing, *result.certificate);
    benchmark::DoNotOptimize(audit.code);
    edges = audit.edges_checked;
  }
  state.SetLabel(cfg.label);
  state.counters["edges"] = static_cast<double>(edges);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(edges));
}
BENCHMARK(BM_AuditCertificate)
    ->DenseRange(0, kLastConfig)
    ->Unit(benchmark::kMillisecond);

void BM_CertificateJsonRoundTrip(benchmark::State& state) {
  const Config& cfg = kConfigs[state.range(0)];
  const topology::Topology topo = core::make_topology(cfg.topology);
  const auto routing = core::make_algorithm(cfg.routing, topo);
  const core::CertifiedVerdict result =
      core::verify_certified(topo, *routing, duato_options());
  if (!result.certificate) {
    state.SkipWithError("configuration did not emit a certificate");
    return;
  }
  for (auto _ : state) {
    const std::string json = result.certificate->to_json();
    const audit::ParseResult parsed = audit::parse_certificate(json);
    benchmark::DoNotOptimize(parsed.certificate.has_value());
  }
  state.SetLabel(cfg.label);
  count_states(state, topo, *routing);
}
BENCHMARK(BM_CertificateJsonRoundTrip)
    ->DenseRange(0, kLastConfig)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  // google-benchmark only honours a JSON file reporter when --benchmark_out
  // is set, so default it here; flags later in argv (user-supplied) win.
  std::string out_flag = "--benchmark_out=BENCH_audit.json";
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
