// wormnet-cli — command-line front end for the library.
//
//   wormnet-cli list
//   wormnet-cli verify   --topology mesh:8x8:2 --relation duato-mesh
//                        [--method duato] [--stats]
//   wormnet-cli simulate --topology torus:8x8:3 --relation duato-torus
//                        [--rate 0.3] [--pattern transpose] [--seed 1]
//                        [--length 8] [--buffers 4] [--cycles 5000]
//                        [--warmup N] [--drain N] [--json]
//                        [--trace FILE] [--trace-format jsonl|chrome]
//                        [--metrics-out FILE]
//   wormnet-cli analyze  --topology mesh:5x5:1 --relation west-first [--stats]
//
// --relation takes the certificate binding text (reconfig::RelationExpr):
// a registry name, a faulted one, a transition union or a composed epoch.
// Each command reads the flags it uses from the one table below.
// Exit status (cli.hpp): 0 = clean, 1 = verify found the relation
// deadlock-prone or simulate deadlocked, 2 = usage or input error.
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>

#include "cli.hpp"
#include "wormnet/wormnet.hpp"

namespace {

using namespace wormnet;

constexpr cli::Flag kFlags[] = {
    {"--topology", "SPEC",
     "mesh:4x4:2 torus:8x8:3 hypercube:6:2 ring:8:2\nuniring:4:1 incoherent"},
    {"--relation", "EXPR",
     "ROUTING, ROUTING|MASK, transition|SPEC or\ntransition|SPEC|MASK "
     "(canonical text only)"},
    {"--method", "M",
     "verify: cdg duato cwg message-flow sim\n(default duato)"},
    {"--stats", "",
     "verify, analyze: print checker work counters\nand phase timings as JSON"},
    {"--rate", "R", "offered flits/node/cycle (default 0.1)"},
    {"--pattern", "P",
     "uniform transpose bit-complement bit-reverse\nshuffle tornado hotspot"},
    {"--seed", "S", "random seed (default 1)"},
    {"--length", "L", "flits per packet (default 8)"},
    {"--buffers", "B", "flits per VC FIFO (default 4)"},
    {"--cycles", "N", "measured cycles (default 5000)"},
    {"--warmup", "N", "warm-up cycles (default 1000)"},
    {"--drain", "N", "drain cycles (default 30000)"},
    {"--json", "", "print the stats as JSON"},
    {"--trace", "FILE", "write packet/flit lifecycle events"},
    {"--trace-format", "F",
     "jsonl (default; one JSON object per line) |\nchrome (chrome://tracing "
     "or ui.perfetto.dev)"},
    {"--metrics-out", "FILE",
     "write counters and per-channel time series\nas JSON"},
};

const cli::Spec kSpec{
    .forms = "list\nverify   --topology SPEC --relation EXPR [--method M] "
             "[--stats]\nsimulate --topology SPEC --relation EXPR [options]\n"
             "analyze  --topology SPEC --relation EXPR [--stats]",
    .flags = kFlags,
    .positional = true,
};

/// Every command but list names a topology and a relation on it.
topology::Topology read_topology(const cli::Args& args) {
  if (!args.has("--topology") || !args.has("--relation")) {
    throw std::invalid_argument("--topology and --relation are required");
  }
  return core::make_topology(args.value("--topology"));
}

std::unique_ptr<routing::RoutingFunction> read_relation(
    const cli::Args& args, const topology::Topology& topo) {
  return reconfig::RelationExpr::parse(args.value("--relation"), topo)
      .build(topo);
}

sim::Pattern parse_pattern(const std::string& name) {
  static const std::map<std::string, sim::Pattern> kPatterns = {
      {"uniform", sim::Pattern::kUniform},
      {"transpose", sim::Pattern::kTranspose},
      {"bit-complement", sim::Pattern::kBitComplement},
      {"bit-reverse", sim::Pattern::kBitReverse},
      {"shuffle", sim::Pattern::kShuffle},
      {"tornado", sim::Pattern::kTornado},
      {"hotspot", sim::Pattern::kHotspot}};
  const auto it = kPatterns.find(name);
  if (it == kPatterns.end()) {
    throw std::invalid_argument("unknown pattern: " + name);
  }
  return it->second;
}

core::Method parse_method(const std::string& name) {
  if (name == "cdg") return core::Method::kCdgAcyclic;
  if (name == "duato") return core::Method::kDuato;
  if (name == "cwg") return core::Method::kCwg;
  if (name == "message-flow") return core::Method::kMessageFlow;
  if (name == "sim") return core::Method::kSimulation;
  throw std::invalid_argument("unknown method: " + name);
}

int cmd_list() {
  util::Table table({"algorithm", "description"});
  for (const core::AlgorithmEntry& entry : core::all_algorithms()) {
    table.add_row({entry.name, entry.description});
  }
  table.print(std::cout);
  return cli::kClean;
}

int cmd_verify(const cli::Args& args) {
  const topology::Topology topo = read_topology(args);
  const auto routing = read_relation(args, topo);
  core::VerifyOptions options;
  options.method = parse_method(args.value("--method", "duato"));
  obs::CheckerStats checker_stats;
  core::Verdict verdict;
  {
    std::unique_ptr<obs::ProbeScope> probe;
    if (args.has("--stats")) {
      probe = std::make_unique<obs::ProbeScope>(checker_stats);
    }
    verdict = core::verify(topo, *routing, options);
  }
  std::cout << topo.name() << " / " << routing->name() << "\n"
            << "method:  " << core::to_string(options.method) << "\n"
            << "verdict: " << core::to_string(verdict.conclusion) << "\n"
            << "detail:  " << verdict.detail << "\n";
  if (!verdict.witness_channels.empty()) {
    std::cout << "witness: "
              << core::describe_cycle(topo, verdict.witness_channels) << "\n";
  }
  if (args.has("--stats")) {
    std::cout << "stats:   ";
    checker_stats.write_json(std::cout);
    std::cout << "\n";
  }
  return verdict.conclusion == core::Conclusion::kDeadlockable
             ? cli::kFinding
             : cli::kClean;
}

int cmd_simulate(const cli::Args& args) {
  const topology::Topology topo = read_topology(args);
  const auto routing = read_relation(args, topo);
  sim::SimConfig cfg;
  if (!args.number("--rate", cfg.injection_rate) ||
      !args.number("--seed", cfg.seed) ||
      !args.number("--length", cfg.packet_length) ||
      !args.number("--buffers", cfg.buffer_depth) ||
      !args.number("--cycles", cfg.measure_cycles) ||
      !args.number("--warmup", cfg.warmup_cycles) ||
      !args.number("--drain", cfg.drain_cycles)) {
    return cli::kBadInput;
  }
  if (!(cfg.injection_rate >= 0.0)) {  // also rejects NaN
    return args.error("bad value for --rate: " + args.value("--rate"));
  }
  if (args.has("--pattern")) {
    cfg.pattern = parse_pattern(args.value("--pattern"));
  }

  std::ofstream trace_file;
  std::unique_ptr<obs::TraceSink> sink;
  if (args.has("--trace")) {
    const std::string format = args.value("--trace-format", "jsonl");
    trace_file.open(args.value("--trace"));
    if (!trace_file) {
      return args.error("cannot open trace file: " + args.value("--trace"));
    }
    if (format == "jsonl") {
      sink = std::make_unique<obs::JsonlTraceSink>(trace_file);
    } else if (format == "chrome") {
      std::vector<std::string> names;
      names.reserve(topo.num_channels());
      for (topology::ChannelId c = 0; c < topo.num_channels(); ++c) {
        names.push_back(topo.channel_name(c));
      }
      sink = std::make_unique<obs::ChromeTraceSink>(trace_file,
                                                    std::move(names));
    } else {
      return args.error("unknown trace format: " + format);
    }
    cfg.trace = sink.get();
  }
  obs::MetricsRegistry metrics;
  if (args.has("--metrics-out")) cfg.metrics = &metrics;

  const sim::SimStats stats = sim::run(topo, *routing, cfg);
  sink.reset();  // ChromeTraceSink writes its closing bracket on destruction
  if (args.has("--metrics-out")) {
    std::ofstream metrics_file(args.value("--metrics-out"));
    if (!metrics_file) {
      return args.error("cannot open metrics file: " +
                        args.value("--metrics-out"));
    }
    metrics.write_json(metrics_file);
    metrics_file << "\n";
  }

  if (args.has("--json")) {
    std::cout << stats.to_json() << "\n";
  } else {
    std::cout << topo.name() << " / " << routing->name() << " @ "
              << cfg.injection_rate << " flits/node/cycle, "
              << sim::to_string(cfg.pattern) << "\n"
              << stats.summary() << "\n"
              << "channel utilization avg "
              << util::fmt_double(stats.avg_channel_utilization, 3) << ", max "
              << util::fmt_double(stats.max_channel_utilization, 3)
              << "; longest path " << stats.max_hops << " hops\n";
  }
  return stats.deadlocked ? cli::kFinding : cli::kClean;
}

int cmd_analyze(const cli::Args& args) {
  const topology::Topology topo = read_topology(args);
  const auto relation = read_relation(args, topo);
  const routing::RoutingFunction& routing = *relation;
  obs::CheckerStats checker_stats;
  std::unique_ptr<obs::ProbeScope> probe;
  if (args.has("--stats")) {
    probe = std::make_unique<obs::ProbeScope>(checker_stats);
  }
  const cdg::StateGraph states(topo, routing);
  const auto cdg_graph = cdg::build_cdg(states);
  std::cout << topo.name() << " / " << routing.name() << "\n";
  std::cout << "reachable states: " << states.num_reachable_states()
            << ", CDG: " << cdg_graph.num_edges() << " edges, "
            << (cdg_graph.has_cycle() ? "CYCLIC" : "acyclic") << "\n";
  std::cout << "relation connected: "
            << util::fmt_bool(cdg::relation_connected(states))
            << ", wait-connected: "
            << util::fmt_bool(cwg::wait_connected(states)) << "\n";

  const cdg::SearchResult search = cdg::search(states);
  std::cout << "n&s condition: "
            << (search.found
                    ? "holds via " + search.report.subfunction_label
                    : std::string("no subfunction found"))
            << "\n";

  if (topo.is_cube() && topo.num_dims() == 2 && !topo.cube().wraps[0] &&
      !topo.cube().wraps[1]) {
    const analysis::TurnCensus census = analysis::turn_census(states);
    std::cout << "turns: " << census.permitted_count << " permitted, "
              << census.prohibited_count << " prohibited; prohibited:";
    for (std::size_t from = 0; from < 4; ++from) {
      for (std::size_t to = 0; to < 4; ++to) {
        if (from / 2 != to / 2 && !census.permitted[from][to]) {
          std::cout << " " << analysis::direction_name(from) << "->"
                    << analysis::direction_name(to);
        }
      }
    }
    std::cout << "\n";
  }
  if (topo.is_cube() && routing.minimal()) {
    const auto degree = analysis::degree_of_adaptiveness(topo, routing);
    std::cout << "degree of adaptiveness: "
              << util::fmt_double(degree.degree, 4)
              << (degree.sampled ? " (sampled)" : "") << "\n";
  }
  if (args.has("--stats")) {
    probe.reset();  // stop accumulating before we print
    std::cout << "stats: ";
    checker_stats.write_json(std::cout);
    std::cout << "\n";
  }
  return cli::kClean;
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args(argc, argv, kSpec);
  if (args.exit_code) return *args.exit_code;
  const std::string command =
      args.positional().size() == 1 ? args.positional().front() : "";
  try {
    if (command == "list") return cmd_list();
    if (command == "verify") return cmd_verify(args);
    if (command == "simulate") return cmd_simulate(args);
    if (command == "analyze") return cmd_analyze(args);
  } catch (const std::exception& error) {
    return args.error(error.what());
  }
  return args.error("expected one command: list, verify, simulate or analyze");
}
