// wormnet-sweep: the parallel experiment engine CLI.
//
//   wormnet-sweep --grid "topo=mesh:4x4:2;routing=e-cube,duato;load=0.05:0.45:0.10;reps=4"
//   wormnet-sweep --grid "topo=torus:8x8:3;routing=dateline,duato;pattern=uniform,tornado"
//                 --threads 8 --out csv --output sweep.csv --progress
//   wormnet-sweep --grid "..." --metrics-out metrics.json --cwg
//   wormnet-sweep --grid "topo=mesh:4x4:2;routing=duato;fault=kill:5-6@500"
//                 --recovery abort-retry --retry-budget 4
//
// Output (stdout or --output FILE) is byte-identical for any --threads
// value, including 1 — the determinism contract the test suite pins.
//
// Exit status (cli.hpp):
//   0 = sweep ran (deadlocks on *uncertified* configs are data, not errors;
//       so are drops on uncertified fault epochs and deadlocks on
//       uncertified reconfiguration transitions),
//   1 = a certified configuration deadlocked — certified meaning the
//       pristine pair passed the Duato check AND every fault epoch's
//       degraded relation AND every transition epoch's union relation AND
//       every composed fault x reconfig epoch re-certified (the library
//       contradicting the theorem — always a bug) — or, with --certify-out,
//       an emitted certificate failed its own audit (same class of bug: the
//       checker emitted evidence the relation does not support),
//   2 = usage or configuration error.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "cli.hpp"
#include "wormnet/audit/check.hpp"
#include "wormnet/core/registry.hpp"
#include "wormnet/exp/sweep_io.hpp"
#include "wormnet/exp/sweep_runner.hpp"
#include "wormnet/ft/recovery.hpp"
#include "wormnet/obs/metrics.hpp"
#include "wormnet/obs/profiler.hpp"
#include "wormnet/reconfig/union_routing.hpp"

namespace {

using namespace wormnet;

constexpr cli::Flag kFlags[] = {
    {"--grid", "SPEC", "the sweep grid (required; see above)"},
    {"--threads", "N", "worker threads (default hardware, 1 = inline)"},
    {"--out", "FORMAT", "jsonl (default) | csv"},
    {"--output", "FILE", "write rows to FILE instead of stdout"},
    {"--progress", "", "live done/total counter on stderr"},
    {"--cwg", "", "also compute the CWG verdict per pair"},
    {"--metrics-out", "FILE", "dump sweep.* metrics as JSON"},
    {"--warmup", "N", "warm-up cycles"},
    {"--measure", "N", "measured cycles"},
    {"--drain", "N", "drain cycles"},
    {"--packet-length", "N", "flits per packet (default 8)"},
    {"--buffer-depth", "N", "flits per VC FIFO (default 4)"},
    {"--rollback", "",
     "build a transition guard per reconfig point:\nrefuted composed epochs "
     "trigger certified\nrollback (or drain-then-switch) at runtime\n"
     "instead of running uncertified"},
    {"--recovery", "POLICY", "halt (default) | abort-retry | drain"},
    {"--retry-budget", "N", "aborts per packet before dropping (default 8)"},
    {"--packet-timeout", "N",
     "per-packet no-progress cycles before abort\n(default 0 = inherit "
     "--watchdog)"},
    {"--watchdog", "N", "global no-progress threshold (default 4000)"},
    {"--certify-out", "DIR",
     "emit one proof-carrying certificate JSON per\nanalysed pair / fault "
     "epoch (audited on write\nby wormnet::audit; a contradiction exits 1)"},
    {"--postmortem-dir", "D",
     "write one JSON per captured deadlock postmortem\n(postmortem_<point>_"
     "<n>.json, cross-referenced\nagainst the relation live at capture and "
     "its\nverdict; reconfig points also classify each\nedge old-only/"
     "new-only/shared and flag cycles\nthat cross the transition union)"},
    {"--profile", "FILE",
     "self-profile the sweep: per-phase wall-time\nhistograms to FILE, plus "
     "a point_ms column in\nthe row output (breaks byte-determinism)"},
    {"--summary", "", "print the aggregate + timing to stderr"},
};

const cli::Spec kSpec{
    .forms = "--grid SPEC [options]",
    .flags = kFlags,
    .notes =
        "grid spec: ';'-separated key=value clauses\n"
        "  topo=mesh:4x4:2,ring:8      topology specs (required)\n"
        "  routing=e-cube,duato        registry names / aliases (required)\n"
        "  fault=none,kill:5-6@250     fault plans (default none); events\n"
        "                              joined by '+': kill/repair:SRC-DST@C,\n"
        "                              killch/repairch:CH@C, rand:N/SEED@C\n"
        "  reconfig=none,switch:duato-mesh@500   transition plans (default\n"
        "                              none); '+'-joined switch:NEW@C,\n"
        "                              stage:NEW/LO-HI@C, ramp:NEW/K/STRIDE@C\n"
        "  pattern=uniform,transpose   traffic patterns (default uniform)\n"
        "  load=0.05,0.2 or lo:hi:step offered loads (default 0.1)\n"
        "  reps=N                      replications per cell (default 1)\n"
        "  seed=N                      base seed of the jump chain\n",
};

/// Cache keys ("topo|routing" / "topo|routing|mask") become filenames;
/// anything shell- or filesystem-hostile collapses to '_'.
std::string sanitize_key(const std::string& key) {
  std::string out = key;
  for (char& c : out) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '-';
    if (!keep) c = '_';
  }
  return out;
}

/// Writes every emitted certificate to `dir`, auditing each against the
/// relation its own binding names before the bytes land.  Returns the
/// number of audit contradictions.
std::size_t write_certificates(const char* argv0, const std::string& dir,
                               const exp::SweepOutcome& outcome, bool summary,
                               bool& io_ok) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::cerr << argv0 << ": cannot create " << dir << ": " << ec.message()
              << "\n";
    io_ok = false;
    return 0;
  }
  std::size_t contradictions = 0;
  std::size_t written = 0;
  for (const exp::CertificateRecord& record : outcome.certificates) {
    const audit::Certificate& cert = *record.certificate;
    const topology::Topology topo = core::make_topology(cert.topology);
    const auto routing =
        reconfig::RelationExpr::parse(cert.relation, topo).build(topo);
    const audit::AuditResult audit = audit::check(topo, *routing, cert);
    if (!audit.ok()) {
      std::cerr << argv0 << ": AUDIT CONTRADICTION for " << record.key << ": "
                << audit::to_string(audit.code) << ": " << audit.detail
                << "\n";
      ++contradictions;
    }
    const std::filesystem::path path =
        std::filesystem::path(dir) / (sanitize_key(record.key) + ".json");
    std::ofstream file(path, std::ios::binary);
    if (!file) {
      std::cerr << argv0 << ": cannot open " << path.string() << "\n";
      io_ok = false;
      return contradictions;
    }
    file << cert.to_json() << "\n";
    ++written;
  }
  if (summary) {
    std::cerr << written << " certificate(s) written to " << dir << " ("
              << contradictions << " audit contradiction(s))\n";
  }
  return contradictions;
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args(argc, argv, kSpec);
  if (args.exit_code) return *args.exit_code;
  const std::string grid = args.value("--grid");
  const std::string out_format = args.value("--out", "jsonl");
  const std::string output_path = args.value("--output");
  const std::string metrics_path = args.value("--metrics-out");
  const std::string postmortem_dir = args.value("--postmortem-dir");
  const std::string certify_dir = args.value("--certify-out");
  const std::string profile_path = args.value("--profile");
  const bool summary = args.has("--summary");
  exp::RunnerOptions runner;
  runner.certify = args.has("--certify-out");
  runner.rollback = args.has("--rollback");
  runner.with_cwg = args.has("--cwg");
  sim::SimConfig base;
  if (!args.number("--threads", runner.threads) ||
      !args.number("--warmup", base.warmup_cycles) ||
      !args.number("--measure", base.measure_cycles) ||
      !args.number("--drain", base.drain_cycles) ||
      !args.number("--packet-length", base.packet_length) ||
      !args.number("--buffer-depth", base.buffer_depth) ||
      !args.number("--retry-budget", base.recovery.retry_budget) ||
      !args.number("--packet-timeout", base.recovery.packet_timeout) ||
      !args.number("--watchdog", base.watchdog_cycles)) {
    return cli::kBadInput;
  }
  if (args.has("--recovery")) {
    const std::string name = args.value("--recovery");
    const auto policy = ft::recovery_from_string(name);
    if (!policy) {
      return args.error("unknown --recovery policy " + name +
                        " (expected halt | abort-retry | drain)");
    }
    base.recovery.policy = *policy;
  }
  if (grid.empty()) return args.error("--grid is required");
  if (out_format != "jsonl" && out_format != "csv") {
    return args.error("unknown --out format " + out_format);
  }

  obs::MetricsRegistry metrics;
  if (!metrics_path.empty()) runner.metrics = &metrics;
  obs::Profiler profiler;
  if (!profile_path.empty()) runner.profiler = &profiler;
  if (args.has("--progress")) {
    runner.progress = [](std::size_t done, std::size_t total) {
      std::cerr << "\r" << done << "/" << total << std::flush;
      if (done == total) std::cerr << "\n";
    };
  }

  exp::SweepOutcome outcome;
  try {
    exp::SweepSpec spec = exp::parse_grid(grid);
    spec.base = base;
    outcome = exp::run_sweep(spec, runner);
  } catch (const std::invalid_argument& e) {
    return args.error(e.what());
  }

  exp::SweepIoOptions io;
  io.timings = !profile_path.empty();
  std::ofstream output_file;
  if (!output_path.empty()) {
    output_file.open(output_path, std::ios::binary);
    if (!output_file) return args.error("cannot open " + output_path);
  }
  std::ostream& rows = output_path.empty() ? std::cout : output_file;
  if (out_format == "jsonl") {
    exp::write_jsonl(rows, outcome, io);
  } else {
    exp::write_csv(rows, outcome, io);
  }

  if (!postmortem_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(postmortem_dir, ec);
    if (ec) {
      return args.error("cannot create " + postmortem_dir + ": " +
                        ec.message());
    }
    // Each postmortem is judged against the relation its stamp names,
    // through one analysis cache.
    exp::AnalysisCache cache(false, nullptr, true);
    std::size_t written = 0;
    for (const exp::SweepResult& r : outcome.results) {
      for (std::size_t n = 0; n < r.postmortems.size(); ++n) {
        const std::filesystem::path path =
            std::filesystem::path(postmortem_dir) /
            ("postmortem_" + std::to_string(r.point.index) + "_" +
             std::to_string(n) + ".json");
        std::ofstream file(path, std::ios::binary);
        if (!file) return args.error("cannot open " + path.string());
        exp::write_postmortem(file, cache, r.point.topology,
                              r.postmortems[n]);
        ++written;
      }
    }
    if (summary) {
      std::cerr << written << " postmortem(s) written to " << postmortem_dir
                << "\n";
    }
  }

  std::size_t audit_contradictions = 0;
  if (!certify_dir.empty()) {
    bool io_ok = true;
    audit_contradictions =
        write_certificates(argv[0], certify_dir, outcome, summary, io_ok);
    if (!io_ok) return cli::kBadInput;
  }

  if (!profile_path.empty()) {
    std::ofstream file(profile_path, std::ios::binary);
    if (!file) return args.error("cannot open " + profile_path);
    profiler.write_json(file);
    file << "\n";
  }

  if (!metrics_path.empty()) {
    std::ofstream file(metrics_path, std::ios::binary);
    if (!file) return args.error("cannot open " + metrics_path);
    metrics.write_json(file);
    file << "\n";
  }

  if (summary) {
    std::cerr << outcome.aggregate.points << " points ("
              << outcome.cache_misses << " analysed pairs, "
              << outcome.skipped.size() << " skipped combos) in "
              << outcome.wall_ms << " ms; " << outcome.aggregate.deadlocks
              << " deadlocks (" << outcome.aggregate.certified_deadlocks
              << " on certified configs)";
    if (outcome.aggregate.packets_aborted > 0 ||
        outcome.aggregate.packets_dropped > 0) {
      std::cerr << "; recovery: " << outcome.aggregate.packets_aborted
                << " aborts, " << outcome.aggregate.recovered_packets
                << " recovered, " << outcome.aggregate.packets_dropped
                << " dropped";
    }
    if (outcome.aggregate.reconfig_epochs > 0) {
      std::cerr << "; reconfig: " << outcome.aggregate.reconfig_epochs
                << " epochs, " << outcome.aggregate.dests_switched
                << " destination cutovers";
    }
    if (outcome.aggregate.rollbacks > 0 ||
        outcome.aggregate.drain_switches > 0) {
      std::cerr << "; self-heal: " << outcome.aggregate.rollbacks
                << " rollbacks (" << outcome.aggregate.rollback_dests
                << " dests), " << outcome.aggregate.drain_switches
                << " drain-switches";
    }
    std::cerr << "\n";
  }
  for (const std::string& skip : outcome.skipped) {
    std::cerr << argv[0] << ": note: skipped inapplicable " << skip << "\n";
  }
  return outcome.aggregate.certified_deadlocks == 0 && audit_contradictions == 0
             ? cli::kClean
             : cli::kFinding;
}
