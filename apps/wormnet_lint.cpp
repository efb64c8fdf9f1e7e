// wormnet-lint: compiler-style static diagnostics for routing functions.
//
//   wormnet-lint --topology mesh:4x4:2 --routing duato
//   wormnet-lint --topology ring:8 --routing minimal-noescape --format json
//   T="--topology torus:4x4:3 --routing duato"
//   wormnet-lint $T --format sarif --fail-on warning > lint.sarif
//   wormnet-lint --all-examples
//
// Exit status: 0 = no finding at or above the --fail-on threshold,
//              1 = findings (or, with --all-examples, expectation failures),
//              2 = usage or configuration error.
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "wormnet/core/registry.hpp"
#include "wormnet/lint/engine.hpp"
#include "wormnet/lint/examples.hpp"
#include "wormnet/lint/render.hpp"
#include "wormnet/obs/probe.hpp"

namespace {

using namespace wormnet;

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " --topology SPEC --routing NAME [options]\n"
      << "       " << argv0 << " --all-examples [options]\n"
      << "       " << argv0 << " --list-rules\n"
      << "\n"
      << "options:\n"
      << "  --topology SPEC     mesh:4x4[:VCS] | torus:8x8[:VCS] |\n"
      << "                      hypercube:N[:VCS] | ring:N[:VCS] |\n"
      << "                      uniring:N[:VCS] | incoherent\n"
      << "  --routing NAME      registry name, or alias 'duato' /\n"
      << "                      'minimal-noescape'\n"
      << "  --format FORMAT     human (default) | json | sarif\n"
      << "  --fail-on LEVEL     error (default) | warning | info | never\n"
      << "  --rules IDS         comma-separated rule ids/names (default all)\n"
      << "  --reconfig-plan P   declare a reconfiguration transition (WN024\n"
      << "                      re-verifies every union epoch); base relation\n"
      << "                      is the --routing name\n"
      << "  --reconfig-target R declare a reconfiguration *target* relation\n"
      << "                      (registry name, optional %HEXMASK); WN025\n"
      << "                      reports when the staging-order planner finds\n"
      << "                      no certified multi-stage path from the\n"
      << "                      --routing relation to it\n"
      << "  --planner-budget N  certifier-call budget for the WN025 planner\n"
      << "                      search (default 64; budget-monotone)\n"
      << "  --all-examples      lint the whole golden example matrix\n"
      << "  --stats             print per-rule timings and checker counters\n"
      << "                      to stderr\n"
      << "  --list-rules        print the rule catalog and exit\n";
  return 2;
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream stream(text);
  std::string part;
  while (std::getline(stream, part, ',')) {
    if (!part.empty()) out.push_back(part);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string topology_spec;
  std::string routing_name;
  std::string format = "human";
  std::string fail_on = "error";
  std::string reconfig_plan;
  std::string reconfig_target;
  std::size_t planner_budget = 0;
  std::vector<std::string> rule_filter;
  bool all_examples = false;
  bool list_rules = false;
  bool stats = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << argv[0] << ": " << arg << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--topology") {
      const char* v = value();
      if (v == nullptr) return 2;
      topology_spec = v;
    } else if (arg == "--routing") {
      const char* v = value();
      if (v == nullptr) return 2;
      routing_name = v;
    } else if (arg == "--format") {
      const char* v = value();
      if (v == nullptr) return 2;
      format = v;
    } else if (arg == "--fail-on") {
      const char* v = value();
      if (v == nullptr) return 2;
      fail_on = v;
    } else if (arg == "--rules") {
      const char* v = value();
      if (v == nullptr) return 2;
      rule_filter = split_list(v);
    } else if (arg == "--reconfig-plan") {
      const char* v = value();
      if (v == nullptr) return 2;
      reconfig_plan = v;
    } else if (arg == "--reconfig-target") {
      const char* v = value();
      if (v == nullptr) return 2;
      reconfig_target = v;
    } else if (arg == "--planner-budget") {
      const char* v = value();
      if (v == nullptr) return 2;
      try {
        std::size_t used = 0;
        planner_budget = std::stoull(v, &used);
        if (used != std::strlen(v)) throw std::invalid_argument(v);
      } catch (const std::exception&) {
        std::cerr << argv[0] << ": bad value for " << arg << ": " << v
                  << "\n";
        return 2;
      }
    } else if (arg == "--all-examples") {
      all_examples = true;
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::cerr << argv[0] << ": unknown option " << arg << "\n";
      return usage(argv[0]);
    }
  }

  if (list_rules) {
    for (const lint::Rule& rule : lint::all_rules()) {
      std::cout << rule.id << "  " << rule.name << "  ["
                << lint::to_string(rule.default_severity) << "]\n"
                << "       " << rule.summary << "\n";
    }
    return 0;
  }

  if (format != "human" && format != "json" && format != "sarif") {
    std::cerr << argv[0] << ": unknown format " << format << "\n";
    return 2;
  }
  lint::Severity threshold = lint::Severity::kError;
  bool never_fail = false;
  if (fail_on == "error") {
    threshold = lint::Severity::kError;
  } else if (fail_on == "warning") {
    threshold = lint::Severity::kWarning;
  } else if (fail_on == "info") {
    threshold = lint::Severity::kInfo;
  } else if (fail_on == "never") {
    never_fail = true;
  } else {
    std::cerr << argv[0] << ": unknown --fail-on level " << fail_on << "\n";
    return 2;
  }

  obs::CheckerStats checker_stats;
  std::vector<lint::LintUnit> units;
  std::vector<std::shared_ptr<topology::Topology>> keep_alive;
  bool expectations_met = true;

  try {
    obs::ProbeScope probe(checker_stats);
    if (all_examples) {
      for (lint::ExampleRun& run : lint::run_examples()) {
        if (!run.passed) {
          expectations_met = false;
          std::cerr << "expectation failed: " << run.subject << ": "
                    << run.failure << "\n";
        }
        keep_alive.push_back(run.topo);
        lint::LintUnit unit;
        unit.subject = std::move(run.subject);
        unit.topo = keep_alive.back().get();
        unit.result = std::move(run.result);
        units.push_back(std::move(unit));
      }
    } else {
      if (topology_spec.empty() || routing_name.empty()) {
        return usage(argv[0]);
      }
      auto topo = std::make_shared<topology::Topology>(
          core::make_topology(topology_spec));
      keep_alive.push_back(topo);
      const auto routing = core::make_algorithm(routing_name, *topo);
      lint::LintOptions options;
      options.rules = rule_filter;
      if (!reconfig_plan.empty() || !reconfig_target.empty()) {
        options.reconfig_plan = reconfig_plan;
        options.reconfig_target = reconfig_target;
        options.planner_budget = planner_budget;
        // The CLI knows the registry name the relation came from; resolve
        // aliases so the compiled plan's base matches the built routing.
        options.reconfig_base =
            core::canonical_algorithm_name(routing_name, *topo);
      }
      lint::LintUnit unit;
      unit.subject = topology_spec + " " + routing->name();
      unit.topo = topo.get();
      unit.result = lint::run_lint(*topo, *routing, options);
      units.push_back(std::move(unit));
    }
  } catch (const std::invalid_argument& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n";
    return 2;
  }

  if (format == "human") {
    lint::render_human(std::cout, units, stats);
  } else if (format == "json") {
    lint::render_jsonl(std::cout, units);
  } else {
    lint::render_sarif(std::cout, units);
  }
  if (stats) {
    checker_stats.write_json(std::cerr);
    std::cerr << "\n";
  }

  if (all_examples && !expectations_met) return 1;
  if (never_fail) return 0;
  for (const lint::LintUnit& unit : units) {
    if (!unit.result.clean(threshold)) return 1;
  }
  return 0;
}
