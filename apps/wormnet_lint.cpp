// wormnet-lint: compiler-style static diagnostics for routing functions.
//
//   wormnet-lint --topology mesh:4x4:2 --relation duato-mesh
//   wormnet-lint --topology ring:8 --relation unrestricted --format json
//   T="--topology torus:4x4:3 --relation duato-torus"
//   wormnet-lint $T --format sarif --fail-on warning > lint.sarif
//   wormnet-lint --topology mesh:2x2:1
//                --relation 'transition|e-cube>negative-first/f.f'
//   wormnet-lint --all-examples
//
// Exit status (cli.hpp): 0 = no finding at or above the --fail-on
// threshold, 1 = findings (or, with --all-examples, expectation failures),
// 2 = usage or configuration error.
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "wormnet/core/registry.hpp"
#include "wormnet/lint/engine.hpp"
#include "wormnet/lint/examples.hpp"
#include "wormnet/lint/render.hpp"
#include "wormnet/obs/probe.hpp"
#include "wormnet/reconfig/union_routing.hpp"

namespace {

using namespace wormnet;

constexpr cli::Flag kFlags[] = {
    {"--topology", "SPEC",
     "mesh:4x4[:VCS] | torus:8x8[:VCS] |\nhypercube:N[:VCS] | ring:N[:VCS] |\n"
     "uniring:N[:VCS] | incoherent"},
    {"--relation", "EXPR",
     "ROUTING, ROUTING|MASK, transition|SPEC or\ntransition|SPEC|MASK "
     "(canonical text only)"},
    {"--format", "FORMAT", "human (default) | json | sarif"},
    {"--fail-on", "LEVEL", "error (default) | warning | info | never"},
    {"--rules", "IDS", "comma-separated rule ids/names (default all)"},
    {"--reconfig-plan", "P",
     "declare a reconfiguration transition (WN024\nre-verifies every union "
     "epoch) from the\n--relation, a plain registry name"},
    {"--reconfig-target", "R",
     "declare a reconfiguration *target* relation\n(registry name, optional "
     "%HEXMASK); WN025\nreports when the staging-order planner finds\nno "
     "certified multi-stage path from the\n--relation (a plain registry "
     "name) to it"},
    {"--planner-budget", "N",
     "certifier-call budget for the WN025 planner\nsearch (default 64; "
     "budget-monotone)"},
    {"--all-examples", "",
     "lint the whole golden example matrix (exit 1\nalso on a missed "
     "expectation)"},
    {"--stats", "", "print per-rule timings and checker counters\nto stderr"},
    {"--list-rules", "", "print the rule catalog and exit"},
};

const cli::Spec kSpec{
    .forms = "--topology SPEC --relation EXPR [options]\n"
             "--all-examples [options]\n--list-rules",
    .flags = kFlags,
};

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
  const cli::Args args(argc, argv, kSpec);
  if (args.exit_code) return *args.exit_code;
  const std::string topology_spec = args.value("--topology");
  const std::string relation = args.value("--relation");
  const std::string format = args.value("--format", "human");
  const std::string fail_on = args.value("--fail-on", "error");
  const std::string reconfig_plan = args.value("--reconfig-plan");
  const std::string reconfig_target = args.value("--reconfig-target");
  std::size_t planner_budget = 0;
  if (!args.number("--planner-budget", planner_budget)) return cli::kBadInput;
  const bool all_examples = args.has("--all-examples");
  const bool stats = args.has("--stats");

  if (args.has("--list-rules")) {
    for (const lint::Rule& rule : lint::all_rules()) {
      std::cout << rule.id << "  " << rule.name << "  ["
                << lint::to_string(rule.default_severity) << "]\n"
                << "       " << rule.summary << "\n";
    }
    return cli::kClean;
  }

  if (format != "human" && format != "json" && format != "sarif") {
    return args.error("unknown format " + format);
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
    return args.error("unknown --fail-on level " + fail_on);
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
      if (topology_spec.empty() || relation.empty()) {
        return args.error("--topology and --relation are required");
      }
      auto topo = std::make_shared<topology::Topology>(
          core::make_topology(topology_spec));
      keep_alive.push_back(topo);
      const reconfig::RelationExpr expr =
          reconfig::RelationExpr::parse(relation, *topo);
      const auto routing = expr.build(*topo);
      lint::LintOptions options;
      options.rules = split_list(args.value("--rules"));
      if (!reconfig_plan.empty() || !reconfig_target.empty()) {
        // A plan or staging target starts from one registry relation.
        if (expr.transition || !expr.fault_mask.empty()) {
          return args.error("--reconfig-plan and --reconfig-target need a "
                            "plain registry relation as their base, not \"" +
                            relation + "\"");
        }
        options.reconfig_plan = reconfig_plan;
        options.reconfig_target = reconfig_target;
        options.planner_budget = planner_budget;
        options.reconfig_base = expr.routing;
      }
      lint::LintUnit unit;
      unit.subject = topology_spec + " " + routing->name();
      unit.topo = topo.get();
      unit.result = lint::run_lint(*topo, *routing, options);
      units.push_back(std::move(unit));
    }
  } catch (const std::invalid_argument& e) {
    return args.error(e.what());
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

  if (all_examples && !expectations_met) return cli::kFinding;
  if (never_fail) return cli::kClean;
  for (const lint::LintUnit& unit : units) {
    if (!unit.result.clean(threshold)) return cli::kFinding;
  }
  return cli::kClean;
}
