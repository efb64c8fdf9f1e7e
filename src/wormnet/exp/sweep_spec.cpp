#include "wormnet/exp/sweep_spec.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "wormnet/core/registry.hpp"
#include "wormnet/ft/fault_plan.hpp"
#include "wormnet/reconfig/schedule.hpp"
#include "wormnet/reconfig/transition_plan.hpp"
#include "wormnet/util/number.hpp"
#include "wormnet/util/rng.hpp"

namespace wormnet::exp {
namespace {

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::istringstream stream(text);
  std::string part;
  while (std::getline(stream, part, sep)) {
    if (!part.empty()) out.push_back(part);
  }
  return out;
}

/// A load, range bound or step: a finite, non-negative number.
double parse_load(const std::string& text, const std::string& what) {
  const auto v = util::read_number<double>(text);
  if (!v || v.value < 0.0) {
    throw std::invalid_argument("sweep grid: bad " + what + " '" + text +
                                "'");
  }
  return v.value;
}

template <class T>
T parse_integer(const std::string& text, const std::string& what) {
  const auto v = util::read_number<T>(text);
  if (!v) {
    throw std::invalid_argument("sweep grid: bad " + what + " '" + text +
                                "'");
  }
  return v.value;
}

/// A load range yields at most this many points.
constexpr double kMaxLoadPoints = 10000;

/// "0.05:0.45:0.10" -> {0.05, 0.15, ..., 0.45}; "a,b,c" -> {a, b, c}.
std::vector<double> parse_loads(const std::string& clause) {
  const auto range = split(clause, ':');
  if (range.size() == 3) {
    const double lo = parse_load(range[0], "load");
    const double hi = parse_load(range[1], "load");
    const double step = parse_load(range[2], "load step");
    if (step <= 0.0 || hi < lo) {
      throw std::invalid_argument("sweep grid: bad load range '" + clause +
                                  "'");
    }
    // Integer stepping avoids drift deciding whether `hi` itself is hit.
    const double points = (hi - lo) / step + 1e-9;
    if (!(points < kMaxLoadPoints)) {
      throw std::invalid_argument("sweep grid: load range '" + clause +
                                  "' has more than 10000 points");
    }
    std::vector<double> out;
    const auto steps = static_cast<std::size_t>(points);
    for (std::size_t i = 0; i <= steps; ++i) {
      out.push_back(lo + static_cast<double>(i) * step);
    }
    return out;
  }
  std::vector<double> out;
  for (const auto& part : split(clause, ',')) {
    out.push_back(parse_load(part, "load"));
  }
  if (out.empty()) throw std::invalid_argument("sweep grid: empty load list");
  return out;
}

/// One fault-axis value, compiled against one topology.
struct FaultAxisValue {
  std::string text;  ///< normalized plan text
  std::shared_ptr<const ft::CompiledFaultPlan> compiled;  ///< null: no steps
};

/// Parse + compile eagerly: a malformed plan or one that names links absent
/// from this topology throws here, not mid-run on a worker.
std::vector<FaultAxisValue> compile_fault_axis(
    const std::vector<std::string>& plans, const topology::Topology& topo) {
  std::vector<FaultAxisValue> out;
  for (const auto& text : plans) {
    const ft::FaultPlan plan = ft::parse_fault_plan(text);
    auto compiled =
        std::make_shared<const ft::CompiledFaultPlan>(ft::compile(plan, topo));
    if (compiled->empty()) compiled.reset();
    out.push_back({plan.empty() ? "none" : plan.to_string(),
                   std::move(compiled)});
  }
  return out;
}

/// One reconfig-axis value, resolved for one (topology, base routing).
struct ReconfigAxisValue {
  std::string text = "none";  ///< normalized plan text
  std::shared_ptr<const reconfig::TransitionPlan> resolved;  ///< null: none
};

/// Same eager discipline for transition plans.  Compiling against the base
/// routing also normalizes identity plans (zero surviving cutovers) to
/// "none", making their rows byte-identical to no-plan rows.
std::vector<ReconfigAxisValue> resolve_reconfig_axis(
    const std::vector<std::string>& plans, const topology::Topology& topo,
    const std::string& base) {
  std::vector<ReconfigAxisValue> out;
  for (const auto& text : plans) {
    ReconfigAxisValue value;
    const reconfig::TransitionPlan plan = reconfig::parse_transition_plan(text);
    if (!plan.empty()) {
      auto resolved = std::make_shared<const reconfig::TransitionPlan>(
          reconfig::resolve(plan, topo, base));
      if (!reconfig::compile(*resolved, topo, base).empty()) {
        value.text = plan.to_string();
        value.resolved = std::move(resolved);
      }
    }
    out.push_back(std::move(value));
  }
  return out;
}

}  // namespace

ExpandedSweep expand(const SweepSpec& spec) {
  if (spec.topologies.empty()) {
    throw std::invalid_argument("sweep: no topologies");
  }
  if (spec.routings.empty()) {
    throw std::invalid_argument("sweep: no routings");
  }
  if (spec.loads.empty()) throw std::invalid_argument("sweep: no loads");
  if (spec.patterns.empty()) throw std::invalid_argument("sweep: no patterns");
  if (spec.fault_plans.empty()) {
    throw std::invalid_argument("sweep: no fault plans (use \"none\")");
  }
  if (spec.reconfig_plans.empty()) {
    throw std::invalid_argument("sweep: no reconfig plans (use \"none\")");
  }
  if (spec.replications == 0) {
    throw std::invalid_argument("sweep: replications must be >= 1");
  }

  ExpandedSweep out;
  // The seed stream: point i uses the first output of the i-times-jumped
  // generator.  Jumps are cumulative, so expansion is O(points), and the
  // assignment depends only on canonical order — not on sharding.
  util::Xoshiro256 stream(spec.seed);
  for (const auto& topo_spec : spec.topologies) {
    const topology::Topology topo = core::make_topology(topo_spec);
    std::vector<FaultAxisValue> faults;
    for (const auto& routing : spec.routings) {
      std::string canonical;
      try {
        canonical = core::canonical_algorithm_name(routing, topo);
      } catch (const std::invalid_argument&) {
        // Alias with no applicable construction here (e.g. "duato" on a
        // topology without a duato-* variant): a skip, not an error.
        out.skipped.push_back(topo_spec + " × " + routing);
        continue;
      }
      const auto& algorithms = core::all_algorithms();
      const auto entry = std::find_if(
          algorithms.begin(), algorithms.end(),
          [&](const core::AlgorithmEntry& e) { return e.name == canonical; });
      if (entry == algorithms.end()) {
        throw std::invalid_argument("sweep: unknown routing '" + routing +
                                    "'");
      }
      if (!entry->applicable(topo)) {
        out.skipped.push_back(topo_spec + " × " + routing);
        continue;
      }
      // Fault plans depend on the topology alone, so they are compiled on
      // its first applicable routing and shared from then on.
      if (faults.empty()) faults = compile_fault_axis(spec.fault_plans, topo);
      // Transition plans depend on the base routing too.  Resolving them
      // here, outside the fault loop, runs the staging planner once per
      // (topology, routing, plan) however many points share the plan.
      const std::vector<ReconfigAxisValue> transitions =
          resolve_reconfig_axis(spec.reconfig_plans, topo, canonical);
      for (const FaultAxisValue& fault : faults) {
        for (const ReconfigAxisValue& transition : transitions) {
          // Fault and transition plans compose (DESIGN 3.13).  Building the
          // pair's schedule here rejects a kill racing a cutover at one
          // cycle before any point runs.
          if (fault.compiled && transition.resolved) {
            try {
              (void)reconfig::build_epoch_schedule(
                  topo, *fault.compiled,
                  reconfig::compile(*transition.resolved, topo, canonical));
            } catch (const std::invalid_argument& e) {
              throw std::invalid_argument(std::string("sweep: ") + e.what());
            }
          }
          for (const sim::Pattern pattern : spec.patterns) {
            for (const double load : spec.loads) {
              for (std::uint32_t rep = 0; rep < spec.replications; ++rep) {
                SweepPoint point;
                point.index = out.points.size();
                point.topology = topo_spec;
                point.routing = canonical;
                point.fault_plan = fault.text;
                point.reconfig_plan = transition.text;
                point.faults = fault.compiled;
                point.transition = transition.resolved;
                point.pattern = pattern;
                point.load = load;
                point.replication = rep;
                point.seed = util::Xoshiro256(stream)();  // copy; stream stays
                stream.jump();
                out.points.push_back(std::move(point));
              }
            }
          }
        }
      }
    }
  }
  return out;
}

SweepSpec parse_grid(const std::string& text) {
  SweepSpec spec;
  spec.patterns.clear();
  spec.loads.clear();
  for (const auto& clause : split(text, ';')) {
    const auto eq = clause.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("sweep grid: clause '" + clause +
                                  "' is not key=value");
    }
    const std::string key = clause.substr(0, eq);
    const std::string value = clause.substr(eq + 1);
    if (value.empty()) {
      throw std::invalid_argument("sweep grid: empty value for '" + key +
                                  "'");
    }
    if (key == "topo" || key == "topology") {
      spec.topologies = split(value, ',');
    } else if (key == "routing") {
      spec.routings = split(value, ',');
    } else if (key == "fault") {
      // Plan syntax uses '+' between events precisely because ',' and ';'
      // are taken by the grid grammar, so a plain comma split is safe here.
      spec.fault_plans = split(value, ',');
    } else if (key == "reconfig") {
      // Transition plans share the fault plans' '+'-joined event syntax.
      spec.reconfig_plans = split(value, ',');
    } else if (key == "pattern") {
      for (const auto& name : split(value, ',')) {
        const auto pattern = sim::pattern_from_string(name);
        if (!pattern) {
          throw std::invalid_argument("sweep grid: unknown pattern '" + name +
                                      "'");
        }
        spec.patterns.push_back(*pattern);
      }
    } else if (key == "load") {
      spec.loads = parse_loads(value);
    } else if (key == "reps") {
      spec.replications = parse_integer<std::uint32_t>(value, "reps");
      if (spec.replications == 0) {
        throw std::invalid_argument("sweep grid: reps must be >= 1");
      }
    } else if (key == "seed") {
      spec.seed = parse_integer<std::uint64_t>(value, "seed");
    } else {
      throw std::invalid_argument("sweep grid: unknown key '" + key + "'");
    }
  }
  if (spec.patterns.empty()) spec.patterns = {sim::Pattern::kUniform};
  if (spec.loads.empty()) spec.loads = {0.1};
  if (spec.topologies.empty()) {
    throw std::invalid_argument("sweep grid: missing topo=");
  }
  if (spec.routings.empty()) {
    throw std::invalid_argument("sweep grid: missing routing=");
  }
  return spec;
}

}  // namespace wormnet::exp
