#include "wormnet/reconfig/transition_plan.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <sstream>
#include <stdexcept>

#include "wormnet/core/registry.hpp"
#include "wormnet/ft/fault_plan.hpp"
#include "wormnet/reconfig/planner.hpp"
#include "wormnet/reconfig/union_routing.hpp"
#include "wormnet/util/number.hpp"

namespace wormnet::reconfig {

namespace {

[[noreturn]] void bad(const std::string& message) {
  throw std::invalid_argument("transition plan: " + message);
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

template <class T = std::uint64_t>
T parse_number(const std::string& text, const std::string& what,
               const std::string& token) {
  if (text.empty()) bad("missing " + what + " in \"" + token + "\"");
  const auto v = util::read_number<T>(text);
  if (v.error == util::NumberError::kOutOfRange) {
    bad(what + " out of range in \"" + token + "\"");
  }
  if (!v) {
    bad("malformed " + what + " \"" + text + "\" in \"" + token + "\"");
  }
  return v.value;
}

/// Routing names must embed cleanly in the plan grammar and in the sweep
/// grid / CSV surface the plan itself rides in.
void check_target_name(const std::string& name, const std::string& token) {
  if (name.empty()) bad("missing routing name in \"" + token + "\"");
  for (const char c : name) {
    if (c == '@' || c == '/' || c == '+' || c == ',' || c == ';' ||
        c == ':' || std::isspace(static_cast<unsigned char>(c)) != 0) {
      bad("malformed routing name \"" + name + "\" in \"" + token + "\"");
    }
  }
}

}  // namespace

std::string TransitionPlan::to_string() const {
  if (events.empty()) return "none";
  std::ostringstream os;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i != 0) os << '+';
    const TransitionEvent& ev = events[i];
    switch (ev.kind) {
      case TransitionEvent::Kind::kSwitch:
        os << "switch:" << ev.target;
        break;
      case TransitionEvent::Kind::kStage:
        os << "stage:" << ev.target << '/' << ev.lo << '-' << ev.hi;
        break;
      case TransitionEvent::Kind::kRamp:
        os << "ramp:" << ev.target << '/' << ev.batches << '/' << ev.stride;
        break;
      case TransitionEvent::Kind::kBarrier:
        os << "barrier:" << ev.target;
        if (ev.ranged) os << '/' << ev.lo << '-' << ev.hi;
        break;
      case TransitionEvent::Kind::kPlan:
        os << "plan:" << ev.target;
        break;
    }
    os << '@' << ev.cycle;
  }
  return os.str();
}

TransitionPlan parse_transition_plan(const std::string& text) {
  TransitionPlan plan;
  const std::string whole = trim(text);
  if (whole.empty() || whole == "none") return plan;

  std::size_t start = 0;
  while (start <= whole.size()) {
    const std::size_t plus = whole.find('+', start);
    const std::string token = trim(
        whole.substr(start, plus == std::string::npos ? plus : plus - start));
    start = plus == std::string::npos ? whole.size() + 1 : plus + 1;
    if (token.empty()) bad("empty event");

    const std::size_t colon = token.find(':');
    if (colon == std::string::npos) {
      bad("missing ':' in \"" + token + "\"");
    }
    const std::string kind = token.substr(0, colon);
    const std::size_t at = token.rfind('@');
    if (at == std::string::npos || at < colon) {
      bad("missing '@cycle' in \"" + token + "\"");
    }
    const std::string spec = token.substr(colon + 1, at - colon - 1);
    TransitionEvent ev;
    ev.cycle = parse_number(token.substr(at + 1), "cycle", token);

    if (kind == "switch") {
      ev.kind = TransitionEvent::Kind::kSwitch;
      ev.target = spec;
      check_target_name(ev.target, token);
    } else if (kind == "stage") {
      ev.kind = TransitionEvent::Kind::kStage;
      const std::size_t slash = spec.find('/');
      if (slash == std::string::npos) {
        bad("missing '/LO-HI' in \"" + token + "\"");
      }
      ev.target = spec.substr(0, slash);
      check_target_name(ev.target, token);
      const std::string range = spec.substr(slash + 1);
      const std::size_t dash = range.find('-');
      if (dash == std::string::npos) {
        bad("malformed destination range \"" + range + "\" in \"" + token +
            "\"");
      }
      ev.lo =
          parse_number<NodeId>(range.substr(0, dash), "destination", token);
      ev.hi =
          parse_number<NodeId>(range.substr(dash + 1), "destination", token);
      if (ev.lo > ev.hi) {
        bad("empty destination range \"" + range + "\" in \"" + token + "\"");
      }
    } else if (kind == "ramp") {
      ev.kind = TransitionEvent::Kind::kRamp;
      const std::size_t s1 = spec.find('/');
      if (s1 == std::string::npos) {
        bad("missing '/K/STRIDE' in \"" + token + "\"");
      }
      const std::size_t s2 = spec.find('/', s1 + 1);
      if (s2 == std::string::npos) {
        bad("missing '/STRIDE' in \"" + token + "\"");
      }
      ev.target = spec.substr(0, s1);
      check_target_name(ev.target, token);
      ev.batches = parse_number<std::size_t>(spec.substr(s1 + 1, s2 - s1 - 1),
                                             "batch count", token);
      ev.stride = parse_number(spec.substr(s2 + 1), "stride", token);
      if (ev.batches == 0) bad("zero batches in \"" + token + "\"");
    } else if (kind == "barrier") {
      ev.kind = TransitionEvent::Kind::kBarrier;
      const std::size_t slash = spec.find('/');
      ev.target = spec.substr(0, slash);
      check_target_name(ev.target, token);
      if (slash != std::string::npos) {
        ev.ranged = true;
        const std::string range = spec.substr(slash + 1);
        const std::size_t dash = range.find('-');
        if (dash == std::string::npos) {
          bad("malformed destination range \"" + range + "\" in \"" + token +
              "\"");
        }
        ev.lo =
            parse_number<NodeId>(range.substr(0, dash), "destination", token);
        ev.hi = parse_number<NodeId>(range.substr(dash + 1), "destination",
                                     token);
        if (ev.lo > ev.hi) {
          bad("empty destination range \"" + range + "\" in \"" + token +
              "\"");
        }
      }
    } else if (kind == "plan") {
      ev.kind = TransitionEvent::Kind::kPlan;
      ev.target = spec;
      check_target_name(ev.target, token);
    } else {
      bad("unknown event kind \"" + kind + "\"");
    }
    plan.events.push_back(std::move(ev));
  }
  return plan;
}

// --------------------------------------------------------------- UnionSpec

bool UnionSpec::pure_base() const {
  for (std::size_t v = 1; v < active.size(); ++v) {
    for (const bool live : active[v]) {
      if (live) return false;
    }
  }
  return true;
}

std::string UnionSpec::to_string() const {
  std::ostringstream os;
  for (std::size_t v = 0; v < names.size(); ++v) {
    if (v != 0) os << '>';
    os << names[v];
  }
  os << '/';
  for (std::size_t v = 0; v < active.size(); ++v) {
    if (v != 0) os << '.';
    os << ft::mask_to_hex(active[v]);
  }
  return os.str();
}

// ------------------------------------------------------------------ compile

UnionSpec CompiledTransitionPlan::base_union() const {
  UnionSpec spec;
  spec.num_nodes = num_nodes;
  spec.names.push_back(base);
  spec.names.insert(spec.names.end(), target_names.begin(),
                    target_names.end());
  spec.active.assign(spec.names.size(), std::vector<bool>(num_nodes, false));
  spec.active[0].assign(num_nodes, true);
  return spec;
}

std::vector<UnionSpec> CompiledTransitionPlan::epoch_unions() const {
  std::vector<UnionSpec> unions;
  UnionSpec cum = base_union();
  std::vector<std::uint32_t> current(num_nodes, 0);
  for (const CompiledCutover& step : steps) {
    if (step.barrier) {
      // The drain gate guarantees no packet is stamped with a version other
      // than its destination's current one, so the union collapses to the
      // current assignment before the barrier's own cutovers go live.
      for (auto& mask : cum.active) mask.assign(num_nodes, false);
      for (std::size_t d = 0; d < num_nodes; ++d) {
        cum.active[current[d]][d] = true;
      }
    }
    for (const CutoverAssignment& a : step.assignments) {
      cum.active[a.version][a.dest] = true;
      current[a.dest] = a.version;
    }
    unions.push_back(cum);
  }
  return unions;
}

UnionSpec CompiledTransitionPlan::steady_state() const {
  UnionSpec spec = base_union();
  spec.active[0].assign(num_nodes, false);
  std::vector<std::uint32_t> version(num_nodes, 0);
  for (const CompiledCutover& step : steps) {
    for (const CutoverAssignment& a : step.assignments) {
      version[a.dest] = a.version;
    }
  }
  for (std::size_t d = 0; d < num_nodes; ++d) {
    spec.active[version[d]][d] = true;
  }
  return spec;
}

std::vector<UnionSpec> CompiledTransitionPlan::verification_epochs() const {
  std::vector<UnionSpec> epochs;
  std::vector<std::string> seen;
  const auto push = [&](UnionSpec spec) {
    if (spec.pure_base()) return;
    const std::string key = spec.to_string();
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) return;
    seen.push_back(key);
    epochs.push_back(std::move(spec));
  };
  for (UnionSpec& spec : epoch_unions()) push(std::move(spec));
  push(steady_state());
  return epochs;
}

TransitionPlan resolve(const TransitionPlan& plan, const Topology& topo,
                       const std::string& base_name) {
  // Each `plan:NEW@CYCLE` event becomes the certified staging order
  // plan_certified_transition finds (or a naive switch when none exists
  // within budget — per-epoch verification then refutes the union, exactly
  // as if the user had written the switch).  Other events pass through.
  TransitionPlan out;
  for (const TransitionEvent& ev : plan.events) {
    if (ev.kind != TransitionEvent::Kind::kPlan) {
      out.events.push_back(ev);
      continue;
    }
    PlannerOptions planner_options;
    planner_options.start_cycle = ev.cycle;
    const StagedPlan staged = plan_certified_transition(
        topo, base_name, ev.target, planner_options);
    if (staged.certified) {
      out.events.insert(out.events.end(), staged.plan.events.begin(),
                        staged.plan.events.end());
    } else {
      TransitionEvent naive;
      naive.kind = TransitionEvent::Kind::kSwitch;
      naive.cycle = ev.cycle;
      naive.target = ev.target;
      out.events.push_back(naive);
    }
  }
  return out;
}

std::pair<std::string, std::vector<bool>> split_member(
    const Topology& topo, const std::string& name) {
  const std::size_t pct = name.find('%');
  if (pct == std::string::npos) return {name, {}};
  return {name.substr(0, pct),
          ft::mask_from_hex(name.substr(pct + 1), topo.num_channels())};
}

std::string canonical_member(const Topology& topo, const std::string& name) {
  const auto [algorithm, allowed] = split_member(topo, name);
  const std::string algo = core::canonical_algorithm_name(algorithm, topo);
  (void)core::make_algorithm(algo, topo);
  // Normalizing the mask through a hex round-trip makes equal masks dedup.
  return allowed.empty() ? algo : algo + '%' + ft::mask_to_hex(allowed);
}

CompiledTransitionPlan compile(const TransitionPlan& plan,
                               const Topology& topo,
                               const std::string& base_name) {
  CompiledTransitionPlan out;
  out.num_nodes = topo.num_nodes();
  out.base = core::canonical_algorithm_name(base_name, topo);
  // Instantiating validates that the base names a registry algorithm
  // applicable to this topology — auditors rebuild relations by name.
  (void)core::make_algorithm(out.base, topo);
  if (plan.empty()) return out;

  const std::size_t n = out.num_nodes;
  const std::vector<TransitionEvent> events =
      resolve(plan, topo, out.base).events;

  const auto version_of = [&](const std::string& target,
                              const std::string& where) -> std::uint32_t {
    std::string canon;
    try {
      canon = canonical_member(topo, target);
    } catch (const std::invalid_argument& e) {
      bad(std::string(e.what()) + " in \"" + where + "\"");
    }
    if (canon == out.base) return 0;
    for (std::size_t v = 0; v < out.target_names.size(); ++v) {
      if (out.target_names[v] == canon) {
        return static_cast<std::uint32_t>(v + 1);
      }
    }
    out.target_names.push_back(canon);
    return static_cast<std::uint32_t>(out.target_names.size());
  };

  // cycle -> dest -> version, conflicts rejected.  A cycle touched by any
  // barrier event compiles to a drain-gated (barrier) step.
  std::map<std::uint64_t, std::map<NodeId, std::uint32_t>> schedule;
  std::vector<std::uint64_t> barrier_cycles;
  const auto assign = [&](std::uint64_t cycle, NodeId dest,
                          std::uint32_t version, const std::string& where) {
    auto& dests = schedule[cycle];
    const auto it = dests.find(dest);
    if (it != dests.end() && it->second != version) {
      bad("conflicting cutover for destination " + std::to_string(dest) +
          " at cycle " + std::to_string(cycle) + " in \"" + where + "\"");
    }
    dests[dest] = version;
  };

  for (const TransitionEvent& ev : events) {
    const std::string where = TransitionPlan{{ev}}.to_string();
    const std::uint32_t version = version_of(ev.target, where);
    switch (ev.kind) {
      case TransitionEvent::Kind::kSwitch:
        for (NodeId d = 0; d < n; ++d) assign(ev.cycle, d, version, where);
        break;
      case TransitionEvent::Kind::kStage:
        if (ev.hi >= n) {
          bad("destination " + std::to_string(ev.hi) +
              " out of range for " + std::to_string(n) + " nodes in \"" +
              where + "\"");
        }
        for (NodeId d = ev.lo; d <= ev.hi; ++d) {
          assign(ev.cycle, d, version, where);
        }
        break;
      case TransitionEvent::Kind::kRamp: {
        if (ev.batches > n) {
          bad("more batches (" + std::to_string(ev.batches) +
              ") than destinations (" + std::to_string(n) + ") in \"" +
              where + "\"");
        }
        for (std::size_t b = 0; b < ev.batches; ++b) {
          const NodeId lo = static_cast<NodeId>(b * n / ev.batches);
          const NodeId hi = static_cast<NodeId>((b + 1) * n / ev.batches);
          const std::uint64_t cycle = ev.cycle + b * ev.stride;
          for (NodeId d = lo; d < hi; ++d) assign(cycle, d, version, where);
        }
        break;
      }
      case TransitionEvent::Kind::kBarrier: {
        NodeId lo = 0;
        NodeId hi = static_cast<NodeId>(n - 1);
        if (ev.ranged) {
          if (ev.hi >= n) {
            bad("destination " + std::to_string(ev.hi) +
                " out of range for " + std::to_string(n) + " nodes in \"" +
                where + "\"");
          }
          lo = ev.lo;
          hi = ev.hi;
        }
        for (NodeId d = lo; d <= hi; ++d) assign(ev.cycle, d, version, where);
        barrier_cycles.push_back(ev.cycle);
        break;
      }
      case TransitionEvent::Kind::kPlan:
        bad("unexpanded plan event \"" + where + "\"");  // unreachable
    }
  }

  // Resolve the schedule into steps, pruning assignments that leave a
  // destination's version unchanged (so identity plans compile to zero
  // steps and every surviving assignment is a real routing change).
  std::vector<std::uint32_t> current(n, 0);
  std::vector<bool> used(out.target_names.size() + 1, false);
  for (const auto& [cycle, dests] : schedule) {
    CompiledCutover step;
    step.cycle = cycle;
    step.barrier = std::find(barrier_cycles.begin(), barrier_cycles.end(),
                             cycle) != barrier_cycles.end();
    for (const auto& [dest, version] : dests) {
      if (current[dest] == version) continue;
      current[dest] = version;
      used[version] = true;
      step.assignments.push_back({dest, version});
    }
    if (!step.assignments.empty()) out.steps.push_back(std::move(step));
  }

  // Compact away target versions every assignment of which was pruned,
  // keeping certificate labels free of relations that never go live.
  std::vector<std::uint32_t> remap(used.size(), 0);
  std::vector<std::string> kept;
  for (std::size_t v = 1; v < used.size(); ++v) {
    if (!used[v]) continue;
    kept.push_back(out.target_names[v - 1]);
    remap[v] = static_cast<std::uint32_t>(kept.size());
  }
  if (kept.size() != out.target_names.size()) {
    out.target_names = std::move(kept);
    for (CompiledCutover& step : out.steps) {
      for (CutoverAssignment& a : step.assignments) {
        a.version = remap[a.version];
      }
    }
  }
  for (const std::string& name : out.target_names) {
    out.targets.push_back(make_member_routing(topo, name));
  }
  return out;
}

}  // namespace wormnet::reconfig
