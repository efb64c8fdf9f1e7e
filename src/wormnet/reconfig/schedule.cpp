#include "wormnet/reconfig/schedule.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "wormnet/core/verifier.hpp"

namespace wormnet::reconfig {

const char* to_string(GuardAction action) {
  switch (action) {
    case GuardAction::kProceed:
      return "proceed";
    case GuardAction::kRollback:
      return "rollback";
    case GuardAction::kDrainThenSwitch:
      return "drain-then-switch";
  }
  return "?";
}

bool EpochSchedule::all_proceed() const {
  return std::all_of(steps.begin(), steps.end(), [](const EpochStep& s) {
    return s.decision.action == GuardAction::kProceed;
  });
}

namespace {

bool default_certify(const Topology& topo, const RelationExpr& relation) {
  try {
    return core::verify(topo, *relation.build(topo)).conclusion ==
           core::Conclusion::kDeadlockFree;
  } catch (const std::exception&) {
    return false;
  }
}

/// Rejects a fault step that kills a channel at the cycle a cutover moves
/// the channel's head node.
void check_race(const Topology& topo, const ft::CompiledStep& fault,
                const CompiledCutover& cutover) {
  for (const topology::ChannelId c : fault.down) {
    const NodeId victim = topo.channel(c).dst;
    for (const CutoverAssignment& a : cutover.assignments) {
      if (a.dest == victim) {
        throw std::invalid_argument(
            "at cycle " + std::to_string(fault.cycle) +
            " the fault plan kills channel " + std::to_string(c) +
            " while the reconfig plan cuts destination " +
            std::to_string(victim) +
            " over; stagger one of the events by a cycle");
      }
    }
  }
}

/// The guard walk: decides every step of `s` in order, judging each
/// prospective composed epoch, until a repair aborts the transition.
void walk(const Topology& topo, EpochSchedule& s, const GuardWalk& guard) {
  const GuardCertifier certify =
      guard.certify ? guard.certify
                    : [&topo](const RelationExpr& relation) {
                        return default_certify(topo, relation);
                      };
  const CompiledTransitionPlan& plan = s.plan;
  const std::size_t n = plan.num_nodes;
  const UnionSpec base = plan.base_union();
  const std::vector<UnionSpec> unions = plan.epoch_unions();
  const std::vector<std::vector<bool>> masks = s.faults.epoch_masks();

  // Walk state: the union live after the certified cutovers, each
  // destination's current version, and the channels dead so far.
  const UnionSpec* live = &base;
  std::vector<std::uint32_t> current(n, 0);
  std::vector<std::uint32_t> steady(n, 0);
  for (const CompiledCutover& step : plan.steps) {
    for (const CutoverAssignment& a : step.assignments) {
      steady[a.dest] = a.version;
    }
  }
  const std::vector<bool>* dead = &masks[0];

  // Decides the repair for a refuted composed epoch.
  const auto repair = [&](GuardDecision& decision) {
    UnionSpec rb = *live;
    rb.active[0].assign(n, true);
    const RelationExpr rollback(std::move(rb), *dead);
    if (certify(rollback)) {
      decision.action = GuardAction::kRollback;
      decision.rollback_epoch = rollback.to_string();
      for (std::size_t d = 0; d < n; ++d) {
        if (current[d] != 0) {
          decision.cutover.assignments.push_back(
              {static_cast<NodeId>(d), 0});
        }
      }
    } else {
      decision.action = GuardAction::kDrainThenSwitch;
      for (std::size_t d = 0; d < n; ++d) {
        decision.cutover.assignments.push_back(
            {static_cast<NodeId>(d), steady[d]});
      }
    }
  };

  for (EpochStep& step : s.steps) {
    GuardDecision& decision = step.decision;
    if (step.kind == EpochStep::Kind::kFault) {
      dead = &masks[step.index + 1];
      // Never migrated: the network routes by the pure base relation, which
      // the ordinary per-fault-epoch verification covers.
      if (live->pure_base()) continue;
      const RelationExpr epoch(*live, *dead);
      decision.epoch = epoch.to_string();
      if (certify(epoch)) continue;
    } else {
      const UnionSpec& next = unions[step.index];
      const RelationExpr epoch(next, *dead);
      decision.epoch = epoch.to_string();
      if (certify(epoch)) {
        live = &next;
        for (const CutoverAssignment& a : plan.steps[step.index].assignments) {
          current[a.dest] = a.version;
        }
        continue;
      }
    }
    // A repair aborts the transition: the remaining cutovers are cancelled
    // at runtime, and the remaining fault steps leave the network on the
    // base relation (or draining toward the steady state).
    repair(decision);
    return;
  }
}

}  // namespace

std::shared_ptr<const EpochSchedule> build_epoch_schedule(
    const Topology& topo, ft::CompiledFaultPlan faults,
    CompiledTransitionPlan plan, const std::optional<GuardWalk>& guard) {
  if (!faults.empty() && faults.num_channels != topo.num_channels()) {
    throw std::invalid_argument(
        "fault plan was compiled against a different topology");
  }
  if (!plan.empty() && plan.num_nodes != topo.num_nodes()) {
    throw std::invalid_argument(
        "transition plan was compiled against a different topology");
  }
  auto s = std::make_shared<EpochSchedule>();
  s->num_nodes = topo.num_nodes();
  s->num_channels = topo.num_channels();
  s->faults = std::move(faults);
  s->plan = std::move(plan);

  // Both step lists ascend strictly by cycle; merge them, fault steps
  // first at equal cycles.
  const auto& fs = s->faults.steps;
  const auto& cs = s->plan.steps;
  std::size_t f = 0;
  std::size_t c = 0;
  while (f < fs.size() || c < cs.size()) {
    EpochStep step;
    if (c == cs.size() || (f < fs.size() && fs[f].cycle <= cs[c].cycle)) {
      if (c < cs.size() && fs[f].cycle == cs[c].cycle) {
        check_race(topo, fs[f], cs[c]);
      }
      step.kind = EpochStep::Kind::kFault;
      step.cycle = fs[f].cycle;
      step.index = static_cast<std::uint32_t>(f++);
    } else {
      step.kind = EpochStep::Kind::kCutover;
      step.cycle = cs[c].cycle;
      step.index = static_cast<std::uint32_t>(c++);
    }
    s->steps.push_back(std::move(step));
  }

  if (guard) {
    walk(topo, *s, *guard);
    s->guarded = guard->enforce;
  }
  return s;
}

}  // namespace wormnet::reconfig
