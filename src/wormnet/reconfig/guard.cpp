#include "wormnet/reconfig/guard.hpp"

#include <algorithm>
#include <memory>
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

bool TransitionGuard::all_proceed() const {
  const auto proceeds = [](const GuardDecision& d) {
    return d.action == GuardAction::kProceed;
  };
  return std::all_of(step.begin(), step.end(), proceeds) &&
         std::all_of(fault_step.begin(), fault_step.end(), proceeds);
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

}  // namespace

TransitionGuard build_transition_guard(const Topology& topo,
                                       const CompiledTransitionPlan& plan,
                                       const ft::CompiledFaultPlan* faults,
                                       const GuardCertifier& certifier) {
  const GuardCertifier certify =
      certifier ? certifier
                : [&topo](const RelationExpr& relation) {
                    return default_certify(topo, relation);
                  };

  const std::size_t n = plan.num_nodes;

  TransitionGuard guard;
  guard.step.resize(plan.steps.size());
  guard.fault_step.resize(faults != nullptr ? faults->steps.size() : 0);

  // Merged nominal timeline; at equal cycles fault steps come first, the
  // simulator's own due-event order.  Barrier steps use their scheduled
  // cycle (a lower bound on the apply time) — the guard judges the
  // nominal schedule, exactly like per-epoch verification does.
  struct Item {
    std::uint64_t cycle;
    bool fault;
    std::size_t index;
  };
  std::vector<Item> timeline;
  for (std::size_t f = 0; f < guard.fault_step.size(); ++f) {
    timeline.push_back({faults->steps[f].cycle, true, f});
  }
  for (std::size_t s = 0; s < plan.steps.size(); ++s) {
    timeline.push_back({plan.steps[s].cycle, false, s});
  }
  std::stable_sort(timeline.begin(), timeline.end(),
                   [](const Item& a, const Item& b) {
                     if (a.cycle != b.cycle) return a.cycle < b.cycle;
                     return a.fault && !b.fault;
                   });

  // Walk state: per-destination current version plus the cumulative union
  // (with barrier resets), mirroring epoch_unions().
  std::vector<std::uint32_t> current(n, 0);
  UnionSpec live = plan.base_union();
  std::vector<std::uint32_t> steady(n, 0);
  for (const CompiledCutover& step : plan.steps) {
    for (const CutoverAssignment& a : step.assignments) {
      steady[a.dest] = a.version;
    }
  }
  const std::vector<std::vector<bool>> masks =
      faults != nullptr ? faults->epoch_masks()
                        : std::vector<std::vector<bool>>{};
  std::vector<bool> dead;  // channels dead so far; empty while pristine
  bool aborted = false;

  // Decides the repair for a refuted composed epoch and aborts the walk.
  const auto repair = [&](GuardDecision& decision) {
    UnionSpec rb = live;
    rb.active[0].assign(n, true);
    const RelationExpr rollback(std::move(rb), dead);
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
    aborted = true;
  };

  for (const Item& item : timeline) {
    if (item.fault) {
      GuardDecision& decision = guard.fault_step[item.index];
      dead = masks[item.index + 1];
      // Once rolled back (or never migrated) the network routes by the
      // pure base relation; the ordinary per-fault-epoch verification
      // covers that, so the guard has nothing to add.
      if (aborted || live.pure_base()) continue;
      const RelationExpr epoch(live, dead);
      decision.epoch = epoch.to_string();
      if (certify(epoch)) continue;
      repair(decision);
    } else {
      GuardDecision& decision = guard.step[item.index];
      if (aborted) continue;  // cancelled at runtime
      const CompiledCutover& step = plan.steps[item.index];
      UnionSpec next = live;
      if (step.barrier) {
        for (auto& mask : next.active) mask.assign(n, false);
        for (std::size_t d = 0; d < n; ++d) next.active[current[d]][d] = true;
      }
      std::vector<std::uint32_t> next_current = current;
      for (const CutoverAssignment& a : step.assignments) {
        next.active[a.version][a.dest] = true;
        next_current[a.dest] = a.version;
      }
      const RelationExpr epoch(next, dead);
      decision.epoch = epoch.to_string();
      if (certify(epoch)) {
        live = std::move(next);
        current = std::move(next_current);
        continue;
      }
      repair(decision);
    }
  }
  return guard;
}

}  // namespace wormnet::reconfig
