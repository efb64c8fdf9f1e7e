// Pre-computed self-healing decisions for a live transition (DESIGN 3.13).
//
// A TransitionGuard answers, for every transition step and every fault
// step of a run, the question the simulator must not pause to compute:
// "is it still safe to proceed?"  The guard walks the merged nominal
// timeline (fault steps before transition steps at equal cycles — the
// simulator's own event order), certifying each prospective composed
// epoch (cumulative union relation x live fault mask).  Where an epoch is
// refuted it decides the repair:
//
//   kProceed          the composed epoch is certified (or the network is
//                     back on the pure base relation, which the ordinary
//                     per-fault-epoch verification already covers)
//   kRollback         the *rollback* union — everything currently live
//                     plus the base relation everywhere — is certified,
//                     so already-migrated destinations revert to the base
//                     (version 0) while in-flight packets keep their
//                     stamped route_version
//   kDrainThenSwitch  even rollback is uncertifiable: the simulator
//                     drains the network (packet conservation holds —
//                     delivered + dropped == created) and applies the
//                     plan's steady state through an empty network
//
// After any rollback or drain decision the transition is aborted: the
// simulator cancels the remaining transition steps, and remaining fault
// steps proceed under the standard per-epoch fault verification.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "wormnet/ft/fault_plan.hpp"
#include "wormnet/reconfig/transition_plan.hpp"
#include "wormnet/reconfig/union_routing.hpp"
#include "wormnet/topology/topology.hpp"

namespace wormnet::reconfig {

enum class GuardAction : std::uint8_t {
  kProceed,
  kRollback,
  kDrainThenSwitch,
};

[[nodiscard]] const char* to_string(GuardAction action);

/// One pre-computed decision.  `epoch` is the composed epoch it judged
/// ("" when there was nothing to judge).  For kRollback, `cutover` is the
/// certified reverse plan (every migrated destination back to version 0)
/// and `rollback_epoch` the composed epoch that certified it; for
/// kDrainThenSwitch, `cutover` assigns every destination its steady-state
/// version, applied only once the network is empty.  Both epochs are
/// RelationExpr::to_string() text.
struct GuardDecision {
  GuardAction action = GuardAction::kProceed;
  CompiledCutover cutover;
  std::string epoch;
  std::string rollback_epoch;
};

/// Decisions indexed like the plans they guard: `step[i]` for
/// `plan.steps[i]`, `fault_step[f]` for `faults->steps[f]`.
struct TransitionGuard {
  std::vector<GuardDecision> step;
  std::vector<GuardDecision> fault_step;

  [[nodiscard]] bool all_proceed() const;
};

/// Certifies one composed epoch: the union relation (its `transition`)
/// under the live fault mask.  exp backs this with AnalysisCache lookups so
/// every consulted epoch — rollback epochs included — also flows through
/// the certificate pipeline.
using GuardCertifier = std::function<bool(const RelationExpr&)>;

/// Walks the merged fault x transition timeline and pre-computes every
/// decision.  `faults` may be null (transition-only run); `certifier`
/// empty means Duato over RelationExpr::build.
[[nodiscard]] TransitionGuard build_transition_guard(
    const Topology& topo, const CompiledTransitionPlan& plan,
    const ft::CompiledFaultPlan* faults, const GuardCertifier& certifier = {});

}  // namespace wormnet::reconfig
