// One run's epoch timeline (DESIGN 3.13): its fault steps, its cutovers and
// the self-healing decision for each, in the one order the simulator
// applies them.
//
// build_epoch_schedule() is the only place that orders fault steps against
// cutovers (fault steps first at equal cycles), the only place that rejects
// a kill and a cutover racing at one cycle, and the only guard walk.  The
// walk answers, for every step, the question the simulator must not pause
// to compute: "is it still safe to proceed?"  It certifies each
// prospective composed epoch (cumulative union relation, from
// CompiledTransitionPlan::epoch_unions(), x live fault mask) and, where one
// is refuted, decides the repair:
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
// simulator cancels the remaining cutovers, and remaining fault steps
// proceed under the standard per-epoch fault verification.
//
// The schedule owns both compiled plans and is immutable once built, so a
// sim::SimConfig shares it by pointer with no lifetime contract.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
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

/// One step of the timeline: a compiled fault step or a cutover, and the
/// guard's decision for it (kProceed when no walk ran).
struct EpochStep {
  enum class Kind : std::uint8_t { kFault, kCutover };
  Kind kind = Kind::kFault;
  std::uint64_t cycle = 0;  ///< nominal; a barrier cutover's lower bound
  std::uint32_t index = 0;  ///< into faults.steps or plan.steps
  GuardDecision decision;
};

/// A run's epoch timeline, bound to one topology.
struct EpochSchedule {
  std::size_t num_nodes = 0;     ///< of the topology it was built for
  std::size_t num_channels = 0;
  ft::CompiledFaultPlan faults;
  CompiledTransitionPlan plan;
  /// Every fault step and cutover, by nominal cycle, fault steps first at
  /// equal cycles; cutovers keep plan order.
  std::vector<EpochStep> steps;
  /// The simulator applies non-proceed decisions (a guard walk ran with
  /// `enforce`); otherwise every step proceeds unconditionally.
  bool guarded = false;

  [[nodiscard]] bool has_faults() const noexcept { return !faults.empty(); }
  [[nodiscard]] bool has_cutovers() const noexcept { return !plan.empty(); }
  [[nodiscard]] bool all_proceed() const;
};

/// Certifies one composed epoch: the union relation (its `transition`)
/// under the live fault mask.  exp backs this with AnalysisCache lookups so
/// every consulted epoch — rollback epochs included — also flows through
/// the certificate pipeline.
using GuardCertifier = std::function<bool(const RelationExpr&)>;

/// The guard walk's settings.  `certify` empty means Duato over
/// RelationExpr::build.  Without `enforce` the walk only certifies (the
/// certifier sees every composed epoch) and the schedule stays unguarded.
struct GuardWalk {
  GuardCertifier certify;
  bool enforce = true;
};

/// Merges `faults` and `plan` (both compiled against `topo`; either may be
/// empty) into one schedule and, when `guard` is set, walks it to decide
/// every step.  Throws std::invalid_argument when a plan was compiled
/// against another topology, or when one cycle both kills a channel and
/// cuts its head node's traffic over: the two events would race for the
/// same packets' waiting state with no defined winner.
[[nodiscard]] std::shared_ptr<const EpochSchedule> build_epoch_schedule(
    const Topology& topo, ft::CompiledFaultPlan faults,
    CompiledTransitionPlan plan = {},
    const std::optional<GuardWalk>& guard = std::nullopt);

}  // namespace wormnet::reconfig
