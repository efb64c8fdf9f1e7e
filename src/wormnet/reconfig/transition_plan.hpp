// Deadlock-free dynamic reconfiguration plans (UPR-style, Crespo et al.).
//
// A TransitionPlan is a symbolic schedule migrating a live network from its
// base routing relation R_old to one or more target relations without
// draining: per-destination cutover batches applied between cycles.  Plans
// are parsed from a compact text form (so they ride in sweep grids and CLI
// flags), then *compiled* against a topology + base routing name into
// per-cycle destination/version batches the Simulator applies between
// cycles.  Compilation is where every error surfaces: unknown routing
// names, inapplicable algorithms, out-of-range destinations and conflicting
// same-cycle cutovers all throw before any simulation starts.
//
// Text grammar ('+'-joined events; ',' and ';' are reserved by the sweep
// grid syntax, so plans embed cleanly as grid axis values):
//
//   none                      the empty plan (placeholder axis value)
//   switch:NEW@CYCLE          every destination cuts over to routing NEW
//   stage:NEW/LO-HI@CYCLE     destinations LO..HI (inclusive) cut over
//   ramp:NEW/K/STRIDE@CYCLE   the destination space is split into K
//                             contiguous batches; batch b cuts over at
//                             CYCLE + b*STRIDE
//   barrier:NEW@CYCLE         drain-gated switch: applies at the first
//   barrier:NEW/LO-HI@CYCLE   cycle >= CYCLE at which no in-flight packet
//                             is stamped with a stale routing version —
//                             the union relation *resets* across a barrier
//                             (only versions still current stay live)
//   plan:NEW@CYCLE            certified staging-order search: resolve()
//                             runs reconfig::plan_certified_transition and
//                             splices the found stages (falling back to a
//                             naive switch when no certified order exists,
//                             which per-epoch verification then refutes).
//                             A sweep resolves each plan once per
//                             (topology, base routing, plan); its points
//                             compile the resolved, planner-free plan.
//
// Routing names may carry a per-channel migration mask, `NAME%HEXMASK`
// (lowercase hex over the topology's channels, ft::mask_to_hex layout):
// the relation routes like NAME with every candidate outside the mask
// removed — an intermediate finer than any per-destination step.
//
// Example: "stage:duato-mesh/0-7@200+barrier:duato-mesh/8-15@400".
//
// Cutover is *per destination*: every packet is routed for its whole
// lifetime by the single pure relation that was current for its destination
// when it injected (the in-flight coherence rule, DESIGN 3.12).  Safety of
// the transition is certified per epoch on the cumulative union relation —
// for each destination, the union of every relation any in-flight packet
// may still be routed under — through the ordinary Duato certificate path.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "wormnet/routing/routing_function.hpp"
#include "wormnet/topology/topology.hpp"

namespace wormnet::reconfig {

using topology::NodeId;
using topology::Topology;

/// One symbolic plan event (pre-compilation).
struct TransitionEvent {
  enum class Kind : std::uint8_t {
    kSwitch,   ///< every destination cuts over to `target`
    kStage,    ///< destinations [lo, hi] cut over
    kRamp,     ///< `batches` contiguous batches, stride cycles apart
    kBarrier,  ///< drain-gated cutover (all destinations, or [lo, hi])
    kPlan,     ///< planner invocation: resolve searches a certified order
  };
  Kind kind = Kind::kSwitch;
  std::uint64_t cycle = 0;
  std::string target;       ///< routing-algorithm name (may carry %HEXMASK)
  NodeId lo = 0;            ///< stage/barrier events
  NodeId hi = 0;
  bool ranged = false;      ///< barrier events: [lo, hi] vs all destinations
  std::size_t batches = 0;  ///< ramp events
  std::uint64_t stride = 0;
};

struct TransitionPlan {
  std::vector<TransitionEvent> events;
  [[nodiscard]] bool empty() const noexcept { return events.empty(); }
  /// Round-trips through parse_transition_plan ("none" for the empty plan).
  [[nodiscard]] std::string to_string() const;
};

/// Parses the text grammar above.  "none", "" and whitespace-only all mean
/// the empty plan.  Throws std::invalid_argument on malformed input.
[[nodiscard]] TransitionPlan parse_transition_plan(const std::string& text);

/// One destination's cutover inside a compiled step.
struct CutoverAssignment {
  NodeId dest = 0;
  std::uint32_t version = 0;  ///< 0 = base relation, v >= 1 = targets[v-1]
};

/// All cutovers of one cycle, sorted by destination.  Compilation prunes
/// no-op assignments (destination already at the target version), so every
/// surviving assignment changes routing at apply time.  A `barrier` step is
/// drain-gated: the simulator defers it (whole cycles at a time) until no
/// in-flight packet is stamped with a version other than its destination's
/// current one, so `cycle` is a lower bound, not the apply time.
struct CompiledCutover {
  std::uint64_t cycle = 0;
  bool barrier = false;
  std::vector<CutoverAssignment> assignments;
};

/// The union relation one transition epoch must certify: which routing
/// versions are live for which destinations.  `names[0]` is the base
/// relation; `active[v][d]` says version v participates in destination d's
/// candidate sets.  Serialized (to_string) it is the SPEC of a
/// RelationExpr's `transition|SPEC` text, the AnalysisCache key suffix and
/// certificate binding, so an auditor can reconstruct the exact relation.
struct UnionSpec {
  std::size_t num_nodes = 0;
  std::vector<std::string> names;            ///< canonical registry names
  std::vector<std::vector<bool>> active;     ///< [version][dest]

  [[nodiscard]] bool operator==(const UnionSpec&) const = default;

  /// True when only the base relation is active (nothing to re-verify).
  [[nodiscard]] bool pure_base() const;

  /// `base>target1>.../MASK0.MASK1....` — names joined by '>', one
  /// lowercase-hex destination mask per version (ft::mask_to_hex layout).
  /// Contains no ',', ';', '|' or '"', so it embeds in CSV cells, JSON and
  /// RelationExpr text.
  [[nodiscard]] std::string to_string() const;
};

/// A plan bound to a topology and base routing: steps sorted by strictly
/// ascending cycle, targets instantiated, no-op cutovers pruned.
class CompiledTransitionPlan {
 public:
  std::size_t num_nodes = 0;
  std::string base;                      ///< canonical base routing name
  std::vector<std::string> target_names; ///< canonical, version v = index v-1
  std::vector<std::unique_ptr<routing::RoutingFunction>> targets;
  std::vector<CompiledCutover> steps;

  /// True when the plan never changes routing (e.g. R -> R): compiles to
  /// zero steps, so the simulation is bit-identical to running with no plan.
  [[nodiscard]] bool empty() const noexcept { return steps.empty(); }

  /// The relation before the first step: a union over every version (the
  /// base, then each target) with only the base active.
  [[nodiscard]] UnionSpec base_union() const;

  /// Cumulative union relations, one per epoch: unions[k] is the relation
  /// after steps[0..k] — for each destination, every version assigned
  /// through that step plus the base.  A barrier step resets the
  /// accumulation first (only each destination's *current* version stays
  /// active — the drain gate guarantees no packet is stamped with anything
  /// older), then applies its assignments.  size() == steps.size().
  [[nodiscard]] std::vector<UnionSpec> epoch_unions() const;

  /// The post-transition relation: for each destination, only its final
  /// version.  This is what the network routes by once every in-flight
  /// packet stamped under an older version has drained.
  [[nodiscard]] UnionSpec steady_state() const;

  /// Every distinct relation the transition must certify: the cumulative
  /// union after each step plus the steady state, pure-base and duplicate
  /// specs removed.  Empty for identity plans.
  [[nodiscard]] std::vector<UnionSpec> verification_epochs() const;
};

/// The one place a plan member name is split at '%': its algorithm part
/// and, for a masked `NAME%HEXMASK` member, the channels it may still use
/// (empty when unmasked).  Throws std::invalid_argument for a non-hex mask
/// digit or a mask bit past the channel count of `topo`.
[[nodiscard]] std::pair<std::string, std::vector<bool>> split_member(
    const Topology& topo, const std::string& name);

/// Canonicalizes a plan member name, plain or masked, and checks that it
/// instantiates on `topo`: the algorithm part is resolved through the
/// registry (aliases accepted) and the mask normalized by a hex
/// round-trip, so equal members compare equal.  Throws
/// std::invalid_argument for an unknown or inapplicable algorithm or a
/// malformed mask (split_member).
[[nodiscard]] std::string canonical_member(const Topology& topo,
                                           const std::string& name);

/// Replaces every `plan:` event with the staging order the planner finds
/// from `base_name` (aliases accepted) on `topo`, or with the naive switch
/// when it finds none.  The result holds no kPlan event; a planner-free
/// plan is returned unchanged.  This is the only expensive stage of
/// compilation, so callers that compile one plan many times resolve it once
/// and compile the result.  Throws std::invalid_argument when a `plan:`
/// names an unknown or inapplicable routing.
[[nodiscard]] TransitionPlan resolve(const TransitionPlan& plan,
                                     const Topology& topo,
                                     const std::string& base_name);

/// Binds `plan` to `topo` with base routing `base_name` (aliases accepted),
/// running resolve() first.  Throws std::invalid_argument when a routing
/// name is unknown or inapplicable, a destination is out of range, a ramp
/// has zero or too many batches, or two same-cycle events disagree about a
/// destination.
[[nodiscard]] CompiledTransitionPlan compile(const TransitionPlan& plan,
                                             const Topology& topo,
                                             const std::string& base_name);

}  // namespace wormnet::reconfig
