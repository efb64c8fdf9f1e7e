// Certified staging-order search (the "planner", DESIGN 3.13).
//
// When the naive cumulative union of a base->target transition is refuted,
// the transition is not necessarily impossible — it may only need to pass
// through intermediate relations whose unions with their neighbours *are*
// certifiable.  plan_certified_transition runs a bounded, deterministic
// ladder of staging strategies, certifying every epoch of each candidate
// plan (exactly the epochs per-epoch verification will later re-check, so
// a certified plan can never be refuted at run time):
//
//   0. pure target            fail fast: no order can end at a refuted
//                             relation
//   1. naive                  switch:TARGET@C — the PR 9 behaviour
//   2. registry intermediate  switch:R@C + barrier:TARGET@C+stride for
//                             every applicable registry algorithm R
//   3. per-channel mask       switch:TARGET%HEX@C + barrier:TARGET@...,
//                             where HEX removes one channel from the
//                             target relation (refutation witness
//                             channels tried first)
//   4. per-destination        barrier:TARGET/d-d@C+d*stride, ascending —
//      barrier stages         each stage's union only spans two adjacent
//                             destinations' relations thanks to the
//                             barrier reset
//
// The budget bounds *certifier invocations* (duplicate epochs are memoized
// and free), which makes found plans monotone: a plan found at budget B is
// found verbatim at every budget >= B.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "wormnet/reconfig/transition_plan.hpp"
#include "wormnet/topology/topology.hpp"

namespace wormnet::reconfig {

struct PlannerOptions {
  std::size_t budget = 64;         ///< max certifier invocations
  std::uint64_t start_cycle = 0;   ///< cycle of the first emitted event
  std::uint64_t stage_stride = 1;  ///< cycles between emitted stages (>= 1)
};

/// The planner's result.  When `certified`, `plan` contains only
/// switch/barrier events, every epoch of its compilation is certified, and
/// `stages` lists those epochs in verification order.
struct StagedPlan {
  bool certified = false;
  std::string strategy;  ///< "identity" | "naive" | "intermediate:R" |
                         ///< "masked:HEX" | "per-dest-barrier" |
                         ///< "target-refuted" | "budget-exhausted" | "none"
  std::size_t verify_calls = 0;  ///< certifier invocations consumed
  std::vector<UnionSpec> stages;
  TransitionPlan plan;
  std::string detail;  ///< one human-readable sentence
};

/// Searches for a staging order from `base_name` (a plain registry name)
/// to `target_name` (which may carry a `%HEXMASK` channel restriction)
/// every epoch of which is certified.  Deterministic for fixed inputs.
/// Throws std::invalid_argument for unknown/inapplicable routing names.
[[nodiscard]] StagedPlan plan_certified_transition(
    const Topology& topo, const std::string& base_name,
    const std::string& target_name, const PlannerOptions& options = {});

}  // namespace wormnet::reconfig
