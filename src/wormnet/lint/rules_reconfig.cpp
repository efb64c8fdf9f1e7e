// Dynamic-reconfiguration rules (DESIGN 3.12 / 3.13):
//
//   WN024 transition-union-unverified   a declared transition has a union
//                                       epoch whose relation fails Duato
//                                       re-verification — packets routed
//                                       under the old relation can deadlock
//                                       against packets routed under the new
//                                       one mid-switch
//
//   WN025 no-certified-staging-order    the certified staging-order planner
//                                       found no multi-stage path from the
//                                       base relation to the declared target
//                                       within its certifier-call budget —
//                                       no known safe way to perform the
//                                       reconfiguration at all (WN024 only
//                                       refutes one specific plan)
//
// The rule runs only when the lint invocation declares a transition plan
// (LintOptions::reconfig_plan + reconfig_base); declaring a plan and never
// verifying its unions is exactly the hazard this rule exists to close, so
// the rule performs the verification itself and reports every epoch whose
// cumulative union is not certified.  The steady state is among the checked
// epochs: certification is not subset-monotone, so a safe union does not
// imply a safe end state.
#include <sstream>

#include "wormnet/core/verifier.hpp"
#include "wormnet/lint/rules_internal.hpp"
#include "wormnet/reconfig/planner.hpp"
#include "wormnet/reconfig/union_routing.hpp"

namespace wormnet::lint::rules {

void transition_union_unverified(LintContext& ctx,
                                 std::vector<Diagnostic>& out) {
  const reconfig::CompiledTransitionPlan* plan = ctx.transition();
  if (plan == nullptr || plan->empty()) return;

  core::VerifyOptions options;
  options.method = core::Method::kDuato;
  for (const reconfig::UnionSpec& spec : plan->verification_epochs()) {
    const auto relation = reconfig::RelationExpr(spec).build(ctx.topo());
    const core::Verdict verdict =
        core::verify(ctx.topo(), *relation, options);
    if (verdict.conclusion == core::Conclusion::kDeadlockFree) continue;

    Diagnostic d;
    d.rule_id = "WN024";
    d.severity = Severity::kError;
    std::ostringstream os;
    os << "transition epoch union '" << spec.to_string()
       << "' is not Duato-certified ("
       << core::to_string(verdict.conclusion)
       << ") — the cutover is not deadlock-free while packets stamped with "
          "different relation versions coexist";
    d.message = os.str();
    out.push_back(std::move(d));
  }
}

void no_certified_staging_order(LintContext& ctx,
                                std::vector<Diagnostic>& out) {
  if (ctx.staging_target().empty()) return;

  reconfig::PlannerOptions options;
  if (ctx.planner_budget() > 0) options.budget = ctx.planner_budget();
  const reconfig::StagedPlan plan = reconfig::plan_certified_transition(
      ctx.topo(), ctx.staging_base(), ctx.staging_target(), options);
  if (plan.certified) return;

  Diagnostic d;
  d.rule_id = "WN025";
  d.severity = Severity::kError;
  std::ostringstream os;
  os << "no certified staging order from '" << ctx.staging_base()
     << "' to '" << ctx.staging_target() << "' (" << plan.strategy << ", "
     << plan.verify_calls << " certifier calls): " << plan.detail
     << " — every staging ladder the planner tried leaves some cumulative "
        "union epoch uncertified; raise the budget or pick a different "
        "intermediate relation";
  d.message = os.str();
  out.push_back(std::move(d));
}

}  // namespace wormnet::lint::rules
