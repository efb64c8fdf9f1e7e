// Certified staging-order planner battery (DESIGN 3.13).
//
// The planner promises: a returned certified plan contains only
// switch/barrier events, every epoch of its compilation is Duato-certified
// (exactly the epochs per-epoch verification re-checks, so a planned
// transition can never be refuted at run time), and the search is
// deterministic and budget-monotone — a plan found at budget B is found
// verbatim at every budget >= B.
//
// The acceptance case pins the headline capability: e-cube ->
// negative-first on the 2x2 mesh, whose naive cumulative union is *proven*
// susceptible (8 channels, inside the exhaustive necessity budget), is
// completed by a planner-found multi-stage path whose every stage
// certifies, and the simulated transition delivers 100% of its packets.
//
// The metamorphic pairs:
//   * reverse compatibility — certifiability of a staged path is symmetric
//     in (base, target) for registry pairs, because stage unions are
//     unions: plan(A->B) certified  <=>  plan(B->A) certified;
//   * budget monotonicity — raising the budget never changes a found plan
//     and never turns success into failure.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "wormnet/audit/certificate.hpp"
#include "wormnet/audit/check.hpp"
#include "wormnet/core/registry.hpp"
#include "wormnet/core/verifier.hpp"
#include "wormnet/exp/sweep_runner.hpp"
#include "wormnet/reconfig/planner.hpp"
#include "wormnet/reconfig/transition_plan.hpp"
#include "wormnet/reconfig/union_routing.hpp"
#include "wormnet/sim/simulator.hpp"

namespace wormnet::reconfig {
namespace {

StagedPlan plan_for(const std::string& topo_spec, const std::string& base,
                    const std::string& target, std::size_t budget = 64) {
  const topology::Topology topo = core::make_topology(topo_spec);
  PlannerOptions options;
  options.budget = budget;
  options.start_cycle = 300;
  options.stage_stride = 100;
  return plan_certified_transition(topo, base, target, options);
}

TEST(ReconfigPlanner, IdentityIsTrivialltyCertified) {
  const StagedPlan plan = plan_for("mesh:3x3:1", "e-cube", "e-cube");
  EXPECT_TRUE(plan.certified);
  EXPECT_EQ(plan.strategy, "identity");
  EXPECT_TRUE(plan.plan.empty());
}

TEST(ReconfigPlanner, CompatiblePairUsesTheNaivePlan) {
  // e-cube's turn set is a subset of west-first's, so the naive cumulative
  // union is west-first itself — certified on the first attempt.
  const StagedPlan plan = plan_for("mesh:4x4:1", "e-cube", "west-first");
  EXPECT_TRUE(plan.certified);
  EXPECT_EQ(plan.strategy, "naive");
  EXPECT_FALSE(plan.plan.empty());
}

TEST(ReconfigPlanner, RefutedTargetFailsFast) {
  // unrestricted has no escape structure on the ring: no staging order can
  // end at a refuted steady state, and the planner must say so after one
  // certifier call instead of burning the budget.
  const StagedPlan plan = plan_for("ring:8:2", "dateline", "unrestricted");
  EXPECT_FALSE(plan.certified);
  EXPECT_EQ(plan.strategy, "target-refuted");
  EXPECT_EQ(plan.verify_calls, 1u);
}

TEST(ReconfigPlanner, UnknownTargetThrows) {
  EXPECT_THROW(plan_for("mesh:3x3:1", "e-cube", "no-such-relation"),
               std::invalid_argument);
}

// --- the acceptance case -------------------------------------------------

TEST(ReconfigPlanner, AcceptanceEcubeToNegativeFirstOn2x2) {
  // The naive union is refuted (proven susceptible — this is the campaign's
  // refutation-certificate row), so a certified order must stage.
  const topology::Topology topo = core::make_topology("mesh:2x2:1");
  const StagedPlan plan = plan_for("mesh:2x2:1", "e-cube", "negative-first");
  ASSERT_TRUE(plan.certified) << plan.strategy << ": " << plan.detail;
  EXPECT_NE(plan.strategy, "naive");
  EXPECT_GE(plan.stages.size(), 2u);

  // Every stage the planner certified is exactly an epoch the per-epoch
  // verifier re-checks: compile the emitted plan and re-verify each.
  CompiledTransitionPlan compiled =
      compile(parse_transition_plan(plan.plan.to_string()), topo, "e-cube");
  ASSERT_FALSE(compiled.empty());
  for (const UnionSpec& epoch : compiled.verification_epochs()) {
    const auto relation = RelationExpr(epoch).build(topo);
    EXPECT_EQ(core::verify(topo, *relation).conclusion,
              core::Conclusion::kDeadlockFree)
        << epoch.to_string();
  }

  // And the simulated transition completes with 100% delivery.
  const auto routing = core::make_algorithm("e-cube", topo);
  sim::SimConfig cfg;
  cfg.injection_rate = 0.8;
  cfg.seed = 9;
  cfg.packet_length = 8;
  cfg.buffer_depth = 2;
  cfg.warmup_cycles = 100;
  cfg.measure_cycles = 2000;
  cfg.drain_cycles = 6000;
  cfg.deadlock_check_interval = 64;
  cfg.schedule = build_epoch_schedule(topo, {}, std::move(compiled));
  const sim::SimStats stats = sim::run(topo, *routing, cfg);
  EXPECT_FALSE(stats.deadlocked);
  EXPECT_GT(stats.reconfig_epochs, 0u);
  EXPECT_EQ(stats.packets_delivered, stats.packets_created);
  EXPECT_EQ(stats.packets_dropped, 0u);
}

// --- metamorphic: reverse compatibility ----------------------------------

TEST(ReconfigPlanner, CertifiabilityIsSymmetricInBaseAndTarget) {
  const struct {
    const char* topo;
    const char* a;
    const char* b;
  } kPairs[] = {
      {"mesh:2x2:1", "e-cube", "negative-first"},
      {"mesh:4x4:1", "e-cube", "west-first"},
      {"mesh:3x3:1", "e-cube", "north-last"},
  };
  for (const auto& pair : kPairs) {
    const StagedPlan forward = plan_for(pair.topo, pair.a, pair.b);
    const StagedPlan reverse = plan_for(pair.topo, pair.b, pair.a);
    EXPECT_EQ(forward.certified, reverse.certified)
        << pair.topo << ": " << pair.a << " <-> " << pair.b << " ("
        << forward.strategy << " vs " << reverse.strategy << ")";
  }
}

// --- metamorphic: budget monotonicity ------------------------------------

TEST(ReconfigPlanner, FoundPlansAreBudgetMonotone) {
  const StagedPlan at_64 = plan_for("mesh:2x2:1", "e-cube", "negative-first",
                                    /*budget=*/64);
  ASSERT_TRUE(at_64.certified);
  for (const std::size_t budget : {128u, 256u, 1024u}) {
    const StagedPlan wider =
        plan_for("mesh:2x2:1", "e-cube", "negative-first", budget);
    EXPECT_TRUE(wider.certified);
    EXPECT_EQ(wider.strategy, at_64.strategy) << budget;
    EXPECT_EQ(wider.plan.to_string(), at_64.plan.to_string()) << budget;
    EXPECT_EQ(wider.verify_calls, at_64.verify_calls) << budget;
  }
}

TEST(ReconfigPlanner, ExhaustedBudgetIsReportedNotMisclaimed) {
  const StagedPlan starved =
      plan_for("mesh:2x2:1", "e-cube", "negative-first", /*budget=*/2);
  EXPECT_FALSE(starved.certified);
  EXPECT_EQ(starved.strategy, "budget-exhausted");
  EXPECT_LE(starved.verify_calls, 2u);
}

// --- masked targets + emitted grammar ------------------------------------

TEST(ReconfigPlanner, MaskedTargetRoundTripsThroughTheGrammar) {
  // A full-channel mask is the unmasked relation; the planner must accept
  // the %HEX spelling and its emitted plan must survive parse -> compile.
  const topology::Topology topo = core::make_topology("mesh:4x4:1");
  const std::string hex(topo.num_channels() / 4 +
                            (topo.num_channels() % 4 != 0 ? 1 : 0),
                        'f');
  const StagedPlan plan =
      plan_for("mesh:4x4:1", "e-cube", "west-first%" + hex);
  ASSERT_TRUE(plan.certified) << plan.detail;
  const CompiledTransitionPlan compiled =
      compile(parse_transition_plan(plan.plan.to_string()), topo, "e-cube");
  EXPECT_FALSE(compiled.empty());
}

// --- the staged-plan certificate chain -----------------------------------

#ifndef WORMNET_GOLDEN_DIR
#error "tests/CMakeLists.txt must define WORMNET_GOLDEN_DIR"
#endif

/// The acceptance transition's proof-carrying artifact: running
/// `plan:negative-first@300` through the sweep emits one certificate per
/// staged union epoch (plus the steady state).  The chain is pinned as
/// golden fixtures — tests/golden/staged_plan_cert_*.json are what CI's
/// reconfig-smoke audits from the transition binding alone — and each
/// member must convince the independent auditor against the union relation
/// rebuilt solely from its `transition` string.
TEST(ReconfigPlanner, StagedPlanCertificateChainMatchesGoldenFiles) {
  exp::SweepSpec spec;
  spec.topologies = {"mesh:2x2:1"};
  spec.routings = {"e-cube"};
  spec.reconfig_plans = {"plan:negative-first@300"};
  spec.loads = {0.8};
  spec.replications = 1;
  spec.seed = 9;
  spec.base.packet_length = 8;
  spec.base.buffer_depth = 2;
  spec.base.warmup_cycles = 100;
  spec.base.measure_cycles = 2000;
  spec.base.drain_cycles = 6000;
  spec.base.deadlock_check_interval = 64;
  exp::RunnerOptions options;
  options.certify = true;
  const exp::SweepOutcome outcome = exp::run_sweep(spec, options);

  // The planner-backed transition certifies and delivers everything.
  ASSERT_EQ(outcome.results.size(), 1u);
  EXPECT_TRUE(outcome.results[0].certified);
  EXPECT_EQ(outcome.results[0].stats.packets_delivered,
            outcome.results[0].stats.packets_created);

  std::vector<const audit::Certificate*> chain;
  for (const exp::CertificateRecord& record : outcome.certificates) {
    const audit::Certificate& cert = *record.certificate;
    if (RelationExpr::parse(cert.relation, core::make_topology(cert.topology))
            .transition) {
      chain.push_back(&cert);
    }
  }
  ASSERT_EQ(chain.size(), 5u);  // four staged unions + the steady state

  const bool update = std::getenv("WORMNET_UPDATE_GOLDEN") != nullptr;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const std::string json = chain[i]->to_json();
    const std::string path = std::string(WORMNET_GOLDEN_DIR) +
                             "/staged_plan_cert_" + std::to_string(i) +
                             ".json";
    if (update) {
      std::ofstream file(path, std::ios::binary);
      ASSERT_TRUE(file.good()) << "cannot write " << path;
      file << json;
    } else {
      std::ifstream file(path, std::ios::binary);
      std::ostringstream expected;
      expected << file.rdbuf();
      ASSERT_FALSE(expected.str().empty())
          << path << " missing — regenerate with WORMNET_UPDATE_GOLDEN=1";
      EXPECT_EQ(json, expected.str()) << "golden drift in " << path;
    }

    // Independent audit from the relation binding alone.
    const audit::ParseResult parsed = audit::parse_certificate(json);
    ASSERT_TRUE(parsed.certificate.has_value()) << parsed.error;
    const auto topo = core::make_topology(parsed.certificate->topology);
    const auto relation =
        RelationExpr::parse(parsed.certificate->relation, topo).build(topo);
    const audit::AuditResult audit =
        audit::check(topo, *relation, *parsed.certificate);
    EXPECT_TRUE(audit.ok())
        << parsed.certificate->relation << ": " << audit.detail;
    EXPECT_EQ(parsed.certificate->kind, audit::CertKind::kCertified);
  }
}

// --- resolve: the planner stage of compilation ---------------------------

bool has_plan_event(const TransitionPlan& plan) {
  for (const TransitionEvent& ev : plan.events) {
    if (ev.kind == TransitionEvent::Kind::kPlan) return true;
  }
  return false;
}

TEST(ReconfigResolve, CompilingTheResolvedPlanMatchesCompilingThePlan) {
  const struct {
    const char* topo;
    const char* plan;
  } kCases[] = {
      {"mesh:2x2:2", "plan:negative-first@300"},
      {"mesh:4x4:1", "plan:north-last@300"},
  };
  for (const auto& c : kCases) {
    const topology::Topology topo = core::make_topology(c.topo);
    const TransitionPlan plan = parse_transition_plan(c.plan);
    const TransitionPlan resolved = resolve(plan, topo, "e-cube");
    const CompiledTransitionPlan direct = compile(plan, topo, "e-cube");
    const CompiledTransitionPlan staged = compile(resolved, topo, "e-cube");
    ASSERT_FALSE(direct.empty()) << c.topo;
    EXPECT_EQ(staged.base, direct.base) << c.topo;
    EXPECT_EQ(staged.target_names, direct.target_names) << c.topo;
    ASSERT_EQ(staged.steps.size(), direct.steps.size()) << c.topo;
    for (std::size_t s = 0; s < direct.steps.size(); ++s) {
      EXPECT_EQ(staged.steps[s].cycle, direct.steps[s].cycle);
      EXPECT_EQ(staged.steps[s].barrier, direct.steps[s].barrier);
      ASSERT_EQ(staged.steps[s].assignments.size(),
                direct.steps[s].assignments.size());
      for (std::size_t i = 0; i < direct.steps[s].assignments.size(); ++i) {
        EXPECT_EQ(staged.steps[s].assignments[i].dest,
                  direct.steps[s].assignments[i].dest);
        EXPECT_EQ(staged.steps[s].assignments[i].version,
                  direct.steps[s].assignments[i].version);
      }
    }
    std::vector<std::string> direct_epochs;
    std::vector<std::string> staged_epochs;
    for (const UnionSpec& e : direct.verification_epochs()) {
      direct_epochs.push_back(e.to_string());
    }
    for (const UnionSpec& e : staged.verification_epochs()) {
      staged_epochs.push_back(e.to_string());
    }
    EXPECT_FALSE(direct_epochs.empty()) << c.topo;
    EXPECT_EQ(staged_epochs, direct_epochs) << c.topo;
  }
}

TEST(ReconfigResolve, BudgetExhaustedPlanResolvesToTheNaiveSwitch) {
  // On mesh:5x2:2 the ladder runs out of its default budget among the
  // per-channel masks, cheaply: the naive union is the fallback.
  const topology::Topology topo = core::make_topology("mesh:5x2:2");
  PlannerOptions options;
  options.start_cycle = 300;
  const StagedPlan staged = plan_certified_transition(
      topo, "e-cube", "negative-first-nonmin", options);
  ASSERT_EQ(staged.strategy, "budget-exhausted");
  const TransitionPlan resolved = resolve(
      parse_transition_plan("plan:negative-first-nonmin@300"), topo, "e-cube");
  EXPECT_EQ(resolved.to_string(), "switch:negative-first-nonmin@300");
}

TEST(ReconfigResolve, IsTheIdentityOnPlannerFreePlans) {
  const topology::Topology topo = core::make_topology("mesh:4x4:2");
  for (const char* text :
       {"none", "switch:duato-mesh@100", "stage:west-first/0-7@50",
        "ramp:negative-first/4/25@10+barrier:duato-mesh/3-9@400",
        "switch:e-cube@100"}) {
    const TransitionPlan plan = parse_transition_plan(text);
    EXPECT_EQ(resolve(plan, topo, "e-cube").to_string(), plan.to_string())
        << text;
  }
}

TEST(ReconfigResolve, OutputHoldsNoPlanEventAndRoundTrips) {
  const topology::Topology topo = core::make_topology("mesh:2x2:1");
  for (const char* text :
       {"plan:negative-first@300", "plan:e-cube@300",
        "switch:west-first@100+plan:negative-first@300",
        "plan:negative-first@300+stage:e-cube/0-1@900"}) {
    const TransitionPlan resolved =
        resolve(parse_transition_plan(text), topo, "e-cube");
    EXPECT_FALSE(has_plan_event(resolved)) << text;
    const std::string printed = resolved.to_string();
    EXPECT_EQ(parse_transition_plan(printed).to_string(), printed) << text;
  }
  // The identity plan resolves to nothing at all.
  EXPECT_TRUE(
      resolve(parse_transition_plan("plan:e-cube@300"), topo, "e-cube")
          .empty());
}

TEST(ReconfigPlanner, EmittedPlansUseOnlySwitchAndBarrierEvents) {
  const StagedPlan plan = plan_for("mesh:2x2:1", "e-cube", "negative-first");
  ASSERT_TRUE(plan.certified);
  const std::string text = plan.plan.to_string();
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('+', start);
    if (end == std::string::npos) end = text.size();
    const std::string event = text.substr(start, end - start);
    EXPECT_TRUE(event.rfind("switch:", 0) == 0 ||
                event.rfind("barrier:", 0) == 0)
        << event;
    start = end + 1;
  }
}

}  // namespace
}  // namespace wormnet::reconfig
