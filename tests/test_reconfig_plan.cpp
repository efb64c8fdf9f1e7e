// Unit and metamorphic tests for wormnet::reconfig transition plans.
//
// The unit half pins the plan text grammar (parse/to_string round-trips,
// rejection of malformed plans), compilation semantics (batch expansion,
// no-op pruning, conflict detection) and the UnionSpec serialization that
// certificates and the AnalysisCache key on.  The metamorphic half pins
// three transformation laws of the live simulator:
//
//   1. identity — a plan that never changes routing (R -> R) is
//      byte-identical to running with no plan at all: same stats JSON,
//      same JSONL trace, same flight-recorder stream, same sweep rows;
//   2. composition — R1 -> R2 -> R1 conserves packets: every created
//      packet is delivered or (under recovery) dropped, never lost;
//   3. batch permutation — same-cycle events commute: reordering them in
//      the plan text yields the same compiled steps, the same union
//      epochs, and a byte-identical simulation.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "test_helpers.hpp"
#include "wormnet/exp/sweep_io.hpp"
#include "wormnet/exp/sweep_runner.hpp"
#include "wormnet/obs/flight.hpp"
#include "wormnet/obs/trace.hpp"
#include "wormnet/reconfig/transition_plan.hpp"
#include "wormnet/reconfig/union_routing.hpp"
#include "wormnet/sim/simulator.hpp"

namespace wormnet::reconfig {
namespace {

// ------------------------------------------------------------ parser

TEST(TransitionPlanParse, RoundTripsThroughToString) {
  const char* kPlans[] = {
      "none",
      "switch:duato-mesh@300",
      "stage:west-first/0-7@200",
      "ramp:duato-mesh/4/100@200",
      "stage:duato-mesh/0-7@200+stage:duato-mesh/8-15@400",
      "switch:e-cube@10+ramp:west-first/2/50@500",
  };
  for (const char* text : kPlans) {
    const TransitionPlan plan = parse_transition_plan(text);
    EXPECT_EQ(plan.to_string(), text);
    // Idempotent: re-parsing the rendering is a fixed point.
    EXPECT_EQ(parse_transition_plan(plan.to_string()).to_string(), text);
  }
}

TEST(TransitionPlanParse, EmptySpellings) {
  EXPECT_TRUE(parse_transition_plan("none").empty());
  EXPECT_TRUE(parse_transition_plan("").empty());
  EXPECT_TRUE(parse_transition_plan("   ").empty());
  EXPECT_EQ(parse_transition_plan("").to_string(), "none");
}

TEST(TransitionPlanParse, RejectsMalformedPlans) {
  const char* kBad[] = {
      "switch",                      // missing ':'
      "switch:@300",                 // missing routing name
      "switch:duato-mesh",           // missing '@cycle'
      "switch:duato-mesh@",          // missing cycle value
      "switch:duato-mesh@12x",       // trailing garbage in cycle
      "stage:duato-mesh@300",        // stage without '/LO-HI'
      "stage:duato-mesh/5@300",      // range without '-'
      "stage:duato-mesh/7-2@300",    // empty (inverted) range
      "ramp:duato-mesh@300",         // ramp without '/K/STRIDE'
      "ramp:duato-mesh/4@300",       // ramp without '/STRIDE'
      "ramp:duato-mesh/0/50@300",    // zero batches
      "teleport:duato-mesh@300",     // unknown event kind
      "switch:duato-mesh@300+",      // trailing empty event
      "+switch:duato-mesh@300",      // leading empty event
      "switch:bad name@300",         // whitespace inside routing name
      "switch:duato-mesh@99999999999999999999",  // cycle overflow
  };
  for (const char* text : kBad) {
    EXPECT_THROW((void)parse_transition_plan(text), std::invalid_argument)
        << "accepted: " << text;
  }
}

// ------------------------------------------------------------ compile

TEST(TransitionPlanCompile, SwitchCoversEveryDestination) {
  const auto topo = core::make_topology("mesh:4x4:2");
  const auto plan = parse_transition_plan("switch:duato-mesh@300");
  const CompiledTransitionPlan compiled = compile(plan, topo, "e-cube");
  ASSERT_EQ(compiled.steps.size(), 1u);
  EXPECT_EQ(compiled.steps[0].cycle, 300u);
  ASSERT_EQ(compiled.steps[0].assignments.size(), topo.num_nodes());
  for (std::size_t d = 0; d < topo.num_nodes(); ++d) {
    EXPECT_EQ(compiled.steps[0].assignments[d].dest, d);
    EXPECT_EQ(compiled.steps[0].assignments[d].version, 1u);
  }
  EXPECT_EQ(compiled.base, "e-cube");
  ASSERT_EQ(compiled.target_names.size(), 1u);
  EXPECT_EQ(compiled.target_names[0], "duato-mesh");
}

TEST(TransitionPlanCompile, StageCoversOnlyItsRange) {
  const auto topo = core::make_topology("mesh:4x4:2");
  const auto plan = parse_transition_plan("stage:duato-mesh/4-9@250");
  const CompiledTransitionPlan compiled = compile(plan, topo, "e-cube");
  ASSERT_EQ(compiled.steps.size(), 1u);
  ASSERT_EQ(compiled.steps[0].assignments.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(compiled.steps[0].assignments[i].dest, 4u + i);
  }
}

TEST(TransitionPlanCompile, RampExpandsToStridedBatches) {
  const auto topo = core::make_topology("mesh:4x4:2");
  const auto plan = parse_transition_plan("ramp:duato-mesh/4/100@200");
  const CompiledTransitionPlan compiled = compile(plan, topo, "e-cube");
  ASSERT_EQ(compiled.steps.size(), 4u);
  std::size_t covered = 0;
  for (std::size_t b = 0; b < 4; ++b) {
    EXPECT_EQ(compiled.steps[b].cycle, 200u + b * 100u);
    covered += compiled.steps[b].assignments.size();
    EXPECT_FALSE(compiled.steps[b].assignments.empty());
  }
  // The batches partition the destination space.
  EXPECT_EQ(covered, topo.num_nodes());
}

TEST(TransitionPlanCompile, IdentityPlansPruneToZeroSteps) {
  const auto topo = core::make_topology("mesh:4x4:2");
  // R -> R: every cutover is a no-op and is pruned at compile time.
  const auto plan = parse_transition_plan("switch:e-cube@300");
  const CompiledTransitionPlan compiled = compile(plan, topo, "e-cube");
  EXPECT_TRUE(compiled.empty());
  EXPECT_TRUE(compiled.verification_epochs().empty());
}

TEST(TransitionPlanCompile, RejectsSemanticErrors) {
  const auto topo = core::make_topology("mesh:4x4:2");
  // Unknown target routing.
  EXPECT_THROW((void)compile(parse_transition_plan("switch:nonesuch@10"),
                             topo, "e-cube"),
               std::invalid_argument);
  // Inapplicable target (hypercube routing on a mesh).
  EXPECT_THROW(
      (void)compile(parse_transition_plan("switch:duato-hypercube@10"),
                    topo, "e-cube"),
      std::invalid_argument);
  // Destination out of range (the mesh has 16 nodes).
  EXPECT_THROW(
      (void)compile(parse_transition_plan("stage:duato-mesh/0-99@10"), topo,
                    "e-cube"),
      std::invalid_argument);
  // More ramp batches than destinations.
  EXPECT_THROW(
      (void)compile(parse_transition_plan("ramp:duato-mesh/99/10@10"), topo,
                    "e-cube"),
      std::invalid_argument);
  // Two same-cycle events disagree about destination 3.
  EXPECT_THROW(
      (void)compile(parse_transition_plan(
                        "stage:duato-mesh/0-7@10+stage:west-first/3-4@10"),
                    topo, "e-cube"),
      std::invalid_argument);
  // Unknown base name.
  EXPECT_THROW((void)compile(parse_transition_plan("switch:duato-mesh@10"),
                             topo, "nonesuch"),
               std::invalid_argument);
  // A masked target whose mask has a non-hex digit.
  EXPECT_THROW(
      (void)compile(parse_transition_plan("switch:duato-mesh%3g@10"), topo,
                    "e-cube"),
      std::invalid_argument);
  // A masked target whose mask sets the bit one past the last channel.
  const std::size_t n = topo.num_channels();
  const std::string past_end =
      std::string(1, "1248"[n % 4]) + std::string(n / 4, '0');
  EXPECT_THROW((void)compile(parse_transition_plan("switch:duato-mesh%" +
                                                   past_end + "@10"),
                             topo, "e-cube"),
               std::invalid_argument);
}

// ------------------------------------------------------------ union specs

TEST(UnionSpec, RoundTripsThroughToString) {
  const auto topo = core::make_topology("mesh:4x4:2");
  const auto plan =
      parse_transition_plan("stage:duato-mesh/0-7@200+stage:duato-mesh/8-15@400");
  const CompiledTransitionPlan compiled = compile(plan, topo, "e-cube");
  const auto epochs = compiled.verification_epochs();
  ASSERT_FALSE(epochs.empty());
  for (const UnionSpec& spec : epochs) {
    EXPECT_FALSE(spec.pure_base());
    const std::string text = spec.to_string();
    // Grid-syntax and JSON/CSV safety: the sweep reserves ',' and ';', the
    // renderers quote with '"'.
    EXPECT_EQ(text.find(','), std::string::npos);
    EXPECT_EQ(text.find(';'), std::string::npos);
    EXPECT_EQ(text.find('"'), std::string::npos);
    EXPECT_EQ(text.find('|'), std::string::npos);
    const RelationExpr parsed =
        RelationExpr::parse("transition|" + text, topo);
    EXPECT_EQ(parsed, RelationExpr(spec));
    EXPECT_EQ(parsed.to_string(), "transition|" + text);
    // The parsed spec rebuilds a working relation.
    EXPECT_NE(parsed.build(topo), nullptr);
  }
}

TEST(UnionSpec, CumulativeEpochsThenSteadyState) {
  const auto topo = core::make_topology("mesh:4x4:2");
  const auto plan =
      parse_transition_plan("stage:duato-mesh/0-7@200+stage:duato-mesh/8-15@400");
  const CompiledTransitionPlan compiled = compile(plan, topo, "e-cube");
  const auto unions = compiled.epoch_unions();
  ASSERT_EQ(unions.size(), 2u);
  // After step 0 only destinations 0..7 run the target; after step 1 all do
  // (cumulative union: the base stays live for every destination).
  for (std::size_t d = 0; d < topo.num_nodes(); ++d) {
    EXPECT_TRUE(unions[0].active[0][d]);
    EXPECT_EQ(unions[0].active[1][d], d < 8);
    EXPECT_TRUE(unions[1].active[0][d]);
    EXPECT_TRUE(unions[1].active[1][d]);
  }
  // The steady state drops the base entirely.
  const UnionSpec steady = compiled.steady_state();
  for (std::size_t d = 0; d < topo.num_nodes(); ++d) {
    EXPECT_FALSE(steady.active[0][d]);
    EXPECT_TRUE(steady.active[1][d]);
  }
  // verification_epochs = the two cumulative unions plus the steady state,
  // all distinct here.
  EXPECT_EQ(compiled.verification_epochs().size(), 3u);
}

TEST(UnionSpec, ParseRejectsMalformedSpecs) {
  const auto topo = core::make_topology("mesh:4x4:2");
  const char* kBad[] = {
      "",                    // no names
      "e-cube",              // names but no masks
      "e-cube>duato-mesh/ffff",        // one mask for two names
      "e-cube>duato-mesh/ffff.zzzz",   // non-hex mask
  };
  for (const char* text : kBad) {
    EXPECT_THROW((void)RelationExpr::parse(std::string("transition|") + text,
                                           topo),
                 std::invalid_argument)
        << "accepted: " << text;
  }
}

// ------------------------------------------------- metamorphic battery

struct RunArtifacts {
  std::string stats_json;
  std::string trace_jsonl;
  std::vector<obs::FlightEvent> flight;
};

/// One mesh:4x4:2 e-cube run capturing every observable stream, optionally
/// under a transition plan.
RunArtifacts run_mesh(const std::string& plan_text, double load = 0.2) {
  const auto topo = core::make_topology("mesh:4x4:2");
  const auto algo = core::make_algorithm("e-cube", topo);

  sim::SimConfig config;
  config.injection_rate = load;
  config.packet_length = 6;
  config.buffer_depth = 4;
  config.warmup_cycles = 50;
  config.measure_cycles = 200;
  config.drain_cycles = 4000;
  config.deadlock_check_interval = 64;
  config.seed = 17;

  CompiledTransitionPlan compiled;
  if (plan_text != "none") {
    compiled = compile(parse_transition_plan(plan_text), topo, "e-cube");
    config.schedule = build_epoch_schedule(topo, {}, std::move(compiled));
  }

  std::ostringstream trace_os;
  obs::JsonlTraceSink trace(trace_os);
  config.trace = &trace;

  sim::Simulator sim(topo, *algo, config);
  const sim::SimStats stats = sim.run();

  RunArtifacts out;
  out.stats_json = stats.to_json();
  out.trace_jsonl = trace_os.str();
  out.flight = sim.flight().tail(sim.flight().capacity());
  return out;
}

bool flight_equal(const std::vector<obs::FlightEvent>& a,
                  const std::vector<obs::FlightEvent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].cycle != b[i].cycle || a[i].kind != b[i].kind ||
        a[i].packet != b[i].packet || a[i].channel != b[i].channel ||
        a[i].aux != b[i].aux) {
      return false;
    }
  }
  return true;
}

TEST(ReconfigMetamorphic, IdentityPlanIsByteIdenticalToNoPlan) {
  const RunArtifacts baseline = run_mesh("none");
  // R -> R, spelled three ways; each must be indistinguishable from no plan.
  for (const char* identity :
       {"switch:e-cube@100", "stage:e-cube/0-15@100", "ramp:e-cube/4/50@100"}) {
    const RunArtifacts run = run_mesh(identity);
    EXPECT_EQ(run.stats_json, baseline.stats_json) << identity;
    EXPECT_EQ(run.trace_jsonl, baseline.trace_jsonl) << identity;
    EXPECT_TRUE(flight_equal(run.flight, baseline.flight)) << identity;
  }
}

TEST(ReconfigMetamorphic, IdentityPlanNormalizesToIdenticalSweepRows) {
  exp::SweepSpec spec;
  spec.topologies = {"mesh:4x4:2"};
  spec.routings = {"e-cube"};
  spec.loads = {0.2};
  spec.replications = 2;
  spec.seed = 9;
  spec.base.packet_length = 6;
  spec.base.warmup_cycles = 50;
  spec.base.measure_cycles = 200;
  spec.base.drain_cycles = 4000;

  auto render = [](const exp::SweepSpec& s) {
    std::ostringstream os;
    exp::write_jsonl(os, exp::run_sweep(s, {.threads = 1}));
    return os.str();
  };

  const std::string baseline = render(spec);
  spec.reconfig_plans = {"switch:e-cube@100"};
  // expand() normalizes identity plans to "none": same rows, same bytes.
  EXPECT_EQ(render(spec), baseline);
}

TEST(ReconfigSweep, ExpandResolvesEachPlanOncePerCombo) {
  exp::SweepSpec spec;
  spec.topologies = {"mesh:2x2:1"};
  spec.routings = {"e-cube", "negative-first"};
  spec.fault_plans = {"none", "kill:0-1@900"};
  spec.reconfig_plans = {"plan:negative-first@300"};
  spec.patterns = {sim::Pattern::kUniform, sim::Pattern::kTranspose};
  spec.replications = 3;
  const exp::ExpandedSweep expanded = exp::expand(spec);
  ASSERT_EQ(expanded.points.size(), 2u * 2u * 2u * 3u);

  const auto topo = core::make_topology("mesh:2x2:1");
  const std::string resolved_text =
      resolve(parse_transition_plan("plan:negative-first@300"), topo,
              "e-cube")
          .to_string();
  const TransitionPlan* shared = nullptr;
  const ft::CompiledFaultPlan* shared_faults = nullptr;
  std::size_t planned = 0;
  for (const exp::SweepPoint& p : expanded.points) {
    if (p.fault_plan == "none") {
      EXPECT_EQ(p.faults, nullptr);
    } else {
      // One compiled fault plan per topology, whatever the routing.
      ASSERT_NE(p.faults, nullptr);
      if (shared_faults == nullptr) shared_faults = p.faults.get();
      EXPECT_EQ(p.faults.get(), shared_faults);
    }
    if (p.routing == "negative-first") {
      // plan:R@c with R = base is the identity: normalized to "none".
      EXPECT_EQ(p.reconfig_plan, "none");
      EXPECT_EQ(p.transition, nullptr);
      continue;
    }
    EXPECT_EQ(p.reconfig_plan, "plan:negative-first@300");
    ASSERT_NE(p.transition, nullptr);
    // The same object across fault plans, patterns and reps: the planner
    // ran once for this (topology, routing, plan).
    if (shared == nullptr) shared = p.transition.get();
    EXPECT_EQ(p.transition.get(), shared);
    EXPECT_EQ(p.transition->to_string(), resolved_text);
    ++planned;
  }
  EXPECT_EQ(planned, 2u * 2u * 3u);
  EXPECT_NE(resolved_text.find("barrier:"), std::string::npos)
      << "expected the planner's staged ladder, got " << resolved_text;
}

TEST(ReconfigMetamorphic, ThereAndBackAgainConservesPackets) {
  // R1 -> R2 -> R1: both relations and both cumulative unions certify
  // (e-cube is a subfunction of duato-mesh), so the round trip must
  // deliver every packet with nothing dropped and no deadlock.
  const RunArtifacts run =
      run_mesh("switch:duato-mesh@100+switch:e-cube@200", 0.25);
  const audit::json::Value obj = audit::json::parse(run.stats_json);
  const double created = obj.at("packets_created").as_number();
  const double delivered = obj.at("packets_delivered").as_number();
  const double dropped = obj.at("packets_dropped").as_number();
  EXPECT_FALSE(obj.at("deadlocked").as_bool());
  EXPECT_GT(created, 0.0);
  EXPECT_EQ(delivered + dropped, created);
  EXPECT_EQ(dropped, 0.0);
  // Both cutover steps survive compilation (the return leg is not a no-op),
  // so the run reports two applied transition epochs.
  EXPECT_EQ(obj.at("reconfig_epochs").as_number(), 2.0);
}

TEST(ReconfigMetamorphic, SameCycleEventsCommute) {
  const auto topo = core::make_topology("mesh:4x4:2");
  const char* forward = "stage:duato-mesh/0-7@200+stage:duato-mesh/8-15@200";
  const char* reversed = "stage:duato-mesh/8-15@200+stage:duato-mesh/0-7@200";

  const CompiledTransitionPlan a =
      compile(parse_transition_plan(forward), topo, "e-cube");
  const CompiledTransitionPlan b =
      compile(parse_transition_plan(reversed), topo, "e-cube");
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t s = 0; s < a.steps.size(); ++s) {
    EXPECT_EQ(a.steps[s].cycle, b.steps[s].cycle);
    ASSERT_EQ(a.steps[s].assignments.size(), b.steps[s].assignments.size());
    for (std::size_t i = 0; i < a.steps[s].assignments.size(); ++i) {
      EXPECT_EQ(a.steps[s].assignments[i].dest,
                b.steps[s].assignments[i].dest);
      EXPECT_EQ(a.steps[s].assignments[i].version,
                b.steps[s].assignments[i].version);
    }
  }
  // Identical union epochs (and hence identical verification verdicts) ...
  const auto ea = a.verification_epochs();
  const auto eb = b.verification_epochs();
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].to_string(), eb[i].to_string());
  }
  // ... and a byte-identical simulation.
  const RunArtifacts ra = run_mesh(forward);
  const RunArtifacts rb = run_mesh(reversed);
  EXPECT_EQ(ra.stats_json, rb.stats_json);
  EXPECT_EQ(ra.trace_jsonl, rb.trace_jsonl);
  EXPECT_TRUE(flight_equal(ra.flight, rb.flight));
}

}  // namespace
}  // namespace wormnet::reconfig
