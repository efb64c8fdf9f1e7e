// Golden guard decisions: every self-healing decision the guard walk of
// build_epoch_schedule makes over a fixed set of (topology, base, fault
// plan, transition plan, certifier) cases, one line per schedule step
// (fault steps before cutovers at equal cycles).  A refactor of the walk
// must leave tests/golden/guard_decisions.txt byte-identical.
//
// The cases are the plans of test_reconfig_rollback (with its stub
// certifiers), every fault x plan pair of the reconfig grids in
// benchmark/wormbench.cpp, and the runs of test_obs_streams.
//
// The schedule also refuses a kill racing a cutover at one cycle, for every
// caller: a simulator handed such a pair never runs.
//
// Regenerate:  WORMNET_UPDATE_GOLDEN=1 ./test_guard_decisions
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "wormnet/core/registry.hpp"
#include "wormnet/ft/fault_plan.hpp"
#include "wormnet/reconfig/schedule.hpp"
#include "wormnet/reconfig/transition_plan.hpp"
#include "wormnet/reconfig/union_routing.hpp"
#include "wormnet/sim/simulator.hpp"

namespace wormnet::reconfig {
namespace {

#ifndef WORMNET_GOLDEN_DIR
#error "tests/CMakeLists.txt must define WORMNET_GOLDEN_DIR"
#endif

/// Destinations routed by any non-base version of a union spec.
std::size_t non_base_dests(const UnionSpec& spec) {
  std::size_t n = 0;
  for (std::size_t d = 0; d < spec.num_nodes; ++d) {
    for (std::size_t v = 1; v < spec.active.size(); ++v) {
      if (spec.active[v][d]) {
        ++n;
        break;
      }
    }
  }
  return n;
}

/// The certifier a case runs under: Duato over RelationExpr::build, or one
/// of test_reconfig_rollback's stubs.
enum class Certifier { kDuato, kAcceptSmall, kAcceptFirst };

const char* to_string(Certifier c) {
  switch (c) {
    case Certifier::kDuato:
      return "duato";
    case Certifier::kAcceptSmall:
      return "accept-small";
    case Certifier::kAcceptFirst:
      return "accept-first";
  }
  return "?";
}

struct Case {
  const char* topology;
  const char* base;
  const char* faults;
  const char* plan;
  Certifier certifier = Certifier::kDuato;
};

constexpr const char* kStaged =
    "stage:west-first/0-3@300+stage:west-first/4-8@600";

const Case kCases[] = {
    // test_reconfig_rollback: guard units, composed differential, campaign.
    {"mesh:3x3:1", "e-cube", "none", "switch:west-first@300"},
    {"mesh:3x3:1", "e-cube", "none", "switch:negative-first@300"},
    {"mesh:3x3:1", "e-cube", "none", kStaged, Certifier::kAcceptSmall},
    {"mesh:3x3:1", "e-cube", "none", kStaged, Certifier::kAcceptFirst},
    {"mesh:4x4:2", "e-cube", "killch:3@420", "ramp:negative-first/4/50@300"},
    {"mesh:4x4:2", "e-cube", "killch:3@400", "ramp:west-first/4/50@300"},
    {"mesh:3x3:1", "e-cube", "killch:2@500", kStaged},
    {"mesh:3x3:1", "e-cube", "killch:2@500", "switch:west-first@300"},
    {"mesh:3x3:1", "e-cube", "killch:2@500", "switch:negative-first@300"},
    // benchmark/wormbench.cpp: the reconfig workload's grids, full and smoke.
    {"mesh:4x4:1", "e-cube", "none", "plan:negative-first@300"},
    {"mesh:4x4:1", "e-cube", "none", "plan:north-last@300"},
    {"mesh:4x4:1", "e-cube", "none", "ramp:west-first/4/50@300"},
    {"mesh:4x4:1", "e-cube", "none",
     "stage:negative-first/0-7@300+stage:negative-first/8-15@600"},
    {"mesh:2x2:2", "e-cube", "none", "plan:negative-first@300"},
    {"mesh:4x4:2", "e-cube", "killch:3@420", "switch:west-first@300"},
    {"mesh:4x4:2", "e-cube", "kill:5-6@500", "switch:west-first@300"},
    {"mesh:3x3:1", "e-cube", "kill:4-5@500", "ramp:negative-first/3/50@300"},
    {"mesh:3x3:1", "e-cube", "none", "plan:north-last@100"},
    {"mesh:3x3:1", "e-cube", "none", "ramp:west-first/3/50@100"},
    {"mesh:3x3:2", "e-cube", "killch:3@220", "ramp:negative-first/3/50@100"},
    // test_obs_streams: the fault-retry run and both guarded runs.
    {"mesh:4x4:2", "hpl-minimal", "killch:12@100+repairch:12@260", "none"},
    {"mesh:3x3:1", "e-cube", "none", kStaged, Certifier::kAcceptSmall},
    {"mesh:3x3:1", "e-cube", "none", kStaged, Certifier::kAcceptFirst},
};

std::string render(const CompiledCutover& cutover) {
  std::string out;
  for (const CutoverAssignment& a : cutover.assignments) {
    if (!out.empty()) out += ',';
    out += std::to_string(a.dest);
    out += ':';
    out += std::to_string(a.version);
  }
  return out;
}

/// One case's decisions, one line per step of the merged timeline.
std::string decisions(const Case& c) {
  const topology::Topology topo = core::make_topology(c.topology);
  std::size_t calls = 0;
  GuardCertifier certifier;
  if (c.certifier == Certifier::kAcceptSmall) {
    certifier = [](const RelationExpr& relation) {
      return non_base_dests(*relation.transition) <= 4;
    };
  } else if (c.certifier == Certifier::kAcceptFirst) {
    certifier = [&calls](const RelationExpr&) { return ++calls == 1; };
  }
  const auto schedule = build_epoch_schedule(
      topo, ft::compile(ft::parse_fault_plan(c.faults), topo),
      compile(parse_transition_plan(c.plan), topo, c.base),
      GuardWalk{certifier});

  std::ostringstream os;
  os << "# " << c.topology << " " << c.base << " fault=" << c.faults
     << " reconfig=" << c.plan << " certifier=" << to_string(c.certifier)
     << "\n";
  for (std::size_t i = 0; i < schedule->steps.size(); ++i) {
    const EpochStep& step = schedule->steps[i];
    const GuardDecision& d = step.decision;
    os << i << " "
       << (step.kind == EpochStep::Kind::kFault ? "fault" : "cutover") << " "
       << step.index << " @" << step.cycle << " " << to_string(d.action)
       << " assignments=" << render(d.cutover) << " epoch=" << d.epoch
       << " rollback_epoch=" << d.rollback_epoch << "\n";
  }
  return os.str();
}

TEST(GuardDecisions, MatchGoldenFile) {
  std::string actual;
  for (const Case& c : kCases) actual += decisions(c);
  const std::string path =
      std::string(WORMNET_GOLDEN_DIR) + "/guard_decisions.txt";
  if (std::getenv("WORMNET_UPDATE_GOLDEN") != nullptr) {
    std::ofstream file(path, std::ios::binary);
    ASSERT_TRUE(file.good()) << "cannot write " << path;
    file << actual;
    GTEST_SKIP() << "updated " << path;
  }
  std::ifstream file(path, std::ios::binary);
  std::ostringstream expected;
  expected << file.rdbuf();
  ASSERT_FALSE(expected.str().empty())
      << path << " missing — regenerate with WORMNET_UPDATE_GOLDEN=1";
  EXPECT_EQ(actual, expected.str()) << "golden drift in guard_decisions.txt";
}

/// The racy pair wormnet-sweep rejects (ctest cli_sweep_kill_cutover_race):
/// channel 3 of mesh:4x4:2 dies at cycle 300, when its head node cuts over.
TEST(EpochSchedule, RejectsAKillRacingACutoverForEveryCaller) {
  const topology::Topology topo = core::make_topology("mesh:4x4:2");
  const auto routing = core::make_algorithm("duato-mesh", topo);
  EXPECT_THROW(
      {
        sim::SimConfig cfg;
        cfg.schedule = build_epoch_schedule(
            topo, ft::compile(ft::parse_fault_plan("killch:3@300"), topo),
            compile(parse_transition_plan("switch:west-first@300"), topo,
                    "duato-mesh"));
        sim::Simulator simulator(topo, *routing, cfg);
        (void)simulator.run();
      },
      std::invalid_argument);
}

}  // namespace
}  // namespace wormnet::reconfig
