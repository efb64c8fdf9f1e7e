// Soundness fuzzing: random routing relations on random small networks.
//
// For each seed we generate a random strongly connected multigraph and a
// random *connected* relation on it (every (node, dest) entry contains a
// shortest-path-tree channel, plus random extras, so delivery is always
// possible).  Then:
//   * any checker that proves "deadlock-free" must never be contradicted by
//     a stress simulation (sufficiency soundness);
//   * for wait-specific relations, a classified True Cycle must replay to a
//     real simulated deadlock (necessity soundness, Theorem-2 regime);
//   * all methods must stay mutually consistent.
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>

#include "test_helpers.hpp"

namespace wormnet {
namespace {

using routing::ChannelSet;
using routing::TableRouting;
using topology::Channel;
using topology::ChannelId;
using topology::Direction;
using topology::NodeId;
using topology::Topology;

Topology random_topology(util::Xoshiro256& rng) {
  const NodeId n = 3 + static_cast<NodeId>(rng.below(3));  // 3..5 nodes
  std::vector<Channel> channels;
  // A directed Hamiltonian cycle guarantees strong connectivity.
  for (NodeId i = 0; i < n; ++i) {
    Channel ch;
    ch.src = i;
    ch.dst = (i + 1) % n;
    ch.name = "ring" + std::to_string(i);
    channels.push_back(ch);
  }
  // Random extra channels (possibly parallel; distinct vc indices).
  const std::size_t extras = rng.below(5);
  for (std::size_t e = 0; e < extras; ++e) {
    Channel ch;
    ch.src = static_cast<NodeId>(rng.below(n));
    ch.dst = static_cast<NodeId>(rng.below(n));
    if (ch.src == ch.dst) continue;
    ch.vc = static_cast<std::uint8_t>(1 + e);
    ch.dir = ch.dst > ch.src ? Direction::kPos : Direction::kNeg;
    ch.name = "x";
    ch.name += std::to_string(e);
    channels.push_back(ch);
  }
  return Topology("fuzz", n, std::move(channels));
}

/// BFS parents toward `dest`: for each node, one out-channel on a shortest
/// path to dest.
std::vector<ChannelId> shortest_tree(const Topology& topo, NodeId dest) {
  std::vector<std::uint32_t> dist(topo.num_nodes(),
                                  static_cast<std::uint32_t>(-1));
  std::vector<ChannelId> via(topo.num_nodes(), topology::kInvalidChannel);
  std::queue<NodeId> frontier;
  dist[dest] = 0;
  frontier.push(dest);
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop();
    for (ChannelId c : topo.in_channels(v)) {
      const NodeId u = topo.channel(c).src;
      if (dist[u] == static_cast<std::uint32_t>(-1)) {
        dist[u] = dist[v] + 1;
        via[u] = c;
        frontier.push(u);
      }
    }
  }
  return via;
}

std::unique_ptr<TableRouting> random_relation(const Topology& topo,
                                              util::Xoshiro256& rng,
                                              bool wait_specific) {
  std::map<TableRouting::Key, ChannelSet> table;
  std::map<TableRouting::Key, ChannelSet> waits;
  for (NodeId d = 0; d < topo.num_nodes(); ++d) {
    const auto tree = shortest_tree(topo, d);
    for (NodeId u = 0; u < topo.num_nodes(); ++u) {
      if (u == d) continue;
      ChannelSet set{tree[u]};
      for (ChannelId c : topo.out_channels(u)) {
        if (c != tree[u] && rng.chance(0.4)) set.push_back(c);
      }
      const TableRouting::Key key{topology::kInvalidChannel, u, d};
      if (wait_specific) {
        waits[key] = ChannelSet{set[rng.below(set.size())]};
      }
      table[key] = std::move(set);
    }
  }
  auto routing = std::make_unique<TableRouting>(
      topo, wait_specific ? "fuzz-specific" : "fuzz-any", std::move(table),
      routing::RelationForm::kNodeDest,
      wait_specific ? routing::WaitMode::kSpecific
                    : routing::WaitMode::kAnyOf);
  if (wait_specific) routing->set_waiting(std::move(waits));
  return routing;
}

class FuzzSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSoundness, CheckersNeverContradictSimulation) {
  util::Xoshiro256 rng(GetParam() * 0x9e3779b9ULL + 1);
  const Topology topo = random_topology(rng);
  const bool wait_specific = rng.chance(0.5);
  const auto routing = random_relation(topo, rng, wait_specific);

  const cdg::StateGraph states(topo, *routing);
  ASSERT_TRUE(cdg::relation_connected(states));

  core::VerifyOptions options;
  options.cwg.max_cycles = 2000;
  const core::Verdict cdg_v =
      core::verify(topo, *routing, {.method = core::Method::kCdgAcyclic});
  options.method = core::Method::kDuato;
  const core::Verdict duato_v = core::verify(topo, *routing, options);
  options.method = core::Method::kCwg;
  const core::Verdict cwg_v = core::verify(topo, *routing, options);

  const bool any_free_proof =
      cdg_v.conclusion == core::Conclusion::kDeadlockFree ||
      duato_v.conclusion == core::Conclusion::kDeadlockFree ||
      cwg_v.conclusion == core::Conclusion::kDeadlockFree;

  // Stress the relation in the simulator.
  bool sim_deadlocked = false;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    sim::SimConfig cfg;
    cfg.injection_rate = 0.8;
    cfg.packet_length = 12;
    cfg.buffer_depth = 1;
    cfg.warmup_cycles = 0;
    cfg.measure_cycles = 8000;
    cfg.drain_cycles = 5000;
    cfg.deadlock_check_interval = 32;
    cfg.seed = seed;
    if (sim::run(topo, *routing, cfg).deadlocked) {
      sim_deadlocked = true;
      break;
    }
  }

  EXPECT_FALSE(any_free_proof && sim_deadlocked)
      << "a proof of deadlock freedom was contradicted by simulation\n"
      << "  cdg: " << cdg_v.detail << "\n  duato: " << duato_v.detail
      << "\n  cwg: " << cwg_v.detail;

  // Necessity soundness for wait-specific relations: a True Cycle must
  // replay to an actual deadlock.
  if (wait_specific) {
    const cwg::Cwg graph = cwg::build_cwg(states);
    const cwg::CycleSurvey survey = cwg::survey_cycles(states, graph, 2000);
    for (const auto& cycle : survey.cycles) {
      if (cycle.kind != cwg::CycleKind::kTrue) continue;
      const sim::SimStats stats =
          core::replay_witness(topo, *routing, cycle);
      EXPECT_TRUE(stats.deadlocked)
          << "True Cycle failed to replay: "
          << core::describe_cycle(topo, cycle.channels);
      break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSoundness,
                         ::testing::Range<std::uint64_t>(0, 40));

// --- transition-plan grammar fuzzing -------------------------------------
//
// The reconfiguration plan parser sits on the CLI/sweep-grid boundary, so
// arbitrary text reaches it.  Contract: parse_transition_plan() and
// compile() either succeed or throw std::invalid_argument — never crash,
// never accept text that fails to round-trip through to_string().

class FuzzTransitionPlan : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzTransitionPlan, ParserRejectsOrRoundTrips) {
  util::Xoshiro256 rng(GetParam() * 0x6a09e667ULL + 3);
  const char* kSeeds[] = {
      "none",
      "switch:duato-mesh@300",
      "stage:west-first/0-7@200",
      "ramp:duato-mesh/4/100@200",
      "stage:duato-mesh/0-7@200+stage:duato-mesh/8-15@400",
  };
  const char kNoise[] = "+:/@-.0123456789abcdefghijklmnopqrstuvwxyz \t";
  std::string text = kSeeds[rng.below(std::size(kSeeds))];
  // A handful of random edits: insert, delete, replace, truncate, swap.
  const std::size_t edits = 1 + rng.below(6);
  for (std::size_t e = 0; e < edits && !text.empty(); ++e) {
    const std::size_t at = rng.below(text.size());
    switch (rng.below(5)) {
      case 0:
        text.insert(at, 1, kNoise[rng.below(std::size(kNoise) - 1)]);
        break;
      case 1:
        text.erase(at, 1);
        break;
      case 2:
        text[at] = kNoise[rng.below(std::size(kNoise) - 1)];
        break;
      case 3:
        text.resize(at);
        break;
      default:
        std::swap(text[at], text[rng.below(text.size())]);
        break;
    }
  }

  const Topology topo = core::make_topology("mesh:4x4:2");
  try {
    const reconfig::TransitionPlan plan =
        reconfig::parse_transition_plan(text);
    // Accepted text must round-trip: render -> parse -> render is a fixed
    // point, so sweep grids and CHANGES-style logs can echo plans verbatim.
    const std::string rendered = plan.to_string();
    EXPECT_EQ(reconfig::parse_transition_plan(rendered).to_string(),
              rendered)
        << "round-trip drift for input: " << text;
    // Compilation may still reject (unknown routing, bad range, conflict),
    // but only ever via std::invalid_argument.
    try {
      const auto compiled = reconfig::compile(plan, topo, "e-cube");
      for (const auto& spec : compiled.verification_epochs()) {
        // Every surviving epoch serializes and re-parses losslessly.
        const reconfig::RelationExpr epoch(spec);
        EXPECT_EQ(reconfig::RelationExpr::parse(epoch.to_string(), topo),
                  epoch);
      }
    } catch (const std::invalid_argument&) {
      // fine: semantically invalid plan
    }
  } catch (const std::invalid_argument&) {
    // fine: syntactically invalid plan
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTransitionPlan,
                         ::testing::Range<std::uint64_t>(0, 150));

}  // namespace
}  // namespace wormnet
