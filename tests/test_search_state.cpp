// The subfunction search's state against the single-candidate path.
//
// A greedy walk over every search case (tests/search_cases.hpp), with a
// small budget, drops witness-cycle channels and backtracks exactly as
// cdg::search's greedy stage does.  After every drop and every undo the
// state must agree with a fresh Subfunction of the same escape set: its
// gates with connectivity_witness() and escape_witness(), its ECDG with
// build_extended_cdg() on every edge of `graph`, every `direct` row, the
// kind of every edge and the three edge counts.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "search_cases.hpp"
#include "wormnet/cdg/extended_cdg.hpp"
#include "wormnet/cdg/search_state.hpp"
#include "wormnet/routing/scripted.hpp"
#include "wormnet/routing/unrestricted.hpp"
#include "wormnet/util/rng.hpp"

namespace wormnet::test {
namespace {

using cdg::ExtendedCdg;
using cdg::SearchState;
using cdg::StateGraph;
using cdg::Subfunction;
using graph::Vertex;
using topology::NodeId;

/// Describes the first way `state` differs from the single-candidate path
/// for its escape set, or "" when it agrees.
std::string first_difference(SearchState& state, const StateGraph& states) {
  const Subfunction sub(states, state.c1(), "oracle");
  if (state.connected() != sub.connectivity_witness().ok()) {
    return "connected";
  }
  if (state.escape_everywhere() != sub.escape_witness().ok()) {
    return "escape_everywhere";
  }
  const ExtendedCdg expected = cdg::build_extended_cdg(sub);
  const ExtendedCdg& actual = state.ecdg();
  if (actual.direct_edges != expected.direct_edges) return "direct_edges";
  if (actual.indirect_edges != expected.indirect_edges) {
    return "indirect_edges";
  }
  if (actual.cross_edges != expected.cross_edges) return "cross_edges";
  if (actual.graph.num_edges() != expected.graph.num_edges()) {
    return "graph edge count";
  }
  const std::size_t words = expected.direct.words;
  if (actual.direct.words != words) return "direct row width";
  for (Vertex u = 0; u < expected.graph.num_vertices(); ++u) {
    std::ostringstream where;
    where << " of channel " << u;
    if (!std::ranges::equal(actual.graph.out(u), expected.graph.out(u))) {
      return "graph row" + where.str();
    }
    if (!std::equal(actual.direct.row(u), actual.direct.row(u) + words,
                    expected.direct.row(u))) {
      return "direct row" + where.str();
    }
    for (const Vertex v : expected.graph.out(u)) {
      if (actual.kind(u, v) != expected.kind(u, v)) {
        return "kind of an edge" + where.str();
      }
    }
  }
  return "";
}

/// Walks `state` like the greedy stage for `budget` expansions, then
/// unwinds it, checking it after every edit.  Returns the edits made.
std::size_t walk_greedy(SearchState& state, const StateGraph& states,
                        std::size_t budget) {
  struct Frame {
    std::vector<Vertex> cycle;
    std::size_t next = 0;
    bool evaluated = false;
  };
  std::size_t edits = 0;
  const auto check = [&](const char* edit) {
    ++edits;
    const std::string diff = first_difference(state, states);
    EXPECT_EQ(diff, "") << "after " << edit << " #" << edits << " (depth "
                        << state.depth() << ")";
    return diff.empty();
  };
  if (!check("construction")) return edits;
  std::vector<Frame> stack(1);
  std::size_t spent = 0;
  while (!stack.empty() && spent < budget) {
    Frame& frame = stack.back();
    if (!frame.evaluated) {
      frame.evaluated = true;
      ++spent;
      if (state.connected() && state.escape_everywhere()) {
        if (auto cycle = state.ecdg().graph.find_cycle()) {
          frame.cycle = std::move(*cycle);
        }
      }
    }
    if (frame.next >= frame.cycle.size()) {
      stack.pop_back();
      if (!stack.empty()) {
        state.undo();
        if (!check("undo")) return edits;
      }
      continue;
    }
    state.drop(frame.cycle[frame.next++]);
    if (!check("drop")) return edits;
    stack.emplace_back();
  }
  while (state.depth() > 0) {
    state.undo();
    if (!check("unwinding undo")) return edits;
  }
  return edits;
}

TEST(SearchState, GreedyEditsMatchSingleCandidatePath) {
  std::size_t edits = 0;
  for (const SearchCase& c : search_cases()) {
    SCOPED_TRACE(c.topology + " " + c.relation.to_string());
    const topology::Topology topo = core::make_topology(c.topology);
    const auto relation = c.relation.build(topo);
    const StateGraph states(topo, *relation);
    SearchState state(states);
    edits += walk_greedy(state, states, /*budget=*/24);
    if (HasFailure()) return;
  }
  // The walks must go deep enough to drop, fail a gate and backtrack.
  EXPECT_GE(edits, 1000u);
}

TEST(SearchState, RandomEditsMatchSingleCandidatePath) {
  // Drops the greedy stage would not choose — any channel of C1, while the
  // set stays connected — reach tree shapes its cycle channels do not, on
  // nonminimal relations above all, whose usable channels form cycles.
  util::Xoshiro256 rng(26);
  std::size_t edits = 0;
  for (const SearchCase& c : search_cases()) {
    SCOPED_TRACE(c.topology + " " + c.relation.to_string());
    const topology::Topology topo = core::make_topology(c.topology);
    const auto relation = c.relation.build(topo);
    const StateGraph states(topo, *relation);
    SearchState state(states);
    for (int step = 0; step < 48; ++step) {
      if (state.connected() && rng() % 3 != 0) {
        state.drop(static_cast<topology::ChannelId>(rng() %
                                                    topo.num_channels()));
      } else if (state.depth() > 0) {
        state.undo();
      } else {
        continue;
      }
      ++edits;
      ASSERT_EQ(first_difference(state, states), "")
          << "after random edit #" << edits << " (depth " << state.depth()
          << ")";
    }
  }
  EXPECT_GE(edits, 3000u);
}

TEST(SearchState, DroppingTheOnlyExitOfAUsableCycleDisconnects) {
  // On ring:4, toward node 0: node 1 routes to 0 or on to 2, node 2 only
  // back to 1, node 3 to 0; every other destination routes minimally.  The
  // usable channels 1 -> 2 -> 1 form a cycle whose only exit is 1 -> 0, so
  // dropping that exit strands nodes 1 and 2 although node 1 keeps a usable
  // channel: re-hanging node 1 on it would close a loop in its own subtree.
  const topology::Topology topo = core::make_topology("ring:4");
  const auto link = [&](NodeId from, NodeId to) {
    return topo.find_channel(from, to, 0);
  };
  const routing::UnrestrictedMinimal minimal(topo);
  std::map<routing::TableRouting::Key, routing::ChannelSet> table;
  for (NodeId at = 0; at < topo.num_nodes(); ++at) {
    for (NodeId dest = 0; dest < topo.num_nodes(); ++dest) {
      if (at == dest) continue;
      table[{topology::kInvalidChannel, at, dest}] =
          minimal.route(topology::kInvalidChannel, at, dest);
    }
  }
  table[{topology::kInvalidChannel, 1, 0}] = {link(1, 0), link(1, 2)};
  table[{topology::kInvalidChannel, 2, 0}] = {link(2, 1)};
  table[{topology::kInvalidChannel, 3, 0}] = {link(3, 0)};
  const routing::TableRouting relation(topo, "one-exit", std::move(table));
  const StateGraph states(topo, relation);
  SearchState state(states);
  ASSERT_TRUE(state.connected());
  state.drop(link(1, 0));
  EXPECT_EQ(first_difference(state, states), "");
  EXPECT_FALSE(state.connected());
  state.undo();
  EXPECT_EQ(first_difference(state, states), "");
  EXPECT_TRUE(state.connected());
}

TEST(SearchState, AssignedSetsMatchAndEditFromThere) {
  // The exhaustive stage reassigns the set per subset; a walk may start
  // from any assigned set.
  util::Xoshiro256 rng(2026);
  for (const char* spec : {"ring:6:2", "mesh:3x3:2"}) {
    const topology::Topology topo = core::make_topology(spec);
    const auto relation = core::make_algorithm("unrestricted", topo);
    const StateGraph states(topo, *relation);
    SearchState state(states);
    for (int trial = 0; trial < 24; ++trial) {
      SCOPED_TRACE(std::string(spec) + " trial " + std::to_string(trial));
      std::vector<bool> c1(topo.num_channels());
      for (std::size_t ch = 0; ch < c1.size(); ++ch) c1[ch] = rng() % 8 != 0;
      state.assign(c1);
      ASSERT_EQ(first_difference(state, states), "");
      if (state.connected()) walk_greedy(state, states, /*budget=*/6);
      if (HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace wormnet::test
