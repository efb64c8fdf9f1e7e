// The waiting contract of the relation interface.
//
// waiting_into(input, at, dest, out) either returns false and appends
// nothing — the waiting set is the whole route — or appends a subset of
// route() and returns true; waiting() is that subset or route() in a fresh
// vector.  Checked at every state (input, at, dest) of every registry
// relation on the relation-rows topologies, of both wrappers
// (FaultAwareRouting, UnionRouting) against their members, of a table with
// and without a waiting table, and of the incoherent example in both wait
// modes.  A wait-on-any registry relation must answer false at every
// reachable state, so its StateGraph aliases every waiting list to its
// route list (no second relation call, no waiting slices).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "wormnet/cdg/states.hpp"
#include "wormnet/core/registry.hpp"
#include "wormnet/reconfig/union_routing.hpp"
#include "wormnet/routing/examples.hpp"
#include "wormnet/routing/fault.hpp"
#include "wormnet/routing/scripted.hpp"
#include "wormnet/routing/unrestricted.hpp"

namespace wormnet {
namespace {

using routing::ChannelSet;
using routing::RoutingFunction;
using topology::ChannelId;
using topology::NodeId;
using topology::Topology;

constexpr ChannelId kSentinel = 0xdeadbeefu;

/// The waiting_into answer at one state, checked against the contract;
/// `narrowed` reports whether it returned true.  The subset rule is checked
/// only where `reachable`: hpl-minimal's waiting rule names the channel a
/// message would wait for after a + -> - turn that its own route never
/// makes, so at such unreachable states its waiting set leaves its route.
ChannelSet checked_waiting(const RoutingFunction& relation, ChannelId input,
                           NodeId at, NodeId dest, bool& narrowed,
                           bool reachable) {
  ChannelSet out{kSentinel};  // append contract: the prefix survives
  narrowed = relation.waiting_into(input, at, dest, out);
  EXPECT_EQ(out.front(), kSentinel) << relation.name();
  const ChannelSet waits(out.begin() + 1, out.end());
  const ChannelSet route = relation.route(input, at, dest);
  if (!narrowed) {
    EXPECT_TRUE(waits.empty()) << relation.name() << " appended on false";
    EXPECT_EQ(relation.waiting(input, at, dest), route) << relation.name();
    return route;
  }
  for (const ChannelId c : reachable ? waits : ChannelSet{}) {
    EXPECT_NE(std::find(route.begin(), route.end(), c), route.end())
        << relation.name() << ": waits on " << c << " outside its route ("
        << input << ", " << at << ", " << dest << ")";
  }
  EXPECT_EQ(relation.waiting(input, at, dest), waits) << relation.name();
  return waits;
}

/// Calls `fn(input, at, dest, reachable)` at every state relation_rows
/// hashes: every node, every input into it plus the injection input, every
/// other dest; `reachable` says whether `relation` reaches the state.
template <class Fn>
void for_each_state(const Topology& topo, const RoutingFunction& relation,
                    Fn&& fn) {
  const cdg::StateGraph states(topo, relation);
  for (NodeId at = 0; at < topo.num_nodes(); ++at) {
    ChannelSet inputs{topology::kInvalidChannel};
    for (const ChannelId c : topo.in_channels(at)) inputs.push_back(c);
    for (NodeId dest = 0; dest < topo.num_nodes(); ++dest) {
      if (dest == at) continue;
      for (const ChannelId input : inputs) {
        fn(input, at, dest,
           input == topology::kInvalidChannel ||
               states.reachable(input, dest));
      }
    }
  }
}

/// Checks the contract everywhere (the subset rule where the relation's
/// state graph reaches); returns how many states narrowed.
std::size_t check_everywhere(const Topology& topo,
                             const RoutingFunction& relation) {
  std::size_t narrowed_states = 0;
  for_each_state(topo, relation, [&](ChannelId input, NodeId at, NodeId dest,
                                     bool reachable) {
    bool narrowed = false;
    (void)checked_waiting(relation, input, at, dest, narrowed, reachable);
    narrowed_states += narrowed ? 1 : 0;
  });
  return narrowed_states;
}

/// A wait-on-any relation's reachable states never narrow, and its state
/// graph's waiting lists are its route lists, slice for slice.
void expect_aliased(const Topology& topo, const RoutingFunction& relation) {
  const cdg::StateGraph states(topo, relation);
  ChannelSet scratch;
  for (NodeId dest = 0; dest < topo.num_nodes(); ++dest) {
    for (NodeId src = 0; src < topo.num_nodes(); ++src) {
      if (src == dest) continue;
      scratch.clear();
      EXPECT_FALSE(relation.waiting_into(topology::kInvalidChannel, src, dest,
                                         scratch))
          << relation.name();
      EXPECT_EQ(states.injection_waiting(src, dest).data(),
                states.injection(src, dest).data());
    }
    for (ChannelId c = 0; c < topo.num_channels(); ++c) {
      if (!states.reachable(c, dest) || topo.channel(c).dst == dest) continue;
      scratch.clear();
      EXPECT_FALSE(relation.waiting_into(c, topo.channel(c).dst, dest,
                                         scratch))
          << relation.name() << " at " << topo.channel_name(c);
      EXPECT_EQ(states.waiting(c, dest).data(),
                states.successors(c, dest).data());
    }
  }
}

TEST(WaitingContract, EveryRegistryRelation) {
  for (const char* spec : {"mesh:4x4:2", "torus:4x4:3", "hypercube:4:2",
                           "ring:6:2", "incoherent"}) {
    const Topology topo = core::make_topology(spec);
    for (const core::AlgorithmEntry* alg : core::algorithms_for(topo)) {
      SCOPED_TRACE(std::string(spec) + " " + alg->name);
      const auto relation = alg->make(topo);
      const std::size_t narrowed = check_everywhere(topo, *relation);
      if (relation->wait_mode() == routing::WaitMode::kAnyOf) {
        EXPECT_EQ(narrowed, 0u);
        expect_aliased(topo, *relation);
      }
    }
  }
}

TEST(WaitingContract, IncoherentInBothModes) {
  const Topology topo = routing::make_incoherent_net();
  const routing::IncoherentRouting any(topo, /*wait_specific=*/false);
  const routing::IncoherentRouting specific(topo, /*wait_specific=*/true);
  EXPECT_EQ(check_everywhere(topo, any), 0u);
  expect_aliased(topo, any);
  // Wait-specific narrows exactly where the route has a detour: to it.
  std::size_t narrowed_states = 0;
  for_each_state(topo, specific, [&](ChannelId input, NodeId at, NodeId dest,
                                     bool reachable) {
    bool narrowed = false;
    const ChannelSet waits =
        checked_waiting(specific, input, at, dest, narrowed, reachable);
    const ChannelSet route = specific.route(input, at, dest);
    EXPECT_EQ(narrowed, route.size() > 1);
    if (narrowed) {
      EXPECT_EQ(waits, ChannelSet{route.back()});
      ++narrowed_states;
    }
  });
  EXPECT_GT(narrowed_states, 0u);
}

/// `relation`'s waiting set minus `dead`, by the public API only.
ChannelSet live(const ChannelSet& set, const std::vector<bool>& dead) {
  ChannelSet out;
  for (const ChannelId c : set) {
    if (!dead[c]) out.push_back(c);
  }
  return out;
}

TEST(WaitingContract, FaultAwareForwardsItsBase) {
  const Topology topo = core::make_topology("mesh:4x4:2");
  for (const char* name : {"duato-mesh", "hpl-minimal", "hpl"}) {
    SCOPED_TRACE(name);
    const std::vector<bool> dead = routing::random_link_faults(topo, 3, 7);
    const auto base = core::make_algorithm(name, topo);
    const routing::FaultAwareRouting faulted(
        topo, core::make_algorithm(name, topo), dead);
    std::size_t narrowed_states = 0;
    for_each_state(topo, faulted, [&](ChannelId input, NodeId at, NodeId dest,
                                      bool reachable) {
      bool narrowed = false;
      const ChannelSet waits =
          checked_waiting(faulted, input, at, dest, narrowed, reachable);
      ChannelSet scratch;
      EXPECT_EQ(narrowed, base->waiting_into(input, at, dest, scratch));
      EXPECT_EQ(waits, live(base->waiting(input, at, dest), dead));
      narrowed_states += narrowed ? 1 : 0;
    });
    EXPECT_EQ(narrowed_states == 0,
              base->wait_mode() == routing::WaitMode::kAnyOf);
  }
}

TEST(WaitingContract, UnionMergesItsMembers) {
  const Topology topo = core::make_topology("mesh:4x4:2");
  // Two wait-on-any members, then a wait-on-any and a wait-specific one;
  // the second member serves the odd destinations only.
  for (const auto& names : {std::vector<std::string>{"e-cube", "west-first"},
                            std::vector<std::string>{"duato-mesh",
                                                     "hpl-minimal"}}) {
    SCOPED_TRACE(names[0] + ">" + names[1]);
    reconfig::UnionSpec spec;
    spec.num_nodes = topo.num_nodes();
    spec.names = names;
    spec.active.assign(2, std::vector<bool>(topo.num_nodes(), true));
    for (NodeId d = 0; d < topo.num_nodes(); d += 2) spec.active[1][d] = false;
    std::vector<std::unique_ptr<RoutingFunction>> members;
    std::vector<std::unique_ptr<RoutingFunction>> reference;
    for (const std::string& name : names) {
      members.push_back(core::make_algorithm(name, topo));
      reference.push_back(core::make_algorithm(name, topo));
    }
    const reconfig::UnionRouting relation(topo, spec, std::move(members));
    std::size_t narrowed_states = 0;
    for_each_state(topo, relation, [&](ChannelId input, NodeId at,
                                       NodeId dest, bool reachable) {
      bool narrowed = false;
      const ChannelSet waits =
          checked_waiting(relation, input, at, dest, narrowed, reachable);
      // The ordered union of the active members' waiting sets.
      ChannelSet want;
      bool any_narrows = false;
      for (std::size_t v = 0; v < reference.size(); ++v) {
        if (!spec.active[v][dest]) continue;
        ChannelSet scratch;
        any_narrows |= reference[v]->waiting_into(input, at, dest, scratch);
        for (const ChannelId c : reference[v]->waiting(input, at, dest)) {
          if (std::find(want.begin(), want.end(), c) == want.end()) {
            want.push_back(c);
          }
        }
      }
      EXPECT_EQ(narrowed, any_narrows);
      EXPECT_EQ(waits, want);
      narrowed_states += narrowed ? 1 : 0;
    });
    // Narrowed somewhere iff a member is wait-specific (a mixed union's
    // wait_mode() degrades to wait-on-any, but its waiting sets do not).
    EXPECT_EQ(narrowed_states > 0, names[1] == "hpl-minimal");
  }
}

TEST(WaitingContract, TableAnswersFromItsWaitingRows) {
  const Topology topo = core::make_topology("ring:6:2");
  const routing::UnrestrictedMinimal minimal(topo);
  std::map<routing::TableRouting::Key, ChannelSet> table;
  std::map<routing::TableRouting::Key, ChannelSet> waiting;
  for (NodeId at = 0; at < topo.num_nodes(); ++at) {
    for (NodeId dest = 0; dest < topo.num_nodes(); ++dest) {
      if (dest == at) continue;
      const ChannelSet all = minimal.route(topology::kInvalidChannel, at, dest);
      table[{topology::kInvalidChannel, at, dest}] = all;
      if (dest != 0) waiting[{topology::kInvalidChannel, at, dest}] = {all[0]};
    }
  }
  routing::TableRouting relation(topo, "table", table);
  EXPECT_EQ(check_everywhere(topo, relation), 0u);
  expect_aliased(topo, relation);
  relation.set_waiting(waiting);
  for_each_state(topo, relation, [&](ChannelId input, NodeId at, NodeId dest,
                                     bool reachable) {
    bool narrowed = false;
    const ChannelSet waits =
        checked_waiting(relation, input, at, dest, narrowed, reachable);
    // True exactly where a waiting row exists (toward every node but 0).
    EXPECT_EQ(narrowed, dest != 0);
    if (narrowed) {
      EXPECT_EQ(waits.size(), 1u);
    }
  });
}

}  // namespace
}  // namespace wormnet
