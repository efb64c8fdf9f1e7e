// Shared fixtures and helpers for the wormnet test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>

#include "wormnet/audit/json.hpp"
#include "wormnet/wormnet.hpp"

namespace wormnet::test {

using topology::ChannelId;
using topology::NodeId;
using topology::Topology;

// Tests that check a renderer (lint SARIF/JSONL, sweep JSONL, metrics dumps,
// postmortems) read its output with the library's one strict JSON reader:
// audit::json::parse(text) returns a DOM and throws on malformed input.

/// Checks that `routing` delivers every (src, dst) pair: from every reachable
/// state the destination is reachable in the state graph, and every state
/// offers outputs.  This is the "connected relation" precondition of all the
/// theorems.
inline void expect_connected(const Topology& topo,
                             const routing::RoutingFunction& routing) {
  const cdg::StateGraph states(topo, routing);
  for (NodeId d = 0; d < topo.num_nodes(); ++d) {
    for (NodeId s = 0; s < topo.num_nodes(); ++s) {
      if (s == d) continue;
      ASSERT_FALSE(states.injection(s, d).empty())
          << routing.name() << ": no first hop " << s << " -> " << d;
    }
    for (ChannelId c = 0; c < topo.num_channels(); ++c) {
      if (!states.reachable(c, d)) continue;
      if (topo.channel(c).dst == d) continue;
      ASSERT_FALSE(states.successors(c, d).empty())
          << routing.name() << ": dead-end state (" << topo.channel_name(c)
          << ", dest " << d << ")";
      // Delivery: some successor chain reaches the destination.  Since every
      // state has successors and the state space is finite, it suffices that
      // at least one sink (head == dest) is reachable from (c, d).
      bool delivers = false;
      for (ChannelId t = 0; t < topo.num_channels() && !delivers; ++t) {
        if (states.reachable(t, d) && topo.channel(t).dst == d &&
            states.reaches(c, t, d)) {
          delivers = true;
        }
      }
      ASSERT_TRUE(delivers) << routing.name() << ": state ("
                            << topo.channel_name(c) << ", dest " << d
                            << ") cannot reach its destination";
    }
  }
}

/// Checks waiting(input, n, d) ⊆ route(input, n, d) over reachable states.
inline void expect_waiting_subset(const Topology& topo,
                                  const routing::RoutingFunction& routing) {
  const cdg::StateGraph states(topo, routing);
  for (NodeId d = 0; d < topo.num_nodes(); ++d) {
    for (ChannelId c = 0; c < topo.num_channels(); ++c) {
      if (!states.reachable(c, d) || topo.channel(c).dst == d) continue;
      const auto succ = states.successors(c, d);
      for (ChannelId w : states.waiting(c, d)) {
        ASSERT_NE(std::find(succ.begin(), succ.end(), w), succ.end())
            << routing.name() << ": waiting channel " << topo.channel_name(w)
            << " not routable at (" << topo.channel_name(c) << ", dest " << d
            << ")";
      }
    }
  }
}

/// A stress simulation config for deadlock probing.
inline sim::SimConfig stress_config(std::uint64_t seed = 7) {
  sim::SimConfig cfg;
  cfg.injection_rate = 0.5;
  cfg.packet_length = 16;
  cfg.buffer_depth = 2;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 15000;
  cfg.drain_cycles = 8000;
  cfg.deadlock_check_interval = 64;
  cfg.seed = seed;
  return cfg;
}

}  // namespace wormnet::test
