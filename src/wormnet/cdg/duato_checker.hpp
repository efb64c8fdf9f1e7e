// The necessary-and-sufficient condition checker.
//
//   Theorem (Duato, ICPP'94 / TPDS'95): a connected adaptive routing
//   function R for interconnection network I is deadlock-free iff there
//   exists a routing subfunction R1 that is connected and whose extended
//   channel dependency graph is acyclic.
//
// `check()` evaluates the condition for a given subfunction;
// `search()` hunts for a qualifying subfunction using, in order:
//   1. the full channel set (degenerates to the classical acyclic-CDG test),
//   2. a caller-provided candidate (e.g. the escape layer of a DuatoAdaptive
//      construction),
//   3. virtual-channel-class subsets (all 2^vcs - 1 of them; the canonical
//      escape structure of k-ary n-cube algorithms),
//   4. greedy cycle-breaking (drop a cycle channel, keep connectivity,
//      retry — with backtracking up to a budget),
//   5. exhaustive enumeration of channel subsets for tiny networks.
// Stages 4 and 5 evaluate their candidates on one SearchState
// (search_state.hpp), edited per candidate instead of rebuilt; stages 1-3
// and check() build each candidate's subfunction and ECDG from scratch.
//
// The search is exponential in the worst case (as the paper itself notes for
// such procedures), so a failed search yields verdict kNoSubfunctionFound —
// proof of deadlock-susceptibility only when the exhaustive stage covered the
// whole space (`exhaustive_complete`).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "wormnet/cdg/extended_cdg.hpp"
#include "wormnet/cdg/subfunction.hpp"

namespace wormnet::cdg {

struct DuatoReport {
  bool connected = false;
  bool escape_everywhere = false;
  bool acyclic = false;
  std::size_t direct_edges = 0;
  std::size_t indirect_edges = 0;
  std::size_t cross_edges = 0;
  std::vector<graph::Vertex> witness_cycle;  ///< channels, when cyclic
  /// A topological order of the extended CDG's vertices (every channel),
  /// when acyclic.
  std::vector<graph::Vertex> topological_order;
  /// Kind of each witness-cycle edge: witness_cycle_kinds[i] classifies the
  /// dependency witness_cycle[i] -> witness_cycle[(i+1) % size].
  std::vector<DepKind> witness_cycle_kinds;
  /// Where connectivity / escape-everywhere failed, when either is false.
  SubfunctionWitness connectivity_witness;
  std::string subfunction_label;

  [[nodiscard]] bool holds() const {
    return connected && escape_everywhere && acyclic;
  }
};

/// Evaluates the condition for one candidate subfunction.
[[nodiscard]] DuatoReport check(const Subfunction& sub);

struct SearchOptions {
  /// Networks with at most this many channels get exhaustive subset search.
  std::size_t exhaustive_channel_limit = 14;
  /// Greedy cycle-breaking backtrack budget (number of candidate removals).
  std::size_t greedy_budget = 2000;
  /// Extra candidate escape sets to try first (e.g. a known escape layer).
  std::vector<std::pair<std::vector<bool>, std::string>> seeded_candidates;
};

struct SearchResult {
  bool found = false;
  /// Valid when found: the qualifying subfunction's channel set + report.
  std::vector<bool> c1;
  DuatoReport report;
  /// The stage-1 (all-channels) report, kept even when the search fails: its
  /// witness cycle is the concrete dependency cycle of the base relation's
  /// CDG, which callers report as the "why" of a failed search.
  DuatoReport full_set_report;
  /// True when the failed search enumerated every subset, making
  /// "no subfunction exists" a proof rather than a budget artifact.
  bool exhaustive_complete = false;
  std::size_t candidates_tried = 0;
};

/// Searches for a subfunction satisfying the condition.
[[nodiscard]] SearchResult search(const StateGraph& states,
                                  const SearchOptions& options = {});

}  // namespace wormnet::cdg
