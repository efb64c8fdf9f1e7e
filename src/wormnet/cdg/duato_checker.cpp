#include "wormnet/cdg/duato_checker.hpp"

#include <algorithm>
#include <optional>

#include "wormnet/cdg/search_state.hpp"
#include "wormnet/obs/probe.hpp"

namespace wormnet::cdg {

namespace {

/// The extended-CDG half of check(): edge counts and, when cyclic, the
/// witness cycle with the kind of each of its edges, else a topological
/// order.
void check_acyclic(const ExtendedCdg& ecdg, DuatoReport& report) {
  report.direct_edges = ecdg.direct_edges;
  report.indirect_edges = ecdg.indirect_edges;
  report.cross_edges = ecdg.cross_edges;
  auto cycle = ecdg.graph.find_cycle();
  report.acyclic = !cycle.has_value();
  if (!cycle) {
    report.topological_order = ecdg.graph.topological_order().value();
  } else {
    report.witness_cycle = std::move(*cycle);
    report.witness_cycle_kinds.reserve(report.witness_cycle.size());
    for (std::size_t i = 0; i < report.witness_cycle.size(); ++i) {
      const graph::Vertex from = report.witness_cycle[i];
      const graph::Vertex to =
          report.witness_cycle[(i + 1) % report.witness_cycle.size()];
      report.witness_cycle_kinds.push_back(ecdg.kind(from, to));
    }
  }
}

/// check() for a search candidate: runs the cheap gates (connectivity and
/// escape-everywhere, much faster than the ECDG) once each, and builds the
/// ECDG only when both pass.  nullopt when either gate fails.
std::optional<DuatoReport> check_gated(const Subfunction& sub) {
  if (!sub.connected() || !sub.escape_everywhere()) return std::nullopt;
  DuatoReport report;
  report.subfunction_label = sub.label();
  report.connected = true;
  report.escape_everywhere = true;
  check_acyclic(build_extended_cdg(sub), report);
  return report;
}

/// check_gated() for the search state's current escape set.
std::optional<DuatoReport> check_gated(SearchState& state,
                                       const std::string& label) {
  if (!state.connected() || !state.escape_everywhere()) return std::nullopt;
  DuatoReport report;
  report.subfunction_label = label;
  report.connected = true;
  report.escape_everywhere = true;
  check_acyclic(state.ecdg(), report);
  return report;
}

}  // namespace

DuatoReport check(const Subfunction& sub) {
  DuatoReport report;
  report.subfunction_label = sub.label();
  const SubfunctionWitness connectivity = sub.connectivity_witness();
  report.connected = connectivity.ok();
  if (!report.connected) report.connectivity_witness = connectivity;
  const SubfunctionWitness escape = sub.escape_witness();
  report.escape_everywhere = escape.ok();
  if (report.connected && !report.escape_everywhere) {
    report.connectivity_witness = escape;
  }
  check_acyclic(build_extended_cdg(sub), report);
  return report;
}

namespace {

/// Tries one candidate set; updates `result` on success.
bool try_candidate(const StateGraph& states, std::vector<bool> c1,
                   const std::string& label, SearchResult& result) {
  ++result.candidates_tried;
  if (auto* probe = obs::checker_probe()) ++probe->subfunction_candidates;
  Subfunction sub(states, c1, label);
  std::optional<DuatoReport> report = check_gated(sub);
  if (!report || !report->holds()) return false;
  result.found = true;
  result.c1 = std::move(c1);
  result.report = std::move(*report);
  return true;
}

void count_greedy_expansion() {
  if (auto* probe = obs::checker_probe()) {
    ++probe->greedy_expansions;
    ++probe->subfunction_candidates;
  }
}

/// Greedy cycle breaking: repeatedly drop one channel that participates in a
/// cycle of the current candidate's extended CDG, as long as connectivity
/// survives; depth-first with backtracking over which cycle channel to drop.
/// `state` starts at the full set; each frame above the root is one drop on
/// it, undone when the frame pops.
bool greedy_search(SearchState& state, SearchResult& result,
                   std::size_t budget) {
  struct Frame {
    std::vector<graph::Vertex> cycle;
    std::size_t next_choice = 0;
  };
  std::vector<Frame> stack(1);
  const auto pop = [&] {
    stack.pop_back();
    if (!stack.empty()) state.undo();
  };

  std::size_t spent = 0;
  while (!stack.empty() && spent < budget) {
    Frame& frame = stack.back();
    if (frame.cycle.empty()) {
      ++spent;
      count_greedy_expansion();
      std::optional<DuatoReport> report = check_gated(state, "greedy");
      if (!report) {
        pop();
        continue;
      }
      if (report->holds()) {
        result.found = true;
        result.c1 = state.c1();
        result.report = std::move(*report);
        result.report.subfunction_label = "greedy-derived escape set";
        return true;
      }
      frame.cycle = std::move(report->witness_cycle);
      if (frame.cycle.empty()) {
        // Cyclic report must carry a cycle; defensive.
        pop();
        continue;
      }
    }
    if (frame.next_choice >= frame.cycle.size()) {
      pop();
      continue;
    }
    state.drop(frame.cycle[frame.next_choice++]);
    stack.emplace_back();
  }
  return false;
}

}  // namespace

SearchResult search(const StateGraph& states, const SearchOptions& options) {
  SearchResult result;
  const Topology& topo = states.topo();
  const std::size_t channels = topo.num_channels();

  // Stage 1: the full set (classical acyclic-CDG test; with C1 = C the
  // extended CDG has no excursions, so it equals the plain CDG).  Its report
  // is kept on the result either way: when every later stage fails, the
  // full-set witness cycle is the concrete "why".
  {
    const obs::PhaseTimer timer("search_full_set");
    ++result.candidates_tried;
    if (auto* probe = obs::checker_probe()) ++probe->subfunction_candidates;
    std::vector<bool> all(channels, true);
    const Subfunction sub(states, all, "all-channels");
    result.full_set_report = check(sub);
    if (result.full_set_report.holds()) {
      result.found = true;
      result.c1 = std::move(all);
      result.report = result.full_set_report;
      return result;
    }
  }

  // Stage 2: caller-seeded candidates (e.g. known escape layers).
  {
    const obs::PhaseTimer timer("search_seeded");
    for (const auto& [c1, label] : options.seeded_candidates) {
      if (try_candidate(states, c1, label, result)) return result;
    }
  }

  // Stage 3: virtual-channel-class subsets on cube topologies.
  if (topo.is_cube() && topo.cube().vcs > 1) {
    const obs::PhaseTimer timer("search_vc_classes");
    const std::uint8_t vcs = topo.cube().vcs;
    for (std::uint32_t mask = 1; mask < (1u << vcs); ++mask) {
      if (mask == (1u << vcs) - 1) continue;  // full set already tried
      std::vector<bool> c1(channels, false);
      for (ChannelId c = 0; c < channels; ++c) {
        if (mask & (1u << topo.channel(c).vc)) c1[c] = true;
      }
      std::string label = "vc-classes:";
      for (std::uint8_t v = 0; v < vcs; ++v) {
        if (mask & (1u << v)) label += std::to_string(int(v));
      }
      if (try_candidate(states, std::move(c1), label, result)) return result;
    }
  }

  // Stage 4: greedy cycle breaking from the full set, over one search state
  // from here on.  Stage 1 already gated the full set: when it failed a
  // gate, so does the greedy root, and the state is not built for it.
  std::optional<SearchState> state;
  {
    const obs::PhaseTimer timer("search_greedy");
    const DuatoReport& root = result.full_set_report;
    if (root.connected && root.escape_everywhere) {
      state.emplace(states);
      if (greedy_search(*state, result, options.greedy_budget)) return result;
    } else if (options.greedy_budget > 0) {
      count_greedy_expansion();
    }
  }

  // Stage 5: exhaustive enumeration for tiny networks.
  if (channels <= options.exhaustive_channel_limit) {
    const obs::PhaseTimer timer("search_exhaustive");
    if (!state) state.emplace(states);
    std::vector<bool> c1(channels);
    for (std::uint64_t mask = 1; mask + 1 < (1ULL << channels); ++mask) {
      for (ChannelId c = 0; c < channels; ++c) c1[c] = (mask >> c) & 1;
      ++result.candidates_tried;
      if (auto* probe = obs::checker_probe()) ++probe->subfunction_candidates;
      state->assign(c1);
      std::optional<DuatoReport> report = check_gated(*state, "exhaustive");
      if (report && report->holds()) {
        result.found = true;
        result.c1 = std::move(c1);
        result.report = std::move(*report);
        return result;
      }
    }
    result.exhaustive_complete = true;
  }
  return result;
}

}  // namespace wormnet::cdg
