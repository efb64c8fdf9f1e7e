// Dependency-cycle rules:
//
//   WN002 extended-cdg-cyclic   no connected routing subfunction with an
//                               acyclic extended CDG was found; the witness
//                               is the base relation's dependency cycle with
//                               each edge classified
//   WN011 dateline-misconfigured a wraparound dimension keeps a dependency
//                               cycle among its own channels — the VC
//                               discipline never cuts the ring
#include <sstream>

#include "wormnet/cdg/cdg_builder.hpp"
#include "wormnet/lint/rules_internal.hpp"

namespace wormnet::lint::rules {

void extended_cdg_cyclic(LintContext& ctx, std::vector<Diagnostic>& out) {
  const cdg::SearchResult& search = ctx.duato_search();
  if (search.found) return;

  const bool in_scope = cdg::condition_exact(ctx.states());

  Diagnostic d;
  d.rule_id = "WN002";
  const cdg::DuatoReport& full = search.full_set_report;
  for (std::size_t i = 0; i < full.witness_cycle.size(); ++i) {
    CycleEdge edge;
    edge.from = full.witness_cycle[i];
    edge.to = full.witness_cycle[(i + 1) % full.witness_cycle.size()];
    edge.kind = i < full.witness_cycle_kinds.size()
                    ? full.witness_cycle_kinds[i]
                    : cdg::DepKind::kDirect;
    d.location.cycle.push_back(edge);
  }

  std::ostringstream os;
  if (search.exhaustive_complete && in_scope) {
    d.severity = Severity::kError;
    os << "no connected routing subfunction with an acyclic extended CDG "
          "exists (exhaustive search over every channel subset) — by the "
          "necessary-and-sufficient condition the relation is NOT "
          "deadlock-free";
  } else if (!in_scope) {
    d.severity = Severity::kWarning;
    os << "no connected routing subfunction with an acyclic extended CDG "
          "found (" << search.candidates_tried
       << " candidates tried); the relation is outside the condition's "
          "exact scope (input-dependent, wait-specific, or nonminimal), so "
          "this does not prove deadlock — but deadlock freedom is not "
          "certified either";
  } else {
    // In scope but the search ran out of budget: absence of a certificate is
    // not a proof of deadlock, so this stays below error.  CI that wants to
    // insist on certifiability runs with --fail-on warning.
    d.severity = Severity::kWarning;
    os << "no connected routing subfunction with an acyclic extended CDG "
          "found within budget (" << search.candidates_tried
       << " candidates tried) — deadlock freedom is NOT certified";
  }
  if (!d.location.cycle.empty()) {
    os << "; base dependency cycle left unbroken follows";
  }
  d.message = os.str();
  out.push_back(std::move(d));
}

void dateline_misconfigured(LintContext& ctx, std::vector<Diagnostic>& out) {
  const Topology& topo = ctx.topo();
  if (!topo.is_cube()) return;
  bool any_wrap = false;
  for (std::size_t dim = 0; dim < topo.num_dims(); ++dim) {
    any_wrap = any_wrap || topo.cube().wraps[dim];
  }
  if (!any_wrap) return;

  // Examine the escape layer when the routing designates one (the adaptive
  // layer is *allowed* to cycle); otherwise the relation itself.
  const bool layered = ctx.duato_layers() != nullptr;
  const cdg::StateGraph& states =
      layered ? ctx.escape_states() : ctx.states();
  const graph::Digraph cdg_graph = cdg::build_cdg(states);

  for (std::size_t dim = 0; dim < topo.num_dims(); ++dim) {
    if (!topo.cube().wraps[dim]) continue;
    for (const topology::Direction dir :
         {topology::Direction::kPos, topology::Direction::kNeg}) {
      if (topo.cube().unidirectional && dir == topology::Direction::kNeg) {
        continue;
      }
      // Restrict the CDG to this dimension+direction's channels: a cycle
      // that survives the restriction lives entirely on the ring, which is
      // exactly the dependency the dateline VC switch is supposed to cut.
      std::vector<ChannelId> members;
      std::vector<std::uint32_t> local(topo.num_channels(),
                                       topology::kInvalidChannel);
      for (ChannelId c = 0; c < topo.num_channels(); ++c) {
        const topology::Channel& ch = topo.channel(c);
        if (ch.dim == dim && ch.dir == dir) {
          local[c] = static_cast<std::uint32_t>(members.size());
          members.push_back(c);
        }
      }
      graph::Digraph ring(members.size());
      for (ChannelId c : members) {
        for (graph::Vertex to : cdg_graph.out(c)) {
          if (local[to] != topology::kInvalidChannel) {
            ring.add_edge(local[c], local[to]);
          }
        }
      }
      const auto cycle = ring.find_cycle();
      if (!cycle) continue;
      Diagnostic d;
      d.rule_id = "WN011";
      d.severity = Severity::kWarning;
      std::ostringstream os;
      os << "wraparound dimension " << dim << " ("
         << (dir == topology::Direction::kPos ? "+" : "-") << ") retains a "
         << cycle->size() << "-channel dependency cycle among its own "
         << "channels — the " << (layered ? "escape layer's " : "")
         << "virtual-channel discipline never switches class across the "
            "dateline";
      d.message = os.str();
      d.location.channels.reserve(cycle->size());
      for (graph::Vertex v : *cycle) d.location.channels.push_back(members[v]);
      out.push_back(std::move(d));
    }
  }
}

}  // namespace wormnet::lint::rules
