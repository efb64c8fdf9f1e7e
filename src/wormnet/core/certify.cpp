#include "wormnet/core/certify.hpp"

#include <algorithm>

#include "wormnet/cdg/extended_cdg.hpp"
#include "wormnet/cdg/subfunction.hpp"

namespace wormnet::core {
namespace {

using audit::Certificate;
using cdg::StateGraph;
using topology::ChannelId;
using topology::NodeId;

Certificate header(const StateGraph& states, audit::CertKind kind,
                   std::string_view method) {
  Certificate cert;
  cert.kind = kind;
  cert.method = method;
  cert.topology = states.topo().name();
  cert.relation = states.routing().name();
  cert.num_nodes = states.topo().num_nodes();
  cert.num_channels =
      static_cast<std::uint32_t>(states.topo().num_channels());
  return cert;
}

/// Escape path src -> dest for every source, as next-hop channels chosen by
/// a reverse BFS over supplied C1 hops (the same "supplied" notion the
/// subfunction connectivity check uses: a first hop of the relation, or a
/// reachable mid-route state).  next[u] == kInvalidChannel marks failure.
std::vector<ChannelId> escape_next_hops(const StateGraph& states,
                                        const std::vector<bool>& c1,
                                        NodeId dest) {
  const topology::Topology& topo = states.topo();
  std::vector<ChannelId> next(topo.num_nodes(), topology::kInvalidChannel);
  std::vector<bool> done(topo.num_nodes(), false);
  done[dest] = true;
  std::vector<NodeId> stack{dest};
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    for (ChannelId c : topo.in_channels(v)) {
      const NodeId u = topo.channel(c).src;
      if (done[u] || u == dest || !c1[c]) continue;
      const auto first_hops = states.injection(u, dest);
      const bool supplied =
          states.reachable(c, dest) ||
          std::ranges::find(first_hops, c) != first_hops.end();
      if (supplied) {
        done[u] = true;
        next[u] = c;
        stack.push_back(u);
      }
    }
  }
  return next;
}

std::optional<Certificate> certify_subfunction(const StateGraph& states,
                                               const std::vector<bool>& c1,
                                               const std::string& label) {
  const topology::Topology& topo = states.topo();
  const std::size_t channels = topo.num_channels();
  const NodeId nodes = topo.num_nodes();

  Certificate cert = header(states, audit::CertKind::kCertified, "duato");
  cert.subfunction = label;
  for (ChannelId c = 0; c < channels; ++c) {
    if (c1[c]) cert.escape_channels.push_back(c);
  }

  const cdg::Subfunction sub(states, c1, label);
  const cdg::ExtendedCdg ecdg = cdg::build_extended_cdg(sub);
  const auto order = ecdg.graph.topological_order();
  if (!order) return std::nullopt;  // checker said acyclic but it is not
  for (const graph::Vertex v : *order) {
    if (c1[v]) cert.topological_order.push_back(v);
  }

  for (NodeId dest = 0; dest < nodes; ++dest) {
    for (ChannelId c = 0; c < channels; ++c) {
      if (!states.reachable(c, dest) || topo.channel(c).dst == dest) continue;
      ChannelId via = topology::kInvalidChannel;
      for (ChannelId next : states.successors(c, dest)) {
        if (c1[next]) {
          via = next;
          break;
        }
      }
      if (via == topology::kInvalidChannel) return std::nullopt;
      cert.escapes.push_back({c, dest, via});
    }
    const std::vector<ChannelId> next = escape_next_hops(states, c1, dest);
    for (NodeId src = 0; src < nodes; ++src) {
      if (src == dest) continue;
      ChannelId via = topology::kInvalidChannel;
      for (ChannelId c : states.injection(src, dest)) {
        if (c1[c]) {
          via = c;
          break;
        }
      }
      if (via == topology::kInvalidChannel) return std::nullopt;
      cert.injection_escapes.push_back({src, dest, via});

      audit::WitnessPath path;
      path.src = src;
      path.dest = dest;
      for (NodeId at = src; at != dest;) {
        const ChannelId hop = next[at];
        if (hop == topology::kInvalidChannel) return std::nullopt;
        path.path.push_back(hop);
        at = topo.channel(hop).dst;
      }
      cert.witness_paths.push_back(std::move(path));
    }
  }
  return cert;
}

}  // namespace

std::optional<audit::Certificate> certify_dependency_cycle(
    const StateGraph& states, const std::vector<topology::ChannelId>& cycle,
    std::string_view method) {
  if (cycle.empty()) return std::nullopt;
  const topology::Topology& topo = states.topo();
  Certificate cert = header(states, audit::CertKind::kRefuted, method);
  cert.evidence = audit::Evidence::kDependencyCycle;
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    const ChannelId from = cycle[i];
    const ChannelId to = cycle[(i + 1) % cycle.size()];
    // Attribute the edge to some destination whose reachable state supplies
    // it — one must exist for a genuine CDG edge.
    NodeId dest = topo.num_nodes();
    for (NodeId d = 0; d < topo.num_nodes() && dest == topo.num_nodes();
         ++d) {
      if (!states.reachable(from, d) || topo.channel(from).dst == d) continue;
      const auto succ = states.successors(from, d);
      if (std::find(succ.begin(), succ.end(), to) != succ.end()) dest = d;
    }
    if (dest == topo.num_nodes()) return std::nullopt;
    cert.cycle.push_back({from, to, dest, {}});
  }
  return cert;
}

std::optional<audit::Certificate> certify_duato(
    const StateGraph& states, const cdg::SearchResult& search) {
  if (search.found) {
    return certify_subfunction(states, search.c1,
                               search.report.subfunction_label);
  }
  if (!search.exhaustive_complete || !cdg::condition_exact(states)) {
    return std::nullopt;
  }
  auto cert = certify_dependency_cycle(
      states, search.full_set_report.witness_cycle, "duato");
  if (cert) cert->subfunction = "none (exhaustive search)";
  return cert;
}

std::optional<audit::Certificate> certify_wait_cycle(
    const StateGraph& states, const cwg::ClassifiedCycle& cycle) {
  if (cycle.kind != cwg::CycleKind::kTrue ||
      cycle.witness_paths.size() != cycle.channels.size() ||
      cycle.witness_dests.size() != cycle.channels.size()) {
    return std::nullopt;
  }
  Certificate cert = header(states, audit::CertKind::kRefuted, "cwg");
  cert.evidence = audit::Evidence::kWaitCycle;
  for (std::size_t i = 0; i < cycle.channels.size(); ++i) {
    cert.cycle.push_back({cycle.channels[i],
                          cycle.channels[(i + 1) % cycle.channels.size()],
                          cycle.witness_dests[i], cycle.witness_paths[i]});
  }
  return cert;
}

audit::Certificate certify_not_wait_connected(
    const StateGraph& states, const cwg::WaitConnectivity& wait) {
  Certificate cert = header(states, audit::CertKind::kRefuted, "cwg");
  cert.evidence = audit::Evidence::kNotWaitConnected;
  cert.disconnection.at_injection = wait.at_injection;
  cert.disconnection.src = wait.src;
  cert.disconnection.channel =
      wait.at_injection ? 0 : wait.channel;
  cert.disconnection.dest = wait.dest;
  return cert;
}

}  // namespace wormnet::core
