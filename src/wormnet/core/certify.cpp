#include "wormnet/core/certify.hpp"

#include <algorithm>

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

/// The certified certificate of a found subfunction: C1 and the search's
/// topological order of its extended CDG, filtered to C1.  nullopt when the
/// report carries no order over C1 (the checker claims acyclicity without
/// one).
std::optional<Certificate> certify_subfunction(const StateGraph& states,
                                               const std::vector<bool>& c1,
                                               const cdg::DuatoReport& report) {
  Certificate cert = header(states, audit::CertKind::kCertified, "duato");
  cert.subfunction = report.subfunction_label;
  for (ChannelId c = 0; c < c1.size(); ++c) {
    if (c1[c]) cert.escape_channels.push_back(c);
  }
  for (const graph::Vertex v : report.topological_order) {
    if (c1[v]) cert.topological_order.push_back(v);
  }
  if (cert.topological_order.size() != cert.escape_channels.size()) {
    return std::nullopt;
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
    return certify_subfunction(states, search.c1, search.report);
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
