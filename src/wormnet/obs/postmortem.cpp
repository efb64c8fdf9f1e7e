#include "wormnet/obs/postmortem.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "wormnet/cdg/cdg_builder.hpp"
#include "wormnet/cdg/extended_cdg.hpp"
#include "wormnet/obs/json.hpp"

namespace wormnet::obs {

const char* to_string(PostmortemReason reason) noexcept {
  switch (reason) {
    case PostmortemReason::kWaitCycle: return "wait_cycle";
    case PostmortemReason::kWatchdog: return "watchdog";
    case PostmortemReason::kRetryExhausted: return "retry_exhausted";
  }
  return "?";
}

std::vector<topology::ChannelId> RuntimeCycle::channel_cycle() const {
  std::vector<topology::ChannelId> out;
  for (const auto& hop : hops) {
    out.insert(out.end(), hop.chain.begin(), hop.chain.end());
  }
  return out;
}

RuntimeCycle lift_wait_cycle(
    const std::vector<sim::WaitHop>& hops,
    const std::vector<std::span<const topology::ChannelId>>& paths) {
  // Concatenated chains close into a static channel cycle: within a chain
  // consecutive channels are path-contiguity CDG edges, and chain end ->
  // next chain start is the wait CDG edge.
  RuntimeCycle rc;
  const std::size_t k = hops.size();
  rc.hops.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    CycleHop& hop = rc.hops[i];
    hop.packet = hops[i].packet;
    hop.waits_for = hops[i].waits_for;
    const topology::ChannelId held = hops[(i + k - 1) % k].waits_for;
    const std::span<const topology::ChannelId> path = paths[i];
    auto from = std::find(path.begin(), path.end(), held);
    if (from == path.end()) from = path.begin();  // defensive; cannot happen
    hop.chain.assign(from, path.end());
  }
  return rc;
}

PostmortemReport cross_reference(const cdg::StateGraph& states,
                                 std::span<const topology::ChannelId> c1,
                                 std::string subfunction,
                                 const RuntimePostmortem& runtime,
                                 std::string topology) {
  PostmortemReport report;
  report.topology = std::move(topology);
  report.relation = runtime.relation;
  report.certified = !c1.empty();
  report.runtime = runtime;

  const graph::Digraph cdg_graph = cdg::build_cdg(states);
  std::optional<cdg::ExtendedCdg> ecdg;
  if (report.certified) {
    std::vector<bool> escape(states.topo().num_channels(), false);
    for (const topology::ChannelId c : c1) escape[c] = true;
    ecdg = cdg::build_extended_cdg(
        cdg::Subfunction(states, std::move(escape), subfunction));
    report.subfunction = std::move(subfunction);
  }

  for (const auto& rc : runtime.cycles) {
    CycleXref x;
    for (const auto& hop : rc.hops) x.packets.push_back(hop.packet);
    x.channels = rc.channel_cycle();
    const std::size_t n = x.channels.size();
    x.maps_to_cdg = n > 0;
    x.escape_confined = n > 0;
    for (std::size_t i = 0; i < n; ++i) {
      EdgeXref e;
      e.from = x.channels[i];
      e.to = x.channels[(i + 1) % n];
      e.in_cdg = cdg_graph.has_edge(e.from, e.to);
      if (ecdg && ecdg->graph.has_edge(e.from, e.to)) {
        e.escape = true;
        e.kind = cdg::to_string(ecdg->kind(e.from, e.to));
      }
      x.maps_to_cdg = x.maps_to_cdg && e.in_cdg;
      x.escape_confined = x.escape_confined && e.escape;
      x.edges.push_back(std::move(e));
    }
    x.contradiction = report.certified && x.escape_confined;
    report.contradiction = report.contradiction || x.contradiction;
    report.cycles.push_back(std::move(x));
  }
  return report;
}

void classify_transition_origins(PostmortemReport& report,
                                 const graph::Digraph& old_cdg,
                                 const graph::Digraph& new_cdg) {
  report.transition = true;
  for (CycleXref& x : report.cycles) {
    bool any_old_only = false;
    bool any_new_only = false;
    for (EdgeXref& e : x.edges) {
      const bool in_old = old_cdg.has_edge(e.from, e.to);
      const bool in_new = new_cdg.has_edge(e.from, e.to);
      if (in_old && in_new) {
        e.origin = "shared";
      } else if (in_old) {
        e.origin = "old-only";
        any_old_only = true;
      } else if (in_new) {
        e.origin = "new-only";
        any_new_only = true;
      } else {
        e.origin = "neither";
      }
    }
    x.union_crossing = any_old_only && any_new_only;
  }
}

namespace {

void write_channel_ref(JsonWriter& w, const topology::Topology& topo,
                       topology::ChannelId c,
                       sim::PacketId owner = sim::kNoPacket) {
  w.begin_object();
  w.field("id", static_cast<std::uint32_t>(c));
  w.field("name", topo.channel_name(c));
  if (owner != sim::kNoPacket) {
    w.field("owner", static_cast<std::uint32_t>(owner));
  }
  w.end_object();
}

}  // namespace

void write_postmortem_json(std::ostream& os, const topology::Topology& topo,
                           const PostmortemReport& report) {
  const RuntimePostmortem& rt = report.runtime;
  JsonWriter w(os);
  w.begin_object();
  w.key("postmortem");
  w.begin_object();
  w.field("reason", to_string(rt.reason));
  w.field("cycle", rt.cycle);
  w.field("topology", report.topology);
  w.field("relation", report.relation);
  w.field("certified", report.certified);
  if (report.certified) w.field("subfunction", report.subfunction);
  if (rt.victim != sim::kNoPacket) {
    w.field("victim", static_cast<std::uint32_t>(rt.victim));
  }
  w.field("contradiction", report.contradiction);

  w.key("wait_for");
  w.begin_array();
  for (const WaitForNode& node : rt.wait_for) {
    w.begin_object();
    w.field("packet", static_cast<std::uint32_t>(node.packet));
    w.field("node", static_cast<std::uint32_t>(node.node));
    if (node.occupies != topology::kInvalidChannel) {
      w.key("occupies");
      write_channel_ref(w, topo, node.occupies);
    }
    w.key("waiting_on");
    w.begin_array();
    for (std::size_t i = 0; i < node.waiting_on.size(); ++i) {
      write_channel_ref(w, topo, node.waiting_on[i],
                        i < node.owners.size() ? node.owners[i]
                                               : sim::kNoPacket);
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.key("cycles");
  w.begin_array();
  for (std::size_t ci = 0; ci < report.cycles.size(); ++ci) {
    const CycleXref& x = report.cycles[ci];
    w.begin_object();
    w.key("packets");
    w.begin_array();
    for (const sim::PacketId p : x.packets) {
      w.number(static_cast<std::uint64_t>(p));
    }
    w.end_array();
    w.key("hops");
    w.begin_array();
    const RuntimeCycle* rc = ci < rt.cycles.size() ? &rt.cycles[ci] : nullptr;
    if (rc != nullptr) {
      for (const CycleHop& hop : rc->hops) {
        w.begin_object();
        w.field("packet", static_cast<std::uint32_t>(hop.packet));
        w.key("waits_for");
        write_channel_ref(w, topo, hop.waits_for);
        w.key("chain");
        w.begin_array();
        for (const topology::ChannelId c : hop.chain) {
          write_channel_ref(w, topo, c);
        }
        w.end_array();
        w.end_object();
      }
    }
    w.end_array();
    w.key("edges");
    w.begin_array();
    for (const EdgeXref& e : x.edges) {
      w.begin_object();
      w.field("from", topo.channel_name(e.from));
      w.field("to", topo.channel_name(e.to));
      w.field("in_cdg", e.in_cdg);
      w.field("escape", e.escape);
      w.field("kind", e.kind);
      if (report.transition) w.field("origin", e.origin);
      w.end_object();
    }
    w.end_array();
    w.field("maps_to_cdg", x.maps_to_cdg);
    w.field("escape_confined", x.escape_confined);
    w.field("contradiction", x.contradiction);
    if (report.transition) w.field("union_crossing", x.union_crossing);
    w.end_object();
  }
  w.end_array();

  w.key("flight");
  w.begin_object();
  w.field("recorded", rt.flight_recorded);
  w.field("dropped", rt.flight_dropped);
  w.key("tail");
  w.begin_array();
  for (const FlightEvent& ev : rt.flight_tail) {
    w.begin_object();
    w.field("cycle", ev.cycle);
    w.field("kind", ev.name());
    if (ev.packet != FlightEvent::kNone) w.field("packet", ev.packet);
    if (ev.channel != FlightEvent::kNone) {
      w.field("channel", topo.channel_name(ev.channel));
    }
    if (ev.aux != FlightEvent::kNone) w.field("aux", ev.aux);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.end_object();
  w.end_object();
  os << '\n';
}

}  // namespace wormnet::obs
