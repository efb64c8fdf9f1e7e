#include "wormnet/obs/postmortem.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "wormnet/cdg/cdg_builder.hpp"
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

std::vector<RuntimeCycle> extract_wait_cycles(
    const std::vector<sim::BlockedPacket>& blocked,
    const std::function<sim::PacketId(topology::ChannelId)>& owner_of,
    const std::function<const std::vector<topology::ChannelId>&(
        sim::PacketId)>& path_of) {
  using sim::kNoPacket;
  using sim::PacketId;
  using topology::ChannelId;

  // Greatest-fixpoint knot, mirroring find_wait_cycle()'s semantics exactly
  // (including self-waits being permanent) but over an *ordered* map so every
  // walk below starts from the smallest unvisited packet id and the whole
  // extraction is deterministic enough to golden-test.
  std::map<PacketId, const sim::BlockedPacket*> in_set;
  for (const auto& b : blocked) in_set.emplace(b.packet, &b);

  bool changed = true;
  while (changed && !in_set.empty()) {
    changed = false;
    for (auto it = in_set.begin(); it != in_set.end();) {
      bool all_held_inside = true;
      for (const ChannelId c : it->second->waiting_on) {
        const PacketId owner = owner_of(c);
        if (owner == it->first) continue;  // self-wait: can never resolve
        if (owner == kNoPacket || !in_set.count(owner)) {
          all_held_inside = false;
          break;
        }
      }
      if (!all_held_inside) {
        it = in_set.erase(it);
        changed = true;
      } else {
        ++it;
      }
    }
  }

  // One deterministic walk per unvisited knot packet: follow "first waiting
  // channel held by a set member" edges until a packet repeats, exactly as
  // the live detector does, then keep the closed portion.  Distinct walks can
  // funnel into an already-reported cycle (a wait *tail* leading into it);
  // those re-discoveries are dropped.
  std::vector<RuntimeCycle> cycles;
  std::set<PacketId> visited;
  std::set<PacketId> reported;
  for (const auto& [start, unused] : in_set) {
    if (visited.count(start)) continue;
    std::map<PacketId, std::size_t> position;
    std::vector<std::pair<PacketId, ChannelId>> walk;
    PacketId current = start;
    while (!position.count(current)) {
      position[current] = walk.size();
      const sim::BlockedPacket* bp = in_set.at(current);
      PacketId next = kNoPacket;
      ChannelId via = topology::kInvalidChannel;
      for (const ChannelId c : bp->waiting_on) {
        const PacketId owner = owner_of(c);
        if (owner == current) {  // self-deadlock
          next = current;
          via = c;
          break;
        }
        if (owner != kNoPacket && in_set.count(owner)) {
          next = owner;
          via = c;
          break;
        }
      }
      walk.emplace_back(current, via);
      current = next;
    }
    for (const auto& [p, via] : walk) visited.insert(p);

    std::vector<std::pair<PacketId, ChannelId>> cyc(
        walk.begin() + static_cast<std::ptrdiff_t>(position[current]),
        walk.end());
    const bool fresh =
        std::none_of(cyc.begin(), cyc.end(),
                     [&](const auto& hop) { return reported.count(hop.first); });
    if (!fresh) continue;
    for (const auto& [p, via] : cyc) reported.insert(p);

    // Hop i's chain: packet p_i's acquired-path suffix from the channel the
    // previous hop waits on (p_i owns it, so it sits somewhere on p_i's path)
    // through p_i's head channel.  Concatenated chains close into a static
    // channel cycle: within a chain consecutive channels are path-contiguity
    // CDG edges, and chain end -> next chain start is the wait CDG edge.
    RuntimeCycle rc;
    const std::size_t k = cyc.size();
    rc.hops.resize(k);
    for (std::size_t i = 0; i < k; ++i) {
      CycleHop& hop = rc.hops[i];
      hop.packet = cyc[i].first;
      hop.waits_for = cyc[i].second;
      const ChannelId held = cyc[(i + k - 1) % k].second;
      const std::vector<ChannelId>& path = path_of(hop.packet);
      auto from = std::find(path.begin(), path.end(), held);
      if (from == path.end()) from = path.begin();  // defensive; cannot happen
      hop.chain.assign(from, path.end());
    }
    cycles.push_back(std::move(rc));
  }
  return cycles;
}

PostmortemReport cross_reference(const cdg::StateGraph& states,
                                 const cdg::SearchResult& search,
                                 const RuntimePostmortem& runtime,
                                 std::string topology, std::string routing) {
  PostmortemReport report;
  report.topology = std::move(topology);
  report.routing = std::move(routing);
  report.certified = search.found;
  report.runtime = runtime;

  const graph::Digraph cdg_graph = cdg::build_cdg(states);
  std::optional<cdg::ExtendedCdg> ecdg;
  if (search.found) {
    report.subfunction = search.report.subfunction_label;
    const cdg::Subfunction sub(states, search.c1,
                               search.report.subfunction_label);
    ecdg = cdg::build_extended_cdg(sub);
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
                       topology::ChannelId c) {
  w.begin_object();
  w.field("id", static_cast<std::uint32_t>(c));
  w.field("name", topo.channel_name(c));
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
  w.field("routing", report.routing);
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
      w.begin_object();
      w.field("id", static_cast<std::uint32_t>(node.waiting_on[i]));
      w.field("name", topo.channel_name(node.waiting_on[i]));
      if (i < node.owners.size() && node.owners[i] != sim::kNoPacket) {
        w.field("owner", static_cast<std::uint32_t>(node.owners[i]));
      }
      w.end_object();
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
