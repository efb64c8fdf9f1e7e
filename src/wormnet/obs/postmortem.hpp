// Deadlock postmortems: structured artifacts tying an observed runtime
// deadlock back to the static dependency graphs the paper reasons about.
//
// When the simulator halts on a wait-for cycle, trips its watchdog, or
// exhausts a packet's retry budget, it captures a `RuntimePostmortem`: the
// terminal wait-for graph, every wait cycle in the terminal knot (the live
// detector reports just one), and the flight-recorder tail leading up to the
// event, and the relation live at that cycle.  `cross_reference()` then
// lifts each runtime cycle into that relation's static channel dependency
// graph — each blocked packet contributes its acquired path suffix, each
// wait contributes one more dependency edge, and the concatenation closes
// into a static channel cycle — and classifies every edge against the
// relation's verdict: part of the certified escape subfunction's extended
// CDG ("escape", with its direct/indirect/cross kind), or outside it
// ("adaptive").
//
// The punchline field is `contradiction`: a Duato-certified live relation
// whose runtime cycle is confined to escape edges would witness the paper's
// theorem failing (acyclic extended CDG yet a deadlock inside C1) — the
// differential property turned into an explainable artifact.  On an
// uncertified relation the report instead *explains* the deadlock: the
// concrete CDG cycle no escape structure breaks.
//
// Artifacts serialize via write_postmortem_json() (byte-deterministic,
// channel names embedded so `wormnet-explain` needs no topology access).
#pragma once

#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "wormnet/cdg/states.hpp"
#include "wormnet/graph/digraph.hpp"
#include "wormnet/obs/flight.hpp"
#include "wormnet/sim/deadlock_detector.hpp"

namespace wormnet::obs {

enum class PostmortemReason : std::uint8_t {
  kWaitCycle,       ///< the wait-for-graph detector found a knot
  kWatchdog,        ///< global no-progress watchdog fired
  kRetryExhausted,  ///< a packet ran out of abort-retry budget
};

[[nodiscard]] const char* to_string(PostmortemReason reason) noexcept;

/// One blocked packet in the terminal wait-for graph.
struct WaitForNode {
  sim::PacketId packet = sim::kNoPacket;
  topology::NodeId node = 0;  ///< where the blocked header sits
  /// Last channel the packet acquired (kInvalidChannel while source-queued).
  topology::ChannelId occupies = topology::kInvalidChannel;
  std::vector<topology::ChannelId> waiting_on;
  /// Owner of each waiting channel, parallel to waiting_on (kNoPacket=free).
  std::vector<sim::PacketId> owners;
};

/// One packet's contribution to a runtime wait cycle.
struct CycleHop {
  sim::PacketId packet = sim::kNoPacket;
  /// The channel this packet waits on — owned by the next hop's packet.
  topology::ChannelId waits_for = topology::kInvalidChannel;
  /// This packet's acquired-path suffix, from the channel the *previous*
  /// hop waits on (which this packet owns) through its head channel.  The
  /// concatenation of all hops' chains is a closed static channel cycle:
  /// consecutive chain channels are path-contiguity dependencies, and each
  /// chain end -> next chain start is the wait dependency.
  std::vector<topology::ChannelId> chain;
};

struct RuntimeCycle {
  std::vector<CycleHop> hops;

  /// The induced static channel cycle (concatenated hop chains, in order).
  [[nodiscard]] std::vector<topology::ChannelId> channel_cycle() const;
};

/// Everything the simulator knows at the moment of a terminal event.
struct RuntimePostmortem {
  PostmortemReason reason = PostmortemReason::kWaitCycle;
  std::uint64_t cycle = 0;  ///< simulation cycle of the event
  /// The packet a recovery policy aborted (kNoPacket under halt).
  sim::PacketId victim = sim::kNoPacket;
  std::vector<WaitForNode> wait_for;
  std::vector<RuntimeCycle> cycles;
  std::vector<FlightEvent> flight_tail;
  std::uint64_t flight_recorded = 0;
  std::uint64_t flight_dropped = 0;
  /// The relation live at `cycle` (reconfig::RelationExpr text; see
  /// Simulator::stamp_relation) and, when the run has cutovers, the
  /// transition's steady state: transition provenance's new relation.
  std::string relation;
  std::string steady_state;
};

/// Lifts one knot cycle (an element of sim::WaitAnalysis::cycles()) into a
/// runtime cycle: hop i's chain is its packet's acquired path `paths[i]`
/// from the channel hop i-1 waits on (which that packet holds) through its
/// head channel.
[[nodiscard]] RuntimeCycle lift_wait_cycle(
    const std::vector<sim::WaitHop>& hops,
    const std::vector<std::span<const topology::ChannelId>>& paths);

/// One static-CDG edge of a lifted runtime cycle, classified.
struct EdgeXref {
  topology::ChannelId from = topology::kInvalidChannel;
  topology::ChannelId to = topology::kInvalidChannel;
  /// True iff the edge exists in the plain CDG of the live relation.  A
  /// correctly lifted cycle has this true on every edge — each hop is either
  /// a path-contiguity dependency or a wait dependency.
  bool in_cdg = false;
  /// True iff the edge belongs to the certified escape subfunction's
  /// extended CDG (both endpoints in C1 and the dependency survives there).
  bool escape = false;
  /// DepKind name for escape edges ("direct", "indirect", "direct-cross",
  /// "indirect-cross"); "adaptive" for everything outside the escape ECDG.
  std::string kind = "adaptive";
  /// Transition provenance, set only by classify_transition_origins():
  /// "old-only" / "new-only" / "shared" against the pure old/new relations'
  /// CDGs, "neither" when the edge exists in neither (a lifting artifact).
  /// Empty on non-transition postmortems — and then omitted from the JSON.
  std::string origin;
};

/// A runtime cycle lifted into the static graphs.
struct CycleXref {
  std::vector<sim::PacketId> packets;           ///< hop packets, in order
  std::vector<topology::ChannelId> channels;    ///< the static channel cycle
  std::vector<EdgeXref> edges;                  ///< edge i: channels[i] -> channels[(i+1)%n]
  bool maps_to_cdg = false;      ///< every edge exists in the plain CDG
  bool escape_confined = false;  ///< every edge is an escape edge
  bool contradiction = false;    ///< certified AND escape_confined
  /// The transition hazard signature: the cycle uses at least one old-only
  /// AND at least one new-only edge, so neither pure relation contains it —
  /// only the union crossed mid-switch does.  Meaningful (and serialized)
  /// only after classify_transition_origins().
  bool union_crossing = false;
};

struct PostmortemReport {
  std::string topology;  ///< topology spec the run used
  std::string relation;  ///< RuntimePostmortem::relation: the live epoch
  /// The live relation's Duato verdict: a qualifying subfunction exists.
  bool certified = false;
  std::string subfunction;  ///< label of the certified escape set, if any
  RuntimePostmortem runtime;
  std::vector<CycleXref> cycles;  ///< parallel to runtime.cycles
  bool contradiction = false;     ///< any cycle flagged the contradiction
  /// True once classify_transition_origins() annotated the report; gates
  /// the origin / union_crossing fields in the JSON so non-transition
  /// artifacts stay byte-identical to pre-reconfig ones.
  bool transition = false;
};

/// Lifts every runtime cycle into the static CDG of `states`, the state
/// graph of the relation `runtime.relation` names, and classifies the edges
/// against the extended CDG of its certified escape subfunction `c1`
/// (ascending) labelled `subfunction`.  An empty `c1` means uncertified:
/// every edge then classifies as adaptive.
[[nodiscard]] PostmortemReport cross_reference(
    const cdg::StateGraph& states, std::span<const topology::ChannelId> c1,
    std::string subfunction, const RuntimePostmortem& runtime,
    std::string topology);

/// Annotates an already cross-referenced report with transition provenance:
/// every lifted edge is classified against the CDGs of the pure old and new
/// relations ("old-only" / "new-only" / "shared" / "neither"), and each
/// cycle gains the union_crossing flag — the reconfiguration hazard where a
/// deadlock cycle needs edges from BOTH relations, so it exists in the
/// mid-switch union but in neither steady state.  Build the inputs with
/// cdg::build_cdg(topo, old_relation) / (topo, new_relation).
void classify_transition_origins(PostmortemReport& report,
                                 const graph::Digraph& old_cdg,
                                 const graph::Digraph& new_cdg);

/// Deterministic JSON rendering (channel names from `topo` are embedded so
/// the artifact is self-contained for wormnet-explain).
void write_postmortem_json(std::ostream& os, const topology::Topology& topo,
                           const PostmortemReport& report);

}  // namespace wormnet::obs
