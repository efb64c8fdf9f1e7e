// EXP-D — indirect dependencies cannot be omitted.
//
// The incoherent 4-node example with the minimal channels as escape set C1:
// the DIRECT dependency graph of R1 is acyclic — a checker that stopped at
// direct dependencies (pre-extended-CDG reasoning) would certify the
// relation.  The detour channels cA1/cB2 (outside C1) create an INDIRECT
// self-dependency cL2 -> (cA1) -> cL2 that closes a cycle, and under the
// wait-for-one-specific-channel discipline the simulator reproduces a real
// deadlock from exactly this structure.  Wait-on-any survives (the waiting-
// graph machinery explains why) — showing the coherence/waiting assumptions
// delimiting the condition's exact scope.
#include <iostream>

#include "wormnet/wormnet.hpp"

int main() {
  using namespace wormnet;

  const topology::Topology topo = routing::make_incoherent_net();
  const auto ch = routing::incoherent_channels(topo);
  const routing::IncoherentRouting wait_any(topo, false);
  const routing::IncoherentRouting wait_one(topo, true);

  std::cout << "EXP-D: indirect dependencies matter (incoherent example)\n\n";

  const cdg::StateGraph states(topo, wait_any);
  std::vector<bool> c1(topo.num_channels(), true);
  c1[ch.cA1] = false;
  c1[ch.cB2] = false;
  const cdg::Subfunction sub(states, c1, "minimal channels (no detours)");
  const cdg::ExtendedCdg ecdg = cdg::build_extended_cdg(sub);

  util::Table table({"graph", "edges", "cyclic", "note"});
  table.add_row({"direct-only dependency graph of R1",
                 std::to_string(ecdg.direct_edges),
                 util::fmt_bool(ecdg.direct_graph().has_cycle()),
                 "a direct-only checker would say \"safe\""});
  table.add_row({"extended CDG (direct + indirect)",
                 std::to_string(ecdg.graph.num_edges()),
                 util::fmt_bool(ecdg.graph.has_cycle()),
                 std::string("indirect self-dep cL2->cL2 via cA1: ") +
                     util::fmt_bool(ecdg.graph.has_edge(ch.cL2, ch.cL2))});
  table.print(std::cout);

  std::cout << "\nR1 connected: " << util::fmt_bool(sub.connected())
            << ", escape everywhere: "
            << util::fmt_bool(sub.escape_everywhere()) << ", indirect edges: "
            << ecdg.indirect_edges << "\n\n";

  // The danger is real: with wait-specific semantics, replaying a True
  // Cycle of the waiting graph wedges the simulator.
  const cdg::StateGraph states_one(topo, wait_one);
  const cwg::Cwg graph_one = cwg::build_cwg(states_one);
  const cwg::CycleSurvey survey = cwg::survey_cycles(states_one, graph_one);
  util::Table sims({"wait discipline", "static cwg verdict", "simulation"});
  {
    const core::Verdict v =
        core::verify(topo, wait_one, {.method = core::Method::kCwg});
    std::string sim_result = "-";
    for (const auto& cycle : survey.cycles) {
      if (cycle.kind != cwg::CycleKind::kTrue) continue;
      const auto stats = core::replay_witness(topo, wait_one, cycle);
      sim_result = stats.deadlocked ? "DEADLOCK (witness replay)"
                                    : "no deadlock";
      break;
    }
    sims.add_row({"wait-specific", core::to_string(v.conclusion), sim_result});
  }
  {
    const core::Verdict v =
        core::verify(topo, wait_any, {.method = core::Method::kCwg});
    sim::SimConfig cfg;
    cfg.injection_rate = 0.6;
    cfg.packet_length = 12;
    cfg.warmup_cycles = 0;
    cfg.measure_cycles = 20000;
    cfg.drain_cycles = 8000;
    cfg.seed = 3;
    const auto stats = sim::run(topo, wait_any, cfg);
    sims.add_row({"wait-on-any", core::to_string(v.conclusion),
                  stats.deadlocked ? "DEADLOCK" : "all delivered"});
  }
  sims.print(std::cout);

  // Cross dependencies are load-bearing too: a per-destination escape
  // (ICPP'94's generalization) that is connected and pair-by-pair acyclic is
  // rejected only because cross dependencies close the cycle — on a relation
  // that genuinely deadlocks.
  std::cout << "\ncross dependencies (per-destination escape on unrestricted "
               "2-VC ring):\n";
  {
    const topology::Topology ring = topology::make_unidirectional_ring(4, 2);
    const routing::UnrestrictedMinimal unrestricted(ring);
    const routing::DatelineRouting dateline(ring);
    const cdg::StateGraph ring_states(ring, unrestricted);
    const cdg::Subfunction per_dest = cdg::per_destination_from_escape(
        ring_states, dateline, "dateline-per-dest");
    const cdg::ExtendedCdg ring_ecdg = cdg::build_extended_cdg(per_dest);
    std::cout << "  connected: " << util::fmt_bool(per_dest.connected())
              << ", direct " << ring_ecdg.direct_edges << ", indirect "
              << ring_ecdg.indirect_edges << ", CROSS "
              << ring_ecdg.cross_edges << ", cyclic "
              << util::fmt_bool(ring_ecdg.graph.has_cycle())
              << "  (relation deadlocks; cross edges catch it)\n";
  }

  // For scale: the indirect-edge population on a real construction.
  std::cout << "\nindirect-edge population on duato-adaptive(mesh 6x6, 2 "
               "VCs):\n";
  const topology::Topology mesh = topology::make_mesh({6, 6}, 2);
  const auto duato = routing::make_duato_mesh(mesh);
  const cdg::StateGraph mesh_states(mesh, *duato);
  std::vector<bool> escape(mesh.num_channels(), false);
  for (topology::ChannelId c = 0; c < mesh.num_channels(); ++c) {
    if (mesh.channel(c).vc == 0) escape[c] = true;
  }
  const cdg::Subfunction mesh_sub(mesh_states, escape, "vc0");
  const cdg::ExtendedCdg mesh_ecdg = cdg::build_extended_cdg(mesh_sub);
  std::cout << "  direct " << mesh_ecdg.direct_edges << ", indirect "
            << mesh_ecdg.indirect_edges << ", acyclic "
            << util::fmt_bool(!mesh_ecdg.graph.has_cycle()) << "\n";
  std::cout << "\nexpected shape: direct-only acyclic but extended cyclic on "
               "the example;\nwait-specific deadlocks, wait-on-any survives; "
               "real constructions carry\nsubstantial indirect-edge "
               "populations yet stay acyclic.\n";
  return 0;
}
