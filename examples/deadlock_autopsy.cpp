// Deadlock autopsy: watch an unrestricted adaptive router wedge itself, then
// read the post-mortem the library produces.
//
// Runs unrestricted minimal routing on a 1-VC ring (the canonical deadlock)
// and on a 4x4 mesh under heavy load, prints the packet wait-for cycle the
// runtime detector found, and then shows that the static analysis predicted
// exactly this: the checker proves no escape subfunction exists (ring) and
// the simulator-confirmed cycle maps onto a static dependency cycle.
//
// The run is traced through an in-memory event sink, so after a deadlock we
// can also replay each wedged packet's last moments: when it blocked and
// which channels it was waiting on at that instant.
#include <iostream>
#include <vector>

#include "wormnet/wormnet.hpp"

namespace {

using namespace wormnet;

void autopsy(const topology::Topology& topo,
             const routing::RoutingFunction& routing, double rate,
             std::uint32_t length) {
  std::cout << "== " << routing.name() << " on " << topo.name() << " ==\n";

  // Static prediction first.
  const core::Verdict duato =
      core::verify(topo, routing, {.method = core::Method::kDuato});
  std::cout << "  static verdict: " << core::to_string(duato.conclusion)
            << " — " << duato.detail << "\n";

  // Now wedge it, keeping a bounded trace of recent events for the autopsy.
  obs::MemoryTraceSink trace(1u << 20);
  sim::SimConfig cfg;
  cfg.injection_rate = rate;
  cfg.packet_length = length;
  cfg.buffer_depth = 2;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 20000;
  cfg.drain_cycles = 5000;
  cfg.deadlock_check_interval = 64;
  cfg.seed = 99;
  cfg.trace = &trace;
  sim::Simulator sim(topo, routing, cfg);
  const sim::SimStats stats = sim.run();
  if (!stats.deadlocked) {
    std::cout << "  simulation: no deadlock observed (" << stats.summary()
              << ")\n\n";
    return;
  }
  std::cout << "  simulation: DEADLOCK at cycle " << stats.deadlock.cycle
            << "\n  wait-for cycle:\n";
  const auto& cyc = stats.deadlock;
  for (std::size_t i = 0; i < cyc.packet_cycle.size(); ++i) {
    const sim::Packet& pkt = sim.packet(cyc.packet_cycle[i]);
    std::cout << "    packet #" << pkt.id << " (" << pkt.src << " -> "
              << pkt.dst << ", holds";
    for (topology::ChannelId c : pkt.path) {
      if (sim.network().owner(c) == pkt.id) {
        std::cout << " " << topo.channel_name(c);
      }
    }
    std::cout << ") waits for " << topo.channel_name(cyc.blocked_channels[i])
              << "\n";
  }

  // Replay from the trace: each wedged packet's final block event gives the
  // cycle it stalled at and the full waiting set the allocator saw.
  std::cout << "  trace replay (from " << trace.total_emitted()
            << " recorded events):\n";
  const std::vector<obs::TraceEvent> events = trace.events();
  for (const sim::PacketId id : cyc.packet_cycle) {
    const obs::TraceEvent* last_block = nullptr;
    for (const obs::TraceEvent& ev : events) {
      if (ev.packet == id && ev.kind == obs::EventKind::kBlock) {
        last_block = &ev;
      }
    }
    if (!last_block) continue;  // block predates the ring buffer window
    std::cout << "    packet #" << id << " blocked since cycle "
              << last_block->cycle << " at node " << last_block->node
              << ", waiting on";
    for (const std::uint32_t c : last_block->list) {
      std::cout << " " << topo.channel_name(c);
    }
    std::cout << "\n";
  }
  std::cout << "\n";
}

}  // namespace

int main() {
  {
    const auto ring = topology::make_unidirectional_ring(4, 1);
    const routing::UnrestrictedMinimal routing(ring);
    autopsy(ring, routing, 0.9, 12);
  }
  {
    const auto mesh = topology::make_mesh({4, 4});
    const routing::UnrestrictedMinimal routing(mesh);
    autopsy(mesh, routing, 0.9, 24);
  }
  {
    // Control: the cured version of the same ring.
    const auto ring = topology::make_unidirectional_ring(4, 2);
    const routing::DatelineRouting routing(ring);
    autopsy(ring, routing, 0.9, 12);
  }
  return 0;
}
