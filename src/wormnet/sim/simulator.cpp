#include "wormnet/sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace wormnet::sim {
namespace {

/// Path slots each packet reserves at creation: routes of up to 8 hops (any
/// minimal route of an 8x8 torus) never regrow the path.
constexpr std::size_t kPathReserve = 8;

}  // namespace

Simulator::Simulator(const Topology& topo,
                     const routing::RoutingFunction& routing, SimConfig config)
    : topo_(&topo), routing_(&routing), config_(std::move(config)),
      epoch_(topo, routing, config_.schedule.get()),
      net_(topo),
      allocator_(topo, routing, config_.selection, config_.wait_override,
                 config_.seed ^ 0xa5a5a5a5ULL, &epoch_),
      traffic_(topo, config_.pattern, config_.seed),
      rng_(config_.seed ^ 0x5a5a5a5aULL), sources_(topo.num_nodes()),
      channel_moves_(topo.num_channels(), 0), trace_(config_.trace),
      metrics_(config_.metrics), flight_(config_.flight_capacity) {
  if (config_.schedule != nullptr &&
      (config_.schedule->num_channels != topo.num_channels() ||
       config_.schedule->num_nodes != topo.num_nodes())) {
    throw std::invalid_argument(
        "epoch schedule was built against a different topology");
  }
  gen_end_ = config_.warmup_cycles + config_.measure_cycles;

  // Scripted injections become a flat cursor-scanned vector sorted by
  // (inject_cycle, node, script order) — the firing order of the legacy
  // per-node scan (per-node lists stable-sorted by cycle, nodes ascending).
  have_script_ = !config_.script.empty();
  if (have_script_) {
    script_events_ = config_.script;
    std::stable_sort(script_events_.begin(), script_events_.end(),
                     [](const ScriptedPacket& a, const ScriptedPacket& b) {
                       if (a.inject_cycle != b.inject_cycle) {
                         return a.inject_cycle < b.inject_cycle;
                       }
                       return a.src < b.src;
                     });
    for (const ScriptedPacket& sp : script_events_) {
      max_inject_cycle_ = std::max(max_inject_cycle_, sp.inject_cycle);
    }
  }

  // Epoch steps are known up front; queue them all, in schedule order
  // (identity plans compiled to zero steps queue nothing and leave the run
  // bit-identical to no plan).
  if (config_.schedule != nullptr) {
    const auto& steps = config_.schedule->steps;
    timed_.reserve(steps.size());
    for (std::uint32_t i = 0; i < steps.size(); ++i) {
      timed_.push(steps[i].cycle, TimedKind::kEpochStep, i);
    }
  }

  const std::size_t channels = topo.num_channels();
  const std::size_t nodes = topo.num_nodes();
  alloc_pending_.reset(channels);
  movable_.reset(channels);
  eject_ready_.reset(channels);
  ready_src_.reset(nodes);
  inject_srcs_.reset(nodes);
  eject_nodes_.reset(nodes);
  live_packets_.reset(0);
  links_touched_.reset(net_.links().size());
  std::size_t max_vcs = 0;
  for (const LinkGroup& link : net_.links()) {
    max_vcs = std::max(max_vcs, link.vcs.size());
  }
  link_stride_ = max_vcs + 1;
  link_cands_.resize(net_.links().size() * link_stride_);
  link_cand_count_.assign(net_.links().size(), 0);
  eject_count_.assign(nodes, 0);
  alloc_fresh_.reset(channels);
  src_fresh_.reset(nodes);
  waiters_.resize(channels);
  src_front_.assign(nodes, kNoPacket);
  chan_len_.assign(channels, 0);
  // Per-packet no-progress stamps are only ever read by the recovery
  // timeout scan; under the halt policy the writes are dead stores, so the
  // hot move loop skips them (the global watchdog stamp is separate).
  track_progress_ = config_.recovery.policy != ft::RecoveryPolicy::kHalt;

  if (metrics_) {
    epoch_moves_.assign(topo.num_channels(), 0);
    epoch_stalls_.assign(topo.num_channels(), 0);
    std::vector<std::string> names;
    names.reserve(topo.num_channels());
    for (ChannelId c = 0; c < topo.num_channels(); ++c) {
      names.push_back(topo.channel_name(c));
    }
    for (const char* series : {"channel_occupancy", "channel_stall_cycles",
                               "channel_utilization"}) {
      metrics_->series(series).set_labels(names);
    }
  }
}

void Simulator::touch_channel(ChannelId c) {
  const bool nonempty = net_.occupancy(c) > 0;
  const bool assigned = net_.out_assigned(c);
  const bool pending = nonempty && !assigned && net_.front_seq(c) == 0;
  if (pending) {
    // A channel (re)entering the pending set has a newly arrived header:
    // its first allocation attempt at this hop is still outstanding.
    if (alloc_pending_.insert(c)) alloc_fresh_.insert(c);
  } else if (alloc_pending_.erase(c)) {
    alloc_fresh_.erase(c);
  }

  movable_.assign(c, nonempty && net_.out_forward(c));

  const bool ej = nonempty && net_.out_eject(c);
  if (ej != eject_ready_.contains(c)) {
    const NodeId node = topo_->channel(c).dst;
    if (ej) {
      eject_ready_.insert(c);
      if (eject_count_[node]++ == 0) eject_nodes_.insert(node);
    } else {
      eject_ready_.erase(c);
      if (--eject_count_[node] == 0) eject_nodes_.erase(node);
    }
  }
}

void Simulator::touch_source(NodeId n) {
  const auto& queue = sources_[n].queue;
  if (queue.empty()) {
    ready_src_.erase(n);
    src_fresh_.erase(n);
    inject_srcs_.erase(n);
    src_front_[n] = kNoPacket;
    return;
  }
  const PacketId front = queue.front();
  const bool new_front = front != src_front_[n];
  src_front_[n] = front;
  const Packet& pkt = packets_[front];
  if (!pkt.injecting) {
    // A front only turns ready when it is new (a packet leaves the ready
    // state by injecting or by leaving the queue), so this is its arrival.
    ready_src_.insert(n);
    if (new_front) src_fresh_.insert(n);
    inject_srcs_.erase(n);
    return;
  }
  ready_src_.erase(n);
  src_fresh_.erase(n);
  if (pkt.flits_injected < pkt.length) {
    inject_srcs_.insert(n);
  } else {
    inject_srcs_.erase(n);
  }
}

PacketId Simulator::create_packet(NodeId src, NodeId dst, std::uint32_t length,
                                  std::vector<ChannelId> forced) {
  if (src == dst) {
    throw std::invalid_argument(
        "packet source equals destination (check scripted packets)");
  }
  Packet pkt;
  pkt.id = static_cast<PacketId>(packets_.size());
  pkt.src = src;
  pkt.dst = dst;
  pkt.length = std::max<std::uint32_t>(length, 1);
  pkt.created = cycle_;
  pkt.last_progress = cycle_;
  pkt.forced_path = std::move(forced);
  // One allocation for the acquired path, not a regrowth at hops 1, 2, 3
  // and 5 inside the allocation phase; longer paths still grow.
  pkt.path.reserve(kPathReserve);
  pkt.measured = cycle_ >= config_.warmup_cycles && cycle_ < gen_end_;
  ++stats_.packets_created;
  if (pkt.measured) ++stats_.measured_created;
  ++in_flight_;
  if (trace_) {
    emit({.kind = obs::EventKind::kPacketCreate, .cycle = cycle_,
          .packet = pkt.id, .node = src, .node2 = dst, .value = pkt.length,
          .flag = pkt.measured});
  }
  packets_.push_back(std::move(pkt));
  live_packets_.grow(packets_.size());
  live_packets_.insert(packets_.back().id);
  sources_[src].queue.push_back(packets_.back().id);
  touch_source(src);
  return packets_.back().id;
}

void Simulator::generate_traffic() {
  // A draining network accepts nothing: neither stochastic arrivals nor
  // scripted injections enter after the drain policy engages.
  if (draining_) return;
  // Scripted packets on their schedule.
  while (script_cursor_ < script_events_.size() &&
         script_events_[script_cursor_].inject_cycle <= cycle_) {
    const ScriptedPacket& sp = script_events_[script_cursor_++];
    create_packet(sp.src, sp.dst, sp.length, sp.forced_path);
    ++activity_;
  }
  if (config_.scripted_only) return;
  // Stochastic arrivals (stop offering new traffic after the measurement
  // window so the network can drain).
  if (cycle_ >= gen_end_) return;
  ++activity_;  // the traffic RNG advances every cycle the window is open
  const std::uint64_t threshold = util::Xoshiro256::chance_threshold(
      config_.injection_rate / static_cast<double>(config_.packet_length));
  const NodeId nodes = topo_->num_nodes();
  for (NodeId node = 0; node < nodes; ++node) {
    if (traffic_.arrival_below(threshold)) {
      if (auto dst = traffic_.destination(node)) {
        create_packet(node, *dst, config_.packet_length, {});
      }
    }
  }
}

void Simulator::wake_blocked() {
  alloc_pending_.for_each([this](std::uint32_t c) { alloc_fresh_.insert(c); });
  ready_src_.for_each([this](std::uint32_t n) { src_fresh_.insert(n); });
}

void Simulator::wake_waiters(ChannelId c) {
  std::vector<std::uint32_t>& list = waiters_[c];
  const std::uint32_t channels = net_.num_channels();
  for (const std::uint32_t w : list) {
    if (w < channels) {
      alloc_fresh_.insert_if(w, alloc_pending_.contains(w));
    } else {
      src_fresh_.insert_if(w - channels, ready_src_.contains(w - channels));
    }
  }
  list.clear();
}

void Simulator::add_waiter(std::uint32_t waiter) {
  for (const ChannelId c : allocator_.last_candidates()) {
    std::vector<std::uint32_t>& list = waiters_[c];
    if (std::find(list.begin(), list.end(), waiter) == list.end()) {
      list.push_back(waiter);
    }
  }
}

void Simulator::allocate_outputs() {
  // Rotating start offsets keep allocation order from starving anyone
  // (Assumption 5 of the system model).  Only fresh pending entries are
  // visited: a failed attempt is pure (no RNG, no state change after the
  // first at a hop), so a blocked header sits out until a release of a
  // channel it waits on (or wake_blocked) makes it fresh again.  Skipped
  // entries are exactly the certain failures, so the visit order, winners
  // and RNG draws match attempting every pending entry every cycle.
  const std::size_t nodes = topo_->num_nodes();
  const std::uint32_t channels = net_.num_channels();

  // Source (injection) allocation.
  if (!src_fresh_.empty()) {
    scratch_nodes_.clear();
    src_fresh_.collect_rotated(nodes ? cycle_ % nodes : 0, scratch_nodes_);
    for (const std::uint32_t node : scratch_nodes_) {
      src_fresh_.erase(node);
      ++activity_;
      Packet& pkt = packets_[sources_[node].queue.front()];
      if (attempt(pkt, kInvalidChannel, node)) {
        // Stamp the routing version the packet injects under: it keeps this
        // pure relation for its whole flight (in-flight coherence rule).
        pkt.route_version = epoch_.current(pkt.dst);
        pkt.injecting = true;
        pkt.first_injected = cycle_;
        touch_source(node);
      } else {
        add_waiter(channels + node);
      }
    }
  }

  // Header VC allocation at router inputs.
  if (!alloc_fresh_.empty()) {
    scratch_channels_.clear();
    alloc_fresh_.collect_rotated(channels ? cycle_ % channels : 0,
                                 scratch_channels_);
    for (const std::uint32_t c : scratch_channels_) {
      alloc_fresh_.erase(c);
      ++activity_;
      Packet& pkt = packets_[net_.owner(c)];
      const NodeId here = topo_->channel(c).dst;
      if (here == pkt.dst) {
        net_.assign_eject(c);
        touch_channel(c);
        continue;
      }
      if (auto acquired = attempt(pkt, c, here)) {
        net_.assign_output(c, *acquired);
        touch_channel(c);
      } else {
        add_waiter(c);
      }
    }
  }
}

std::optional<ChannelId> Simulator::attempt(Packet& pkt, ChannelId input,
                                            NodeId node) {
  ++alloc_attempts_;
  // One route-compute event per hop: blocked headers re-arbitrate, but only
  // the first evaluation at a hop is a routing decision.
  const bool route_event =
      trace_ != nullptr && pkt.trace_routes_emitted == pkt.path.size();
  const std::optional<ChannelId> acquired =
      allocator_.attempt(pkt, input, node, net_);
  if (route_event) {
    ++pkt.trace_routes_emitted;
    emit({.kind = obs::EventKind::kRouteCompute, .cycle = cycle_,
          .packet = pkt.id, .node = node, .channel2 = input,
          .value = allocator_.last_evaluated()});
  }
  if (acquired) {
    ++alloc_grants_;
    if (track_progress_) pkt.last_progress = cycle_;
    chan_len_[*acquired] = pkt.length;
    flight_.record_acquire(cycle_, pkt.id, *acquired, input);
    if (trace_) {
      trace_->emit({.kind = obs::EventKind::kVcAlloc, .cycle = cycle_,
                    .packet = pkt.id, .node = node, .channel = *acquired,
                    .channel2 = input});
    }
  }
  note_block_transition(pkt, input, node, acquired.has_value());
  return acquired;
}

void Simulator::note_block_transition(Packet& pkt, ChannelId input,
                                      NodeId node, bool acquired) {
  // Edge-triggered blocked/unblocked events.  The block event carries its
  // waiting set only for an attached sink: the recorder keeps the cheap edge
  // (packet, input channel, node), and the set costs an allocator query.
  if (!trace_ && flight_.capacity() == 0) return;
  if (acquired) {
    if (pkt.trace_blocked) {
      pkt.trace_blocked = false;
      if (trace_) {
        emit({.kind = obs::EventKind::kUnblock, .cycle = cycle_,
              .packet = pkt.id, .node = node,
              .value = cycle_ - pkt.trace_block_start});
      }
    }
    return;
  }
  if (!pkt.trace_blocked) {
    pkt.trace_blocked = true;
    pkt.trace_block_start = cycle_;
    obs::TraceEvent ev{.kind = obs::EventKind::kBlock, .cycle = cycle_,
                       .packet = pkt.id, .node = node, .channel2 = input};
    if (trace_) {
      const routing::ChannelSet waits = allocator_.blocked_on(pkt, input, node);
      ev.list.assign(waits.begin(), waits.end());
    }
    emit(ev);
  }
}

void Simulator::move_flits() {
  const bool in_window = cycle_ >= config_.warmup_cycles && cycle_ < gen_end_;

  // Candidates grouped by target physical link.  All credit checks read
  // occupancies before any mutation below, so they see start-of-cycle state.
  // Order within a link: forwarding channels ascending, then injections
  // ascending — the candidate order of the legacy full scan.  Every
  // candidate is written to its link's next slot and the count advances by
  // its credit bit, so a refused candidate is overwritten by the next one
  // (a link never stages more than link_stride_ candidates).  Counts are
  // zero on entry: the winner loop resets each as it consumes its link.
  const bool faults = epoch_.faults();
  const auto stage = [&](ChannelId from, NodeId src_node, ChannelId to) {
    // A dead channel accepts no new flits; anything already queued beyond
    // the dead link keeps draining toward its destination.
    const bool credit = (net_.occupancy(to) < config_.buffer_depth) &
                        !(faults && epoch_.is_dead(to));
    const std::size_t l = net_.link_index(to);
    std::uint32_t& count = link_cand_count_[l];
    assert(count < link_stride_);
    link_cands_[l * link_stride_ + count] = Move{from, src_node, to};
    count += credit;
    links_touched_.insert_if(l, credit);
  };
  movable_.for_each([&](std::uint32_t c) {
    stage(static_cast<ChannelId>(c), 0, net_.out(c));
  });
  inject_srcs_.for_each([&](std::uint32_t node) {
    const Packet& pkt = packets_[src_front_[node]];
    stage(kInvalidChannel, static_cast<NodeId>(node), pkt.path.front());
  });

  // A flit entered `to`.  A forwarding channel is movable whatever its
  // occupancy was; the first flit into an empty queue that is not forwarding
  // is a header (it needs allocation) or an ejecting worm's refill, and
  // takes the full recompute.
  const auto arrive = [this](ChannelId to) {
    const bool forwarding = net_.out_forward(to);
    movable_.insert_if(to, forwarding);
    if ((net_.occupancy(to) == 1) & !forwarding) touch_channel(to);
  };

  // One winner per physical link, round-robin, links in id order.  The
  // winner bodies never touch links_touched_, so it is iterated in place
  // and wiped wholesale afterwards (cheaper than an erase per link).
  if (!links_touched_.empty()) {
    links_touched_.for_each([&](std::uint32_t l) {
      std::uint32_t& count = link_cand_count_[l];
      LinkGroup& link = net_.links()[l];
      const Move m =
          link_cands_[l * link_stride_ + (count == 1 ? 0 : link.rr % count)];
      count = 0;
      ++link.rr;
      if (m.from == kInvalidChannel) {
        // Injection: the next flit of the source-front packet.
        Packet& pkt = packets_[src_front_[m.src_node]];
        const std::uint32_t seq = pkt.flits_injected++;
        const bool tail = seq + 1 == pkt.length;
        net_.push_flit(m.to);
        if (track_progress_) pkt.last_progress = cycle_;
        if (trace_) {
          if (seq == 0) {
            trace_->emit({.kind = obs::EventKind::kInject, .cycle = cycle_,
                          .packet = pkt.id, .node = m.src_node,
                          .channel = m.to});
          } else {
            trace_->emit({.kind = obs::EventKind::kLinkTraverse,
                          .cycle = cycle_, .packet = pkt.id, .channel = m.to,
                          .flag2 = tail});
          }
        }
        arrive(m.to);
        if (tail) {
          sources_[m.src_node].queue.pop_front();
          touch_source(m.src_node);
        }
      } else {
        // Mid-worm forwarding is pure SoA: owner id, sequence numbers and
        // the packet length (chan_len_, stamped at acquire) — the Packet
        // struct itself is untouched unless recovery needs progress stamps.
        const PacketId owner = net_.owner(m.from);
        const std::uint32_t seq = net_.pop_flit(m.from);
        const bool tail = seq + 1 == chan_len_[m.from];
        net_.push_flit(m.to);
        if (track_progress_) packets_[owner].last_progress = cycle_;
        if (tail) {
          // The tail releases its input channel.
          net_.release(m.from);
          wake_waiters(m.from);
          flight_.record_release(cycle_, owner, m.from);
        }
        if (trace_) {
          trace_->emit({.kind = obs::EventKind::kLinkTraverse, .cycle = cycle_,
                        .packet = owner, .channel = m.to, .channel2 = m.from,
                        .flag = seq == 0, .flag2 = tail});
        }
        // The input stays movable while flits remain; a tail always leaves
        // it empty (one packet per queue), released and in no set.
        movable_.assign(m.from, net_.occupancy(m.from) != 0);
        arrive(m.to);
      }
      channel_moves_[m.to] += in_window;
      if (metrics_) ++epoch_moves_[m.to];
    });
    const std::size_t winners = links_touched_.size();
    flit_moves_ += winners;
    activity_ += winners;
    last_progress_ = cycle_;
    links_touched_.clear();
  }

  // Ejection: one flit per node per cycle, nodes ascending, ejector
  // round-robin over the node's in-channels in topology order.  A node in
  // eject_nodes_ has eject_count_[node] >= 1 ejecting in-channels; the
  // winner is the (rr % count)-th of them.
  if (!eject_nodes_.empty()) {
    scratch_nodes_.clear();
    eject_nodes_.collect(scratch_nodes_);
    for (const std::uint32_t node : scratch_nodes_) {
      const std::uint32_t count = eject_count_[node];
      std::uint32_t& rr = net_.eject_rr(node);
      std::uint32_t skip = count == 1 ? 0 : rr % count;
      ++rr;
      ChannelId c = kInvalidChannel;
      for (const ChannelId in : topo_->in_channels(node)) {
        if (eject_ready_.contains(in) && skip-- == 0) {
          c = in;
          break;
        }
      }
      assert(c != kInvalidChannel);
      const PacketId owner = net_.owner(c);
      Packet& pkt = packets_[owner];
      const std::uint32_t seq = net_.pop_flit(c);
      const bool tail = seq + 1 == chan_len_[c];
      ++pkt.flits_ejected;
      if (track_progress_) pkt.last_progress = cycle_;
      stats_.flits_ejected_in_window += in_window;
      if (tail) flight_.record_release(cycle_, owner, c);
      if (trace_) {
        trace_->emit({.kind = obs::EventKind::kEject, .cycle = cycle_,
                      .packet = owner, .node = node, .channel = c,
                      .flag2 = tail});
      }
      if (tail) {
        net_.release(c);
        wake_waiters(c);
        finish_packet(pkt);
      }
      // A drained queue (a tail always drains it) leaves the eject set
      // until the next flit arrives (arrive() routes the refill to
      // touch_channel).
      const bool dry = net_.occupancy(c) == 0;
      eject_ready_.assign(c, !dry);
      eject_count_[node] -= dry;
      eject_nodes_.assign(node, eject_count_[node] != 0);
    }
    flit_moves_ += scratch_nodes_.size();
    activity_ += scratch_nodes_.size();
    last_progress_ = cycle_;
  }
}

void Simulator::finish_packet(Packet& pkt) {
  assert(!pkt.done);
  pkt.done = true;
  pkt.finished = cycle_;
  --in_flight_;
  live_packets_.erase(pkt.id);
  ++stats_.packets_delivered;
  if (pkt.measured) {
    ++stats_.measured_delivered;
    latency_.add(static_cast<double>(pkt.finished - pkt.created),
                 static_cast<double>(pkt.finished - pkt.first_injected));
  }
  if (pkt.attempts > 0) {
    ++stats_.recovered_packets;
    recovery_latency_sum_ += static_cast<double>(cycle_ - pkt.first_abort);
  }
  if (trace_) {
    emit({.kind = obs::EventKind::kPacketDone, .cycle = cycle_,
          .packet = pkt.id, .node = pkt.dst,
          .value = pkt.finished - pkt.created});
    if (pkt.attempts > 0) {
      emit({.kind = obs::EventKind::kRecovered, .cycle = cycle_,
            .packet = pkt.id, .node = pkt.dst, .value = pkt.attempts});
    }
  }
  if (metrics_ && pkt.measured) {
    metrics_->histogram("packet_latency").add(
        static_cast<double>(pkt.finished - pkt.created));
    metrics_->histogram("packet_network_latency")
        .add(static_cast<double>(pkt.finished - pkt.first_injected));
  }
}

void Simulator::apply_epoch_step(std::uint32_t index) {
  const reconfig::EpochStep& step = config_.schedule->steps[index];
  if (step.kind == reconfig::EpochStep::Kind::kFault) {
    apply_fault_step(step);
  } else {
    apply_cutover(index, step);
  }
}

void Simulator::apply_fault_step(const reconfig::EpochStep& step) {
  LiveEpoch::FaultDelta delta =
      epoch_.apply(config_.schedule->faults.steps[step.index]);
  ++stats_.fault_epochs;
  stats_.fault_events += delta.downed.size();
  stats_.repair_events += delta.repaired.size();
  const std::uint64_t epoch = epoch_.fault_epoch();
  const bool downed = !delta.downed.empty();
  if (downed) {
    emit({.kind = obs::EventKind::kFault, .cycle = cycle_, .value = epoch,
          .list = std::move(delta.downed)});
  }
  if (!delta.repaired.empty()) {
    emit({.kind = obs::EventKind::kRepair, .cycle = cycle_, .value = epoch,
          .list = std::move(delta.repaired)});
  }
  if (downed) {
    // A wait commitment to a dead channel can never be granted: void it
    // so the header re-arbitrates over the surviving candidates.
    scratch_packets_.clear();
    live_packets_.collect(scratch_packets_);
    for (const std::uint32_t id : scratch_packets_) {
      Packet& pkt = packets_[id];
      if (pkt.committed_wait != kInvalidChannel &&
          epoch_.is_dead(pkt.committed_wait)) {
        void_wait(pkt, epoch);
      }
    }
  }
  // The candidate space changed (downed channels shrink it, repairs grow
  // it): every blocked header gets a fresh attempt.
  wake_blocked();
  // A fault epoch can refute an already-certified union mid-transition; the
  // guard walk pre-judged the composed timeline and carries the repair here.
  if (config_.schedule->guarded && !transition_aborted_ &&
      step.decision.action != reconfig::GuardAction::kProceed) {
    apply_guard_repair(step.decision);
  }
}

void Simulator::apply_cutover(std::uint32_t index,
                              const reconfig::EpochStep& step) {
  // A guard repair cancels every remaining cutover; the queued events still
  // fire but consume nothing.
  if (transition_aborted_) return;
  // Cutovers execute strictly in plan order.  Out-of-order due events (a
  // barrier ahead of us is still waiting) park one cycle and retry.
  if (step.index != next_transition_step_) {
    timed_.push(cycle_ + 1, TimedKind::kEpochStep, index);
    return;
  }
  const reconfig::CompiledCutover& cutover =
      config_.schedule->plan.steps[step.index];
  if (cutover.barrier) {
    // Drain gate: the barrier lifts only once no stamped packet still rides
    // a superseded version (the union reset is only sound then).  Packets
    // still in their source queue carry no stamp yet — they will take the
    // current version at acquire.
    scratch_packets_.clear();
    live_packets_.collect(scratch_packets_);
    for (const std::uint32_t id : scratch_packets_) {
      const Packet& pkt = packets_[id];
      if (!pkt.injecting && pkt.path.empty()) continue;  // unstamped
      if (pkt.route_version != epoch_.current(pkt.dst)) {
        timed_.push(cycle_ + 1, TimedKind::kEpochStep, index);
        return;
      }
    }
  }
  ++next_transition_step_;
  // The guard walk certified this cutover against the live fault mask; a
  // non-proceed decision replaces the cutover with its repair.
  if (config_.schedule->guarded &&
      step.decision.action != reconfig::GuardAction::kProceed) {
    apply_guard_repair(step.decision);
    return;
  }
  obs::TraceEvent ev{.kind = obs::EventKind::kSwitch, .cycle = cycle_,
                     .list = epoch_.apply(cutover)};
  if (ev.list.empty()) return;  // cannot happen: compile prunes no-ops
  ++stats_.reconfig_epochs;
  stats_.dests_switched += ev.list.size();
  ev.value = epoch_.transition_epoch();
  emit(ev);
  void_switched_waits(ev.list, ev.value);
  // Source-front headers toward switched destinations now draw candidates
  // from a different relation: every blocked header gets a fresh attempt.
  wake_blocked();
}

void Simulator::void_wait(Packet& pkt, std::uint64_t epoch) {
  emit({.kind = obs::EventKind::kWaitVoid, .cycle = cycle_, .packet = pkt.id,
        .channel = pkt.committed_wait, .value = epoch});
  pkt.committed_wait = kInvalidChannel;
}

void Simulator::void_switched_waits(const std::vector<NodeId>& switched,
                                    std::uint64_t epoch) {
  // A source-queued packet toward a switched destination may have committed
  // to a waiting channel under the old relation; void the commitment so it
  // re-arbitrates under the new one.  In-flight packets keep their stamped
  // relation, so their commitments stay coherent.
  scratch_packets_.clear();
  live_packets_.collect(scratch_packets_);
  for (const std::uint32_t id : scratch_packets_) {
    Packet& pkt = packets_[id];
    if (pkt.injecting || pkt.committed_wait == kInvalidChannel) continue;
    if (std::binary_search(switched.begin(), switched.end(), pkt.dst)) {
      void_wait(pkt, epoch);
    }
  }
}

void Simulator::apply_guard_repair(const reconfig::GuardDecision& decision) {
  transition_aborted_ = true;
  if (decision.action == reconfig::GuardAction::kRollback) {
    // Revert every migrated destination to the base relation.  In-flight
    // packets keep their stamped versions (coherence holds: the rollback
    // epoch's union was certified before this decision was emitted).
    obs::TraceEvent ev{.kind = obs::EventKind::kRollback, .cycle = cycle_,
                       .list = epoch_.apply(decision.cutover)};
    ++stats_.rollbacks;
    stats_.rollback_dests += ev.list.size();
    ev.value = epoch_.transition_epoch();
    emit(ev);
    void_switched_waits(ev.list, ev.value);
    wake_blocked();
    return;
  }
  // Drain-then-switch: even the rollback union was uncertifiable, so the
  // only safe move is through an empty network.  Park the steady cutover;
  // step() applies it once the last in-flight worm retires.
  drain_was_engaged_ = draining_;
  pending_switch_ = decision.cutover;
  drain_switch_pending_ = true;
  ++stats_.drain_switches;
  obs::TraceEvent ev{.kind = obs::EventKind::kDrainSwitch, .cycle = cycle_,
                     .value = epoch_.transition_epoch()};
  if (trace_) {
    for (const reconfig::CutoverAssignment& a : pending_switch_.assignments) {
      ev.list.push_back(a.dest);
    }
  }
  emit(ev);
  engage_drain();
}

void Simulator::complete_drain_switch() {
  // The network is empty: the steady state applies atomically with nothing
  // stamped against any prior version — packet conservation carries over
  // because drains drop (and count) refused packets, never lose them.
  drain_switch_pending_ = false;
  obs::TraceEvent ev{.kind = obs::EventKind::kDrainSwitch, .cycle = cycle_,
                     .list = epoch_.apply(pending_switch_)};
  ev.value = epoch_.transition_epoch();
  emit(ev);
  // Resume admissions unless a recovery-policy drain had independently
  // engaged before the guard's (that one is permanent).
  draining_ = drain_was_engaged_;
  if (!draining_) {
    for (NodeId node = 0; node < topo_->num_nodes(); ++node) {
      touch_source(node);
    }
  }
  ++activity_;
  wake_blocked();
}

void Simulator::fire_retry(PacketId id) {
  Packet& pkt = packets_[id];
  pkt.aborted = false;
  pkt.last_progress = cycle_;
  sources_[pkt.src].queue.push_back(pkt.id);
  ++stats_.packets_retried;
  emit({.kind = obs::EventKind::kRetry, .cycle = cycle_, .packet = pkt.id,
        .node = pkt.src, .value = pkt.attempts});
  touch_source(pkt.src);
}

void Simulator::abort_packet(Packet& pkt, const WaitAnalysis* wait_for) {
  const bool retry =
      config_.recovery.policy == ft::RecoveryPolicy::kAbortRetry &&
      pkt.attempts + 1 <= config_.recovery.retry_budget;
  if (config_.recovery.policy == ft::RecoveryPolicy::kAbortRetry && !retry) {
    // Retry budget exhausted: capture the forensics while the worm still
    // holds its channels (the flush below erases the acquired path).
    capture_postmortem(obs::PostmortemReason::kRetryExhausted, pkt.id,
                       wait_for);
  }
  emit({.kind = obs::EventKind::kAbort, .cycle = cycle_, .packet = pkt.id,
        .node = pkt.src, .value = pkt.attempts + 1, .flag = retry});
  // Flush the worm: every channel the packet still owns holds only its own
  // flits (Assumption 4), so clearing the queues releases exactly this
  // packet's resources.
  for (const ChannelId c : pkt.path) {
    if (net_.owner(c) != pkt.id) continue;
    net_.clear_queue(c);
    net_.release(c);
    emit({.kind = obs::EventKind::kRelease, .cycle = cycle_,
          .packet = pkt.id, .channel = c});
    touch_channel(c);
  }
  // Present in its source queue iff injection had not finished.
  std::erase(sources_[pkt.src].queue, pkt.id);
  pkt.injecting = false;
  pkt.flits_injected = 0;
  pkt.flits_ejected = 0;
  pkt.path.clear();
  pkt.committed_wait = kInvalidChannel;
  pkt.forced_next = 0;
  pkt.trace_blocked = false;
  ++pkt.attempts;
  if (pkt.attempts == 1) pkt.first_abort = cycle_;
  pkt.last_progress = cycle_;
  last_progress_ = cycle_;  // recovery is progress: keep the watchdog quiet
  ++stats_.packets_aborted;
  ++activity_;
  touch_source(pkt.src);
  wake_blocked();
  if (retry) {
    pkt.aborted = true;
    timed_.push(cycle_ + config_.recovery.backoff(pkt.attempts),
                TimedKind::kRetry, pkt.id);
  } else {
    drop_packet(pkt);
  }
}

void Simulator::drop_packet(Packet& pkt) {
  pkt.dropped = true;
  pkt.aborted = false;
  --in_flight_;
  live_packets_.erase(pkt.id);
  ++stats_.packets_dropped;
  if (pkt.measured) ++stats_.measured_dropped;
  ++activity_;
  emit({.kind = obs::EventKind::kDrop, .cycle = cycle_, .packet = pkt.id});
}

void Simulator::engage_drain() {
  if (draining_) return;
  draining_ = true;
  // Stop accepting: packets that never started injecting are refused (and
  // counted as drops); in-flight worms keep draining via the relation.
  for (NodeId node = 0; node < topo_->num_nodes(); ++node) {
    auto& queue = sources_[node].queue;
    std::deque<PacketId> keep;
    for (const PacketId id : queue) {
      Packet& pkt = packets_[id];
      if (pkt.injecting) {
        keep.push_back(id);
      } else {
        drop_packet(pkt);
      }
    }
    queue = std::move(keep);
    touch_source(node);
  }
}

void Simulator::check_deadlock() {
  if (deadlock_) return;
  const bool recovering =
      config_.recovery.policy != ft::RecoveryPolicy::kHalt;

  if (recovering) {
    // Per-packet no-progress timeout.  This catches what the wait-for graph
    // cannot: a packet whose candidate set went *empty* after a fault (a
    // disconnected degraded relation) waits on nothing and forms no cycle,
    // yet will never move again.
    const std::uint64_t timeout = config_.recovery.packet_timeout != 0
                                      ? config_.recovery.packet_timeout
                                      : config_.watchdog_cycles;
    std::vector<PacketId> expired;
    scratch_packets_.clear();
    live_packets_.collect(scratch_packets_);
    for (const std::uint32_t id : scratch_packets_) {
      const Packet& pkt = packets_[id];
      if (pkt.aborted) continue;
      if (cycle_ - pkt.last_progress > timeout) expired.push_back(pkt.id);
    }
    if (!expired.empty() &&
        config_.recovery.policy == ft::RecoveryPolicy::kDrain) {
      engage_drain();
    }
    for (const PacketId id : expired) {
      // engage_drain may have dropped source-queued victims already.
      if (!packets_[id].dropped) abort_packet(packets_[id], nullptr);
    }
  }

  // The one analysis of this check: the detector and every postmortem
  // captured below read it.
  const WaitAnalysis wait_for(collect_blocked(), net_.owners());
  const std::size_t num_blocked = wait_for.blocked().size();
  if (trace_) {
    emit({.kind = obs::EventKind::kDeadlockCheck, .cycle = cycle_,
          .value = num_blocked});
  }

  if (auto info = wait_for.deadlock(cycle_)) {
    obs::TraceEvent ev{.kind = obs::EventKind::kDeadlockDetected,
                       .cycle = cycle_, .value = info->packet_cycle.size()};
    if (trace_) {
      ev.list.assign(info->packet_cycle.begin(), info->packet_cycle.end());
    }
    emit(ev);
    if (config_.recovery.policy == ft::RecoveryPolicy::kHalt) {
      capture_postmortem(obs::PostmortemReason::kWaitCycle, kNoPacket,
                         &wait_for);
      deadlock_ = std::move(info);
      return;
    }
    // Break the knot: abort the youngest packet of the reported cycle (the
    // highest id — a pure function of the detector's deterministic output,
    // and the victim with the least sunk progress on average).
    PacketId victim = info->packet_cycle.front();
    for (const PacketId p : info->packet_cycle) victim = std::max(victim, p);
    // Capture before draining: engage_drain drops the source-queued packets
    // the analysis saw blocked, and the artifact describes the knot as
    // detected.
    capture_postmortem(obs::PostmortemReason::kWaitCycle, victim, &wait_for);
    if (config_.recovery.policy == ft::RecoveryPolicy::kDrain) {
      engage_drain();
    }
    abort_packet(packets_[victim], &wait_for);
    // The wait-for graph changed; the next check interval re-probes, and
    // any residual knot selects its next victim then.
    return;
  }
  if (in_flight_ > 0 && cycle_ - last_progress_ > config_.watchdog_cycles) {
    // The watchdog reports no wait-for cycle, only how many were blocked.
    emit({.kind = obs::EventKind::kDeadlockDetected, .cycle = cycle_,
          .value = num_blocked, .flag = true});
    capture_postmortem(obs::PostmortemReason::kWatchdog, kNoPacket,
                       &wait_for);
    DeadlockInfo info;
    info.cycle = cycle_;
    info.from_watchdog = true;
    deadlock_ = std::move(info);
  }
}

std::vector<BlockedPacket> Simulator::collect_blocked() {
  // Exactly the pending headers and waiting source fronts, in ascending
  // index order — the same rows the legacy full scans produced.
  std::vector<BlockedPacket> blocked;
  scratch_channels_.clear();
  alloc_pending_.collect(scratch_channels_);
  for (const std::uint32_t c : scratch_channels_) {
    const Packet& pkt = packets_[net_.owner(c)];
    const NodeId here = topo_->channel(c).dst;
    // A header that just arrived at its destination is not blocked — it gets
    // its ejection assignment in the next allocation phase.
    if (here == pkt.dst) continue;
    BlockedPacket bp;
    bp.packet = pkt.id;
    bp.waiting_on = allocator_.blocked_on(pkt, c, here);
    if (!bp.waiting_on.empty()) blocked.push_back(std::move(bp));
  }
  scratch_nodes_.clear();
  ready_src_.collect(scratch_nodes_);
  for (const std::uint32_t node : scratch_nodes_) {
    const Packet& pkt = packets_[sources_[node].queue.front()];
    BlockedPacket bp;
    bp.packet = pkt.id;
    bp.waiting_on = allocator_.blocked_on(pkt, kInvalidChannel, node);
    if (!bp.waiting_on.empty()) blocked.push_back(std::move(bp));
  }
  return blocked;
}

void Simulator::capture_postmortem(obs::PostmortemReason reason,
                                   PacketId victim,
                                   const WaitAnalysis* wait_for) {
  if (postmortems_.size() >= config_.max_postmortems) return;
  // A retry exhaustion outside a deadlock check analyses the wait-for graph
  // here, and only once the cap admits the capture.
  std::optional<WaitAnalysis> fresh;
  if (wait_for == nullptr) {
    wait_for = &fresh.emplace(collect_blocked(), net_.owners());
  }
  obs::RuntimePostmortem pm;
  pm.reason = reason;
  pm.cycle = cycle_;
  pm.victim = victim;
  pm.wait_for.reserve(wait_for->blocked().size());
  for (const BlockedPacket& bp : wait_for->blocked()) {
    const Packet& pkt = packets_[bp.packet];
    obs::WaitForNode node;
    node.packet = bp.packet;
    node.occupies = pkt.path.empty() ? kInvalidChannel : pkt.path.back();
    node.node = pkt.path.empty() ? pkt.src : topo_->channel(pkt.path.back()).dst;
    node.waiting_on = bp.waiting_on;
    node.owners.reserve(bp.waiting_on.size());
    for (const ChannelId c : bp.waiting_on) {
      node.owners.push_back(net_.owner(c));
    }
    pm.wait_for.push_back(std::move(node));
  }
  std::vector<std::span<const ChannelId>> paths;
  for (const std::vector<WaitHop>& hops : wait_for->cycles()) {
    paths.clear();
    for (const WaitHop& hop : hops) {
      paths.emplace_back(packets_[hop.packet].path);
    }
    pm.cycles.push_back(obs::lift_wait_cycle(hops, paths));
  }
  pm.flight_tail = flight_.tail(config_.flight_tail);
  pm.flight_recorded = flight_.recorded();
  pm.flight_dropped = flight_.dropped();
  stamp_relation(pm);
  ++stats_.postmortems_emitted;
  postmortems_.push_back(std::move(pm));
}

void Simulator::stamp_relation(obs::RuntimePostmortem& pm) const {
  const reconfig::EpochSchedule* s = config_.schedule.get();
  const bool named = s != nullptr && !s->plan.base.empty();
  const reconfig::RelationExpr base(named ? s->plan.base : routing_->name(),
                                    epoch_.dead());
  pm.relation = base.to_string();
  if (s == nullptr || !s->has_cutovers()) return;
  // Cutovers applied so far.  A guard repair stands in for the step it
  // judged and ends the transition (the walk stops at its first repair).
  std::size_t applied = next_transition_step_;
  reconfig::GuardAction repair = reconfig::GuardAction::kProceed;
  if (transition_aborted_) {
    const auto it = std::find_if(
        s->steps.begin(), s->steps.end(), [](const reconfig::EpochStep& e) {
          return e.decision.action != reconfig::GuardAction::kProceed;
        });
    repair = it->decision.action;
    if (it->kind == reconfig::EpochStep::Kind::kCutover) applied = it->index;
  }
  reconfig::UnionSpec live = applied == 0
                                 ? s->plan.base_union()
                                 : s->plan.epoch_unions()[applied - 1];
  if (repair == reconfig::GuardAction::kRollback) {
    live.active[0].assign(live.num_nodes, true);
  } else if (repair == reconfig::GuardAction::kDrainThenSwitch &&
             !drain_switch_pending_) {
    live = s->plan.steady_state();
  }
  if (!live.pure_base()) {
    pm.relation = reconfig::RelationExpr(live, base.fault_mask).to_string();
  }
  pm.steady_state = reconfig::RelationExpr(s->plan.steady_state()).to_string();
}

void Simulator::step() {
  activity_ = 0;
  if (timed_.has_due(cycle_)) {
    due_events_.clear();
    while (timed_.has_due(cycle_)) due_events_.push_back(timed_.pop());
    // Pop order is the legacy phase order within a cycle: the epoch steps
    // in schedule order (fault steps before cutovers), then every retry.
    for (const TimedEvent& ev : due_events_) {
      if (ev.kind == TimedKind::kEpochStep) {
        apply_epoch_step(ev.payload);
      } else {
        fire_retry(static_cast<PacketId>(ev.payload));
      }
      ++activity_;
    }
  }
  generate_traffic();
  allocate_outputs();
  move_flits();
  if (drain_switch_pending_ && in_flight_ == 0) complete_drain_switch();
  if (config_.deadlock_check_interval != 0 &&
      cycle_ % config_.deadlock_check_interval == 0) {
    check_deadlock();
  }
  if (metrics_) sample_metrics();
  ++cycle_;
}

bool Simulator::can_fast_forward() const {
  // The traffic RNG advances every cycle the stochastic window is open.
  if (!draining_ && !config_.scripted_only && cycle_ < gen_end_) return false;
  // Metrics stall counters tick per cycle while any header is blocked.
  if (metrics_ && !alloc_pending_.empty()) return false;
  return true;
}

std::uint64_t Simulator::next_event_cycle(std::uint64_t horizon) const {
  std::uint64_t next = horizon;
  next = std::min(next, timed_.next_cycle());
  if (!draining_ && script_cursor_ < script_events_.size()) {
    next = std::min(next, script_events_[script_cursor_].inject_cycle);
  }
  if (have_script_ && cycle_ <= max_inject_cycle_) {
    // run()'s script_pending flag flips here; the break conditions must be
    // evaluated at the same cycle the per-cycle loop would have seen.
    next = std::min(next, max_inject_cycle_ + 1);
  }
  if (cycle_ <= gen_end_) next = std::min(next, gen_end_ + 1);
  if (config_.deadlock_check_interval != 0 &&
      (trace_ != nullptr || in_flight_ > 0)) {
    // Checks are observable (dl_check trace rows, timeout aborts, the
    // watchdog) whenever packets are live or a trace sink is attached.
    const std::uint64_t iv = config_.deadlock_check_interval;
    next = std::min(next, ((cycle_ + iv - 1) / iv) * iv);
  }
  if (metrics_ && config_.metrics_epoch != 0) {
    // Next epoch flush: the smallest c >= cycle_ with (c + 1) % epoch == 0.
    const std::uint64_t ep = config_.metrics_epoch;
    next = std::min(next, ((cycle_ + ep) / ep) * ep - 1);
  }
  return std::max(next, cycle_);
}

void Simulator::sample_metrics() {
  // A stall cycle: a header at the FIFO front with no output assignment —
  // exactly the alloc-pending set, maintained incrementally.
  if (!alloc_pending_.empty()) {
    scratch_channels_.clear();
    alloc_pending_.collect(scratch_channels_);
    for (const std::uint32_t c : scratch_channels_) ++epoch_stalls_[c];
  }
  const std::uint64_t epoch = config_.metrics_epoch;
  if (epoch == 0 || (cycle_ + 1) % epoch != 0) return;
  const std::size_t channels = net_.num_channels();
  std::vector<double> occupancy(channels), stalls(channels), util(channels);
  for (ChannelId c = 0; c < channels; ++c) {
    occupancy[c] = static_cast<double>(net_.occupancy(c));
    stalls[c] = static_cast<double>(epoch_stalls_[c]);
    util[c] = static_cast<double>(epoch_moves_[c]) /
              static_cast<double>(epoch);
  }
  const std::uint64_t stamp = cycle_ + 1;
  metrics_->series("channel_occupancy").add(stamp, std::move(occupancy));
  metrics_->series("channel_stall_cycles").add(stamp, std::move(stalls));
  metrics_->series("channel_utilization").add(stamp, std::move(util));
  std::fill(epoch_moves_.begin(), epoch_moves_.end(), 0);
  std::fill(epoch_stalls_.begin(), epoch_stalls_.end(), 0);
}

void Simulator::export_final_metrics() {
  if (!metrics_) return;
  obs::MetricsRegistry& m = *metrics_;
  m.counter("packets_created").set(stats_.packets_created);
  m.counter("packets_delivered").set(stats_.packets_delivered);
  m.counter("measured_created").set(stats_.measured_created);
  m.counter("measured_delivered").set(stats_.measured_delivered);
  m.counter("flits_ejected_in_window").set(stats_.flits_ejected_in_window);
  m.counter("flit_moves").set(flit_moves_);
  m.counter("cycles_run").set(stats_.cycles_run);
  m.counter("deadlocked").set(stats_.deadlocked ? 1 : 0);
  m.counter("saturated").set(stats_.saturated ? 1 : 0);
  m.gauge("avg_latency").set(stats_.avg_latency);
  m.gauge("p50_latency").set(stats_.p50_latency);
  m.gauge("p99_latency").set(stats_.p99_latency);
  m.gauge("avg_network_latency").set(stats_.avg_network_latency);
  m.gauge("offered_load").set(stats_.offered_load);
  m.gauge("accepted_throughput").set(stats_.accepted_throughput);
  m.gauge("avg_channel_utilization").set(stats_.avg_channel_utilization);
  m.gauge("max_channel_utilization").set(stats_.max_channel_utilization);
  m.gauge("max_hops").set(static_cast<double>(stats_.max_hops));
  // Allocation work units: attempts per grant measures how many futile
  // re-arbitrations the waiter lists let through.
  m.counter("alloc_attempts").set(alloc_attempts_);
  m.counter("alloc_grants").set(alloc_grants_);
  // Relation-table reads and the row fills among them: lookups per fill is
  // how often a route computation was served from an earlier one.
  m.counter("route_lookups").set(allocator_.route_lookups());
  m.counter("route_fills").set(allocator_.route_fills());
  // Resilience counters only exist for runs that could have used them, so
  // pre-ft metric dumps stay byte-identical.
  if (epoch_.faults() ||
      config_.recovery.policy != ft::RecoveryPolicy::kHalt) {
    m.counter("fault_epochs").set(stats_.fault_epochs);
    m.counter("fault_events").set(stats_.fault_events);
    m.counter("repair_events").set(stats_.repair_events);
    m.counter("packets_aborted").set(stats_.packets_aborted);
    m.counter("packets_retried").set(stats_.packets_retried);
    m.counter("packets_dropped").set(stats_.packets_dropped);
    m.counter("recovered_packets").set(stats_.recovered_packets);
    m.gauge("avg_recovery_latency").set(stats_.avg_recovery_latency);
  }
  // Reconfiguration counters likewise only exist for runs with a live
  // transition plan, keeping identity-plan metric dumps byte-identical.
  if (epoch_.versions()) {
    m.counter("reconfig_epochs").set(stats_.reconfig_epochs);
    m.counter("dests_switched").set(stats_.dests_switched);
  }
  // Self-healing counters only exist for guarded runs, keeping unguarded
  // transition metric dumps byte-identical.
  if (config_.schedule != nullptr && config_.schedule->guarded) {
    m.counter("rollbacks").set(stats_.rollbacks);
    m.counter("rollback_dests").set(stats_.rollback_dests);
    m.counter("drain_switches").set(stats_.drain_switches);
  }
}

SimStats Simulator::run() {
  const std::uint64_t horizon = config_.warmup_cycles +
                                config_.measure_cycles + config_.drain_cycles;
  while (cycle_ < horizon) {
    step();
    if (deadlock_) break;
    bool script_pending = have_script_ && max_inject_cycle_ >= cycle_;
    if (cycle_ > gen_end_ && !script_pending && in_flight_ == 0) {
      break;  // fully drained
    }
    if (cycle_ > gen_end_ &&
        stats_.measured_delivered == stats_.measured_created &&
        config_.scripted_only == false && !script_pending &&
        stats_.measured_created > 0 && in_flight_ == 0) {
      break;
    }
    // Event-driven fast-forward: a cycle that did no work and has no
    // per-cycle obligations cannot change state before the next scheduled
    // event — jump straight to it.  The break conditions above are
    // re-evaluated after the jump at exactly the cycle the per-cycle loop
    // would first have satisfied them (their flip points are event
    // boundaries), so the skip is invisible in every output.
    if (config_.fast_forward && activity_ == 0 && can_fast_forward()) {
      const std::uint64_t target = next_event_cycle(horizon);
      if (target > cycle_) {
        cycle_ = target;
        script_pending = have_script_ && max_inject_cycle_ >= cycle_;
        if (cycle_ > gen_end_ && !script_pending && in_flight_ == 0) {
          break;
        }
        if (cycle_ > gen_end_ &&
            stats_.measured_delivered == stats_.measured_created &&
            config_.scripted_only == false && !script_pending &&
            stats_.measured_created > 0 && in_flight_ == 0) {
          break;
        }
      }
    }
  }

  stats_.cycles_run = cycle_;
  stats_.flight_events_recorded = flight_.recorded();
  stats_.flight_events_dropped = flight_.dropped();
  if (deadlock_) {
    stats_.deadlocked = true;
    stats_.deadlock = *deadlock_;
  }
  const double window =
      static_cast<double>(std::min(cycle_, config_.warmup_cycles +
                                               config_.measure_cycles) -
                          std::min(cycle_, config_.warmup_cycles));
  if (window > 0) {
    // Actual offered load: patterns with self-mapping nodes (transpose
    // diagonal, palindromic bit-reverse ids, ...) generate no traffic at
    // those sources, so the realized offer can sit below the nominal rate.
    stats_.offered_load =
        static_cast<double>(stats_.measured_created) * config_.packet_length /
        (static_cast<double>(topo_->num_nodes()) * window);
    stats_.accepted_throughput =
        static_cast<double>(stats_.flits_ejected_in_window) /
        (static_cast<double>(topo_->num_nodes()) * window);
  }
  if (window > 0 && !channel_moves_.empty()) {
    double total = 0.0;
    for (std::uint64_t moves : channel_moves_) {
      const double u = static_cast<double>(moves) / window;
      total += u;
      stats_.max_channel_utilization =
          std::max(stats_.max_channel_utilization, u);
    }
    stats_.avg_channel_utilization =
        total / static_cast<double>(channel_moves_.size());
  }
  for (const Packet& pkt : packets_) {
    if (pkt.measured && pkt.done) {
      stats_.max_hops = std::max(
          stats_.max_hops, static_cast<std::uint32_t>(pkt.path.size()));
    }
  }
  // Dropped packets are accounted, not in flight: only undelivered AND
  // undropped measured packets mean the network failed to keep up.
  stats_.saturated = !stats_.deadlocked &&
                     stats_.measured_delivered + stats_.measured_dropped <
                         stats_.measured_created;
  stats_.watchdog_cycles = config_.watchdog_cycles;
  stats_.packet_timeout_cycles = config_.recovery.packet_timeout != 0
                                     ? config_.recovery.packet_timeout
                                     : config_.watchdog_cycles;
  stats_.recovery_policy = ft::to_string(config_.recovery.policy);
  if (stats_.recovered_packets > 0) {
    stats_.avg_recovery_latency =
        recovery_latency_sum_ /
        static_cast<double>(stats_.recovered_packets);
  }
  latency_.finalize(stats_);
  export_final_metrics();
  if (trace_) trace_->flush();
  return stats_;
}

void Simulator::validate_invariants() const {
  auto fail = [](const std::string& what) {
    throw std::logic_error("simulator invariant violated: " + what);
  };
  for (ChannelId c = 0; c < net_.num_channels(); ++c) {
    if (net_.occupancy(c) > config_.buffer_depth) {
      fail("queue deeper than buffer_depth");
    }
    // Assumption 4 (one message per channel queue at a time) holds by
    // construction in the SoA encoding: a queue is (owner, front_seq,
    // occupancy), so its contents ARE the owner's flits.
    if (net_.occupancy(c) > 0 && net_.owner(c) == kNoPacket) {
      fail("queue contents disagree with owner");
    }
    if (net_.owner(c) != kNoPacket) {
      const Packet& pkt = packets_[net_.owner(c)];
      if (pkt.done) fail("finished packet still owns a channel");
      if (pkt.dropped || pkt.aborted) {
        fail("aborted/dropped packet still owns a channel");
      }
      if (net_.occupancy(c) > 0 &&
          net_.front_seq(c) + net_.occupancy(c) > pkt.length) {
        fail("queued flit sequence exceeds packet length");
      }
      // The owner must have this channel on its acquired path.
      bool on_path = false;
      for (const ChannelId held : pkt.path) {
        if (held == c) {
          on_path = true;
          break;
        }
      }
      if (!on_path) fail("owner never acquired this channel");
    }
    // Activity sets mirror channel state.
    const bool pending = net_.occupancy(c) > 0 && !net_.out_assigned(c) &&
                         net_.front_seq(c) == 0;
    if (pending != alloc_pending_.contains(c)) {
      fail("alloc-pending set out of sync");
    }
    const bool mv =
        net_.occupancy(c) > 0 && net_.out_assigned(c) && !net_.out_eject(c);
    if (mv != movable_.contains(c)) fail("movable set out of sync");
    const bool ej =
        net_.occupancy(c) > 0 && net_.out_assigned(c) && net_.out_eject(c);
    if (ej != eject_ready_.contains(c)) fail("eject-ready set out of sync");
  }
  // Relation table oracle: every filled row, and every row a pending
  // header or source front routes by at its exact input, is what the
  // relation returns.
  if (!allocator_.table_matches_relations()) {
    fail("relation table row differs from its relation");
  }
  auto check_row = [&](const Packet& pkt, ChannelId input, NodeId node) {
    if (!allocator_.row_matches_relation(pkt, input, node)) {
      fail("relation table row differs from its relation at this input");
    }
  };
  // No lost wakeup: a pending header the next allocation phase skips must
  // be a certain failure (every live candidate owned), and each of those
  // owners' releases must reach it through the waiter lists.
  const std::uint32_t channels = net_.num_channels();
  auto check_waits = [&](const Packet& pkt, ChannelId input, NodeId node,
                         std::uint32_t waiter) {
    for (const ChannelId c : allocator_.blocked_on(pkt, input, node)) {
      if (net_.owner(c) == kNoPacket) {
        fail("lost wakeup: skipped header has a free candidate");
      }
      const std::vector<std::uint32_t>& list = waiters_[c];
      if (std::find(list.begin(), list.end(), waiter) == list.end()) {
        fail("lost wakeup: skipped header missing from a waiter list");
      }
    }
  };
  alloc_pending_.for_each([&](std::uint32_t c) {
    const Packet& pkt = packets_[net_.owner(c)];
    const NodeId here = topo_->channel(c).dst;
    if (here != pkt.dst) check_row(pkt, c, here);
    if (alloc_fresh_.contains(c)) return;
    if (here == pkt.dst) fail("header at its destination left unassigned");
    check_waits(pkt, c, here, c);
  });
  alloc_fresh_.for_each([&](std::uint32_t c) {
    if (!alloc_pending_.contains(c)) fail("fresh channel not pending");
  });
  ready_src_.for_each([&](std::uint32_t n) {
    const Packet& pkt = packets_[sources_[n].queue.front()];
    check_row(pkt, kInvalidChannel, n);
    if (src_fresh_.contains(n)) return;
    check_waits(pkt, kInvalidChannel, n, channels + n);
  });
  src_fresh_.for_each([&](std::uint32_t n) {
    if (!ready_src_.contains(n)) fail("fresh source front not ready");
  });
  for (NodeId n = 0; n < topo_->num_nodes(); ++n) {
    const auto& queue = sources_[n].queue;
    if (src_front_[n] != (queue.empty() ? kNoPacket : queue.front())) {
      fail("cached source front differs from the queue");
    }
  }
  for (const Packet& pkt : packets_) {
    if (pkt.flits_injected > pkt.length || pkt.flits_ejected > pkt.length) {
      fail("flit counters exceed packet length");
    }
    if (pkt.flits_ejected > pkt.flits_injected) {
      fail("more flits ejected than injected");
    }
    // Path contiguity: consecutive acquired channels chain head to tail.
    for (std::size_t i = 0; i + 1 < pkt.path.size(); ++i) {
      if (topo_->channel(pkt.path[i]).dst != topo_->channel(pkt.path[i + 1]).src) {
        fail("acquired path is not contiguous");
      }
    }
    if (!pkt.path.empty() && topo_->channel(pkt.path.front()).src != pkt.src) {
      fail("path does not start at the source");
    }
  }
}

SimStats run(const Topology& topo, const routing::RoutingFunction& routing,
             const SimConfig& config) {
  Simulator sim(topo, routing, config);
  return sim.run();
}

}  // namespace wormnet::sim
