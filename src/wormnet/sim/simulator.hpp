// Event-driven flit-level wormhole network simulator.
//
// Model (BookSim-flavoured, one-stage routers):
//   * each virtual channel has a fixed-depth flit FIFO at the downstream
//     router's input;
//   * a packet header arriving at a FIFO front performs route computation
//     (the routing relation + a selection function) and VC allocation: it may
//     acquire any candidate VC with no current owner;
//   * one flit per physical link per cycle (round-robin over its VCs), one
//     flit ejected per node per cycle, one flit injected per node per cycle;
//   * a channel is owned from header acceptance until the tail flit leaves —
//     the wormhole invariant that makes deadlock possible;
//   * blocked headers wait per the relation's discipline (wait-on-any or
//     wait-specific), overridable per run.
//
// The core is event-driven (DESIGN 3.11): each phase iterates index sets of
// pending work instead of polling every channel and node, a blocked header
// re-arbitrates only when one of the channels it waits on is released (or an
// epoch change reshapes every candidate set), timed work (epoch steps, abort
// retries) sits in a cycle-stamped event queue, and run() jumps quiescent
// spans directly to the next scheduled event.  All of it is bit-exact with
// per-cycle polling: the visit orders reproduce the polled scan orders, and
// skipped attempts are provably side-effect-free (failed allocation attempts
// consume no RNG).
//
// Determinism: a single seed drives traffic and selection; identical configs
// produce identical cycle-by-cycle behaviour.
#pragma once

#include <deque>
#include <memory>
#include <optional>

#include "wormnet/ft/recovery.hpp"
#include "wormnet/obs/flight.hpp"
#include "wormnet/obs/metrics.hpp"
#include "wormnet/obs/postmortem.hpp"
#include "wormnet/obs/trace.hpp"
#include "wormnet/reconfig/schedule.hpp"
#include "wormnet/routing/routing_function.hpp"
#include "wormnet/sim/active_set.hpp"
#include "wormnet/sim/deadlock_detector.hpp"
#include "wormnet/sim/event_queue.hpp"
#include "wormnet/sim/live_epoch.hpp"
#include "wormnet/sim/network.hpp"
#include "wormnet/sim/router.hpp"
#include "wormnet/sim/stats.hpp"
#include "wormnet/sim/traffic.hpp"

namespace wormnet::sim {

/// A packet injected at a fixed time, optionally pinned to an exact channel
/// path (deadlock-witness replay).
struct ScriptedPacket {
  NodeId src = 0;
  NodeId dst = 0;
  std::uint32_t length = 8;
  std::uint64_t inject_cycle = 0;
  std::vector<ChannelId> forced_path;  ///< empty = route normally
};

struct SimConfig {
  // Workload.
  double injection_rate = 0.1;     ///< flits/node/cycle offered
  std::uint32_t packet_length = 8; ///< flits per packet
  /// kHotspot sends a fifth of the packets to node n/2 (TrafficGenerator's
  /// defaults).
  Pattern pattern = Pattern::kUniform;
  std::vector<ScriptedPacket> script;  ///< extra packets injected on schedule
  bool scripted_only = false;          ///< suppress stochastic traffic

  // Router parameters.
  std::uint32_t buffer_depth = 4;  ///< flits per VC FIFO
  routing::SelectionPolicy selection = routing::SelectionPolicy::kInOrder;
  WaitOverride wait_override = WaitOverride::kFollowRouting;

  // Methodology.
  std::uint64_t warmup_cycles = 1000;
  std::uint64_t measure_cycles = 5000;
  std::uint64_t drain_cycles = 30000;
  std::uint64_t deadlock_check_interval = 128;
  std::uint64_t watchdog_cycles = 4000;  ///< no-progress threshold
  std::uint64_t seed = 1;

  /// run() may jump quiescent spans (no queued flits can move, no stochastic
  /// window open) straight to the next scheduled event.  Bit-exact either
  /// way; the off position exists so parity tests can compare the two paths.
  bool fast_forward = true;

  // Epoch timeline (DESIGN 3.13; null = no epoch changes): the run's fault
  // steps, cutovers and guard decisions, built by
  // reconfig::build_epoch_schedule against the same topology, with this
  // run's routing as the transition plan's base.  Its steps fire between
  // cycles.  A fault step re-filters the live relation through the dead
  // mask.  A cutover restamps which routing version new injections toward
  // each destination use, while in-flight packets keep the pure relation
  // they were stamped with (in-flight coherence rule, DESIGN 3.12).  In a
  // guarded schedule a kRollback decision reverts migrated destinations to
  // the base relation, and a kDrainThenSwitch decision drains the network
  // and applies the steady state through it.
  std::shared_ptr<const reconfig::EpochSchedule> schedule;

  // Resilience (wormnet::ft): what the detector and the per-packet
  // no-progress timeout do about stalls.  The default halt policy is
  // byte-identical to the pre-ft simulator.
  ft::RecoveryConfig recovery;

  // Observability (borrowed handles; callers own the sinks and must keep
  // them alive for the run).  Null = disabled; the disabled path costs one
  // branch per site and is behaviour-identical to an instrumented run.
  obs::TraceSink* trace = nullptr;       ///< packet/flit lifecycle events
  obs::MetricsRegistry* metrics = nullptr;  ///< per-epoch channel time series
  std::uint64_t metrics_epoch = 256;     ///< cycles between series samples

  // Flight recorder + postmortems (DESIGN 3.9).  The recorder is on by
  // default: recording is a ring store + a counter increment, is driven
  // only by the simulator's own cycle counter (bit-identical across runs,
  // hosts and sweep thread counts), and never perturbs behaviour.  Terminal
  // events (deadlock, watchdog, retry-budget exhaustion) each capture a
  // RuntimePostmortem carrying the terminal wait-for graph, every wait cycle
  // in the knot, and the last `flight_tail` recorder events.
  std::size_t flight_capacity = 1024;  ///< recorder ring slots (0 disables)
  std::size_t flight_tail = 64;        ///< events embedded per postmortem
  std::size_t max_postmortems = 4;     ///< per-run capture cap
};

class Simulator {
 public:
  Simulator(const Topology& topo, const routing::RoutingFunction& routing,
            SimConfig config);

  /// Advances one cycle.
  void step();

  /// Runs the full warmup/measure/drain schedule; returns the statistics.
  [[nodiscard]] SimStats run();

  // --- inspection (tests, witness validation) ---------------------------
  [[nodiscard]] std::uint64_t now() const noexcept { return cycle_; }
  [[nodiscard]] const Packet& packet(PacketId id) const {
    return packets_[id];
  }
  [[nodiscard]] std::size_t packets_in_flight() const noexcept {
    return in_flight_;
  }
  [[nodiscard]] const NetworkState& network() const noexcept { return net_; }
  [[nodiscard]] bool deadlock_detected() const noexcept {
    return deadlock_.has_value();
  }
  [[nodiscard]] const std::optional<DeadlockInfo>& deadlock() const noexcept {
    return deadlock_;
  }
  [[nodiscard]] std::uint64_t total_flit_moves() const noexcept {
    return flit_moves_;
  }
  [[nodiscard]] const obs::FlightRecorder& flight() const noexcept {
    return flight_;
  }
  /// Postmortems captured so far (at most config.max_postmortems).
  [[nodiscard]] const std::vector<obs::RuntimePostmortem>& postmortems()
      const noexcept {
    return postmortems_;
  }

  /// Checks internal invariants (queue bounds, ownership consistency, path
  /// contiguity, activity-set membership); throws std::logic_error on
  /// violation.  Used by tests that step the simulator manually.
  void validate_invariants() const;

 private:
  struct SourceState {
    std::deque<PacketId> queue;  ///< packets awaiting injection
  };
  /// A flit transfer candidate competing for a physical link this cycle.
  struct Move {
    ChannelId from = kInvalidChannel;  ///< kInvalidChannel = injection
    NodeId src_node = 0;               ///< valid for injections
    ChannelId to = kInvalidChannel;
  };

  void generate_traffic();
  void allocate_outputs();
  /// One allocation attempt for the header of `pkt` at `node`, arrived on
  /// `input` (kInvalidChannel at the source), with its events: the hop's
  /// route decision, the acquire, and the blocked/unblocked edge.  Defined
  /// in simulator.cpp and inlined into both allocation loops (a saturated
  /// run makes tens of attempts per cycle, most of them failing).
  [[gnu::always_inline]] inline std::optional<ChannelId> attempt(
      Packet& pkt, ChannelId input, NodeId node);
  void move_flits();
  void check_deadlock();
  /// The wait-for graph right now: every header (or source-front packet)
  /// with a non-empty waiting set.  Feeds the one WaitAnalysis that the
  /// detector and postmortems share.
  [[nodiscard]] std::vector<BlockedPacket> collect_blocked();
  PacketId create_packet(NodeId src, NodeId dst, std::uint32_t length,
                         std::vector<ChannelId> forced);
  void finish_packet(Packet& pkt);

  // --- event-driven scheduling (DESIGN 3.11) -----------------------------
  /// Recomputes channel `c`'s membership in the allocation / movable /
  /// ejection sets from its current state.  Call after any mutation of the
  /// channel's queue or output assignment.
  void touch_channel(ChannelId c);
  /// Recomputes node `n`'s membership in the source-front sets.  Call after
  /// any mutation of the node's source queue (or its front packet's
  /// injection state).
  void touch_source(NodeId n);
  /// The candidate space changed (fault step, cutover, guard repair, drain
  /// switch, abort): every blocked header gets one fresh allocation attempt.
  void wake_blocked();
  /// Channel `c` was released: the headers waiting on it get one fresh
  /// attempt each, and its waiter list empties.
  void wake_waiters(ChannelId c);
  /// A failed attempt: files `waiter` (an input channel, or num_channels +
  /// node for a source front) under each channel the attempt found owned.
  void add_waiter(std::uint32_t waiter);
  /// True when nothing can change before the next scheduled event: no flits
  /// can move, no stochastic window is open, no metrics stall counting is
  /// pending.  Only valid right after a cycle with zero activity.
  [[nodiscard]] bool can_fast_forward() const;
  /// Earliest cycle >= cycle_ at which anything is scheduled to happen
  /// (timed event, script fire, window/script boundary, deadlock check,
  /// metrics epoch), capped at `horizon`.
  [[nodiscard]] std::uint64_t next_event_cycle(std::uint64_t horizon) const;

  // --- epoch steps and resilience (no-ops without a schedule / under halt)
  /// Applies schedule step `index`: a fault step or a cutover.
  void apply_epoch_step(std::uint32_t index);
  void apply_fault_step(const reconfig::EpochStep& step);
  void apply_cutover(std::uint32_t index, const reconfig::EpochStep& step);
  /// Applies a guard repair decision (rollback or drain-then-switch) in
  /// place of a step; cancels the remaining cutovers.
  void apply_guard_repair(const reconfig::GuardDecision& decision);
  /// Completes a pending drain-then-switch once the network is empty.
  void complete_drain_switch();
  void fire_retry(PacketId id);
  /// Voids `pkt`'s wait commitment (its channel died at fault `epoch`, or
  /// its destination switched relation at reconfiguration `epoch`).
  void void_wait(Packet& pkt, std::uint64_t epoch);
  /// Voids the commitments of source-queued packets toward `switched`.
  void void_switched_waits(const std::vector<NodeId>& switched,
                           std::uint64_t epoch);
  /// Aborts `pkt`; a retry exhaustion captures a postmortem from
  /// `wait_for`, the analysis of the deadlock check that chose `pkt` as its
  /// victim (nullptr: analyse the graph afresh if the capture is kept).
  void abort_packet(Packet& pkt, const WaitAnalysis* wait_for);
  void drop_packet(Packet& pkt);
  void engage_drain();

  // --- observability (all no-ops when the handles are null) --------------
  /// The one emission point of every event site but a hop's own two: the
  /// flight recorder keeps its projection of `event`, and an attached sink
  /// receives the event.  Trace-only sites build their event only when a
  /// sink is attached.  An acquire (attempt) and a tail release
  /// (move_flits) go to FlightRecorder::record_acquire / record_release,
  /// the projections record() itself uses, and build their event for an
  /// attached sink only.
  [[gnu::always_inline]] void emit(const obs::TraceEvent& event) {
    flight_.record(event);
    if (trace_) trace_->emit(event);
  }
  void note_block_transition(Packet& pkt, ChannelId input, NodeId node,
                             bool acquired);
  void capture_postmortem(obs::PostmortemReason reason, PacketId victim,
                          const WaitAnalysis* wait_for);
  /// Stamps `pm` with the live epoch's relation as reconfig::RelationExpr
  /// text: the cumulative union of the cutovers applied so far (or the
  /// rollback or steady union a guard repair put in its place) x the dead
  /// mask, its base named by the schedule's plan.base (else by the
  /// routing's own name); and, with cutovers, the plan's steady state.
  void stamp_relation(obs::RuntimePostmortem& pm) const;
  void sample_metrics();
  void export_final_metrics();

  const Topology* topo_;
  const routing::RoutingFunction* routing_;  ///< base relation (borrowed)
  SimConfig config_;
  // The live epoch: dead mask, current routing version per destination and
  // the pure relation for every version.  Declared before allocator_ so the
  // allocator can borrow it in the member-init list; inert without a
  // schedule.
  LiveEpoch epoch_;
  NetworkState net_;
  RouteAllocator allocator_;
  TrafficGenerator traffic_;
  util::Xoshiro256 rng_;

  std::vector<Packet> packets_;
  std::vector<SourceState> sources_;

  std::uint64_t cycle_ = 0;
  std::size_t in_flight_ = 0;  ///< created but not finished
  std::uint64_t flit_moves_ = 0;
  std::vector<std::uint64_t> channel_moves_;  ///< per-channel, in-window
  std::uint64_t last_progress_ = 0;
  std::optional<DeadlockInfo> deadlock_;

  // Timed events: epoch schedule steps (queued at construction) and abort
  // retries (queued on abort).  Scripted injections are a pre-sorted flat
  // vector with a cursor — sorted by (inject_cycle, node, script order),
  // the exact firing order of the legacy per-node scan.
  EventQueue timed_;
  std::vector<TimedEvent> due_events_;  ///< scratch: this cycle's due events
  std::vector<ScriptedPacket> script_events_;
  std::size_t script_cursor_ = 0;
  std::uint64_t max_inject_cycle_ = 0;
  bool have_script_ = false;
  std::uint64_t gen_end_ = 0;  ///< warmup + measure: stochastic window end

  // Activity sets: the indices each phase visits.  Membership is maintained
  // by touch_channel/touch_source at every mutation site.
  IndexSet alloc_pending_;  ///< channels: header at front, no output yet
  IndexSet ready_src_;      ///< nodes: source front waiting to inject
  IndexSet inject_srcs_;    ///< nodes: source front mid-injection
  IndexSet movable_;        ///< channels: flits queued, forwarding output
  IndexSet eject_ready_;    ///< channels: flits queued, ejection output
  IndexSet eject_nodes_;    ///< nodes with >= 1 eject_ready_ in-channel
  std::vector<std::uint32_t> eject_count_;  ///< per-node eject_ready_ count
  IndexSet live_packets_;   ///< created, not finished/dropped

  // Per-channel waiter lists (DESIGN 3.11).  A failed allocation attempt is
  // pure and RNG-free, and it fails only because every live candidate is
  // owned; so its outcome can only change when one of those candidates is
  // released, or when the candidate space itself changes.  A failed header
  // files its input channel (a source front: num_channels + node) under
  // each candidate; a tail release marks just that channel's waiters fresh.
  // Only fresh entries are attempted: a header is fresh on arrival, on a
  // release of a channel it waits on, and on wake_blocked().  Lists hold no
  // duplicates, so each is bounded by the inputs that can route to it;
  // stale entries (a header that left) cost at most one spurious attempt.
  IndexSet alloc_fresh_;  ///< channels: subset of alloc_pending_ to attempt
  IndexSet src_fresh_;    ///< nodes: subset of ready_src_ to attempt
  std::vector<std::vector<std::uint32_t>> waiters_;  ///< per channel
  /// Per node: its source queue's front (kNoPacket when empty), kept by
  /// touch_source; the flit path reads it instead of the deque.
  std::vector<PacketId> src_front_;
  std::uint64_t alloc_attempts_ = 0;  ///< allocator calls (work units)
  std::uint64_t alloc_grants_ = 0;    ///< of which acquired a channel

  // Owner packet length per channel, stamped at acquire: lets mid-worm
  // forwarding derive head/tail bits without touching the Packet structs.
  std::vector<std::uint32_t> chan_len_;
  bool track_progress_ = false;  ///< per-packet progress stamps needed?

  std::uint64_t activity_ = 0;  ///< work units this cycle (fast-forward gate)

  // Scratch buffers reused across cycles (no steady-state allocation).
  std::vector<std::uint32_t> scratch_channels_;
  std::vector<std::uint32_t> scratch_nodes_;
  std::vector<std::uint32_t> scratch_packets_;
  // Per-link candidate lists, flattened: link l's candidates live at
  // [l * link_stride_, l * link_stride_ + link_cand_count_[l]).  A link can
  // receive at most one forwarding candidate per VC (each VC has one owner)
  // plus one injection from its source node, so stride = max VCs + 1.
  // Counts are zero outside move_flits (its winner loop resets them).
  std::vector<Move> link_cands_;
  std::vector<std::uint32_t> link_cand_count_;
  std::size_t link_stride_ = 0;
  IndexSet links_touched_;  ///< links with candidates

  // Recovery state.
  bool draining_ = false;  ///< drain policy engaged: no new admissions
  double recovery_latency_sum_ = 0.0;

  // Self-healing transition state (DESIGN 3.13).  Cutovers execute strictly
  // in plan order (next_transition_step_); a barrier cutover whose stale
  // stamped packets are still injecting re-queues itself one cycle later.
  // A guard repair sets transition_aborted_ (remaining cutovers become
  // no-ops); a
  // drain-then-switch repair parks its cutover in pending_switch_ until the
  // network is empty, then restores draining_ unless a recovery-policy
  // drain had already engaged it.
  std::size_t next_transition_step_ = 0;
  bool transition_aborted_ = false;
  bool drain_switch_pending_ = false;
  bool drain_was_engaged_ = false;  ///< draining_ before the guard drain
  reconfig::CompiledCutover pending_switch_;

  // Measurement.
  LatencyAccumulator latency_;
  SimStats stats_;

  // Observability state (allocated only when the respective handle is set).
  obs::TraceSink* trace_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::vector<std::uint32_t> epoch_moves_;   ///< per-channel, this epoch
  std::vector<std::uint32_t> epoch_stalls_;  ///< per-channel, this epoch
  obs::FlightRecorder flight_;
  std::vector<obs::RuntimePostmortem> postmortems_;
};

/// One-call convenience wrapper.
[[nodiscard]] SimStats run(const Topology& topo,
                           const routing::RoutingFunction& routing,
                           const SimConfig& config);

}  // namespace wormnet::sim
