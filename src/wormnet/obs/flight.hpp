// The flight recorder: a fixed-capacity ring of compact channel-level
// lifecycle records inside the Simulator, cheap enough to leave on by
// default.
//
// The recorder is a ring sink of the one event vocabulary (obs/trace.hpp):
// the simulator's tap hands it every event, and record() keeps a projection
// of the kinds that have a flight name — acquires, releases, waits and their
// voids, faults and repairs, aborts, retries, drops, deadlocks, the watchdog
// and reconfiguration steps — as 24-byte `FlightEvent` slots.  A tail flit or
// tail ejection projects to the release of the channel it leaves, and a
// fault/repair epoch to one record per channel.  Recording is a ring store
// plus a counter increment, there is no allocation after construction,
// and nothing is rendered until a postmortem asks for the tail.  Drops by
// ring wraparound are counted, never silent (SimStats::flight_events_dropped).
//
// Determinism contract (DESIGN 3.9): recording is driven exclusively by the
// simulator's own deterministic event order and cycle counter — no wall
// clock, no thread ids — so the recorded sequence is bit-identical across
// runs, hosts, and any `--threads` value of the sweep engine (each sweep
// point owns a private recorder).
#pragma once

#include <cstdint>
#include <vector>

#include "wormnet/obs/trace.hpp"

namespace wormnet::obs {

/// One compact record.  `kind` is the event kind it projects (every release
/// is kRelease); `aux` carries the kind-specific extra: the input channel
/// for an acquire at a router, the node for a wait, the epoch for a fault,
/// repair, wait void or reconfiguration step, the attempt count for an
/// abort or retry, the cycle size (or, for the watchdog, the blocked count)
/// for a deadlock.  Unused ids stay kNone.
struct FlightEvent {
  static constexpr std::uint32_t kNone = kNoId;

  std::uint64_t cycle = 0;
  EventKind kind = EventKind::kVcAlloc;
  bool flag = false;  ///< kDeadlockDetected: the watchdog fired
  std::uint32_t packet = kNone;
  std::uint32_t channel = kNone;
  std::uint32_t aux = kNone;

  /// The flight name ("acquire", "wait", "watchdog", ...).
  [[nodiscard]] const char* name() const noexcept {
    return flight_name(kind, flag);
  }
};

class FlightRecorder {
 public:
  /// `capacity` of 0 disables the recorder entirely (record() still safe).
  explicit FlightRecorder(std::size_t capacity) : ring_(capacity) {
    ring_.reserve();
  }

  /// Keeps the recorder's projection of `ev` (nothing for kinds without a
  /// flight name, one record per channel for a fault or repair epoch).
  [[gnu::always_inline]] void record(const TraceEvent& ev) noexcept {
    if (ring_.capacity() == 0) return;
    EventKind kind = ev.kind;
    std::uint32_t channel = kNoId;
    auto aux = static_cast<std::uint32_t>(ev.value);
    switch (ev.kind) {
      case EventKind::kVcAlloc:
        record_acquire(ev.cycle, ev.packet, ev.channel, ev.channel2);
        return;
      case EventKind::kLinkTraverse:
        // A forwarded tail flit leaves (and releases) its input channel.
        if (ev.flag2 && ev.channel2 != kNoId) {
          record_release(ev.cycle, ev.packet, ev.channel2);
        }
        return;
      case EventKind::kEject:
        if (ev.flag2) record_release(ev.cycle, ev.packet, ev.channel);
        return;
      case EventKind::kRelease:
        record_release(ev.cycle, ev.packet, ev.channel);
        return;
      case EventKind::kBlock:
        channel = ev.channel2;
        aux = ev.node;
        break;
      case EventKind::kWaitVoid:
        channel = ev.channel;
        break;
      case EventKind::kFault:
      case EventKind::kRepair:
        for (const std::uint32_t c : ev.list) {
          ring_.push({ev.cycle, kind, false, kNoId, c, aux});
        }
        return;
      case EventKind::kDrop:
        aux = kNoId;
        break;
      case EventKind::kAbort:
      case EventKind::kRetry:
      case EventKind::kDeadlockDetected:
      case EventKind::kSwitch:
      case EventKind::kRollback:
      case EventKind::kDrainSwitch:
        break;
      default:
        return;  // trace-only kinds
    }
    ring_.push({ev.cycle, kind, kind == EventKind::kDeadlockDetected && ev.flag,
                ev.packet, channel, aux});
  }

  // The two records of every hop, which the simulator's allocation and
  // flit paths hand over directly, without building the TraceEvent
  // record() reads.  record() projects its events through them too.

  /// The projection of an acquire: `packet` took `channel`, arriving on
  /// `input` (kNone at its source).
  [[gnu::always_inline]] void record_acquire(std::uint64_t cycle,
                                             std::uint32_t packet,
                                             std::uint32_t channel,
                                             std::uint32_t input) noexcept {
    if (ring_.capacity() == 0) return;
    ring_.push({cycle, EventKind::kVcAlloc, false, packet, channel, input});
  }

  /// The projection of every release: `packet` let go of `channel`, by a
  /// tail flit leaving it, a tail ejection or an abort flush.
  [[gnu::always_inline]] void record_release(std::uint64_t cycle,
                                             std::uint32_t packet,
                                             std::uint32_t channel) noexcept {
    if (ring_.capacity() == 0) return;
    ring_.push({cycle, EventKind::kRelease, false, packet, channel, kNoId});
  }

  [[nodiscard]] std::size_t capacity() const noexcept {
    return ring_.capacity();
  }
  [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }
  /// Events ever recorded (including those since overwritten).
  [[nodiscard]] std::uint64_t recorded() const noexcept {
    return ring_.pushed();
  }
  /// Events lost to ring wraparound.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return ring_.dropped();
  }

  /// The retained events in chronological order (oldest first).
  [[nodiscard]] std::vector<FlightEvent> snapshot() const {
    return ring_.snapshot();
  }

  /// The most recent `n` events in chronological order.
  [[nodiscard]] std::vector<FlightEvent> tail(std::size_t n) const {
    return ring_.tail(n);
  }

  void clear() noexcept { ring_.clear(); }

 private:
  Ring<FlightEvent> ring_;
};

}  // namespace wormnet::obs
