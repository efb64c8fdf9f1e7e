// Cycle-stamped event queue for the simulator's timed work (DESIGN 3.11).
//
// Everything that fires at a known future cycle — epoch schedule steps,
// abort-retry re-injections — is queued here instead of being re-scanned
// every cycle.  The queue is a binary min-heap ordered by the stable key
// (cycle, kind, seq): `kind` reproduces the legacy phase order within a
// cycle (epoch steps before retries), and `seq` (a monotone push counter)
// reproduces insertion order within a kind — the tie-break contract that
// keeps event-driven runs bit-identical to the polled core they replaced.
// Epoch steps are pushed in schedule order, so within a cycle they pop in
// it, and a deferred barrier cutover re-pushed at runtime pops after them.
//
// Scripted injections stay outside this queue: they are known at
// construction, so a pre-sorted flat vector with a cursor is cheaper and
// trivially deterministic (sorted by (inject_cycle, node, script order)).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

namespace wormnet::sim {

/// Timed-event kinds, in within-cycle processing order.
enum class TimedKind : std::uint8_t {
  kEpochStep = 0,  ///< payload: index into EpochSchedule::steps
  kRetry = 1,      ///< payload: PacketId awaiting re-injection
};

struct TimedEvent {
  std::uint64_t cycle = 0;
  TimedKind kind = TimedKind::kEpochStep;
  std::uint32_t seq = 0;  ///< push order; last component of the sort key
  std::uint32_t payload = 0;

  /// Heap ordering: earliest (cycle, kind, seq) first.
  [[nodiscard]] friend bool operator>(const TimedEvent& a,
                                      const TimedEvent& b) {
    if (a.cycle != b.cycle) return a.cycle > b.cycle;
    if (a.kind != b.kind) return a.kind > b.kind;
    return a.seq > b.seq;
  }
};

class EventQueue {
 public:
  static constexpr std::uint64_t kNever =
      std::numeric_limits<std::uint64_t>::max();

  void push(std::uint64_t cycle, TimedKind kind, std::uint32_t payload) {
    heap_.push_back(TimedEvent{cycle, kind, seq_++, payload});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }

  /// Cycle of the earliest event, kNever when empty.
  [[nodiscard]] std::uint64_t next_cycle() const noexcept {
    return heap_.empty() ? kNever : heap_.front().cycle;
  }

  /// True iff an event is due at or before `cycle`.
  [[nodiscard]] bool has_due(std::uint64_t cycle) const noexcept {
    return !heap_.empty() && heap_.front().cycle <= cycle;
  }

  TimedEvent pop() {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    TimedEvent ev = heap_.back();
    heap_.pop_back();
    return ev;
  }

  void reserve(std::size_t n) { heap_.reserve(n); }

 private:
  std::vector<TimedEvent> heap_;
  std::uint32_t seq_ = 0;
};

}  // namespace wormnet::sim
