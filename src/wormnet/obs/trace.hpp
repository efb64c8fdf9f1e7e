// The simulator's one event vocabulary and record, and the trace sinks.
//
// Every simulator event site builds one flat `TraceEvent` and hands it to one
// tap (Simulator::emit): the flight recorder keeps its projection of the
// event (obs/flight.hpp) and, when a sink is attached, the event goes to the
// `TraceSink` too.  Each `EventKind` has a trace name (JSONL and Chrome), a
// flight name (the recorder and postmortems), or both; the table sits beside
// the enum.  The cost when tracing is off is one null-pointer test per
// trace-only site, and the traced run is behaviour-identical to the untraced
// one (instrumentation never touches RNG state or arbitration).
//
// Sinks:
//   * JsonlTraceSink  — one JSON object per line; grep/jq-friendly, and the
//     format the golden-file tests pin down.
//   * ChromeTraceSink — Chrome trace_event JSON; open the file directly in
//     chrome://tracing or https://ui.perfetto.dev.  Packets render as async
//     spans (creation -> delivery) with nested "blocked" spans; flit hops and
//     allocator decisions render as instants on per-channel tracks.
//   * MemoryTraceSink — bounded in-memory ring, for tests and post-mortems
//     (deadlock_autopsy reconstructs wait cycles from it).
//   * NullTraceSink   — discards everything; measures pure emission overhead.
// JSONL and Chrome skip the recorder-only kinds (no trace name); memory and
// null sinks receive every event.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

namespace wormnet::obs {

inline constexpr std::uint32_t kNoId = 0xffffffffu;

enum class EventKind : std::uint8_t {
  kPacketCreate,      ///< packet entered its source queue
  kInject,            ///< head flit entered the network
  kRouteCompute,      ///< header computed its candidate set at a hop
  kVcAlloc,           ///< header acquired a virtual channel
  kLinkTraverse,      ///< one flit crossed a physical link
  kBlock,             ///< header transitioned to blocked
  kUnblock,           ///< previously blocked header acquired a channel
  kEject,             ///< one flit consumed at its destination
  kPacketDone,        ///< tail flit consumed; packet complete
  kDeadlockCheck,     ///< periodic wait-for-graph probe ran
  kDeadlockDetected,  ///< wait-for cycle (or watchdog) fired
  kFault,             ///< fault epoch: channels transitioned to faulty
  kRepair,            ///< channels transitioned back to healthy
  kAbort,             ///< victim packet aborted (recovery)
  kRetry,             ///< aborted packet re-entered its source queue
  kRecovered,         ///< packet delivered after at least one abort
  kSwitch,            ///< reconfig epoch: destinations cut over to a new
                      ///< routing version
  kRollback,          ///< guard reverted migrated destinations to the base
  kDrainSwitch,       ///< guard drained the network, then applied the
                      ///< steady state through it
  // Recorder-only kinds: no trace name, so JSONL and Chrome skip them.
  kRelease,   ///< an abort flush released a channel (tail flits and tail
              ///< ejections imply their own release)
  kWaitVoid,  ///< a wait commitment was voided (its channel died, or its
              ///< destination switched relation)
  kDrop,      ///< packet gave up (retry budget exhausted / drain refusal)
};

/// The names of one kind: `trace` in JSONL and Chrome, `flight` in the
/// flight recorder and postmortems.  A null name means that stream never
/// shows the kind.
struct EventNames {
  const char* trace;
  const char* flight;
};

/// Indexed by EventKind.  The recorder stores every channel release as
/// kRelease and a watchdog detection as kDeadlockDetected with its flag set
/// (flight name "watchdog"; see flight_name).
inline constexpr EventNames kEventNames[] = {
    {"create", nullptr},           {"inject", nullptr},
    {"route", nullptr},            {"vc_alloc", "acquire"},
    {"flit", nullptr},             {"block", "wait"},
    {"unblock", nullptr},          {"eject", nullptr},
    {"done", nullptr},             {"dl_check", nullptr},
    {"deadlock", "deadlock"},      {"fault", "fault"},
    {"repair", "repair"},          {"abort", "abort"},
    {"retry", "retry"},            {"recovered", nullptr},
    {"switch", "switch"},          {"rollback", "rollback"},
    {"drain_switch", "drain-switch"},
    {nullptr, "release"},          {nullptr, "wait_void"},
    {nullptr, "drop"},
};
static_assert(std::size(kEventNames) ==
              static_cast<std::size_t>(EventKind::kDrop) + 1);

/// JSONL/Chrome name of `kind`; null for the recorder-only kinds.
[[nodiscard]] constexpr const char* trace_name(EventKind kind) noexcept {
  return kEventNames[static_cast<std::size_t>(kind)].trace;
}

/// Flight-recorder name of `kind`; null for the kinds the recorder never
/// keeps.  `flag` is the event's flag: a flagged deadlock is the watchdog.
[[nodiscard]] constexpr const char* flight_name(EventKind kind,
                                                bool flag = false) noexcept {
  if (kind == EventKind::kDeadlockDetected && flag) return "watchdog";
  return kEventNames[static_cast<std::size_t>(kind)].flight;
}

/// One flat record.  Field meaning varies per kind (see JsonlTraceSink for
/// the trace mapping, FlightRecorder::record for the flight projection);
/// unused ids stay kNoId.  Kind-specific payloads beyond the trace fields:
/// kVcAlloc carries the input channel in `channel2` (kNoId at the source);
/// kDeadlockDetected carries the cycle's packet count in `value`, or the
/// blocked count when `flag` marks the watchdog; kWaitVoid and kRelease name
/// their channel in `channel`, and kWaitVoid its epoch in `value`.
struct TraceEvent {
  EventKind kind = EventKind::kPacketCreate;
  std::uint64_t cycle = 0;
  std::uint32_t packet = kNoId;
  std::uint32_t node = kNoId;      ///< node where the event happened
  std::uint32_t node2 = kNoId;     ///< secondary node (packet destination)
  std::uint32_t channel = kNoId;   ///< primary channel (acquired / moved to)
  std::uint32_t channel2 = kNoId;  ///< secondary channel (input / moved from)
  std::uint64_t value = 0;         ///< length, candidate count, latency, ...
  bool flag = false;               ///< head flit / watchdog detection
  bool flag2 = false;              ///< tail flit
  /// List payload: the channels of a fault/repair epoch and the destinations
  /// of a reconfiguration step always; the waiting set of a block and the
  /// packet cycle of a deadlock only when a sink is attached.  Empty on
  /// hot-path events, so emission stays allocation-free.
  std::vector<std::uint32_t> list;
};

/// A bounded ring keeping the newest `capacity` values.  Storage grows on
/// demand up to the capacity (reserve() allocates it all up front); once
/// full, each push overwrites the oldest value.  Capacity 0 disables it.
template <typename T>
class Ring {
 public:
  explicit Ring(std::size_t capacity) : capacity_(capacity) {}

  void reserve() { slots_.reserve(capacity_); }

  /// Inlined: the flight recorder pushes on the simulator's flit path.
  [[gnu::always_inline]] void push(const T& value) {
    if (slots_.size() == capacity_) {
      if (capacity_ == 0) return;
      slots_[next_] = value;
      next_ = next_ + 1 == capacity_ ? 0 : next_ + 1;
    } else {
      slots_.push_back(value);
    }
    ++pushed_;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }
  /// Values ever pushed (including those since overwritten).
  [[nodiscard]] std::uint64_t pushed() const noexcept { return pushed_; }
  /// Values lost to wraparound.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return pushed_ - slots_.size();
  }

  /// The newest `n` values, oldest first.
  [[nodiscard]] std::vector<T> tail(std::size_t n) const {
    const std::size_t size = slots_.size();
    n = std::min(n, size);
    std::vector<T> out;
    out.reserve(n);
    // Until the ring wraps next_ stays 0; after, it is the oldest slot.
    for (std::size_t i = size - n; i < size; ++i) {
      out.push_back(slots_[(next_ + i) % size]);
    }
    return out;
  }

  /// Every retained value, oldest first.
  [[nodiscard]] std::vector<T> snapshot() const { return tail(slots_.size()); }

  /// Forgets every value; the capacity (and reserved storage) stays.
  void clear() noexcept {
    slots_.clear();
    next_ = 0;
    pushed_ = 0;
  }

 private:
  std::size_t capacity_;
  std::vector<T> slots_;
  std::size_t next_ = 0;  ///< slot the next push overwrites once full
  std::uint64_t pushed_ = 0;
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void emit(const TraceEvent& event) = 0;
  virtual void flush() {}
};

/// One compact JSON object per event, newline-terminated.
class JsonlTraceSink final : public TraceSink {
 public:
  explicit JsonlTraceSink(std::ostream& os) : os_(os) {}
  void emit(const TraceEvent& event) override;
  void flush() override;

 private:
  std::ostream& os_;
};

/// Chrome trace_event ("Trace Event Format") JSON for chrome://tracing and
/// Perfetto.  Cycles map to microseconds of trace time.
class ChromeTraceSink final : public TraceSink {
 public:
  /// `channel_names[c]`, when provided, names the per-channel tracks.
  explicit ChromeTraceSink(std::ostream& os,
                           std::vector<std::string> channel_names = {});
  ~ChromeTraceSink() override;

  void emit(const TraceEvent& event) override;
  void flush() override;

 private:
  void preamble();
  void event_prefix(const char* phase, const std::string& name,
                    const char* category, std::uint64_t ts, std::uint32_t tid);

  std::ostream& os_;
  std::vector<std::string> channel_names_;
  std::unordered_map<std::uint32_t, std::string> packet_labels_;
  bool first_ = true;
  bool closed_ = false;
};

/// Keeps the most recent `capacity` events in memory.
class MemoryTraceSink final : public TraceSink {
 public:
  explicit MemoryTraceSink(std::size_t capacity = static_cast<std::size_t>(-1))
      : ring_(capacity) {}

  void emit(const TraceEvent& event) override { ring_.push(event); }

  /// The retained events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> events() const {
    return ring_.snapshot();
  }
  [[nodiscard]] std::uint64_t total_emitted() const noexcept {
    return ring_.pushed();
  }
  void clear() noexcept { ring_.clear(); }

 private:
  Ring<TraceEvent> ring_;
};

/// Counts and discards; isolates the emission overhead itself.
class NullTraceSink final : public TraceSink {
 public:
  void emit(const TraceEvent&) override { ++count_; }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

 private:
  std::uint64_t count_ = 0;
};

}  // namespace wormnet::obs
