// Checker instrumentation: phase timers and work counters for the static
// analysis pipeline (CDG/ECDG construction, subfunction search, CWG build,
// cycle enumeration).
//
// The probe is an opt-in thread-local: install a `CheckerStats` with
// `ProbeScope` around any checker invocation and the instrumented code
// accumulates into it; with no probe installed every site reduces to one
// thread-local load + branch.  A thread-local (rather than threading a handle
// through every checker signature) keeps the public checker API unchanged and
// composes with the thread-pool parallel verifiers — each worker can install
// its own probe.
//
//   obs::CheckerStats stats;
//   {
//     obs::ProbeScope scope(stats);
//     auto result = cdg::search(states);
//   }
//   stats.write_json(std::cout);
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>

namespace wormnet::obs {

struct CheckerStats {
  // Graph-construction work.
  std::uint64_t cdg_builds = 0;
  std::uint64_t cdg_edges = 0;
  std::uint64_t ecdg_builds = 0;
  std::uint64_t ecdg_direct_edges = 0;
  std::uint64_t ecdg_indirect_edges = 0;
  std::uint64_t ecdg_cross_edges = 0;
  /// Successor scans by the ECDG builder's excursion closure: one per
  /// non-escape state an excursion reaches, per destination.  A state that
  /// several escape states reach is scanned once, so wormbench's
  /// `cdg.excursion_visits` reads lower than under the earlier per-escape-
  /// state walks, which counted it once per walk.
  std::uint64_t ecdg_excursion_visits = 0;
  std::uint64_t cwg_builds = 0;
  std::uint64_t cwg_edges = 0;

  // Cycle enumeration (Johnson).
  std::uint64_t cycle_visits = 0;  ///< circuit() invocations
  std::uint64_t cycles_found = 0;

  // Subfunction search.
  std::uint64_t subfunction_candidates = 0;  ///< candidate sets evaluated
  std::uint64_t greedy_expansions = 0;       ///< greedy stack expansions

  /// Wall time per named phase, accumulated across calls.
  std::map<std::string, double> phase_seconds;
  std::map<std::string, std::uint64_t> phase_calls;

  void add_phase(const char* phase, double seconds);
  void write_json(std::ostream& os) const;
};

/// The probe installed on this thread, or nullptr when instrumentation is
/// off.  Instrumented code does `if (auto* p = checker_probe()) ...`.
[[nodiscard]] CheckerStats* checker_probe() noexcept;

/// RAII probe installation (restores the previous probe, so scopes nest).
class ProbeScope {
 public:
  explicit ProbeScope(CheckerStats& stats) noexcept;
  ~ProbeScope();
  ProbeScope(const ProbeScope&) = delete;
  ProbeScope& operator=(const ProbeScope&) = delete;

 private:
  CheckerStats* previous_;
};

/// RAII phase timer; a no-op (not even a clock read) when no probe is
/// installed at construction.
class PhaseTimer {
 public:
  explicit PhaseTimer(const char* phase) noexcept;
  ~PhaseTimer();
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  CheckerStats* stats_;
  const char* phase_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace wormnet::obs
