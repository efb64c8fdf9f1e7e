// The parallel sweep engine.
//
// run_sweep() expands a SweepSpec, shards the points in contiguous chunks
// across a util::ThreadPool, runs one flit-level simulation per point, and
// reduces the results deterministically:
//
//   * every point's simulation seed comes from its canonical index (a
//     jump()-derived Xoshiro256 stream, see sweep_spec.hpp) — never from
//     the executing thread;
//   * per-point results land in a pre-sized vector slot, so completion
//     order is irrelevant;
//   * the Aggregate is folded in canonical point order after the pool
//     drains — never concurrently.
//
// Consequence (pinned by tests/test_sweep_determinism.cpp): the outcome of
// a sweep — every row and the aggregate — is byte-identical for any thread
// count, including 1.
//
// Static analysis (Duato certification, optionally CWG) is memoized per
// (topology, routing) key in an AnalysisCache shared by all workers, so the
// checkers run once per pair instead of once per point.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "wormnet/core/verdict.hpp"
#include "wormnet/exp/aggregate.hpp"
#include "wormnet/exp/analysis_cache.hpp"
#include "wormnet/exp/sweep_spec.hpp"
#include "wormnet/obs/metrics.hpp"
#include "wormnet/obs/postmortem.hpp"
#include "wormnet/obs/profiler.hpp"

namespace wormnet::exp {

struct SweepResult {
  SweepPoint point;
  sim::SimStats stats;
  core::Conclusion duato = core::Conclusion::kUnknown;
  core::Conclusion cwg = core::Conclusion::kUnknown;
  /// Per-epoch re-verification (fault-plan points only): every distinct
  /// degraded relation the plan produces is re-checked by the Duato
  /// condition, memoized by fault mask in the AnalysisCache.  A plan whose
  /// faults disconnect the escape subfunction yields uncertified epochs —
  /// the sweep then expects losses under recovery rather than flagging a
  /// theorem violation.
  std::uint32_t fault_epochs = 0;        ///< degraded epochs checked
  std::uint32_t uncertified_epochs = 0;  ///< of those, failed re-check
  bool epochs_certified = true;          ///< all degraded epochs certified
  /// Per-epoch re-verification (reconfig-plan points only): every distinct
  /// cumulative union relation the transition pass produces — plus the
  /// steady state — is checked by the Duato condition, memoized by
  /// UnionSpec in the AnalysisCache.  An incompatible (R_old, R_new) pair
  /// yields uncertified transition epochs, and the sweep then expects the
  /// simulator may deadlock mid-switch rather than flagging a theorem
  /// violation.
  std::uint32_t transition_epochs = 0;   ///< union epochs checked
  std::uint32_t uncertified_transition_epochs = 0;  ///< failed re-check
  /// Per-epoch re-verification (fault x reconfig points, DESIGN 3.13):
  /// every *composed* epoch the merged timeline produces — a cumulative
  /// union relation degraded by the live fault mask — is checked by the
  /// Duato condition, memoized by (UnionSpec, mask) in the AnalysisCache.
  /// Pristine-mask epochs are counted under transition_epochs, not here.
  std::uint32_t composed_epochs = 0;     ///< composed epochs checked
  std::uint32_t uncertified_composed_epochs = 0;  ///< failed re-check
  /// Duato proved the pristine pair deadlock-free AND every fault epoch's
  /// degraded relation AND every transition epoch's union relation AND
  /// every composed epoch re-certified.  This is the bit the differential
  /// harness trusts: a deadlock on a certified point falsifies the theorem
  /// or (far more likely) the implementation.  Guard repairs never widen
  /// this bit — a healed point stays uncertified, its health shows up as
  /// rollbacks with full packet conservation instead.
  bool certified = false;
  /// Postmortems the point's simulator captured (deadlock halt, watchdog,
  /// retry exhaustion) — deterministic, part of the reproducible surface.
  std::vector<obs::RuntimePostmortem> postmortems;
  /// Wall time of this point (analysis + simulation).  NOT deterministic;
  /// excluded from sweep rows unless timings are explicitly requested.
  double point_ms = 0.0;
};

struct RunnerOptions {
  /// Worker threads; 0 = hardware concurrency, 1 = run inline (no pool).
  std::size_t threads = 0;
  /// Points per pool task; 0 picks a chunk size that gives each worker
  /// several chunks (tail-latency smoothing without per-point overhead).
  std::size_t chunk = 0;
  /// Run the CWG reduction per (topology, routing) key as well.
  bool with_cwg = false;
  /// Emit a proof-carrying certificate per analysis-cache miss (pristine
  /// pairs and fault epochs alike); they surface in
  /// SweepOutcome::certificates in deterministic cache-key order.
  bool certify = false;
  /// Hand each reconfig point's guard decisions to the simulator (the
  /// schedule's guard walk runs on composed points either way): refuted
  /// composed epochs trigger certified rollback (or
  /// drain-then-switch) instead of running uncertified.  Off by default so
  /// the differential property stays non-vacuous — uncertified composed
  /// points must be able to deadlock for "deadlock implies uncertified"
  /// to mean anything.
  bool rollback = false;
  /// Borrowed; populated after the parallel phase (counters `sweep.*`).
  /// Null = disabled.
  obs::MetricsRegistry* metrics = nullptr;
  /// Borrowed self-profiling registry (null = off): per-point wall time
  /// lands as "sweep.point" samples, cache misses as "sweep.analysis" /
  /// "sweep.epoch_reverify" (plus the verifier's own phases), and the whole
  /// registry is copied into `metrics` as "profile.*" histograms at the end.
  /// Timing values are wall clock — never part of the deterministic surface.
  obs::Profiler* profiler = nullptr;
  /// Progress callback, invoked from worker threads under a mutex as each
  /// point finishes.  Keep it cheap; null = disabled.
  std::function<void(std::size_t done, std::size_t total)> progress;
};

struct SweepOutcome {
  std::vector<SweepResult> results;    ///< canonical point order
  std::vector<std::string> skipped;    ///< inapplicable grid combos
  Aggregate aggregate;                 ///< canonical-order fold of results
  /// Every certificate the analysis cache emitted (RunnerOptions::certify),
  /// in cache-key order — deterministic for any thread count.
  std::vector<CertificateRecord> certificates;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  double wall_ms = 0.0;  ///< not part of the deterministic surface
};

[[nodiscard]] SweepOutcome run_sweep(const SweepSpec& spec,
                                     const RunnerOptions& options = {});

}  // namespace wormnet::exp
