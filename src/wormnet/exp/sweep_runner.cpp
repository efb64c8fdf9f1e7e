#include "wormnet/exp/sweep_runner.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <thread>

#include "wormnet/core/registry.hpp"
#include "wormnet/ft/fault_plan.hpp"
#include "wormnet/reconfig/schedule.hpp"
#include "wormnet/reconfig/transition_plan.hpp"
#include "wormnet/util/thread_pool.hpp"

namespace wormnet::exp {
namespace {

/// Runs one grid point: cached static analysis + a fresh routing instance +
/// one simulation.  Everything written is local to the point's result slot,
/// so points are embarrassingly parallel.
SweepResult run_point(const SweepSpec& spec, const SweepPoint& point,
                      AnalysisCache& cache, const RunnerOptions& options) {
  obs::Profiler* profiler = options.profiler;
  const auto point_start = std::chrono::steady_clock::now();
  obs::Profiler::Scope point_timer(profiler, "sweep.point");
  // A fault plan's degraded epochs derive their graphs from this one's.
  const AnalysisEntry& analysis =
      cache.get(point.topology, reconfig::RelationExpr(point.routing),
                point.faults && !point.faults->empty());
  // Routing functions are rebuilt per point: construction is cheap and it
  // sidesteps any question of sharing virtual dispatch state across threads.
  const auto routing = core::make_algorithm(point.routing, *analysis.topo);

  sim::SimConfig cfg = spec.base;
  cfg.injection_rate = point.load;
  cfg.pattern = point.pattern;
  cfg.seed = point.seed;
  cfg.trace = nullptr;    // workers never share obs sinks
  cfg.metrics = nullptr;

  SweepResult result;
  result.point = point;

  // Fault axis: the plan expand() compiled, shared by the points; certify
  // every degraded epoch before running.
  if (point.faults) {
    const auto masks = point.faults->epoch_masks();
    // masks[0] is the pristine network — that verdict is `analysis`
    // itself; only the degraded epochs need a re-check.
    for (std::size_t e = 1; e < masks.size(); ++e) {
      const AnalysisEntry& epoch = cache.get(
          point.topology, reconfig::RelationExpr(point.routing, masks[e]));
      ++result.fault_epochs;
      if (!epoch.certified) ++result.uncertified_epochs;
    }
  }

  // Reconfiguration axis: bind the plan expand() resolved to this point's
  // topology instance (planner-free, so cheap) and certify every cumulative
  // union epoch (plus the steady state) before running.
  reconfig::CompiledTransitionPlan transition;
  transition.base = point.routing;
  std::optional<reconfig::GuardWalk> guard;
  if (point.transition) {
    transition =
        reconfig::compile(*point.transition, *analysis.topo, point.routing);
    for (const reconfig::UnionSpec& spec_epoch :
         transition.verification_epochs()) {
      const AnalysisEntry& epoch =
          cache.get(point.topology, reconfig::RelationExpr(spec_epoch));
      ++result.transition_epochs;
      if (!epoch.certified) ++result.uncertified_transition_epochs;
    }
    // Composed space (DESIGN 3.13): when both axes are live, the guard
    // walk certifies every composed epoch — the union relation under the
    // then-current fault mask.  The cache-backed certifier means every
    // consulted epoch (rollback unions included) also flows through the
    // certificate pipeline; only --rollback hands the decisions on.
    if (point.faults || options.rollback) {
      guard = reconfig::GuardWalk{
          .certify =
              [&](const reconfig::RelationExpr& relation) {
                const AnalysisEntry& epoch =
                    cache.get(point.topology, relation);
                if (!relation.fault_mask.empty()) {
                  ++result.composed_epochs;
                  if (!epoch.certified) ++result.uncertified_composed_epochs;
                }
                return epoch.certified;
              },
          .enforce = options.rollback};
    }
  }
  // Every point runs on a schedule whose plan names its base relation.
  cfg.schedule = reconfig::build_epoch_schedule(
      *analysis.topo, point.faults ? *point.faults : ft::CompiledFaultPlan{},
      std::move(transition), guard);
  result.epochs_certified = result.uncertified_epochs == 0 &&
                            result.uncertified_transition_epochs == 0 &&
                            result.uncertified_composed_epochs == 0;

  {
    // Direct Simulator (not the sim::run wrapper) so captured postmortems
    // survive the run — they carry the forensics --postmortem-dir writes out.
    sim::Simulator simulator(*analysis.topo, *routing, cfg);
    result.stats = simulator.run();
    result.postmortems = simulator.postmortems();
  }
  result.duato = analysis.duato.conclusion;
  result.cwg = analysis.cwg.conclusion;
  result.certified = analysis.certified && result.epochs_certified;
  result.point_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - point_start)
                        .count();
  return result;
}

void export_metrics(obs::MetricsRegistry& metrics, const SweepOutcome& out) {
  metrics.counter("sweep.points").set(out.aggregate.points);
  metrics.counter("sweep.skipped").set(out.skipped.size());
  metrics.counter("sweep.deadlocks").set(out.aggregate.deadlocks);
  metrics.counter("sweep.saturated").set(out.aggregate.saturated);
  metrics.counter("sweep.certified_points")
      .set(out.aggregate.certified_points);
  metrics.counter("sweep.certified_deadlocks")
      .set(out.aggregate.certified_deadlocks);
  metrics.counter("sweep.cache_hits").set(out.cache_hits);
  metrics.counter("sweep.cache_misses").set(out.cache_misses);
  // Resilience counters only appear on sweeps that exercised faults or
  // recovery; fault-free metric dumps stay byte-identical to pre-ft ones.
  if (out.aggregate.fault_epochs > 0 || out.aggregate.packets_aborted > 0 ||
      out.aggregate.packets_dropped > 0) {
    metrics.counter("sweep.fault_epochs").set(out.aggregate.fault_epochs);
    metrics.counter("sweep.packets_aborted")
        .set(out.aggregate.packets_aborted);
    metrics.counter("sweep.packets_retried")
        .set(out.aggregate.packets_retried);
    metrics.counter("sweep.packets_dropped")
        .set(out.aggregate.packets_dropped);
    metrics.counter("sweep.recovered_packets")
        .set(out.aggregate.recovered_packets);
  }
  // Reconfiguration counters likewise only appear on sweeps that actually
  // switched destinations mid-run.
  if (out.aggregate.reconfig_epochs > 0) {
    metrics.counter("sweep.reconfig_epochs")
        .set(out.aggregate.reconfig_epochs);
    metrics.counter("sweep.dests_switched")
        .set(out.aggregate.dests_switched);
  }
  metrics.gauge("sweep.wall_ms").set(out.wall_ms);
  metrics.gauge("sweep.mean_latency").set(out.aggregate.mean_latency());
  metrics.gauge("sweep.mean_throughput")
      .set(out.aggregate.mean_throughput());
  auto& latency = metrics.histogram("sweep.point_avg_latency");
  for (const SweepResult& r : out.results) {
    if (!r.stats.deadlocked && r.stats.measured_delivered > 0) {
      latency.add(r.stats.avg_latency);
    }
  }
}

}  // namespace

SweepOutcome run_sweep(const SweepSpec& spec, const RunnerOptions& options) {
  const auto start = std::chrono::steady_clock::now();

  ExpandedSweep expanded = expand(spec);
  AnalysisCache cache(options.with_cwg, options.profiler, options.certify);

  SweepOutcome out;
  out.skipped = std::move(expanded.skipped);
  out.results.resize(expanded.points.size());

  const std::size_t total = expanded.points.size();
  std::size_t threads = options.threads;
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  threads = std::min(threads, std::max<std::size_t>(total, 1));

  if (threads <= 1) {
    // Inline reference path: what the determinism tests compare against.
    for (std::size_t i = 0; i < total; ++i) {
      out.results[i] =
          run_point(spec, expanded.points[i], cache, options);
      if (options.progress) options.progress(i + 1, total);
    }
  } else {
    // Contiguous chunks keep per-task overhead negligible while giving each
    // worker several chunks to smooth out uneven point costs (a deadlocked
    // run ends early; a saturated one drains for a long time).
    std::size_t chunk = options.chunk;
    if (chunk == 0) chunk = std::max<std::size_t>(1, total / (threads * 8));
    std::mutex progress_mutex;
    std::size_t done = 0;
    util::ThreadPool pool(threads);
    for (std::size_t begin = 0; begin < total; begin += chunk) {
      const std::size_t end = std::min(begin + chunk, total);
      const bool accepted = pool.submit([&, begin, end] {
        for (std::size_t i = begin; i < end; ++i) {
          out.results[i] =
              run_point(spec, expanded.points[i], cache, options);
          if (options.progress) {
            std::lock_guard lock(progress_mutex);
            options.progress(++done, total);
          }
        }
      });
      // The pool only refuses work during shutdown, which cannot happen
      // while we hold it; keep the invariant loud in debug builds anyway.
      (void)accepted;
    }
    pool.wait_idle();
  }

  // Deterministic reduction: fold in canonical point order, after the
  // parallel phase — byte-identical for any thread count.
  for (const SweepResult& result : out.results) {
    out.aggregate.add(result.stats, result.certified);
  }
  if (options.certify) out.certificates = cache.certificates();
  out.cache_hits = cache.hits();
  out.cache_misses = cache.misses();
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  if (options.metrics) {
    export_metrics(*options.metrics, out);
    std::uint64_t postmortems = 0;
    for (const SweepResult& r : out.results) postmortems += r.postmortems.size();
    if (postmortems > 0) {
      options.metrics->counter("sweep.postmortems").set(postmortems);
    }
    if (options.profiler) options.profiler->export_to(*options.metrics);
  }
  return out;
}

}  // namespace wormnet::exp
