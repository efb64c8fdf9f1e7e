#include "wormnet/exp/sweep_io.hpp"

#include <string_view>
#include <type_traits>

#include "wormnet/cdg/cdg_builder.hpp"
#include "wormnet/core/registry.hpp"
#include "wormnet/obs/json.hpp"
#include "wormnet/sim/traffic.hpp"

namespace wormnet::exp {
namespace {

/// Every row column in output order: the one list the JSONL and CSV writers
/// share.  `emit(name, value)` takes each column.  JSONL rows (`detail`)
/// also carry a deadlocked point's deadlock cycle and watchdog flag.
template <typename Emit>
void row_columns(const SweepResult& r, const SweepIoOptions& options,
                 bool detail, Emit&& emit) {
  const SweepPoint& p = r.point;
  const sim::SimStats& s = r.stats;
  emit("i", static_cast<std::uint64_t>(p.index));
  emit("topology", p.topology);
  emit("routing", p.routing);
  emit("pattern", sim::to_string(p.pattern));
  emit("load", p.load);
  emit("rep", p.replication);
  emit("seed", p.seed);
  emit("fault", p.fault_plan.empty() ? "none" : p.fault_plan);
  emit("reconfig", p.reconfig_plan.empty() ? "none" : p.reconfig_plan);
  emit("certified", r.certified);
  emit("duato", core::to_string(r.duato));
  emit("cwg", core::to_string(r.cwg));
  emit("fault_epochs", r.fault_epochs);
  emit("uncertified_epochs", r.uncertified_epochs);
  emit("transition_epochs", r.transition_epochs);
  emit("uncertified_transition_epochs", r.uncertified_transition_epochs);
  emit("composed_epochs", r.composed_epochs);
  emit("uncertified_composed_epochs", r.uncertified_composed_epochs);
  emit("deadlocked", s.deadlocked);
  if (detail && s.deadlocked) {
    emit("deadlock_cycle", s.deadlock.cycle);
    emit("deadlock_watchdog", s.deadlock.from_watchdog);
  }
  emit("saturated", s.saturated);
  emit("packets_created", s.packets_created);
  emit("packets_delivered", s.packets_delivered);
  emit("measured_delivered", s.measured_delivered);
  emit("packets_aborted", s.packets_aborted);
  emit("packets_retried", s.packets_retried);
  emit("packets_dropped", s.packets_dropped);
  emit("recovered_packets", s.recovered_packets);
  emit("rollbacks", s.rollbacks);
  emit("rollback_dests", s.rollback_dests);
  emit("drain_switches", s.drain_switches);
  emit("avg_latency", s.avg_latency);
  emit("p50_latency", s.p50_latency);
  emit("p99_latency", s.p99_latency);
  emit("avg_network_latency", s.avg_network_latency);
  emit("offered_load", s.offered_load);
  emit("accepted_throughput", s.accepted_throughput);
  emit("avg_channel_utilization", s.avg_channel_utilization);
  emit("max_channel_utilization", s.max_channel_utilization);
  emit("max_hops", s.max_hops);
  emit("cycles_run", s.cycles_run);
  if (options.timings) emit("point_ms", r.point_ms);
}

}  // namespace

void write_jsonl(std::ostream& os, const SweepOutcome& outcome,
                 const SweepIoOptions& options) {
  for (const SweepResult& r : outcome.results) {
    obs::JsonWriter w(os);
    w.begin_object();
    row_columns(r, options, true, [&w](std::string_view name,
                                       const auto& value) {
      w.field(name, value);
    });
    w.end_object();
    os << "\n";
  }
  {
    obs::JsonWriter w(os);
    w.begin_object();
    w.key("aggregate");
    w.begin_object();
    outcome.aggregate.write_fields(w);
    w.end_object();
    w.key("skipped");
    w.begin_array();
    for (const std::string& s : outcome.skipped) w.string(s);
    w.end_array();
    w.key("cache");
    w.begin_object();
    w.field("hits", outcome.cache_hits);
    w.field("misses", outcome.cache_misses);
    w.end_object();
    w.end_object();
    os << "\n";
  }
}

void write_csv(std::ostream& os, const SweepOutcome& outcome,
               const SweepIoOptions& options) {
  const char* sep = "";
  row_columns(SweepResult{}, options, false,
              [&](std::string_view name, const auto&) {
                os << sep << name;
                sep = ",";
              });
  os << "\n";
  for (const SweepResult& r : outcome.results) {
    // Topology specs, registry names, and fault/transition-plan texts
    // contain no commas/quotes ('+' joins plan events precisely so the grid
    // and CSV grammars stay comma-free), so plain comma joining is
    // RFC-4180 safe.
    sep = "";
    row_columns(r, options, false, [&](std::string_view, const auto& value) {
      using T = std::decay_t<decltype(value)>;
      os << sep;
      sep = ",";
      if constexpr (std::is_same_v<T, bool>) {
        os << (value ? 1 : 0);
      } else if constexpr (std::is_same_v<T, double>) {
        os << obs::json_double(value);
      } else {
        os << value;
      }
    });
    os << "\n";
  }
}

void write_postmortem(std::ostream& os, AnalysisCache& cache,
                      const std::string& topo_spec,
                      const obs::RuntimePostmortem& runtime) {
  using reconfig::RelationExpr;
  const topology::Topology topo = core::make_topology(topo_spec);
  const RelationExpr relation = RelationExpr::parse(runtime.relation, topo);
  const AnalysisEntry& verdict = cache.get(topo_spec, relation);
  static const audit::Certificate kUncertified;  // no C1
  const audit::Certificate& cert = verdict.certified && verdict.certificate
                                       ? *verdict.certificate
                                       : kUncertified;
  const auto routing = relation.build(topo);
  obs::PostmortemReport report = obs::cross_reference(
      cdg::StateGraph(topo, *routing), cert.escape_channels, cert.subfunction,
      runtime, topo_spec);
  if (!runtime.steady_state.empty()) {
    const RelationExpr base(relation.transition
                                ? relation.transition->names[0]
                                : relation.routing);
    const RelationExpr steady = RelationExpr::parse(runtime.steady_state, topo);
    obs::classify_transition_origins(
        report, cdg::build_cdg(topo, *base.build(topo)),
        cdg::build_cdg(topo, *steady.build(topo)));
  }
  obs::write_postmortem_json(os, topo, report);
}

}  // namespace wormnet::exp
