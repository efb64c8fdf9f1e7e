#include "wormnet/core/verifier.hpp"

#include <optional>
#include <sstream>

#include "wormnet/cdg/cdg_builder.hpp"
#include "wormnet/cdg/message_flow.hpp"
#include "wormnet/core/certify.hpp"
#include "wormnet/cwg/cwg_builder.hpp"
#include "wormnet/cwg/cycle_classify.hpp"
#include "wormnet/obs/probe.hpp"

namespace wormnet::core {
namespace {

using routing::WaitMode;

/// Certificate sink threaded through the checkers: null means the caller
/// does not want certificates (plain verify()).
using CertSink = std::optional<audit::Certificate>*;

/// True if every reachable state offers at most one output channel — the
/// deterministic case, where Dally–Seitz is exact.
bool is_deterministic(const cdg::StateGraph& states) {
  const auto& topo = states.topo();
  for (topology::NodeId d = 0; d < topo.num_nodes(); ++d) {
    for (topology::NodeId s = 0; s < topo.num_nodes(); ++s) {
      if (s != d && states.injection(s, d).size() > 1) return false;
    }
    for (topology::ChannelId c = 0; c < topo.num_channels(); ++c) {
      if (states.reachable(c, d) && states.successors(c, d).size() > 1) {
        return false;
      }
    }
  }
  return true;
}

Verdict verify_cdg(const cdg::StateGraph& states, CertSink cert = nullptr) {
  Verdict verdict;
  verdict.method = "cdg-acyclic";
  const graph::Digraph cdg = cdg::build_cdg(states);
  auto cycle = cdg.find_cycle();
  if (!cycle) {
    verdict.conclusion = Conclusion::kDeadlockFree;
    std::ostringstream os;
    os << "channel dependency graph acyclic (" << cdg.num_edges()
       << " edges over " << cdg.num_vertices() << " channels)";
    verdict.detail = os.str();
    return verdict;
  }
  verdict.witness_channels = *cycle;
  if (is_deterministic(states)) {
    verdict.conclusion = Conclusion::kDeadlockable;
    verdict.detail =
        "deterministic relation with cyclic CDG (Dally-Seitz necessity): " +
        describe_cycle(states.topo(), *cycle);
    if (cert != nullptr) {
      *cert = certify_dependency_cycle(states, *cycle, "cdg-acyclic");
    }
  } else {
    verdict.conclusion = Conclusion::kUnknown;
    verdict.detail =
        "CDG cyclic; adaptive relation may still be deadlock-free: " +
        describe_cycle(states.topo(), *cycle);
  }
  return verdict;
}

Verdict verify_duato(const cdg::StateGraph& states,
                     const cdg::SearchOptions& options,
                     CertSink cert = nullptr) {
  Verdict verdict;
  verdict.method = "duato";
  const cdg::SearchResult result = cdg::search(states, options);
  if (cert != nullptr) *cert = certify_duato(states, result);
  if (result.found) {
    verdict.conclusion = Conclusion::kDeadlockFree;
    std::ostringstream os;
    os << "connected subfunction with acyclic extended CDG found ("
       << result.report.subfunction_label << "; direct "
       << result.report.direct_edges << ", indirect "
       << result.report.indirect_edges << ", cross "
       << result.report.cross_edges << " edges; " << result.candidates_tried
       << " candidates tried)";
    verdict.detail = os.str();
    return verdict;
  }
  const bool in_scope = cdg::condition_exact(states);
  // Either way the failed search carries the full-set (plain-CDG) witness
  // cycle — the concrete dependency cycle no candidate managed to break.
  verdict.witness_channels = result.full_set_report.witness_cycle;
  if (result.exhaustive_complete && in_scope) {
    verdict.conclusion = Conclusion::kDeadlockable;
    verdict.detail =
        "no connected subfunction with acyclic extended CDG exists "
        "(exhaustive search) — by the necessary-and-sufficient condition the "
        "relation is not deadlock-free";
  } else {
    verdict.conclusion = Conclusion::kUnknown;
    std::ostringstream os;
    os << "no qualifying subfunction found within budget ("
       << result.candidates_tried << " candidates";
    if (!in_scope) {
      os << "; relation outside the condition's exact scope (input-dependent, "
            "wait-specific, or nonminimal/incoherent)";
    }
    os << ")";
    verdict.detail = os.str();
  }
  return verdict;
}

Verdict verify_cwg(const cdg::StateGraph& states,
                   const cwg::ReductionOptions& options,
                   const routing::RoutingFunction& routing,
                   CertSink cert = nullptr) {
  Verdict verdict;
  verdict.method = "cwg";
  const cwg::WaitConnectivity wait = cwg::wait_connectivity(states);
  if (!wait.connected) {
    verdict.conclusion = Conclusion::kDeadlockable;
    verdict.detail = "relation is not wait-connected: " +
                     wait.describe(states.topo());
    if (wait.channel != topology::kInvalidChannel) {
      verdict.witness_channels.push_back(wait.channel);
    }
    if (cert != nullptr) *cert = certify_not_wait_connected(states, wait);
    return verdict;
  }
  const cwg::Cwg graph = cwg::build_cwg(states);
  const cwg::CycleSurvey survey =
      cwg::survey_cycles(states, graph, options.max_cycles, options.classify);

  if (survey.true_cycles == 0 && survey.unknown_cycles == 0 &&
      !survey.enumeration_truncated) {
    verdict.conclusion = Conclusion::kDeadlockFree;
    std::ostringstream os;
    os << "wait-connected with no True Cycles in the CWG ("
       << survey.cycles.size() << " cycles, " << survey.false_cycles
       << " false-resource)";
    verdict.detail = os.str();
    return verdict;
  }

  if (routing.wait_mode() == WaitMode::kSpecific) {
    // Theorem-2 regime: True Cycles are exactly deadlock configurations.
    for (const auto& cycle : survey.cycles) {
      if (cycle.kind == cwg::CycleKind::kTrue) {
        verdict.conclusion = Conclusion::kDeadlockable;
        verdict.witness_channels = cycle.channels;
        verdict.detail = "True Cycle under wait-specific semantics: " +
                         describe_cycle(states.topo(), cycle.channels);
        if (cert != nullptr) *cert = certify_wait_cycle(states, cycle);
        return verdict;
      }
    }
    verdict.conclusion = Conclusion::kUnknown;
    verdict.detail = "unclassifiable cycles remain (enumeration truncated)";
    return verdict;
  }

  if (survey.enumeration_truncated) {
    verdict.conclusion = Conclusion::kUnknown;
    verdict.detail = "cycle enumeration truncated; CWG verdict unavailable "
                     "at this scale";
    return verdict;
  }

  // Theorem-3 regime: look for a True-Cycle-free wait-connected CWG'.
  const cwg::ReductionResult reduction =
      cwg::reduce_cwg(states, graph, survey, options);
  if (reduction.success) {
    verdict.conclusion = Conclusion::kDeadlockFree;
    std::ostringstream os;
    os << "CWG' found by removing " << reduction.removed.size()
       << " waiting edges (backtracks: " << reduction.backtracks << ")";
    verdict.detail = os.str();
    return verdict;
  }
  if (!reduction.budget_exhausted) {
    verdict.conclusion = Conclusion::kDeadlockable;
    verdict.detail =
        "every wait-connected CWG' retains a True Cycle — not deadlock-free "
        "under wait-on-any semantics";
    for (const auto& cycle : survey.cycles) {
      if (cycle.kind == cwg::CycleKind::kTrue) {
        verdict.witness_channels = cycle.channels;
        if (cert != nullptr) *cert = certify_wait_cycle(states, cycle);
        break;
      }
    }
  } else {
    verdict.conclusion = Conclusion::kUnknown;
    verdict.detail = "CWG' search budget exhausted";
  }
  return verdict;
}

Verdict verify_message_flow(const cdg::StateGraph& states) {
  Verdict verdict;
  verdict.method = "message-flow";
  const cdg::MessageFlowReport report = cdg::message_flow_check(states);
  if (report.covered) {
    verdict.conclusion = Conclusion::kDeadlockFree;
    std::ostringstream os;
    os << "every channel eventually freed (backward fixpoint, "
       << report.rounds << " rounds)";
    verdict.detail = os.str();
  } else {
    // Sufficient-only: unresolved channels prove nothing.
    verdict.conclusion = Conclusion::kUnknown;
    std::ostringstream os;
    os << report.unresolved.size()
       << " channels not provably freed (condition is sufficient only)";
    verdict.detail = os.str();
    verdict.witness_channels = report.unresolved;
  }
  return verdict;
}

Verdict verify_sim(const topology::Topology& topo,
                   const routing::RoutingFunction& routing,
                   const sim::SimConfig& config) {
  Verdict verdict;
  verdict.method = "simulation";
  const sim::SimStats stats = sim::run(topo, routing, config);
  if (stats.deadlocked) {
    verdict.conclusion = Conclusion::kDeadlockable;
    std::ostringstream os;
    os << "deadlock observed at cycle " << stats.deadlock.cycle;
    if (stats.deadlock.from_watchdog) {
      os << " (watchdog: no progress)";
    } else {
      os << " (wait-for cycle of " << stats.deadlock.packet_cycle.size()
         << " packets)";
    }
    verdict.detail = os.str();
    verdict.witness_channels = stats.deadlock.blocked_channels;
  } else {
    verdict.conclusion = Conclusion::kUnknown;
    std::ostringstream os;
    os << "no deadlock in " << stats.cycles_run << " cycles ("
       << stats.packets_delivered << " packets delivered)";
    verdict.detail = os.str();
  }
  return verdict;
}

/// kSimulation, timed as "verify.simulation"; it needs no state graph.
Verdict verify_sim_timed(const topology::Topology& topo,
                         const routing::RoutingFunction& routing,
                         const VerifyOptions& options) {
  obs::Profiler::Scope timer(options.profiler, "verify.simulation");
  return verify_sim(topo, routing, options.sim);
}

Verdict verify_states(const cdg::StateGraph& states,
                      const VerifyOptions& options, CertSink cert) {
  if (options.method == Method::kSimulation) {
    return verify_sim_timed(states.topo(), states.routing(), options);
  }
  const std::string method_phase =
      std::string("verify.") + to_string(options.method);
  // With a profiler attached, also install a checker probe for the duration
  // so the static pipeline's fine-grained phases (cdg_build, search stages,
  // cycle_enumeration, ...) surface as "checker.<phase>" samples.
  std::optional<obs::CheckerStats> probe_stats;
  std::optional<obs::ProbeScope> probe;
  if (options.profiler != nullptr) {
    probe_stats.emplace();
    probe.emplace(*probe_stats);
  }
  const routing::RoutingFunction& routing = states.routing();
  Verdict verdict;
  {
    obs::Profiler::Scope timer(options.profiler, method_phase.c_str());
    switch (options.method) {
      case Method::kCdgAcyclic:
        verdict = verify_cdg(states, cert);
        break;
      case Method::kDuato:
        verdict = verify_duato(states, options.duato, cert);
        break;
      case Method::kCwg:
        verdict = verify_cwg(states, options.cwg, routing, cert);
        break;
      case Method::kMessageFlow:
        verdict = verify_message_flow(states);
        break;
      default:
        break;
    }
  }
  if (options.profiler != nullptr) {
    probe.reset();
    for (const auto& [phase, seconds] : probe_stats->phase_seconds) {
      options.profiler->add("checker." + phase, seconds * 1000.0);
    }
  }
  return verdict;
}

Verdict verify_impl(const topology::Topology& topo,
                    const routing::RoutingFunction& routing,
                    const VerifyOptions& options, CertSink cert) {
  if (options.method == Method::kSimulation) {
    return verify_sim_timed(topo, routing, options);
  }
  std::optional<cdg::StateGraph> states;
  {
    obs::Profiler::Scope timer(options.profiler, "verify.state_graph");
    states.emplace(topo, routing);
  }
  return verify_states(*states, options, cert);
}

}  // namespace

const char* to_string(Method method) {
  switch (method) {
    case Method::kCdgAcyclic:
      return "cdg-acyclic";
    case Method::kDuato:
      return "duato";
    case Method::kCwg:
      return "cwg";
    case Method::kMessageFlow:
      return "message-flow";
    case Method::kSimulation:
      return "simulation";
  }
  return "?";
}

Verdict verify(const topology::Topology& topo,
               const routing::RoutingFunction& routing,
               const VerifyOptions& options) {
  return verify_impl(topo, routing, options, nullptr);
}

CertifiedVerdict verify_certified(const topology::Topology& topo,
                                  const routing::RoutingFunction& routing,
                                  const VerifyOptions& options) {
  CertifiedVerdict result;
  result.verdict = verify_impl(topo, routing, options, &result.certificate);
  return result;
}

Verdict verify(const cdg::StateGraph& states, const VerifyOptions& options) {
  return verify_states(states, options, nullptr);
}

CertifiedVerdict verify_certified(const cdg::StateGraph& states,
                                  const VerifyOptions& options) {
  CertifiedVerdict result;
  result.verdict = verify_states(states, options, &result.certificate);
  return result;
}

bool FullReport::consistent() const {
  bool free_proof = false;
  bool deadlock_proof = false;
  for (const Verdict* v : {&cdg, &duato, &cwg, &message_flow}) {
    if (v->conclusion == Conclusion::kDeadlockFree) free_proof = true;
    if (v->conclusion == Conclusion::kDeadlockable) deadlock_proof = true;
  }
  if (simulation.conclusion == Conclusion::kDeadlockable) {
    deadlock_proof = true;
  }
  return !(free_proof && deadlock_proof);
}

FullReport verify_all(const topology::Topology& topo,
                      const routing::RoutingFunction& routing,
                      const VerifyOptions& options) {
  FullReport report;
  const cdg::StateGraph states(topo, routing);
  report.cdg = verify_cdg(states);
  report.duato = verify_duato(states, options.duato);
  report.cwg = verify_cwg(states, options.cwg, routing);
  report.message_flow = verify_message_flow(states);
  report.simulation = verify_sim(topo, routing, options.sim);
  return report;
}

}  // namespace wormnet::core
