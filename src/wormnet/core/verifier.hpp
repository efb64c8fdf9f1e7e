// The verification façade: one entry point, four methods.
//
//   kCdgAcyclic  — classical Dally–Seitz test.  Sufficient for any relation;
//                  also *necessary* for deterministic relations, so a cyclic
//                  CDG on a deterministic relation proves deadlockability.
//   kDuato       — the paper's necessary-and-sufficient condition: search
//                  for a connected routing subfunction with acyclic extended
//                  channel dependency graph.  Exact (both directions) for
//                  input-independent (N x N), coherent, wait-on-any
//                  relations; sufficient-only outside that scope.
//   kCwg         — [companion] channel-waiting-graph conditions: for
//                  wait-specific relations, no True Cycles iff deadlock-free
//                  (exact); for wait-on-any, search for a True-Cycle-free
//                  wait-connected CWG'.
//   kSimulation  — empirical: stress the network in the flit-level simulator
//                  and watch for wait-for-graph deadlock.  Can only ever
//                  prove deadlockability.
#pragma once

#include <optional>

#include "wormnet/audit/certificate.hpp"
#include "wormnet/cdg/duato_checker.hpp"
#include "wormnet/core/verdict.hpp"
#include "wormnet/cwg/reduction.hpp"
#include "wormnet/obs/profiler.hpp"
#include "wormnet/routing/routing_function.hpp"
#include "wormnet/sim/simulator.hpp"

namespace wormnet::core {

enum class Method : std::uint8_t {
  kCdgAcyclic,
  kDuato,
  kCwg,
  kMessageFlow,  ///< Lin-McKinley-Ni backward channel-release fixpoint
  kSimulation,
};

[[nodiscard]] const char* to_string(Method method);

/// Default simulation settings for kSimulation: a deadlock-hunting stress
/// configuration rather than a performance measurement.
[[nodiscard]] inline sim::SimConfig default_verify_sim() {
  sim::SimConfig cfg;
  cfg.injection_rate = 0.45;
  cfg.packet_length = 16;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 20000;
  cfg.drain_cycles = 10000;
  return cfg;
}

struct VerifyOptions {
  Method method = Method::kDuato;
  cdg::SearchOptions duato;
  cwg::ReductionOptions cwg;
  sim::SimConfig sim = default_verify_sim();  ///< used by kSimulation
  /// Borrowed self-profiling registry (null = off).  When set, verify()
  /// times the state-graph build and the method dispatch as
  /// "verify.state_graph" / "verify.<method>", and additionally installs a
  /// checker probe so the static pipeline's internal phases land as one
  /// "checker.<phase>" sample each (the phase's total wall time).
  obs::Profiler* profiler = nullptr;
};

[[nodiscard]] Verdict verify(const topology::Topology& topo,
                             const routing::RoutingFunction& routing,
                             const VerifyOptions& options = {});

/// A verdict plus its proof-carrying certificate, when the verdict admits
/// one (DESIGN 3.10).  Certificates are emitted for: Duato certified
/// (escape set + topological order + connectivity witnesses), Duato
/// exhaustive refutation / deterministic cyclic CDG (dependency cycle),
/// CWG True-Cycle refutation (wait cycle with realization), and
/// wait-disconnection.  No certificate accompanies kUnknown verdicts or
/// universal deadlock-freedom claims with no compact witness (CWG
/// reduction success, acyclic plain CDG, message-flow, simulation).
struct CertifiedVerdict {
  Verdict verdict;
  std::optional<audit::Certificate> certificate;
};

/// Like verify(), but additionally emits the verdict's certificate so an
/// independent auditor (audit::check) can re-validate the conclusion.
[[nodiscard]] CertifiedVerdict verify_certified(
    const topology::Topology& topo, const routing::RoutingFunction& routing,
    const VerifyOptions& options = {});

/// verify() / verify_certified() over a prebuilt state graph: the relation
/// is `states.routing()` and no "verify.state_graph" sample is taken, so a
/// caller that builds (or derives) the graph times it itself.
[[nodiscard]] Verdict verify(const cdg::StateGraph& states,
                             const VerifyOptions& options = {});
[[nodiscard]] CertifiedVerdict verify_certified(
    const cdg::StateGraph& states, const VerifyOptions& options = {});

/// Runs all four methods and checks they never contradict each other
/// (a "deadlock-free" proof alongside an observed deadlock is a library bug).
struct FullReport {
  Verdict cdg;
  Verdict duato;
  Verdict cwg;
  Verdict message_flow;
  Verdict simulation;
  [[nodiscard]] bool consistent() const;
};

[[nodiscard]] FullReport verify_all(const topology::Topology& topo,
                                    const routing::RoutingFunction& routing,
                                    const VerifyOptions& options = {});

}  // namespace wormnet::core
