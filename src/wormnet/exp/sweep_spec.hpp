// Sweep specifications: the cartesian experiment grids the parallel sweep
// engine executes.
//
// A SweepSpec is a grid over topology × routing × traffic pattern × offered
// load × replication.  expand() flattens it into SweepPoints in *canonical
// order* (the nesting order of the fields above); every downstream consumer
// — the runner's reduction, the JSONL/CSV writers, the golden tests — works
// in that order, which is what makes the engine's output independent of
// thread count and completion order.
//
// Per-point RNG: each point gets its own logical Xoshiro256 stream, derived
// from the spec seed by successive jump() calls (stream i is the base
// generator advanced i·2^128 steps).  The simulator consumes a 64-bit seed,
// so a point's seed is the first output of its stream; streams being 2^128
// apart guarantees the seeds — and everything SplitMix64 re-expands from
// them — never overlap.  Crucially the derivation depends only on the
// point's canonical index, never on which shard or thread executes it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "wormnet/ft/fault_plan.hpp"
#include "wormnet/reconfig/transition_plan.hpp"
#include "wormnet/sim/simulator.hpp"

namespace wormnet::exp {

struct SweepSpec {
  std::vector<std::string> topologies;          ///< specs for make_topology()
  std::vector<std::string> routings;            ///< registry names / aliases
  /// Fault-plan axis (ft::parse_fault_plan syntax; "none" = no faults).
  /// The default single "none" keeps fault-free grids' canonical order and
  /// seed derivation identical to pre-ft sweeps.
  std::vector<std::string> fault_plans{"none"};
  /// Reconfiguration axis (reconfig::parse_transition_plan syntax; "none" =
  /// no transition).  The default single "none" preserves canonical order
  /// and seed derivation of pre-reconfig sweeps; plans that compile to the
  /// identity (e.g. "switch:R@100" with base R) are normalized to "none" at
  /// expansion, so their rows are byte-identical to no-plan rows.
  std::vector<std::string> reconfig_plans{"none"};
  std::vector<sim::Pattern> patterns{sim::Pattern::kUniform};
  std::vector<double> loads{0.1};               ///< flits/node/cycle offered
  std::uint32_t replications = 1;
  std::uint64_t seed = 1;                       ///< base of the jump chain

  /// Template for every point's simulation; injection_rate, pattern, and
  /// seed are overwritten per point.  The obs handles must stay null — the
  /// runner owns observability, worker threads must not share sinks.
  sim::SimConfig base;
};

/// One cell of the expanded grid.  `topology`/`routing` are the resolved
/// (canonical) names so output rows are unambiguous even when the spec used
/// aliases like "duato".
struct SweepPoint {
  std::size_t index = 0;  ///< canonical position, 0-based
  std::string topology;
  std::string routing;
  std::string fault_plan;  ///< normalized plan text ("none" = no faults)
  /// Normalized transition-plan text ("none" = no transition, including
  /// plans that compile to the identity for this point's base routing).
  std::string reconfig_plan;
  /// `fault_plan` compiled against `topology`; null when it has no steps.
  /// Shared by every point of the same (topology, fault plan).
  std::shared_ptr<const ft::CompiledFaultPlan> faults;
  /// `reconfig_plan` with its `plan:` events resolved (reconfig::resolve)
  /// for this base routing; null when the plan is "none".  Shared by every
  /// point of the same (topology, routing, reconfig plan), so the staging
  /// planner runs once per combo, not once per point.
  std::shared_ptr<const reconfig::TransitionPlan> transition;
  sim::Pattern pattern = sim::Pattern::kUniform;
  double load = 0.0;
  std::uint32_t replication = 0;
  std::uint64_t seed = 0;  ///< per-point sim seed (jump-stream derived)
};

struct ExpandedSweep {
  std::vector<SweepPoint> points;  ///< canonical order
  /// (topology, routing) combos dropped because the routing is not
  /// applicable there (e.g. "dateline" on a mesh in a cartesian grid).
  /// Deterministic, reported so a sweep never silently shrinks.
  std::vector<std::string> skipped;
};

/// Flattens the grid.  Topology specs are parsed (and alias routing names
/// resolved) eagerly, so malformed specs and unknown routing names throw
/// std::invalid_argument here rather than mid-run; inapplicable
/// (topology, routing) combos are skipped and recorded.  Fault plans are
/// compiled once per topology and transition plans resolved once per
/// (topology, routing); the points share the results.
[[nodiscard]] ExpandedSweep expand(const SweepSpec& spec);

/// Parses a grid string of ';'-separated key=value clauses:
///
///   topo=mesh:4x4:2,ring:8        (required, comma list of topology specs)
///   routing=e-cube,duato          (required, comma list of names/aliases)
///   fault=none,kill:5-6@250       (fault plans, default none; '+'-joined
///                                  events per plan, see ft/fault_plan.hpp)
///   reconfig=none,switch:duato@500  (transition plans, default none; see
///                                  reconfig/transition_plan.hpp)
///   pattern=uniform,transpose     (default uniform)
///   load=0.05,0.2 | load=0.05:0.45:0.10   (list or lo:hi:step range)
///   reps=3                        (default 1)
///   seed=7                        (default 1)
///
/// The sim-methodology fields of `spec.base` are left untouched (callers
/// set them via CLI flags or code).  Throws std::invalid_argument on
/// malformed input.
[[nodiscard]] SweepSpec parse_grid(const std::string& text);

}  // namespace wormnet::exp
