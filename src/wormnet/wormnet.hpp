// Umbrella header: the full public API of the wormnet library.
//
//   topology  — interconnection networks (mesh/torus/hypercube/ring/custom)
//   routing   — routing relations, the algorithm zoo, selection functions
//   cdg       — channel dependency graphs, subfunctions, extended CDGs and
//               the necessary-and-sufficient deadlock-freedom condition
//   cwg       — [companion] channel waiting graphs, True/False Resource
//               cycles, CWG' reduction
//   sim       — flit-level wormhole network simulator
//   ft        — runtime fault injection (deterministic FaultPlans) and
//               deadlock recovery policies (halt / abort-retry / drain)
//   obs       — structured event tracing (JSONL / Chrome trace_event),
//               metrics registry, checker phase timers and work counters
//   analysis  — degree of adaptiveness, path counting
//   exp       — deterministic parallel sweep engine: cartesian experiment
//               grids sharded over the thread pool with jump-derived RNG
//               streams, memoized checker verdicts, order-independent
//               reduction, JSONL/CSV export
//   lint      — wormnet-lint: compiler-style static diagnostics (WN0xx
//               rules) over (topology, routing) pairs, with human/JSONL/
//               SARIF renderers and a golden example matrix
//   core      — verification façade, algorithm registry, deadlock witnesses
#pragma once

#include "wormnet/analysis/adaptiveness.hpp"
#include "wormnet/audit/certificate.hpp"
#include "wormnet/audit/check.hpp"
#include "wormnet/analysis/path_count.hpp"
#include "wormnet/analysis/saturation.hpp"
#include "wormnet/analysis/turns.hpp"
#include "wormnet/cdg/cdg_builder.hpp"
#include "wormnet/cdg/duato_checker.hpp"
#include "wormnet/cdg/extended_cdg.hpp"
#include "wormnet/cdg/message_flow.hpp"
#include "wormnet/cdg/states.hpp"
#include "wormnet/cdg/subfunction.hpp"
#include "wormnet/core/certify.hpp"
#include "wormnet/core/registry.hpp"
#include "wormnet/core/verdict.hpp"
#include "wormnet/core/verifier.hpp"
#include "wormnet/core/witness.hpp"
#include "wormnet/cwg/cwg_builder.hpp"
#include "wormnet/exp/aggregate.hpp"
#include "wormnet/exp/analysis_cache.hpp"
#include "wormnet/exp/sweep_io.hpp"
#include "wormnet/exp/sweep_runner.hpp"
#include "wormnet/exp/sweep_spec.hpp"
#include "wormnet/ft/fault_plan.hpp"
#include "wormnet/ft/recovery.hpp"
#include "wormnet/cwg/cycle_classify.hpp"
#include "wormnet/cwg/reduction.hpp"
#include "wormnet/graph/cycles.hpp"
#include "wormnet/graph/digraph.hpp"
#include "wormnet/lint/engine.hpp"
#include "wormnet/lint/examples.hpp"
#include "wormnet/lint/render.hpp"
#include "wormnet/obs/flight.hpp"
#include "wormnet/obs/json.hpp"
#include "wormnet/obs/metrics.hpp"
#include "wormnet/obs/postmortem.hpp"
#include "wormnet/obs/probe.hpp"
#include "wormnet/obs/profiler.hpp"
#include "wormnet/obs/trace.hpp"
#include "wormnet/reconfig/schedule.hpp"
#include "wormnet/reconfig/transition_plan.hpp"
#include "wormnet/reconfig/union_routing.hpp"
#include "wormnet/routing/dateline.hpp"
#include "wormnet/routing/dimension_order.hpp"
#include "wormnet/routing/duato_adaptive.hpp"
#include "wormnet/routing/enhanced_hypercube.hpp"
#include "wormnet/routing/examples.hpp"
#include "wormnet/routing/fault.hpp"
#include "wormnet/routing/hpl.hpp"
#include "wormnet/routing/routing_function.hpp"
#include "wormnet/routing/scripted.hpp"
#include "wormnet/routing/selection.hpp"
#include "wormnet/routing/turn_model.hpp"
#include "wormnet/routing/unrestricted.hpp"
#include "wormnet/sim/simulator.hpp"
#include "wormnet/topology/builders.hpp"
#include "wormnet/topology/topology.hpp"
#include "wormnet/util/rng.hpp"
#include "wormnet/util/table.hpp"
#include "wormnet/util/thread_pool.hpp"
