// The independent certificate auditor (DESIGN 3.10).
//
// `check()` validates a Certificate against a (topology, routing) binding by
// direct inspection of the routing relation: it re-derives reachable states
// with its own fixpoint, checks the two gates of Duato's condition for the
// claimed escape set C1 itself (every reachable blocked state and every
// injection state offers a C1 output; every node reaches every destination
// on supplied C1 channels), and enumerates extended-CDG dependencies against
// the claimed topological order.  Everything is comparisons, array lookups
// and one reverse BFS per destination over the relation — no subset search,
// no cycle detection, no reuse of cdg/, cwg/, core/ or analysis/ code — so
// the auditor is a genuinely separate trusted base: a checker bug that
// emits a wrong certificate becomes a loud audit contradiction here instead
// of a silently wrong verdict downstream.
//
// Cost: one relation evaluation per reachable state of each destination the
// certificate names (the rows it yields serve every later check), plus, for
// a certified claim, one reverse BFS per destination and one excursion walk
// over non-escape states per escape state to enumerate the indirect
// dependencies.
#pragma once

#include <cstdint>
#include <string>

#include "wormnet/audit/certificate.hpp"
#include "wormnet/routing/routing_function.hpp"
#include "wormnet/topology/topology.hpp"

namespace wormnet::audit {

/// Machine-readable audit outcomes.  Every rejection names the first check
/// that failed; adversarial mutations of a valid certificate each map to a
/// distinct code (pinned by tests/test_audit.cpp).
enum class AuditCode : std::uint8_t {
  kValid,
  kMalformed,             ///< structurally unusable (ids, duplicates, ...)
  kBindingMismatch,       ///< node/channel counts disagree with the topology
  kOrderNotPermutation,   ///< order is not a permutation of the escape set
  kOrderViolation,        ///< a dependency edge contradicts the order
  kNoEscape,              ///< a reachable or injection state offers no C1
  kStrandedNode,          ///< a node cannot reach a destination on C1
  kCycleEdgeUnsupported,  ///< a dependency-cycle edge the relation lacks
  kWaitCycleUnsupported,  ///< a wait-cycle edge or realization that fails
  kDisconnectionUnsupported,  ///< the claimed starved state can wait
};

[[nodiscard]] const char* to_string(AuditCode code);

struct AuditResult {
  AuditCode code = AuditCode::kValid;
  std::string detail;  ///< human rendering of the first failure
  std::uint64_t states_checked = 0;  ///< reachable states visited
  /// Extended-CDG dependencies compared with the order (certified), or
  /// evidence edges and held channels verified (refuted).
  std::uint64_t edges_checked = 0;

  [[nodiscard]] bool ok() const { return code == AuditCode::kValid; }
};

/// Validates `cert` against the binding.  `routing` must be the exact
/// relation the certificate speaks about (for fault epochs: the degraded
/// relation, not the base one).
[[nodiscard]] AuditResult check(const topology::Topology& topo,
                                const routing::RoutingFunction& routing,
                                const Certificate& cert);

}  // namespace wormnet::audit
