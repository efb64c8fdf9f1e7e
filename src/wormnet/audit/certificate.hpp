// Proof-carrying verification certificates (DESIGN 3.10).
//
// Duato's condition is constructive in both directions, so every decisive
// verdict can carry a machine-checkable certificate:
//
//   * certified  — the escape channel set C1 and a topological order of
//     the extended CDG restricted to C1.  The order is the one claim that
//     needs carried data (acyclicity); given C1, escape-everywhere and
//     subfunction connectivity are polynomial checks the auditor makes
//     from the relation itself;
//   * refuted    — the offending evidence: a dependency cycle, a realizable
//     wait cycle (with the held-channel path of every participating
//     message), or a state with nothing to wait on.
//
// The schema is deliberately plain data + JSON: `audit::check()` (check.hpp)
// re-validates a certificate against the routing relation alone, with no
// reuse of the cdg/ / cwg/ / core/ analysis code.  This header is part of
// that trusted base, so it includes nothing but the topology and routing
// interfaces.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "wormnet/topology/topology.hpp"

namespace wormnet::audit {

using topology::ChannelId;
using topology::NodeId;

/// Schema identifier embedded in (and required of) every certificate.
inline constexpr const char* kCertificateSchema = "wormnet-certificate/3";

enum class CertKind : std::uint8_t {
  kCertified,  ///< claims deadlock freedom
  kRefuted,    ///< claims deadlock susceptibility
};

/// What a refuted certificate's evidence is (kNone for certified ones).
enum class Evidence : std::uint8_t {
  kNone,
  kDependencyCycle,   ///< cycle of direct channel dependencies
  kWaitCycle,         ///< realizable wait cycle (True Cycle)
  kNotWaitConnected,  ///< a blocked state with an empty waiting set
};

[[nodiscard]] const char* to_string(CertKind kind);
[[nodiscard]] const char* to_string(Evidence evidence);

/// One edge of a refuted certificate's cycle evidence.  For a dependency
/// cycle `hold` is empty and the claim is "a message occupying `from` toward
/// `dest` may next use `to`".  For a wait cycle `hold` is the full
/// held-channel path of the message (starting at `from`) up to the channel
/// at whose head it blocks waiting for `to`.
struct CycleEdge {
  ChannelId from = 0;
  ChannelId to = 0;
  NodeId dest = 0;
  std::vector<ChannelId> hold;
  bool operator==(const CycleEdge&) const = default;
};

/// Witness of a not-wait-connected refutation: a reachable blocked state
/// (injection at `src`, or occupying `channel`) with no waiting channel.
struct Disconnection {
  bool at_injection = false;
  NodeId src = 0;
  ChannelId channel = 0;
  NodeId dest = 0;
  bool operator==(const Disconnection&) const = default;
};

struct Certificate {
  CertKind kind = CertKind::kCertified;
  std::string method;    ///< "duato", "cdg-acyclic" or "cwg"
  std::string topology;  ///< registry spec when known, else the topo name
  /// reconfig::RelationExpr text when known (the binding an auditor
  /// rebuilds), else the relation's name as a label.
  std::string relation;
  std::uint32_t num_nodes = 0;     ///< binding guard, checked by the auditor
  std::uint32_t num_channels = 0;  ///< binding guard, checked by the auditor
  std::string subfunction;         ///< escape-set label (informative)

  // Certified payload.
  std::vector<ChannelId> escape_channels;      ///< C1, sorted ascending
  std::vector<ChannelId> topological_order;    ///< permutation of C1

  // Refuted payload.
  Evidence evidence = Evidence::kNone;
  std::vector<CycleEdge> cycle;
  Disconnection disconnection;

  bool operator==(const Certificate&) const = default;

  /// Canonical JSON rendering: fixed key order, fixed layout, so equal
  /// certificates serialize byte-identically (golden tests pin this).
  [[nodiscard]] std::string to_json() const;
};

/// Outcome of parsing certificate JSON: either a certificate or an error.
struct ParseResult {
  std::optional<Certificate> certificate;
  std::string error;  ///< non-empty iff certificate is empty
};

/// Strict parser for the schema above (unknown or duplicate keys, missing
/// fields, nested ones included, wrong types, non-ASCII string bytes and
/// non-canonical enum strings are all errors).  It reads through the one
/// JSON reader (json.hpp), which lives in the trusted base for this reason.
[[nodiscard]] ParseResult parse_certificate(std::string_view text);

}  // namespace wormnet::audit
