// The union routing relation a transition epoch must certify.
//
// During a reconfiguration epoch, packets stamped under different routing
// versions coexist: a packet injected before its destination's cutover is
// still routed by the old relation while new injections use the new one.
// The channel dependencies the network can exhibit are therefore those of
// the *union* relation — for each destination, the union of the candidate
// sets of every version that may still have packets in flight (UPR, Crespo
// et al.).  UnionRouting materializes that relation as an ordinary
// RoutingFunction so the existing Duato certificate path (and the
// independent wormnet-audit checker) applies to it unchanged.
//
// This class never sits on the simulator hot path — the simulator routes
// each packet by its own pure stamped relation; the union exists only for
// static verification and audit replay.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "wormnet/reconfig/transition_plan.hpp"
#include "wormnet/routing/routing_function.hpp"

namespace wormnet::reconfig {

class UnionRouting : public routing::RoutingFunction {
 public:
  /// `members[v]` realizes `spec.names[v]`; the relation owns them.
  UnionRouting(const Topology& topo, UnionSpec spec,
               std::vector<std::unique_ptr<routing::RoutingFunction>> members);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] routing::RelationForm form() const override;
  [[nodiscard]] routing::WaitMode wait_mode() const override;
  void route_into(topology::ChannelId input, NodeId current, NodeId dest,
                  routing::ChannelSet& out) const override;
  [[nodiscard]] routing::ChannelSet waiting(topology::ChannelId input,
                                            NodeId current,
                                            NodeId dest) const override;
  [[nodiscard]] bool minimal() const override;

  [[nodiscard]] const UnionSpec& spec() const noexcept { return spec_; }

 private:
  UnionSpec spec_;
  std::vector<std::unique_ptr<routing::RoutingFunction>> members_;
};

/// Instantiates one transition member relation by name.  Plain names come
/// from the core registry; `NAME%HEXMASK` names degrade the registry
/// relation (RelationExpr::build) with every channel *outside* the mask
/// marked faulty — the per-channel migration restriction the planner
/// searches over.  Throws std::invalid_argument for unknown or
/// inapplicable names and malformed masks.
[[nodiscard]] std::unique_ptr<routing::RoutingFunction> make_member_routing(
    const Topology& topo, const std::string& name);

/// Rebuilds the union relation a spec (or a certificate's `transition`
/// binding) describes: every named member is instantiated from the core
/// registry against `topo` (masked `NAME%HEXMASK` members through
/// make_member_routing).  Throws std::invalid_argument for unknown or
/// inapplicable names, or when the spec's node count mismatches `topo`.
[[nodiscard]] std::unique_ptr<UnionRouting> make_union_routing(
    const Topology& topo, const UnionSpec& spec);

/// The one value every certified epoch is (DESIGN 3.7): a registry relation
/// or a transition union, degraded by a fault mask — pristine, faulted,
/// transition and composed epochs alike.  Its fields are the certificate's
/// `routing` / `transition` / `fault_mask` binding, its key() the
/// AnalysisCache key, and build() the only code that rebuilds the relation.
struct RelationExpr {
  std::string routing;     ///< registry name (a union's base relation)
  std::string transition;  ///< UnionSpec::to_string(), "" = plain relation
  std::string fault_mask;  ///< ft::mask_to_hex of dead channels, "" = pristine

  /// An all-healthy mask (every hex digit '0') normalises to "", so each
  /// epoch has exactly one spelling.
  explicit RelationExpr(std::string routing, std::string transition = {},
                        std::string fault_mask = {});

  [[nodiscard]] bool operator==(const RelationExpr&) const = default;

  /// "TOPO|ROUTING", "TOPO|ROUTING|MASK", "TOPO|transition|SPEC" or
  /// "TOPO|transition|SPEC|MASK".
  [[nodiscard]] std::string key(const std::string& topo_spec) const;

  /// The relation against `topo`: the registry relation (or the union the
  /// transition spec describes), wrapped in routing::FaultAwareRouting when
  /// a fault mask is set.  Throws std::invalid_argument for unknown or
  /// inapplicable names and malformed specs or masks.
  [[nodiscard]] std::unique_ptr<routing::RoutingFunction> build(
      const Topology& topo) const;
};

}  // namespace wormnet::reconfig
