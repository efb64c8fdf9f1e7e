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
#include <optional>
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
  bool waiting_into(topology::ChannelId input, NodeId current, NodeId dest,
                    routing::ChannelSet& out) const override;
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

/// The one value every certified epoch is (DESIGN 3.7): a registry relation
/// or a transition union, degraded by a fault mask — pristine, faulted,
/// transition and composed epochs alike.  to_string() is its one text form
/// (the certificate's `relation` binding; behind "TOPO|", the AnalysisCache
/// key), parse() its inverse, and build() the only code that rebuilds the
/// relation.  The text is one of
///
///   ROUTING   ROUTING|MASK   transition|SPEC   transition|SPEC|MASK
///
/// with ROUTING a canonical registry name, SPEC a UnionSpec::to_string()
/// and MASK the ft::mask_to_hex of the dead channels (never all zero).
struct RelationExpr {
  std::string routing;                  ///< registry name; "" for a union
  std::optional<UnionSpec> transition;  ///< a union; names[0] is its base
  std::vector<bool> fault_mask;         ///< dead channels; empty = pristine

  /// A mask with no dead channel normalises to empty, so each epoch has
  /// exactly one spelling.
  explicit RelationExpr(std::string routing, std::vector<bool> fault_mask = {});
  explicit RelationExpr(UnionSpec transition,
                        std::vector<bool> fault_mask = {});

  [[nodiscard]] bool operator==(const RelationExpr&) const = default;

  [[nodiscard]] std::string to_string() const;

  /// The AnalysisCache key: "TOPO|" + to_string().
  [[nodiscard]] std::string key(const std::string& topo_spec) const;

  /// Inverse of to_string() on `topo`.  Accepts only canonical text, so
  /// parse(s).to_string() == s; otherwise throws std::invalid_argument
  /// naming the bad part: an unknown, aliased or inapplicable name, a
  /// non-hex or upper-case digit, a mask of the wrong length or with bits
  /// past the channel (or node) count, an all-zero fault mask.
  [[nodiscard]] static RelationExpr parse(const std::string& text,
                                          const Topology& topo);

  /// The relation against `topo`: the registry relation (or the
  /// UnionRouting of the transition's members, each instantiated through
  /// make_member_routing), wrapped in routing::FaultAwareRouting when a
  /// fault mask is set.  Throws std::invalid_argument for unknown or
  /// inapplicable names and specs or masks that do not fit `topo`.
  [[nodiscard]] std::unique_ptr<routing::RoutingFunction> build(
      const Topology& topo) const;
};

}  // namespace wormnet::reconfig
