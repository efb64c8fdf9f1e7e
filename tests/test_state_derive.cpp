// Derived-vs-fresh differential test for cdg::StateGraph's derive
// constructor.  A masked epoch's graph derived from its unmasked parent must
// equal a fresh build of the masked relation (RelationExpr::build, the path
// every other consumer takes) in reachable set and in every successor,
// waiting and injection list, contents and order; and the Duato verifier
// must reach the same verdict with a byte-identical certificate over both.
#include <gtest/gtest.h>

#include <sstream>

#include "epoch_masks.hpp"
#include "test_helpers.hpp"

namespace wormnet::cdg {
namespace {

using reconfig::RelationExpr;

/// Describes the first list on which `derived` and `fresh` disagree, or ""
/// when they are equal everywhere.
std::string first_difference(const StateGraph& derived,
                             const StateGraph& fresh) {
  const Topology& topo = fresh.topo();
  const auto differ = [](std::span<const ChannelId> a,
                         std::span<const ChannelId> b) {
    return !std::ranges::equal(a, b);
  };
  std::ostringstream os;
  for (NodeId d = 0; d < topo.num_nodes(); ++d) {
    for (NodeId s = 0; s < topo.num_nodes(); ++s) {
      if (s == d) continue;
      if (differ(derived.injection(s, d), fresh.injection(s, d))) {
        os << "injection(" << s << ", " << d << ")";
        return os.str();
      }
      if (differ(derived.injection_waiting(s, d),
                 fresh.injection_waiting(s, d))) {
        os << "injection_waiting(" << s << ", " << d << ")";
        return os.str();
      }
    }
    for (ChannelId c = 0; c < topo.num_channels(); ++c) {
      if (derived.reachable(c, d) != fresh.reachable(c, d)) {
        os << "reachable(" << topo.channel_name(c) << ", " << d << ")";
        return os.str();
      }
      if (differ(derived.successors(c, d), fresh.successors(c, d))) {
        os << "successors(" << topo.channel_name(c) << ", " << d << ")";
        return os.str();
      }
      if (differ(derived.waiting(c, d), fresh.waiting(c, d))) {
        os << "waiting(" << topo.channel_name(c) << ", " << d << ")";
        return os.str();
      }
    }
  }
  if (derived.num_reachable_states() != fresh.num_reachable_states()) {
    return "num_reachable_states";
  }
  return "";
}

/// Derives `parent`'s epoch under `mask`, builds the same epoch fresh, and
/// compares the graphs and their certified Duato verdicts.
void expect_derived_matches_fresh(const Topology& topo,
                                  const RelationExpr& parent,
                                  const StateGraph& parent_states,
                                  const std::vector<bool>& mask) {
  const RelationExpr masked = parent.transition
                                  ? RelationExpr(*parent.transition, mask)
                                  : RelationExpr(parent.routing, mask);
  SCOPED_TRACE(masked.key(topo.name()));
  const auto relation = masked.build(topo);
  const StateGraph derived(parent_states, *relation, mask);
  const StateGraph fresh(topo, *relation);
  EXPECT_EQ(first_difference(derived, fresh), "");

  core::VerifyOptions options;
  options.method = core::Method::kDuato;
  const core::CertifiedVerdict a = core::verify_certified(derived, options);
  const core::CertifiedVerdict b = core::verify_certified(fresh, options);
  EXPECT_EQ(a.verdict.conclusion, b.verdict.conclusion);
  EXPECT_EQ(a.verdict.detail, b.verdict.detail);
  EXPECT_EQ(a.verdict.witness_channels, b.verdict.witness_channels);
  ASSERT_EQ(a.certificate.has_value(), b.certificate.has_value());
  if (a.certificate) {
    EXPECT_EQ(a.certificate->to_json(), b.certificate->to_json());
  }
}

TEST(StateGraphDerive, EveryRegistryRelationUnderRandomMasks) {
  std::uint64_t seed = 2026;
  std::size_t relations = 0;
  for (const char* spec :
       {"mesh:4x4:2", "torus:4x4:3", "hypercube:4:2", "ring:6:2"}) {
    const Topology topo = core::make_topology(spec);
    for (const core::AlgorithmEntry* entry : core::algorithms_for(topo)) {
      const RelationExpr parent(entry->name);
      const auto relation = parent.build(topo);
      const StateGraph parent_states(topo, *relation);
      expect_derived_matches_fresh(
          topo, parent, parent_states,
          std::vector<bool>(topo.num_channels(), false));
      for (const auto& mask : test::random_masks(topo, ++seed)) {
        expect_derived_matches_fresh(topo, parent, parent_states, mask);
      }
      ++relations;
    }
  }
  // Every topology contributes, wait-specific relations (hpl, enhanced)
  // included.
  EXPECT_GE(relations, 16u);
}

TEST(StateGraphDerive, TransitionUnionsUnderMasks) {
  const struct {
    const char* topology;
    const char* relation;
  } cases[] = {
      {"mesh:4x4:2", "transition|e-cube>west-first/ffff.00ff"},
      {"hypercube:4:2", "transition|e-cube>duato-hypercube/ffff.0f0f"},
  };
  std::uint64_t seed = 7;
  for (const auto& c : cases) {
    const Topology topo = core::make_topology(c.topology);
    const RelationExpr parent = RelationExpr::parse(c.relation, topo);
    const auto relation = parent.build(topo);
    const StateGraph parent_states(topo, *relation);
    for (const auto& mask : test::random_masks(topo, ++seed)) {
      expect_derived_matches_fresh(topo, parent, parent_states, mask);
    }
  }
}

TEST(StateGraphDerive, RejectsMaskOfWrongSize) {
  const Topology topo = core::make_topology("mesh:3x3:2");
  const auto relation = RelationExpr("duato-mesh").build(topo);
  const StateGraph parent(topo, *relation);
  EXPECT_THROW(StateGraph(parent, *relation, std::vector<bool>(3, false)),
               std::invalid_argument);
}

}  // namespace
}  // namespace wormnet::cdg
