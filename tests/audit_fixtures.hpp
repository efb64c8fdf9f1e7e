// Shared fixtures of the audit suite (test_audit, test_audit_consistency):
// the golden-file comparison, and adversarial mutations of valid
// certificates — one whose relation takes excursions off the escape set
// (duato-mesh on mesh:4x4:2), so that indirect dependencies are exercised,
// and one of an input-dependent table relation, so that each gate of the
// condition can fail first.  test_audit checks each mutation's code;
// test_audit_consistency pins each mutation's detail string in
// golden/audit_results.txt.
#pragma once

#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "test_helpers.hpp"

namespace wormnet::test {

/// Compares `actual` with golden/`name`, or rewrites the file (and skips)
/// when WORMNET_UPDATE_GOLDEN is set.
inline void compare_or_update(const std::string& name,
                              const std::string& actual) {
  const std::string path = std::string(WORMNET_GOLDEN_DIR) + "/" + name;
  if (std::getenv("WORMNET_UPDATE_GOLDEN") != nullptr) {
    std::ofstream file(path, std::ios::binary);
    ASSERT_TRUE(file.good()) << "cannot write " << path;
    file << actual;
    GTEST_SKIP() << "updated " << path;
  }
  std::ifstream file(path, std::ios::binary);
  std::ostringstream os;
  os << file.rdbuf();
  const std::string expected = os.str();
  ASSERT_FALSE(expected.empty())
      << path << " missing — regenerate with WORMNET_UPDATE_GOLDEN=1";
  EXPECT_EQ(actual, expected) << "golden drift in " << name;
}

/// The Duato certificate of a relation the search certifies.
inline audit::Certificate certified(const Topology& topo,
                                    const routing::RoutingFunction& routing) {
  core::VerifyOptions options;
  options.method = core::Method::kDuato;
  return core::verify_certified(topo, routing, options).certificate.value();
}

/// duato-mesh on mesh:4x4:2 (96 channels), Duato-certified: its adaptive
/// layer gives escape states excursions, hence indirect dependencies.
struct ExcursionFixture {
  Topology topo = core::make_topology("mesh:4x4:2");
  std::unique_ptr<routing::RoutingFunction> routing =
      core::make_algorithm("duato-mesh", topo);
  audit::Certificate cert = certified(topo, *routing);
};

/// A three-node line whose relation depends on the input channel: a message
/// passing node 1 toward node 2 must take 1 -> 2 on virtual channel 1
/// (channel 2), one injected at node 1 takes virtual channel 0 (channel 1).
/// Certified with every channel as escape.  Without channel 2 the passing
/// message has no escape, yet every node still reaches every destination —
/// which no registry relation shows, as each routes a node's messages alike
/// whatever their input.
struct InputDependentFixture {
  static constexpr ChannelId kInv = topology::kInvalidChannel;
  Topology topo{"line3",
                3,
                {{.src = 0, .dst = 1},
                 {.src = 1, .dst = 2},
                 {.src = 1, .dst = 2, .vc = 1},
                 {.src = 2, .dst = 1},
                 {.src = 1, .dst = 0}}};
  routing::TableRouting routing{topo,
                                "line3-through-vc1",
                                {{{kInv, 0, 1}, {0}},
                                 {{kInv, 0, 2}, {0}},
                                 {{kInv, 1, 2}, {1}},
                                 {{0, 1, 2}, {2}},
                                 {{kInv, 1, 0}, {4}},
                                 {{kInv, 2, 0}, {3}},
                                 {{kInv, 2, 1}, {3}}},
                                routing::RelationForm::kChannelNodeDest};
  audit::Certificate cert = certified(topo, routing);
};

/// Removes escape channel `c` from the certificate's C1 and from its order.
inline void drop_escape_channel(audit::Certificate& cert, ChannelId c) {
  std::erase(cert.escape_channels, c);
  std::erase(cert.topological_order, c);
}

/// Swaps the order positions of the first extended-CDG edge that is not a
/// direct dependency and whose swap leaves every direct edge ordered, so
/// only an indirect dependency can contradict the mutated order.  Returns
/// false when no such edge exists.
inline bool swap_indirect_only_edge(const Topology& topo,
                                    const routing::RoutingFunction& routing,
                                    audit::Certificate& cert) {
  const cdg::StateGraph states(topo, routing);
  std::vector<bool> c1(topo.num_channels(), false);
  for (const ChannelId c : cert.escape_channels) c1[c] = true;
  const cdg::Subfunction sub(states, c1, "certificate");
  const cdg::ExtendedCdg ecdg = cdg::build_extended_cdg(sub);
  const graph::Digraph direct = ecdg.direct_graph();
  std::vector<std::size_t> pos(topo.num_channels(), 0);
  for (std::size_t i = 0; i < cert.topological_order.size(); ++i) {
    pos[cert.topological_order[i]] = i;
  }
  const auto direct_edges_ordered = [&] {
    for (ChannelId u = 0; u < topo.num_channels(); ++u) {
      for (const graph::Vertex v : direct.out(u)) {
        if (pos[u] >= pos[v]) return false;
      }
    }
    return true;
  };
  for (ChannelId u = 0; u < topo.num_channels(); ++u) {
    for (const graph::Vertex v : ecdg.graph.out(u)) {
      if (ecdg.direct.test(u, v)) continue;
      std::swap(pos[u], pos[v]);
      if (direct_edges_ordered()) {
        std::swap(cert.topological_order[pos[u]],
                  cert.topological_order[pos[v]]);
        return true;
      }
      std::swap(pos[u], pos[v]);
    }
  }
  return false;
}

/// One adversarial edit of a valid certificate and the audit code it must
/// draw.
struct AuditMutationCase {
  const char* name;
  audit::AuditCode expected;
  /// Audits the edited certificate against its own binding.
  std::function<audit::AuditResult()> audit;
};

/// Names the case in gtest's parameter output.
inline void PrintTo(const AuditMutationCase& m, std::ostream* os) {
  *os << m.name;
}

inline std::vector<AuditMutationCase> certificate_mutations() {
  using audit::AuditCode;
  return {
      {"indirect-order-violation", AuditCode::kOrderViolation,
       [] {
         const ExcursionFixture fx;
         audit::Certificate cert = fx.cert;
         EXPECT_TRUE(swap_indirect_only_edge(fx.topo, *fx.routing, cert));
         return audit::check(fx.topo, *fx.routing, cert);
       }},
      {"drop-strands-node", AuditCode::kStrandedNode,
       [] {
         // Every escape state has exactly one escape (its e-cube hop), so
         // the node that channel leaves no longer reaches some destination.
         const ExcursionFixture fx;
         audit::Certificate cert = fx.cert;
         drop_escape_channel(cert, cert.escape_channels.front());
         return audit::check(fx.topo, *fx.routing, cert);
       }},
      {"drop-leaves-no-escape", AuditCode::kNoEscape,
       [] {
         const InputDependentFixture fx;
         audit::Certificate cert = fx.cert;
         drop_escape_channel(cert, 2);
         return audit::check(fx.topo, fx.routing, cert);
       }},
  };
}

}  // namespace wormnet::test
