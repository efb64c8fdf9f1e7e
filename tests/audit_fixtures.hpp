// Shared fixtures of the audit suite (test_audit, test_audit_consistency):
// the golden-file comparison, and adversarial mutations of a certificate
// whose relation takes excursions off the escape set (duato-mesh on
// mesh:4x4:2), so that indirect dependencies, the dense witness indexes and
// the first-hop rows are all exercised.  test_audit checks each mutation's
// code; test_audit_consistency pins each mutation's detail string in
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

/// duato-mesh on mesh:4x4:2 (96 channels), Duato-certified: its adaptive
/// layer gives escape states excursions, hence indirect dependencies.
struct ExcursionFixture {
  Topology topo = core::make_topology("mesh:4x4:2");
  std::unique_ptr<routing::RoutingFunction> routing =
      core::make_algorithm("duato-mesh", topo);
  audit::Certificate cert = certify(topo, *routing);

  static audit::Certificate certify(const Topology& topo,
                                    const routing::RoutingFunction& routing) {
    core::VerifyOptions options;
    options.method = core::Method::kDuato;
    return core::verify_certified(topo, routing, options).certificate.value();
  }
};

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
  std::vector<std::size_t> pos(topo.num_channels(), 0);
  for (std::size_t i = 0; i < cert.topological_order.size(); ++i) {
    pos[cert.topological_order[i]] = i;
  }
  const auto direct_edges_ordered = [&] {
    for (ChannelId u = 0; u < topo.num_channels(); ++u) {
      for (const graph::Vertex v : ecdg.direct_only.out(u)) {
        if (pos[u] >= pos[v]) return false;
      }
    }
    return true;
  };
  for (ChannelId u = 0; u < topo.num_channels(); ++u) {
    for (const graph::Vertex v : ecdg.graph.out(u)) {
      if (ecdg.direct_only.has_edge(u, v)) continue;
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

/// One adversarial edit of the excursion fixture's certificate and the
/// audit code it must draw.
struct AuditMutationCase {
  const char* name;
  audit::AuditCode expected;
  std::function<void(const ExcursionFixture&, audit::Certificate&)> apply;
};

/// Names the case in gtest's parameter output.
inline void PrintTo(const AuditMutationCase& m, std::ostream* os) {
  *os << m.name;
}

inline std::vector<AuditMutationCase> excursion_mutations() {
  using audit::AuditCode;
  using audit::Certificate;
  using Fx = ExcursionFixture;
  return {
      {"indirect-order-violation", AuditCode::kOrderViolation,
       [](const Fx& fx, Certificate& cert) {
         ASSERT_TRUE(swap_indirect_only_edge(fx.topo, *fx.routing, cert));
       }},
      {"duplicate-escape-witness", AuditCode::kMalformed,
       [](const Fx&, Certificate& cert) {
         cert.escapes.push_back(cert.escapes.front());
       }},
      {"duplicate-injection-escape", AuditCode::kMalformed,
       [](const Fx&, Certificate& cert) {
         cert.injection_escapes.push_back(cert.injection_escapes.front());
       }},
      {"duplicate-witness-path", AuditCode::kMalformed,
       [](const Fx&, Certificate& cert) {
         cert.witness_paths.push_back(cert.witness_paths.front());
       }},
      {"escape-for-unreachable-state", AuditCode::kEscapeWitnessInvalid,
       [](const Fx& fx, Certificate& cert) {
         // A message for node 0 never leaves node 0: (0 -> 1, dest 0) is
         // not a reachable state of the minimal relation.
         const ChannelId away = fx.topo.find_channel(0, 1, /*vc=*/0);
         cert.escapes.push_back(
             {.channel = away, .dest = 0, .via = cert.escape_channels.front()});
       }},
      {"escape-via-num-channels", AuditCode::kEscapeWitnessInvalid,
       [](const Fx& fx, Certificate& cert) {
         cert.escapes.front().via =
             static_cast<ChannelId>(fx.topo.num_channels());
       }},
      {"escape-via-invalid-channel", AuditCode::kEscapeWitnessInvalid,
       [](const Fx&, Certificate& cert) {
         cert.escapes.front().via = topology::kInvalidChannel;
       }},
      {"injection-escape-not-first-hop", AuditCode::kEscapeWitnessInvalid,
       [](const Fx& fx, Certificate& cert) {
         // An escape channel that does not leave the injecting node.
         audit::InjectionEscape& w = cert.injection_escapes.front();
         for (const ChannelId c : cert.escape_channels) {
           if (fx.topo.channel(c).src != w.src) {
             w.via = c;
             return;
           }
         }
         FAIL() << "every escape channel leaves node " << w.src;
       }},
  };
}

}  // namespace wormnet::test
