// Checker-vs-auditor consistency: for every (topology, routing) pair in the
// registry example matrix, and for a sequence of fault-campaign epochs, the
// emitted certificate must round-trip through JSON byte-exactly and the
// independent auditor must reproduce the checker's verdict from the
// certificate alone.  A disagreement here means either the checker emitted
// evidence the relation does not support (checker bug) or the auditor's
// re-derivation of the semantics drifted (auditor bug) — both are
// release-blocking.
#include <gtest/gtest.h>

#include <algorithm>

#include "test_helpers.hpp"

namespace wormnet::audit {
namespace {

using core::CertifiedVerdict;
using core::Conclusion;
using core::Method;
using core::VerifyOptions;
using topology::Topology;

/// The lint pipeline's stretched search budget (LintContext uses 16 so that
/// 16-channel refutations — ring:8 unrestricted — are decisive rather than
/// budget-limited kUnknown).  The consistency matrix matches it.
VerifyOptions matrix_options(Method method) {
  VerifyOptions options;
  options.method = method;
  options.duato.exhaustive_channel_limit = 16;
  return options;
}

void expect_consistent(const Topology& topo,
                       const routing::RoutingFunction& routing,
                       const CertifiedVerdict& result,
                       const std::string& subject) {
  const Conclusion conclusion = result.verdict.conclusion;
  if (conclusion == Conclusion::kUnknown) {
    EXPECT_FALSE(result.certificate.has_value())
        << subject << ": kUnknown verdict must not carry a certificate";
    return;
  }
  if (!result.certificate.has_value()) {
    // The only decisive verdicts without a certificate are universal
    // deadlock-freedom claims with no compact witness (CWG reduction /
    // acyclic plain CDG / message flow).
    EXPECT_EQ(conclusion, Conclusion::kDeadlockFree)
        << subject << ": deadlockable verdict without a certificate ("
        << result.verdict.method << ")";
    return;
  }
  const Certificate& cert = *result.certificate;
  // The certificate's claim must match the verdict it rode in on.
  EXPECT_EQ(cert.kind == CertKind::kCertified,
            conclusion == Conclusion::kDeadlockFree)
      << subject << ": certificate kind contradicts the verdict";
  // Byte-exact JSON round-trip.
  const std::string json = cert.to_json();
  const ParseResult parsed = parse_certificate(json);
  ASSERT_TRUE(parsed.certificate.has_value()) << subject << ": " << parsed.error;
  EXPECT_EQ(*parsed.certificate, cert) << subject;
  EXPECT_EQ(parsed.certificate->to_json(), json) << subject;
  // The independent auditor reproduces the verdict by direct inspection of
  // the relation.
  const AuditResult audit = check(topo, routing, *parsed.certificate);
  EXPECT_TRUE(audit.ok()) << subject << ": " << to_string(audit.code) << ": "
                          << audit.detail;
  EXPECT_GT(audit.edges_checked, 0u) << subject;
}

TEST(AuditConsistency, RegistryMatrixDuatoAndCwg) {
  for (const lint::ExampleExpectation& row : lint::example_matrix()) {
    const Topology topo = core::make_topology(row.topology_spec);
    const auto routing = core::make_algorithm(row.algorithm, topo);
    const std::string subject = row.topology_spec + " " + row.algorithm;
    for (const Method method : {Method::kDuato, Method::kCwg}) {
      const CertifiedVerdict result =
          core::verify_certified(topo, *routing, matrix_options(method));
      expect_consistent(topo, *routing, result, subject);
      // verify() and verify_certified() must agree — emission is a pure
      // side channel.
      const core::Verdict plain =
          core::verify(topo, *routing, matrix_options(method));
      EXPECT_EQ(plain.conclusion, result.verdict.conclusion) << subject;
    }
  }
}

TEST(AuditConsistency, FaultEpochCertificatesAuditDegradedRelation) {
  // duato-mesh on mesh:4x4:2, killing the vc1 (adaptive-layer) channel of
  // three links one epoch at a time.  The vc0 escape layer survives every
  // epoch, so each degraded relation re-certifies — and each certificate
  // must audit against the *degraded* relation reconstructed from the
  // persisted fault mask.
  const std::string spec = "mesh:4x4:2";
  exp::AnalysisCache cache(/*with_cwg=*/false, /*profiler=*/nullptr,
                           /*certify=*/true);
  const exp::AnalysisEntry& pristine = cache.get(spec, reconfig::RelationExpr("duato"));
  ASSERT_TRUE(pristine.certified) << pristine.duato.detail;
  ASSERT_TRUE(pristine.certificate != nullptr);
  EXPECT_EQ(pristine.certificate->topology, spec);
  EXPECT_EQ(pristine.certificate->fault_mask, "");

  const Topology& topo = *pristine.topo;
  std::vector<bool> mask(topo.num_channels(), false);
  std::size_t epochs = 0;
  for (const auto& [src, dst] : {std::pair<NodeId, NodeId>{5, 6},
                                 {9, 10},
                                 {1, 2}}) {
    const ChannelId victim = topo.find_channel(src, dst, /*vc=*/1);
    ASSERT_NE(victim, topology::kInvalidChannel);
    mask[victim] = true;
    const exp::AnalysisEntry& epoch = cache.get(
        spec, reconfig::RelationExpr("duato", "", ft::mask_to_hex(mask)));
    ASSERT_TRUE(epoch.certificate != nullptr) << epoch.duato.detail;
    EXPECT_EQ(epoch.certificate->fault_mask, ft::mask_to_hex(mask));

    // Round-trip the persisted mask and rebuild the exact degraded relation
    // the certificate speaks about, the way wormnet-audit does.
    const std::vector<bool> rebuilt = ft::mask_from_hex(
        epoch.certificate->fault_mask, topo.num_channels());
    EXPECT_EQ(rebuilt, mask);
    const routing::FaultAwareRouting degraded(
        topo, core::make_algorithm(epoch.routing, topo), rebuilt);
    CertifiedVerdict result;
    result.verdict = epoch.duato;
    result.certificate = *epoch.certificate;
    expect_consistent(topo, degraded, result,
                      spec + " duato " + epoch.certificate->fault_mask);
    ++epochs;
  }
  EXPECT_GE(epochs, 3u);

  // The snapshot drains every emitted certificate in deterministic order.
  const auto records = cache.certificates();
  EXPECT_EQ(records.size(), 4u);  // pristine + three epochs
  for (const auto& record : records) {
    EXPECT_FALSE(record.key.empty());
    ASSERT_TRUE(record.certificate != nullptr);
  }
}

TEST(AuditConsistency, EveryEpochKindIsOneRelationExpr) {
  // The four epoch kinds a composed sweep point certifies (e-cube ramping to
  // west-first on mesh:4x4:2 while channel 3 is dead), each one
  // RelationExpr: its key() is the cache key, its fields are the emitted
  // certificate's binding, and its build() is the relation that audits it.
  const std::string spec = "mesh:4x4:2";
  const std::string mask = "000000000000000000000008";
  const std::string epoch = "e-cube>west-first/ffff.00ff";
  struct Row {
    const char* kind;
    reconfig::RelationExpr relation;
    const char* key;
  };
  const std::vector<Row> table = {
      {"pristine", reconfig::RelationExpr("e-cube"), "mesh:4x4:2|e-cube"},
      {"faulted", reconfig::RelationExpr("e-cube", "", mask),
       "mesh:4x4:2|e-cube|000000000000000000000008"},
      {"transition", reconfig::RelationExpr("e-cube", epoch),
       "mesh:4x4:2|transition|e-cube>west-first/ffff.00ff"},
      {"composed", reconfig::RelationExpr("e-cube", epoch, mask),
       "mesh:4x4:2|transition|e-cube>west-first/ffff.00ff|"
       "000000000000000000000008"},
  };
  exp::AnalysisCache cache(/*with_cwg=*/false, /*profiler=*/nullptr,
                           /*certify=*/true);
  std::vector<std::string> keys;
  for (const Row& row : table) {
    EXPECT_EQ(row.relation.key(spec), row.key) << row.kind;
    keys.push_back(row.key);
    const exp::AnalysisEntry& entry = cache.get(spec, row.relation);
    ASSERT_TRUE(entry.certificate != nullptr)
        << row.kind << ": " << entry.duato.detail;
    const audit::Certificate& cert = *entry.certificate;
    EXPECT_EQ(reconfig::RelationExpr(cert.routing, cert.transition,
                                     cert.fault_mask),
              row.relation)
        << row.kind;
    const audit::AuditResult result =
        audit::check(*entry.topo, *row.relation.build(*entry.topo), cert);
    EXPECT_TRUE(result.ok()) << row.kind << ": " << result.detail;
  }
  std::sort(keys.begin(), keys.end());
  std::vector<std::string> recorded;
  for (const exp::CertificateRecord& record : cache.certificates()) {
    recorded.push_back(record.key);
  }
  EXPECT_EQ(recorded, keys);

  // One pristine spelling: an all-healthy mask is no mask at all.
  EXPECT_EQ(reconfig::RelationExpr("e-cube", "", "000000000000000000000000"),
            reconfig::RelationExpr("e-cube"));
  EXPECT_EQ(reconfig::RelationExpr("e-cube", epoch, "0000"),
            reconfig::RelationExpr("e-cube", epoch));
}

TEST(AuditConsistency, RepairedEpochIsThePristineRelation) {
  // kill:5-6 then repair:5-6 returns the network to an all-healthy mask:
  // that epoch is the pristine relation itself, so it is a cache hit rather
  // than a second verification, and no all-zero-mask certificate appears.
  exp::SweepSpec spec;
  spec.topologies = {"mesh:4x4:2"};
  spec.routings = {"duato"};
  spec.fault_plans = {"kill:5-6@100+repair:5-6@200"};
  spec.base.warmup_cycles = 50;
  spec.base.measure_cycles = 200;
  spec.base.drain_cycles = 2000;
  exp::RunnerOptions options;
  options.threads = 1;
  options.certify = true;
  const exp::SweepOutcome outcome = exp::run_sweep(spec, options);
  ASSERT_EQ(outcome.results.size(), 1u);
  EXPECT_EQ(outcome.results[0].fault_epochs, 2u);
  // Misses: the pristine relation and the killed-link epoch, nothing more.
  EXPECT_EQ(outcome.cache_misses, 2u);
  ASSERT_EQ(outcome.certificates.size(), 1u);
  EXPECT_EQ(outcome.certificates[0].key, "mesh:4x4:2|duato-mesh");
  EXPECT_EQ(outcome.certificates[0].certificate->fault_mask, "");
}

TEST(AuditConsistency, MaskHexRoundTrips) {
  std::vector<bool> mask(37, false);
  mask[0] = mask[3] = mask[8] = mask[35] = true;
  const std::string hex = ft::mask_to_hex(mask);
  EXPECT_EQ(ft::mask_from_hex(hex, mask.size()), mask);
  EXPECT_THROW(ft::mask_from_hex("zz", 8), std::invalid_argument);
  EXPECT_THROW(ft::mask_from_hex("ff", 4), std::invalid_argument);
}

}  // namespace
}  // namespace wormnet::audit
