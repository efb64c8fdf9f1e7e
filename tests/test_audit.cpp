// Proof-carrying verification: certificate schema, JSON round-trips, the
// independent auditor, adversarial mutations (each must be rejected with a
// distinct machine-readable reason), and byte-exact golden certificates.
//
// Regenerate goldens with: WORMNET_UPDATE_GOLDEN=1 ./test_audit
#include <gtest/gtest.h>

#include <algorithm>

#include "audit_fixtures.hpp"

namespace wormnet::audit {
namespace {

using core::CertifiedVerdict;
using core::Conclusion;
using core::Method;
using core::VerifyOptions;
using routing::TableRouting;
using test::compare_or_update;
using topology::make_ring;
using topology::make_unidirectional_ring;
using topology::Topology;

CertifiedVerdict run_certified(const Topology& topo,
                               const routing::RoutingFunction& routing,
                               Method method) {
  VerifyOptions options;
  options.method = method;
  return core::verify_certified(topo, routing, options);
}

/// The canonical certified fixture: dateline VC routing on an 8-node
/// bidirectional ring with 2 VCs (32 channels), Duato-certified.
struct CertifiedFixture {
  Topology topo = core::make_topology("ring:8:2");
  std::unique_ptr<routing::RoutingFunction> routing =
      core::make_algorithm("dateline", topo);
  CertifiedVerdict result =
      run_certified(topo, *routing, Method::kDuato);
};

void expect_roundtrip(const Topology& topo,
                      const routing::RoutingFunction& routing,
                      const Certificate& cert) {
  const std::string json = cert.to_json();
  const ParseResult parsed = parse_certificate(json);
  ASSERT_TRUE(parsed.certificate.has_value()) << parsed.error;
  EXPECT_EQ(*parsed.certificate, cert) << "parse is not the inverse of "
                                          "to_json";
  EXPECT_EQ(parsed.certificate->to_json(), json)
      << "re-serialization is not byte-identical";
  const AuditResult audit = check(topo, routing, *parsed.certificate);
  EXPECT_TRUE(audit.ok()) << to_string(audit.code) << ": " << audit.detail;
}

// ------------------------------------------------------------ happy paths

TEST(Audit, CertifiedDatelineRingRoundTrips) {
  const CertifiedFixture fx;
  ASSERT_EQ(fx.result.verdict.conclusion, Conclusion::kDeadlockFree)
      << fx.result.verdict.detail;
  ASSERT_TRUE(fx.result.certificate.has_value());
  const Certificate& cert = *fx.result.certificate;
  EXPECT_EQ(cert.kind, CertKind::kCertified);
  EXPECT_EQ(cert.method, "duato");
  EXPECT_FALSE(cert.escape_channels.empty());
  EXPECT_EQ(cert.topological_order.size(), cert.escape_channels.size());
  expect_roundtrip(fx.topo, *fx.routing, cert);
}

TEST(Audit, RefutedUniringDependencyCycleRoundTrips) {
  const Topology topo = make_unidirectional_ring(4, 1);
  const routing::UnrestrictedMinimal routing(topo);
  const CertifiedVerdict result =
      run_certified(topo, routing, Method::kDuato);
  ASSERT_EQ(result.verdict.conclusion, Conclusion::kDeadlockable)
      << result.verdict.detail;
  ASSERT_TRUE(result.certificate.has_value());
  const Certificate& cert = *result.certificate;
  EXPECT_EQ(cert.kind, CertKind::kRefuted);
  EXPECT_EQ(cert.evidence, Evidence::kDependencyCycle);
  EXPECT_GE(cert.cycle.size(), 2u);
  expect_roundtrip(topo, routing, cert);
}

TEST(Audit, DeterministicCyclicCdgEmitsCertificate) {
  const Topology topo = make_unidirectional_ring(4, 1);
  const routing::UnrestrictedMinimal routing(topo);
  const CertifiedVerdict result =
      run_certified(topo, routing, Method::kCdgAcyclic);
  ASSERT_EQ(result.verdict.conclusion, Conclusion::kDeadlockable);
  ASSERT_TRUE(result.certificate.has_value());
  EXPECT_EQ(result.certificate->method, "cdg-acyclic");
  EXPECT_EQ(result.certificate->evidence, Evidence::kDependencyCycle);
  expect_roundtrip(topo, routing, *result.certificate);
}

TEST(Audit, WaitSpecificTrueCycleRoundTrips) {
  const Topology topo = routing::make_incoherent_net();
  const routing::IncoherentRouting routing(topo, /*wait_specific=*/true);
  const CertifiedVerdict result = run_certified(topo, routing, Method::kCwg);
  ASSERT_EQ(result.verdict.conclusion, Conclusion::kDeadlockable)
      << result.verdict.detail;
  ASSERT_TRUE(result.certificate.has_value());
  const Certificate& cert = *result.certificate;
  EXPECT_EQ(cert.evidence, Evidence::kWaitCycle);
  for (const CycleEdge& e : cert.cycle) {
    EXPECT_FALSE(e.hold.empty()) << "wait-cycle edge without realization";
  }
  expect_roundtrip(topo, routing, cert);
}

/// A 3-node one-way ring whose 0 -> 2 injection has an empty waiting set.
struct StarvedFixture {
  static constexpr ChannelId kInv = topology::kInvalidChannel;
  Topology topo{"tri", 3,
                {{.src = 0, .dst = 1}, {.src = 1, .dst = 2},
                 {.src = 2, .dst = 0}}};
  TableRouting routing{topo,
                       "tri-starved",
                       {{{kInv, 0, 1}, {0}},
                        {{kInv, 0, 2}, {0}},
                        {{kInv, 1, 2}, {1}},
                        {{kInv, 1, 0}, {1}},
                        {{kInv, 2, 0}, {2}},
                        {{kInv, 2, 1}, {2}}}};
  StarvedFixture() { routing.set_waiting({{{kInv, 0, 2}, {}}}); }
};

TEST(Audit, NotWaitConnectedRoundTrips) {
  const StarvedFixture fx;
  const CertifiedVerdict result =
      run_certified(fx.topo, fx.routing, Method::kCwg);
  ASSERT_EQ(result.verdict.conclusion, Conclusion::kDeadlockable)
      << result.verdict.detail;
  ASSERT_TRUE(result.certificate.has_value());
  const Certificate& cert = *result.certificate;
  EXPECT_EQ(cert.evidence, Evidence::kNotWaitConnected);
  EXPECT_TRUE(cert.disconnection.at_injection);
  EXPECT_EQ(cert.disconnection.src, 0u);
  EXPECT_EQ(cert.disconnection.dest, 2u);
  expect_roundtrip(fx.topo, fx.routing, cert);
}

TEST(Audit, UnknownVerdictCarriesNoCertificate) {
  // ring:8 has 16 channels, above the default exhaustive limit (14): the
  // failed search is a budget artifact, so no certificate may be emitted.
  const Topology topo = make_ring(8, 1);
  const routing::UnrestrictedMinimal routing(topo);
  const CertifiedVerdict result =
      run_certified(topo, routing, Method::kDuato);
  EXPECT_EQ(result.verdict.conclusion, Conclusion::kUnknown)
      << result.verdict.detail;
  EXPECT_FALSE(result.certificate.has_value());
}

// ------------------------------------------- adversarial certificate tests

class AuditMutation : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(fx_.result.certificate.has_value());
    cert_ = *fx_.result.certificate;
    ASSERT_TRUE(check(fx_.topo, *fx_.routing, cert_).ok());
  }

  AuditCode audit_code() const {
    const AuditResult result = check(fx_.topo, *fx_.routing, cert_);
    EXPECT_FALSE(result.ok()) << "mutated certificate passed the audit";
    EXPECT_FALSE(result.detail.empty());
    return result.code;
  }

  /// Drops, from C1 and the order, the first escape channel that some
  /// message uses toward some destination.
  void drop_used_channel(Certificate& cert) const {
    const cdg::StateGraph states(fx_.topo, *fx_.routing);
    for (const ChannelId c : cert.escape_channels) {
      for (NodeId dest = 0; dest < fx_.topo.num_nodes(); ++dest) {
        if (states.reachable(c, dest)) {
          test::drop_escape_channel(cert, c);
          return;
        }
      }
    }
    FAIL() << "no escape channel is used";
  }

  CertifiedFixture fx_;
  Certificate cert_;
};

TEST_F(AuditMutation, DroppedEscapeChannelRejected) {
  // The topological order still names the dropped channel, so the order is
  // no longer a permutation of the escape set.
  cert_.escape_channels.erase(cert_.escape_channels.begin());
  EXPECT_EQ(audit_code(), AuditCode::kOrderNotPermutation);
}

TEST_F(AuditMutation, SwappedTopologicalOrderRejected) {
  // Reversing the order leaves it a valid permutation but flips every
  // dependency edge against it.
  std::reverse(cert_.topological_order.begin(),
               cert_.topological_order.end());
  EXPECT_EQ(audit_code(), AuditCode::kOrderViolation);
}

TEST_F(AuditMutation, DroppedUsedEscapeChannelStrandsANode) {
  // Dateline routing is deterministic: without a channel some message
  // uses, the node it leaves cannot reach that message's destination.
  drop_used_channel(cert_);
  EXPECT_EQ(audit_code(), AuditCode::kStrandedNode);
}

TEST_F(AuditMutation, CorruptJsonRejected) {
  const std::string json = cert_.to_json();
  const ParseResult truncated =
      parse_certificate(std::string_view(json).substr(0, json.size() / 2));
  EXPECT_FALSE(truncated.certificate.has_value());
  EXPECT_FALSE(truncated.error.empty());
  std::string garbled = json;
  garbled[garbled.find("\"kind\"") + 2] = '!';
  const ParseResult bad = parse_certificate(garbled);
  EXPECT_FALSE(bad.certificate.has_value());
  EXPECT_FALSE(bad.error.empty());
}

TEST_F(AuditMutation, WrongBindingRejected) {
  const Topology other = make_ring(8, 1);
  const routing::UnrestrictedMinimal routing(other);
  const AuditResult result = check(other, routing, cert_);
  EXPECT_EQ(result.code, AuditCode::kBindingMismatch);
}

TEST_F(AuditMutation, DistinctReasonsPerMutation) {
  // The mutations must each surface a different machine-readable reason
  // (JSON corruption rejects at the parser).
  Certificate dropped = cert_;
  dropped.escape_channels.erase(dropped.escape_channels.begin());
  Certificate swapped = cert_;
  std::reverse(swapped.topological_order.begin(),
               swapped.topological_order.end());
  Certificate stranded = cert_;
  drop_used_channel(stranded);
  const AuditCode a = check(fx_.topo, *fx_.routing, dropped).code;
  const AuditCode b = check(fx_.topo, *fx_.routing, swapped).code;
  const AuditCode c = check(fx_.topo, *fx_.routing, stranded).code;
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
  EXPECT_STRNE(to_string(a), to_string(b));
  EXPECT_STRNE(to_string(a), to_string(c));
  EXPECT_STRNE(to_string(b), to_string(c));
}

// Mutations of C1 and the order (audit_fixtures.hpp): an indirect
// dependency against the order, and single escape-channel drops that fail
// each gate of the condition.
class AuditCertificateMutation
    : public ::testing::TestWithParam<test::AuditMutationCase> {};

TEST_P(AuditCertificateMutation, DrawsItsCode) {
  const AuditResult result = GetParam().audit();
  EXPECT_EQ(result.code, GetParam().expected)
      << to_string(result.code) << ": " << result.detail;
  EXPECT_FALSE(result.detail.empty());
  if (result.code == AuditCode::kOrderViolation) {
    EXPECT_EQ(result.detail.rfind("indirect ", 0), 0u) << result.detail;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Certified, AuditCertificateMutation,
    ::testing::ValuesIn(test::certificate_mutations()),
    [](const ::testing::TestParamInfo<test::AuditMutationCase>& info) {
      std::string name = info.param.name;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(AuditExcursion, FixturesAuditValid) {
  const test::ExcursionFixture excursion;
  EXPECT_TRUE(check(excursion.topo, *excursion.routing, excursion.cert).ok());
  const test::InputDependentFixture line;
  EXPECT_EQ(line.cert.escape_channels.size(), line.topo.num_channels());
  EXPECT_TRUE(check(line.topo, line.routing, line.cert).ok());
}

TEST(AuditRefutedMutation, CorruptedCycleEdgeRejected) {
  const Topology topo = make_unidirectional_ring(4, 1);
  const routing::UnrestrictedMinimal routing(topo);
  const CertifiedVerdict result =
      run_certified(topo, routing, Method::kDuato);
  ASSERT_TRUE(result.certificate.has_value());
  Certificate cert = *result.certificate;
  // Break the closure: the second edge no longer starts where the first
  // one ends.
  ASSERT_GE(cert.cycle.size(), 2u);
  std::swap(cert.cycle[0], cert.cycle[1]);
  const AuditResult audit = check(topo, routing, cert);
  EXPECT_EQ(audit.code, AuditCode::kCycleEdgeUnsupported) << audit.detail;
}

TEST(AuditRefutedMutation, FabricatedDisconnectionRejected) {
  const StarvedFixture fx;
  const CertifiedVerdict result =
      run_certified(fx.topo, fx.routing, Method::kCwg);
  ASSERT_TRUE(result.certificate.has_value());
  Certificate cert = *result.certificate;
  cert.disconnection.src = 1;  // 1 -> 2 can wait on channel 1 just fine
  cert.disconnection.dest = 2;
  const AuditResult audit = check(fx.topo, fx.routing, cert);
  EXPECT_EQ(audit.code, AuditCode::kDisconnectionUnsupported) << audit.detail;
}

TEST(AuditRefutedMutation, TamperedWaitCycleRejected) {
  const Topology topo = routing::make_incoherent_net();
  const routing::IncoherentRouting routing(topo, /*wait_specific=*/true);
  const CertifiedVerdict result = run_certified(topo, routing, Method::kCwg);
  ASSERT_TRUE(result.certificate.has_value());
  Certificate cert = *result.certificate;
  ASSERT_FALSE(cert.cycle.empty());
  // Claim the first message holds the very channel it waits for.
  cert.cycle.front().hold.push_back(cert.cycle.front().to);
  const AuditResult audit = check(topo, routing, cert);
  EXPECT_EQ(audit.code, AuditCode::kWaitCycleUnsupported) << audit.detail;
}

// --------------------------------------------------------- parser strictness

TEST(CertificateParser, RejectsDuplicateAndUnknownKeys) {
  const CertifiedFixture fx;
  const std::string json = fx.result.certificate->to_json();
  // Duplicate: repeat the method key right after itself.
  std::string dup = json;
  const std::string method_field = "\"method\": \"duato\",";
  const auto at = dup.find(method_field);
  ASSERT_NE(at, std::string::npos);
  dup.insert(at, method_field + "\n  ");
  EXPECT_FALSE(parse_certificate(dup).certificate.has_value());
  // Unknown key.
  std::string unknown = json;
  unknown.insert(unknown.find("\"method\""), "\"surprise\": 1,\n  ");
  EXPECT_FALSE(parse_certificate(unknown).certificate.has_value());
}

TEST(CertificateParser, RejectsTheRetiredSchemaAndBinding) {
  const CertifiedFixture fx;
  const std::string json = fx.result.certificate->to_json();
  // wormnet-certificate/1 and /2 documents are refused outright, by schema
  // name.
  const std::string schema = "\"wormnet-certificate/3\"";
  const auto at = json.find(schema);
  ASSERT_NE(at, std::string::npos);
  for (const char* retired :
       {"\"wormnet-certificate/1\"", "\"wormnet-certificate/2\""}) {
    std::string old_schema = json;
    old_schema.replace(at, schema.size(), retired);
    const ParseResult parsed = parse_certificate(old_schema);
    EXPECT_FALSE(parsed.certificate.has_value()) << retired;
    EXPECT_NE(parsed.error.find("unsupported schema"), std::string::npos)
        << parsed.error;
  }
  // The retired three-field binding is no longer a key.
  std::string old_binding = json;
  old_binding.replace(old_binding.find("\"relation\""), 10, "\"routing\"");
  EXPECT_FALSE(parse_certificate(old_binding).certificate.has_value());
  // Nor are the retired certified hints.
  std::string hints = json;
  hints.insert(hints.find("\"topological_order\""), "\"escapes\": [],\n  ");
  EXPECT_FALSE(parse_certificate(hints).certificate.has_value());
}

TEST(CertificateParser, RejectsMixedKindPayloads) {
  const Topology topo = make_unidirectional_ring(4, 1);
  const routing::UnrestrictedMinimal routing(topo);
  const CertifiedVerdict result =
      run_certified(topo, routing, Method::kDuato);
  ASSERT_TRUE(result.certificate.has_value());
  // A refuted certificate claiming to be certified must not parse: the
  // refuted payload keys are rejected for kind "certified".
  std::string json = result.certificate->to_json();
  const auto at = json.find("\"refuted\"");
  ASSERT_NE(at, std::string::npos);
  json.replace(at, 9, "\"certified\"");
  const ParseResult parsed = parse_certificate(json);
  EXPECT_FALSE(parsed.certificate.has_value());
  EXPECT_FALSE(parsed.error.empty());
}

TEST(CertificateParser, EveryNestedRecordNeedsEachFieldOnce) {
  Certificate refuted;
  refuted.kind = CertKind::kRefuted;
  refuted.evidence = Evidence::kNotWaitConnected;
  refuted.cycle = {{1, 2, 3, {1}}};
  refuted.disconnection = {true, 4, 5, 6};
  ASSERT_TRUE(parse_certificate(refuted.to_json()).certificate.has_value());

  // One member of each nested record kind, spelled as to_json() writes it.
  const struct {
    const Certificate* cert;
    std::string member;
    std::string key;
  } kCases[] = {
      {&refuted, "\"from\": 1, ", "from"},
      {&refuted, ", \"dest\": 3", "dest"},
      {&refuted, ", \"hold\": [1]", "hold"},
      {&refuted, "\"at_injection\": true, ", "at_injection"},
      {&refuted, ", \"dest\": 6", "dest"},
  };
  for (const auto& c : kCases) {
    const std::string json = c.cert->to_json();
    const auto at = json.find(c.member);
    ASSERT_NE(at, std::string::npos) << c.member;
    std::string missing = json;
    missing.erase(at, c.member.size());
    const ParseResult no_key = parse_certificate(missing);
    EXPECT_FALSE(no_key.certificate.has_value()) << c.member;
    EXPECT_NE(no_key.error.find("missing key \"" + c.key + "\""),
              std::string::npos)
        << no_key.error;
    std::string repeated = json;
    repeated.insert(at, c.member);
    const ParseResult twice = parse_certificate(repeated);
    EXPECT_FALSE(twice.certificate.has_value()) << c.member;
    EXPECT_NE(twice.error.find("duplicate key \"" + c.key + "\""),
              std::string::npos)
        << twice.error;
  }
}

TEST(CertificateParser, StringsAreAscii) {
  Certificate cert;
  cert.escape_channels = {1};
  cert.topological_order = {1};
  cert.method = "duato";
  ASSERT_TRUE(parse_certificate(cert.to_json()).certificate.has_value());
  // Raw and escaped forms of a byte >= 0x80 are both refused.
  for (const char* method : {"\"caf\xc3\xa9\"", "\"caf\\u00e9\""}) {
    std::string json = cert.to_json();
    json.replace(json.find("\"duato\""), 7, method);
    const ParseResult parsed = parse_certificate(json);
    EXPECT_FALSE(parsed.certificate.has_value()) << method;
    EXPECT_NE(parsed.error.find("non-ASCII byte"), std::string::npos)
        << parsed.error;
  }
}

TEST(CertificateParser, RejectsNonCanonicalEnums) {
  const CertifiedFixture fx;
  std::string json = fx.result.certificate->to_json();
  const auto at = json.find("\"duato\"");
  ASSERT_NE(at, std::string::npos);
  json.replace(at, 7, "\"Duato\"");
  // method is free-form ("duato", "cdg-acyclic", "cwg" all occur), but kind
  // is an enum: garble it.
  std::string bad_kind = fx.result.certificate->to_json();
  const auto kind_at = bad_kind.find("\"certified\"");
  ASSERT_NE(kind_at, std::string::npos);
  bad_kind.replace(kind_at, 11, "\"probably-fine\"");
  EXPECT_FALSE(parse_certificate(bad_kind).certificate.has_value());
}

// ------------------------------------------------------------------ goldens

/// Rebinds a certificate's labels to registry coordinates, as
/// exp::AnalysisCache does, so the fixture audits from its own binding.
std::string bound_json(Certificate cert, const std::string& topology,
                       const std::string& relation) {
  cert.topology = topology;
  cert.relation = relation;
  return cert.to_json();
}

TEST(AuditGolden, CertifiedCertificateIsByteStable) {
  const CertifiedFixture fx;
  ASSERT_TRUE(fx.result.certificate.has_value());
  compare_or_update("certificate_certified.json",
                    bound_json(*fx.result.certificate, "ring:8:2", "dateline"));
}

TEST(AuditGolden, RefutedCertificateIsByteStable) {
  const Topology topo = make_unidirectional_ring(4, 1);
  const routing::UnrestrictedMinimal routing(topo);
  const CertifiedVerdict result =
      run_certified(topo, routing, Method::kDuato);
  ASSERT_TRUE(result.certificate.has_value());
  compare_or_update(
      "certificate_refuted.json",
      bound_json(*result.certificate, "uniring:4:1", "unrestricted"));
}

}  // namespace
}  // namespace wormnet::audit
