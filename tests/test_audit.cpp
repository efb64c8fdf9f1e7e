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
  EXPECT_FALSE(cert.witness_paths.empty());
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

TEST_F(AuditMutation, TruncatedWitnessPathRejected) {
  ASSERT_FALSE(cert_.witness_paths.empty());
  auto& path = cert_.witness_paths.front().path;
  ASSERT_FALSE(path.empty());
  path.pop_back();
  EXPECT_EQ(audit_code(), AuditCode::kWitnessPathBroken);
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

TEST_F(AuditMutation, RemovedEscapeWitnessRejected) {
  ASSERT_FALSE(cert_.escapes.empty());
  cert_.escapes.pop_back();
  EXPECT_EQ(audit_code(), AuditCode::kMissingEscapeWitness);
}

TEST_F(AuditMutation, TamperedEscapeViaRejected) {
  ASSERT_FALSE(cert_.escapes.empty());
  // Point the escape at a channel the relation does not offer there: the
  // witness's own occupied channel is never among its successors.
  cert_.escapes.front().via = cert_.escapes.front().channel;
  EXPECT_EQ(audit_code(), AuditCode::kEscapeWitnessInvalid);
}

TEST_F(AuditMutation, RemovedInjectionEscapeRejected) {
  ASSERT_FALSE(cert_.injection_escapes.empty());
  cert_.injection_escapes.pop_back();
  EXPECT_EQ(audit_code(), AuditCode::kMissingInjectionEscape);
}

TEST_F(AuditMutation, RemovedWitnessPathRejected) {
  ASSERT_FALSE(cert_.witness_paths.empty());
  cert_.witness_paths.pop_back();
  EXPECT_EQ(audit_code(), AuditCode::kMissingWitnessPath);
}

TEST_F(AuditMutation, WrongBindingRejected) {
  const Topology other = make_ring(8, 1);
  const routing::UnrestrictedMinimal routing(other);
  const AuditResult result = check(other, routing, cert_);
  EXPECT_EQ(result.code, AuditCode::kBindingMismatch);
}

TEST_F(AuditMutation, DistinctReasonsPerMutation) {
  // The four ISSUE-mandated mutations must each surface a different
  // machine-readable reason (JSON corruption rejects at the parser).
  Certificate dropped = cert_;
  dropped.escape_channels.erase(dropped.escape_channels.begin());
  Certificate swapped = cert_;
  std::reverse(swapped.topological_order.begin(),
               swapped.topological_order.end());
  Certificate truncated = cert_;
  truncated.witness_paths.front().path.pop_back();
  const AuditCode a = check(fx_.topo, *fx_.routing, dropped).code;
  const AuditCode b = check(fx_.topo, *fx_.routing, swapped).code;
  const AuditCode c = check(fx_.topo, *fx_.routing, truncated).code;
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
  EXPECT_STRNE(to_string(a), to_string(b));
  EXPECT_STRNE(to_string(a), to_string(c));
  EXPECT_STRNE(to_string(b), to_string(c));
}

// Mutations of a certificate whose escape states take excursions
// (audit_fixtures.hpp): indirect dependencies, duplicate and out-of-range
// witness entries, and first-hop rows.
class AuditExcursionMutation
    : public ::testing::TestWithParam<test::AuditMutationCase> {};

TEST_P(AuditExcursionMutation, DrawsItsCode) {
  const test::ExcursionFixture fx;
  ASSERT_TRUE(check(fx.topo, *fx.routing, fx.cert).ok());
  Certificate cert = fx.cert;
  GetParam().apply(fx, cert);
  const AuditResult result = check(fx.topo, *fx.routing, cert);
  EXPECT_EQ(result.code, GetParam().expected)
      << to_string(result.code) << ": " << result.detail;
  EXPECT_FALSE(result.detail.empty());
  if (result.code == AuditCode::kOrderViolation) {
    EXPECT_EQ(result.detail.rfind("indirect ", 0), 0u) << result.detail;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DuatoMesh, AuditExcursionMutation,
    ::testing::ValuesIn(test::excursion_mutations()),
    [](const ::testing::TestParamInfo<test::AuditMutationCase>& info) {
      std::string name = info.param.name;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(AuditExcursion, WitnessPathRunningPastItsDestinationRejected) {
  // The path reaches its destination, leaves it on an escape channel and
  // comes back: no message toward a node leaves that node, so the relation
  // supplies no hop out of it (and is never asked for one: R(., d, d) is
  // outside its domain).
  const test::ExcursionFixture fx;
  Certificate cert = fx.cert;
  WitnessPath& w = cert.witness_paths.front();
  const std::size_t hops = w.path.size();
  for (const ChannelId out : cert.escape_channels) {
    if (fx.topo.channel(out).src != w.dest) continue;
    const NodeId next = fx.topo.channel(out).dst;
    const auto back = std::find_if(
        cert.escape_channels.begin(), cert.escape_channels.end(),
        [&](ChannelId c) {
          return fx.topo.channel(c).src == next &&
                 fx.topo.channel(c).dst == w.dest;
        });
    if (back == cert.escape_channels.end()) continue;
    w.path.push_back(out);
    w.path.push_back(*back);
    break;
  }
  ASSERT_EQ(w.path.size(), hops + 2) << "no escape round trip out of "
                                     << w.dest;
  const AuditResult result = check(fx.topo, *fx.routing, cert);
  EXPECT_EQ(result.code, AuditCode::kWitnessPathBroken) << result.detail;
  EXPECT_NE(result.detail.find("is not supplied by the relation for dest"),
            std::string::npos)
      << result.detail;
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
  // A wormnet-certificate/1 document is refused outright, by schema name.
  std::string old_schema = json;
  const std::string schema = "\"wormnet-certificate/2\"";
  const auto at = old_schema.find(schema);
  ASSERT_NE(at, std::string::npos);
  old_schema.replace(at, schema.size(), "\"wormnet-certificate/1\"");
  const ParseResult parsed = parse_certificate(old_schema);
  EXPECT_FALSE(parsed.certificate.has_value());
  EXPECT_NE(parsed.error.find("unsupported schema"), std::string::npos)
      << parsed.error;
  // The retired three-field binding is no longer a key of /2.
  std::string old_binding = json;
  old_binding.replace(old_binding.find("\"relation\""), 10, "\"routing\"");
  EXPECT_FALSE(parse_certificate(old_binding).certificate.has_value());
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
  Certificate certified;
  certified.escape_channels = {1};
  certified.topological_order = {1};
  certified.escapes = {{5, 6, 7}};
  certified.injection_escapes = {{2, 3, 4}};
  certified.witness_paths = {{8, 9, {1}}};
  Certificate refuted;
  refuted.kind = CertKind::kRefuted;
  refuted.evidence = Evidence::kNotWaitConnected;
  refuted.cycle = {{1, 2, 3, {1}}};
  refuted.disconnection = {true, 4, 5, 6};
  ASSERT_TRUE(parse_certificate(certified.to_json()).certificate.has_value());
  ASSERT_TRUE(parse_certificate(refuted.to_json()).certificate.has_value());

  // One member of each nested record kind, spelled as to_json() writes it.
  const struct {
    const Certificate* cert;
    std::string member;
    std::string key;
  } kCases[] = {
      {&certified, "\"channel\": 5, ", "channel"},
      {&certified, ", \"via\": 7", "via"},
      {&certified, "\"src\": 2, ", "src"},
      {&certified, ", \"dest\": 3", "dest"},
      {&certified, ", \"path\": [1]", "path"},
      {&refuted, "\"from\": 1, ", "from"},
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
