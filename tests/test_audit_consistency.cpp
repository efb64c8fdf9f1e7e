// Checker-vs-auditor consistency: for every (topology, routing) pair in the
// registry example matrix, and for a sequence of fault-campaign epochs, the
// emitted certificate must round-trip through JSON byte-exactly and the
// independent auditor must reproduce the checker's verdict from the
// certificate alone.  A disagreement here means either the checker emitted
// evidence the relation does not support (checker bug) or the auditor's
// re-derivation of the semantics drifted (auditor bug) — both are
// release-blocking.  Every certified matrix certificate is also cut down
// one escape channel at a time, and the auditor must agree with the
// checker's gates and condition on each cut.  Every matrix certificate's
// audit result, and the detail string of every mutation, is pinned in
// golden/audit_results.txt (regenerate with WORMNET_UPDATE_GOLDEN=1).
#include <gtest/gtest.h>

#include <algorithm>

#include "audit_fixtures.hpp"

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

/// One golden line: the audit's code and counters for `subject`.
std::string result_line(const std::string& subject, const AuditResult& audit) {
  return subject + " " + to_string(audit.code) +
         " states=" + std::to_string(audit.states_checked) +
         " edges=" + std::to_string(audit.edges_checked);
}

/// Checks `result` against the auditor; when it carries a certificate and
/// `lines` is set, appends the audit's golden line.
void expect_consistent(const Topology& topo,
                       const routing::RoutingFunction& routing,
                       const CertifiedVerdict& result,
                       const std::string& subject,
                       std::vector<std::string>* lines = nullptr) {
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
  if (lines != nullptr) {
    lines->push_back(result_line(
        subject + " " + cert.method + " " + to_string(cert.kind), audit));
  }
}

/// Drops each escape channel of a valid certified `cert` in turn, from C1
/// and from the order, and requires the auditor to agree with the checker
/// on every drop: a valid audit implies the checker's condition holds, a
/// gate code implies a checker gate fails, and a failed checker gate is
/// never a valid audit.
void expect_drops_agree(const Topology& topo,
                        const routing::RoutingFunction& routing,
                        const Certificate& cert, const std::string& subject) {
  const cdg::StateGraph states(topo, routing);
  for (const ChannelId dropped : cert.escape_channels) {
    Certificate mutant = cert;
    test::drop_escape_channel(mutant, dropped);
    std::vector<bool> c1(topo.num_channels(), false);
    for (const ChannelId c : mutant.escape_channels) c1[c] = true;
    const cdg::Subfunction sub(states, c1, "drop");
    const bool gates = sub.connected() && sub.escape_everywhere();
    const AuditResult audit = check(topo, routing, mutant);
    SCOPED_TRACE(subject + " without channel " + std::to_string(dropped) +
                 ": " + to_string(audit.code) + " " + audit.detail);
    if (audit.ok()) {
      EXPECT_TRUE(cdg::check(sub).holds());
    }
    if (audit.code == AuditCode::kStrandedNode ||
        audit.code == AuditCode::kNoEscape) {
      EXPECT_FALSE(gates);
    }
    if (!gates) {
      EXPECT_FALSE(audit.ok());
    }
  }
}

TEST(AuditConsistency, RegistryMatrixDuatoAndCwg) {
  std::vector<std::string> lines;
  for (const lint::ExampleExpectation& row : lint::example_matrix()) {
    const Topology topo = core::make_topology(row.topology_spec);
    const auto routing = core::make_algorithm(row.algorithm, topo);
    const std::string subject = row.topology_spec + " " + row.algorithm;
    for (const Method method : {Method::kDuato, Method::kCwg}) {
      const CertifiedVerdict result =
          core::verify_certified(topo, *routing, matrix_options(method));
      expect_consistent(topo, *routing, result, subject, &lines);
      if (result.certificate &&
          result.certificate->kind == CertKind::kCertified) {
        expect_drops_agree(topo, *routing, *result.certificate, subject);
      }
      // verify() and verify_certified() must agree — emission is a pure
      // side channel.
      const core::Verdict plain =
          core::verify(topo, *routing, matrix_options(method));
      EXPECT_EQ(plain.conclusion, result.verdict.conclusion) << subject;
    }
  }
  // The mutations' rejections, detail strings included.
  for (const test::AuditMutationCase& m : test::certificate_mutations()) {
    const AuditResult audit = m.audit();
    lines.push_back(result_line(std::string("mutation ") + m.name, audit) +
                    " " + audit.detail);
  }
  std::string golden;
  for (const std::string& line : lines) golden += line + "\n";
  test::compare_or_update("audit_results.txt", golden);
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
  EXPECT_EQ(pristine.certificate->relation, "duato-mesh");

  const Topology& topo = *pristine.topo;
  std::vector<bool> mask(topo.num_channels(), false);
  std::size_t epochs = 0;
  for (const auto& [src, dst] : {std::pair<NodeId, NodeId>{5, 6},
                                 {9, 10},
                                 {1, 2}}) {
    const ChannelId victim = topo.find_channel(src, dst, /*vc=*/1);
    ASSERT_NE(victim, topology::kInvalidChannel);
    mask[victim] = true;
    const exp::AnalysisEntry& epoch =
        cache.get(spec, reconfig::RelationExpr("duato", mask));
    ASSERT_TRUE(epoch.certificate != nullptr) << epoch.duato.detail;
    EXPECT_EQ(epoch.certificate->relation,
              "duato-mesh|" + ft::mask_to_hex(mask));

    // Round-trip the persisted mask and rebuild the exact degraded relation
    // the certificate speaks about, the way wormnet-audit does.
    const reconfig::RelationExpr bound =
        reconfig::RelationExpr::parse(epoch.certificate->relation, topo);
    EXPECT_EQ(bound.fault_mask, mask);
    const routing::FaultAwareRouting degraded(
        topo, core::make_algorithm(bound.routing, topo), bound.fault_mask);
    CertifiedVerdict result;
    result.verdict = epoch.duato;
    result.certificate = *epoch.certificate;
    expect_consistent(topo, degraded, result,
                      spec + " " + epoch.certificate->relation);
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
  // RelationExpr: "TOPO|" + its text is the cache key, its text is the
  // emitted certificate's binding, and its build() is the relation that
  // audits it.
  const std::string spec = "mesh:4x4:2";
  const Topology topo = core::make_topology(spec);
  const char* kinds[][2] = {
      {"pristine", "e-cube"},
      {"faulted", "e-cube|000000000000000000000008"},
      {"transition", "transition|e-cube>west-first/ffff.00ff"},
      {"composed",
       "transition|e-cube>west-first/ffff.00ff|000000000000000000000008"},
  };
  exp::AnalysisCache cache(/*with_cwg=*/false, /*profiler=*/nullptr,
                           /*certify=*/true);
  std::vector<std::string> keys;
  for (const auto& [kind, text] : kinds) {
    const reconfig::RelationExpr relation =
        reconfig::RelationExpr::parse(text, topo);
    EXPECT_EQ(relation.to_string(), text) << kind;
    EXPECT_EQ(relation.key(spec), spec + "|" + text) << kind;
    keys.push_back(relation.key(spec));
    const exp::AnalysisEntry& entry = cache.get(spec, relation);
    ASSERT_TRUE(entry.certificate != nullptr)
        << kind << ": " << entry.duato.detail;
    const audit::Certificate& cert = *entry.certificate;
    EXPECT_EQ(cert.relation, text) << kind;
    EXPECT_EQ(reconfig::RelationExpr::parse(cert.relation, *entry.topo),
              relation)
        << kind;
    const audit::AuditResult result =
        audit::check(*entry.topo, *relation.build(*entry.topo), cert);
    EXPECT_TRUE(result.ok()) << kind << ": " << result.detail;
  }
  std::sort(keys.begin(), keys.end());
  std::vector<std::string> recorded;
  for (const exp::CertificateRecord& record : cache.certificates()) {
    recorded.push_back(record.key);
  }
  EXPECT_EQ(recorded, keys);

  // One pristine spelling: an all-healthy mask is no mask at all.
  const reconfig::RelationExpr transition =
      reconfig::RelationExpr::parse(kinds[2][1], topo);
  EXPECT_EQ(reconfig::RelationExpr(
                "e-cube", std::vector<bool>(topo.num_channels(), false)),
            reconfig::RelationExpr("e-cube"));
  EXPECT_EQ(reconfig::RelationExpr(*transition.transition,
                                   std::vector<bool>(4, false)),
            transition);
}

/// route() then waiting() of `relation` at every state (input, at, dest).
std::vector<routing::ChannelSet> rows(const Topology& topo,
                                      const routing::RoutingFunction& relation) {
  std::vector<routing::ChannelSet> out;
  for (NodeId at = 0; at < topo.num_nodes(); ++at) {
    routing::ChannelSet inputs{topology::kInvalidChannel};
    for (const ChannelId c : topo.in_channels(at)) inputs.push_back(c);
    for (NodeId dest = 0; dest < topo.num_nodes(); ++dest) {
      if (dest == at) continue;
      for (const ChannelId input : inputs) {
        out.push_back(relation.route(input, at, dest));
        out.push_back(relation.waiting(input, at, dest));
      }
    }
  }
  return out;
}

/// parse and to_string are inverse in both directions on `relation`, and
/// the parsed expression builds a relation with the same rows.
void expect_fixed_point(const Topology& topo,
                        const reconfig::RelationExpr& relation) {
  const std::string text = relation.to_string();
  SCOPED_TRACE(topo.name() + " " + text);
  const reconfig::RelationExpr parsed =
      reconfig::RelationExpr::parse(text, topo);
  EXPECT_EQ(parsed, relation);
  EXPECT_EQ(parsed.to_string(), text);
  EXPECT_EQ(rows(topo, *parsed.build(topo)), rows(topo, *relation.build(topo)));
}

/// A few seeded fault masks over `topo`'s channels, one to three dead.
std::vector<std::vector<bool>> random_masks(const Topology& topo,
                                            std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::vector<bool>> masks;
  for (std::size_t dead = 1; dead <= 3; ++dead) {
    std::vector<bool> mask(topo.num_channels(), false);
    for (std::size_t k = 0; k < dead; ++k) {
      mask[rng() % topo.num_channels()] = true;
    }
    masks.push_back(std::move(mask));
  }
  return masks;
}

TEST(AuditConsistency, RelationTextIsAFixedPointOfParse) {
  std::uint64_t seed = 20;
  std::size_t relations = 0;
  for (const char* spec : {"mesh:4x4:2", "torus:4x4:3", "ring:6:2"}) {
    const Topology topo = core::make_topology(spec);
    for (const core::AlgorithmEntry* entry : core::algorithms_for(topo)) {
      expect_fixed_point(topo, reconfig::RelationExpr(entry->name));
      for (auto& mask : random_masks(topo, ++seed)) {
        expect_fixed_point(topo,
                           reconfig::RelationExpr(entry->name, std::move(mask)));
      }
      ++relations;
    }
  }
  EXPECT_GE(relations, 10u);

  // Transition unions: every verification epoch of a compiled ramp, a
  // masked member as the planner's per-channel rung emits it (target minus
  // one adaptive channel, lifted behind a barrier), and a composed epoch.
  const Topology topo = core::make_topology("mesh:4x4:2");
  std::vector<bool> allowed(topo.num_channels(), true);
  allowed[topo.find_channel(5, 6, /*vc=*/1)] = false;
  std::vector<reconfig::UnionSpec> unions;
  for (const std::string& plan :
       {std::string("ramp:duato-mesh/4/100@200"),
        "switch:duato-mesh%" + ft::mask_to_hex(allowed) +
            "@200+barrier:duato-mesh@300"}) {
    for (reconfig::UnionSpec& spec :
         reconfig::compile(reconfig::parse_transition_plan(plan), topo,
                           "e-cube")
             .verification_epochs()) {
      unions.push_back(std::move(spec));
    }
  }
  ASSERT_GE(unions.size(), 5u);
  bool masked_member = false;
  for (const reconfig::UnionSpec& spec : unions) {
    for (const std::string& name : spec.names) {
      masked_member |= !reconfig::split_member(topo, name).second.empty();
    }
    expect_fixed_point(topo, reconfig::RelationExpr(spec));
  }
  EXPECT_TRUE(masked_member);
  expect_fixed_point(topo, reconfig::RelationExpr(
                               unions.front(), random_masks(topo, 99).back()));
}

TEST(AuditConsistency, RelationParseRejectsNonCanonicalText) {
  // mesh:4x4:2 has 96 channels (24 hex digits) and 16 nodes (4 digits).
  const Topology topo = core::make_topology("mesh:4x4:2");
  const std::string zeros(23, '0');
  const std::string spec = "transition|e-cube>west-first/ffff.00ff";
  const struct {
    std::string text;
    std::string bad_part;
  } cases[] = {
      {"", ""},
      {"nope", "nope"},
      {"E-cube", "E-cube"},
      {"duato", "duato"},              // an alias, not the canonical name
      {"duato-torus", "duato-torus"},  // inapplicable to a mesh
      {"duato-mesh|ZZ", "ZZ"},
      {"e-cube|" + zeros + "F", zeros + "F"},    // upper-case digit
      {"e-cube|" + zeros.substr(1) + "8", zeros.substr(1) + "8"},  // short
      {"e-cube|0" + zeros + "8", "0" + zeros + "8"},               // long
      {"e-cube|" + zeros + "0", zeros + "0"},    // all-zero mask
      {"e-cube|", ""},
      {"e-cube|" + zeros + "8|1", "1"},          // extra field
      {"transition", "transition"},
      {"transition|e-cube>west-first", "e-cube>west-first"},
      {"transition|e-cube>west-first/ffff", "e-cube>west-first/ffff"},
      {"transition|e-cube>west-first/ffff.0ff", "0ff"},
      {"transition|e-cube>west-first/FFFF.00ff", "FFFF"},
      {"transition|e-cube>west-first/1ffff.00ff", "1ffff"},  // 17 nodes
      {"transition|e-cube>duato/ffff.00ff", "duato"},
      {"transition|e-cube>west-first%zz/ffff.00ff", "west-first%zz"},
      {"transition|e-cube>west-first%" + zeros.substr(1) + "f/ffff.00ff",
       "west-first%" + zeros.substr(1) + "f"},  // member mask one digit short
      {spec + "|" + zeros + "0", zeros + "0"},
      {spec + "|", ""},
  };
  for (const auto& c : cases) {
    try {
      (void)reconfig::RelationExpr::parse(c.text, topo);
      ADD_FAILURE() << "accepted \"" << c.text << "\"";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("\"" + c.bad_part + "\""),
                std::string::npos)
          << c.text << " -> " << e.what();
    }
  }
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
  EXPECT_EQ(outcome.certificates[0].certificate->relation, "duato-mesh");
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
