// Differential property battery for dynamic reconfiguration (DESIGN 3.12).
//
// A reconfiguration campaign crosses a base relation with transition plans
// whose (R_old, R_new) pairs sit on both sides of the Duato certification
// line for the union relation:
//
//   * e-cube -> west-first on a 1-VC mesh: e-cube's turn set is a subset
//     of west-first's, so every cumulative union *is* west-first — the
//     transition certifies and must deliver every packet;
//   * e-cube -> negative-first on a 1-VC mesh: two individually certified
//     relations whose union turn set closes a cycle neither permits alone
//     — the mixed epoch is refuted (proven susceptible on the 2x2 mesh);
//   * e-cube -> unrestricted on a 1-VC mesh: the target has no escape
//     layer, every epoch is refused, and the switched network genuinely
//     deadlocks under load.
//
// The differential property (mirroring tests/test_fault_campaign.cpp for
// fault epochs): a simulated deadlock on a reconfiguring point implies its
// union re-verification refused to certify — a deadlock on a *certified*
// point would falsify the theorem or (far more likely) the implementation.
// Both directions are non-vacuous: the campaign must contain certified
// transitioning rows that deliver 100%, and refuted rows that deadlock.
//
// The JSONL rendering is pinned byte-for-byte against
// tests/golden/reconfig_campaign.jsonl across thread counts 1..8, and every
// transition certificate the analysis cache emits must round-trip through
// JSON and convince the independent auditor against a relation rebuilt
// solely from the certificate's `transition` binding.  Regenerate fixtures:
//   WORMNET_UPDATE_GOLDEN=1 ./test_reconfig_properties
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "test_helpers.hpp"
#include "wormnet/audit/certificate.hpp"
#include "wormnet/audit/check.hpp"
#include "wormnet/exp/sweep_io.hpp"
#include "wormnet/exp/sweep_runner.hpp"
#include "wormnet/reconfig/transition_plan.hpp"
#include "wormnet/reconfig/union_routing.hpp"

namespace wormnet::exp {
namespace {

#ifndef WORMNET_GOLDEN_DIR
#error "tests/CMakeLists.txt must define WORMNET_GOLDEN_DIR"
#endif

/// Three transition plans against the e-cube base, on two 1-VC meshes:
///
///   * west-first — every union certifies (e-cube's turns are a subset);
///   * negative-first — the mixed union closes a turn cycle: *proven*
///     susceptible on the 2x2 mesh (8 channels, within the exhaustive
///     necessity budget — that row contributes the refutation
///     certificate), merely uncertified on the larger mesh;
///   * unrestricted — the target has no escape layer, so both the mixed
///     union and the steady state are refused, and at this load the 3x3
///     rows reliably deadlock after the cutover (the differential
///     non-vacuity witness).
SweepSpec campaign_spec() {
  SweepSpec spec;
  spec.topologies = {"mesh:2x2:1", "mesh:3x3:1"};
  spec.routings = {"e-cube"};
  spec.reconfig_plans = {"none", "switch:west-first@300",
                         "switch:negative-first@300",
                         "switch:unrestricted@300"};
  spec.loads = {0.8};
  spec.replications = 2;
  spec.seed = 9;
  spec.base.packet_length = 8;
  spec.base.buffer_depth = 2;
  spec.base.warmup_cycles = 100;
  spec.base.measure_cycles = 2000;
  spec.base.drain_cycles = 6000;
  spec.base.deadlock_check_interval = 64;
  return spec;
}

SweepOutcome campaign_outcome(std::size_t threads, bool certify = false) {
  RunnerOptions options;
  options.threads = threads;
  options.certify = certify;
  return run_sweep(campaign_spec(), options);
}

std::string render_jsonl(const SweepOutcome& outcome) {
  std::ostringstream os;
  write_jsonl(os, outcome);
  return os.str();
}

void expect_matches_golden(const std::string& actual,
                           const std::string& filename) {
  const std::string path = std::string(WORMNET_GOLDEN_DIR) + "/" + filename;
  if (std::getenv("WORMNET_UPDATE_GOLDEN") != nullptr) {
    std::ofstream file(path, std::ios::binary);
    ASSERT_TRUE(file.good()) << "cannot write " << path;
    file << actual;
    GTEST_SKIP() << "updated " << path;
  }
  std::ifstream file(path, std::ios::binary);
  std::ostringstream expected;
  expected << file.rdbuf();
  ASSERT_FALSE(expected.str().empty())
      << path << " missing — regenerate with WORMNET_UPDATE_GOLDEN=1";
  EXPECT_EQ(actual, expected.str()) << "golden drift in " << filename;
}

// --- the differential property -------------------------------------------

TEST(ReconfigProperties, DeadlockImpliesUncertifiedUnion) {
  const SweepOutcome outcome = campaign_outcome(4);
  std::size_t certified_transitions = 0;
  std::size_t refuted_deadlocks = 0;
  for (const SweepResult& r : outcome.results) {
    if (r.point.reconfig_plan == "none") {
      // The pristine axis value stays pristine: no transition epochs at all.
      EXPECT_EQ(r.transition_epochs, 0u);
      EXPECT_FALSE(r.stats.deadlocked);
      continue;
    }
    EXPECT_GT(r.transition_epochs, 0u) << r.point.reconfig_plan;
    if (r.certified) {
      // The headline property: a certified transition never deadlocks and
      // delivers every accepted packet.
      EXPECT_EQ(r.uncertified_transition_epochs, 0u);
      EXPECT_FALSE(r.stats.deadlocked) << r.point.reconfig_plan;
      EXPECT_EQ(r.stats.packets_delivered, r.stats.packets_created);
      EXPECT_EQ(r.stats.packets_dropped, 0u);
      ++certified_transitions;
    } else {
      EXPECT_GT(r.uncertified_transition_epochs, 0u);
    }
    // The differential direction: a deadlock is only admissible on a point
    // whose union re-verification already refused to certify.
    if (r.stats.deadlocked) {
      EXPECT_GT(r.uncertified_transition_epochs, 0u)
          << "deadlock on a certified transition: " << r.point.reconfig_plan;
      ++refuted_deadlocks;
    }
  }
  // Non-vacuous on both sides of the certification line.
  EXPECT_GT(certified_transitions, 0u);
  EXPECT_GT(refuted_deadlocks, 0u);
  EXPECT_EQ(outcome.aggregate.certified_deadlocks, 0u);
}

// --- golden JSONL + thread determinism -----------------------------------

TEST(ReconfigProperties, JsonlMatchesGoldenFile) {
  expect_matches_golden(render_jsonl(campaign_outcome(4)),
                        "reconfig_campaign.jsonl");
}

TEST(ReconfigProperties, ByteIdenticalAcrossThreadCounts) {
  const std::string inline_run = render_jsonl(campaign_outcome(1));
  for (const std::size_t threads : {2u, 4u, 8u}) {
    EXPECT_EQ(render_jsonl(campaign_outcome(threads)), inline_run)
        << threads << " threads";
  }
}

TEST(ReconfigProperties, RowsCarryTheTransitionContract) {
  std::istringstream lines(render_jsonl(campaign_outcome(4)));
  std::string line;
  std::size_t transition_rows = 0;
  while (std::getline(lines, line)) {
    const audit::json::Value obj = audit::json::parse(line);
    if (obj.has("aggregate")) continue;
    const std::string plan = obj.at("reconfig").as_string();
    const auto epochs = obj.at("transition_epochs").as_number();
    const auto uncertified =
        obj.at("uncertified_transition_epochs").as_number();
    if (plan == "none") {
      EXPECT_EQ(epochs, 0.0) << line;
      continue;
    }
    ++transition_rows;
    EXPECT_GT(epochs, 0.0) << line;
    if (obj.at("deadlocked").as_bool()) {
      EXPECT_GT(uncertified, 0.0) << line;
    }
    if (obj.at("certified").as_bool()) {
      EXPECT_EQ(uncertified, 0.0) << line;
    }
  }
  EXPECT_GT(transition_rows, 0u);
}

// --- certificates: audit round-trip + golden fixtures --------------------

/// True when a certificate's relation binding is a transition union.
bool binds_transition(const audit::Certificate& cert) {
  return reconfig::RelationExpr::parse(cert.relation,
                                       core::make_topology(cert.topology))
      .transition.has_value();
}

/// Every transition certificate must survive a JSON round-trip byte-exactly
/// and convince the independent auditor against the union relation rebuilt
/// solely from its `relation` binding (never the in-memory one).
TEST(ReconfigProperties, TransitionCertificatesAuditIndependently) {
  const SweepOutcome outcome = campaign_outcome(1, /*certify=*/true);
  std::size_t certified_seen = 0;
  std::size_t refuted_seen = 0;
  for (const CertificateRecord& record : outcome.certificates) {
    ASSERT_NE(record.certificate, nullptr);
    const audit::Certificate& cert = *record.certificate;
    if (!binds_transition(cert)) continue;
    EXPECT_NE(record.key.find("|transition|"), std::string::npos);

    // JSON round-trip stability.
    const std::string json = cert.to_json();
    const audit::ParseResult parsed = audit::parse_certificate(json);
    ASSERT_TRUE(parsed.certificate.has_value()) << parsed.error;
    EXPECT_EQ(parsed.certificate->to_json(), json);
    EXPECT_EQ(parsed.certificate->relation, cert.relation);

    // Independent re-validation against the rebuilt union relation.
    const auto topo = core::make_topology(cert.topology);
    const auto relation =
        reconfig::RelationExpr::parse(cert.relation, topo).build(topo);
    const audit::AuditResult audit =
        audit::check(topo, *relation, *parsed.certificate);
    EXPECT_TRUE(audit.ok()) << record.key << ": " << audit.detail;

    if (cert.kind == audit::CertKind::kCertified) ++certified_seen;
    if (cert.kind == audit::CertKind::kRefuted) ++refuted_seen;
  }
  // The campaign emits transition certificates of both kinds.
  EXPECT_GT(certified_seen, 0u);
  EXPECT_GT(refuted_seen, 0u);
}

/// The first certified and first refuted transition certificates are pinned
/// as golden JSON fixtures (the auditable artifacts a sweep --certify-out
/// ships); cache-key order makes the choice deterministic.
TEST(ReconfigProperties, TransitionCertificatesMatchGoldenFiles) {
  const SweepOutcome outcome = campaign_outcome(1, /*certify=*/true);
  const audit::Certificate* certified = nullptr;
  const audit::Certificate* refuted = nullptr;
  for (const CertificateRecord& record : outcome.certificates) {
    const audit::Certificate& cert = *record.certificate;
    if (!binds_transition(cert)) continue;
    if (cert.kind == audit::CertKind::kCertified && certified == nullptr) {
      certified = &cert;
    }
    if (cert.kind == audit::CertKind::kRefuted && refuted == nullptr) {
      refuted = &cert;
    }
  }
  ASSERT_NE(certified, nullptr);
  ASSERT_NE(refuted, nullptr);
  expect_matches_golden(certified->to_json(),
                        "reconfig_certified_cert.json");
  // GTEST_SKIP in the updater path returns above; keep both writes in one
  // run by checking the flag before the second comparison.
  if (std::getenv("WORMNET_UPDATE_GOLDEN") != nullptr) {
    const std::string path =
        std::string(WORMNET_GOLDEN_DIR) + "/reconfig_refuted_cert.json";
    std::ofstream file(path, std::ios::binary);
    ASSERT_TRUE(file.good()) << "cannot write " << path;
    file << refuted->to_json();
    return;
  }
  expect_matches_golden(refuted->to_json(), "reconfig_refuted_cert.json");
}

}  // namespace
}  // namespace wormnet::exp
