// Proof-carrying-certificate rules (DESIGN 3.10):
//
//   WN021 certificate-audit-mismatch     the Duato verdict's certificate is
//                                        refuted by the independent auditor —
//                                        the checker emitted evidence the
//                                        relation does not support
//   WN022 certificate-roundtrip-unstable the certificate does not survive a
//                                        JSON serialize/parse/serialize
//                                        round-trip byte-exactly
//   WN023 certificate-missing            the Duato verdict is decisive but
//                                        emission produced no certificate,
//                                        so the verdict cannot be
//                                        independently re-validated
//
// All three run the lint pipeline's own emitted certificate (LintContext
// memoizes one core::certify_duato call per pair).  WN021/WN022 firing on a
// registry example is release-blocking: it means either the checker or the
// auditor is wrong about the paper's condition.
#include <sstream>

#include "wormnet/audit/check.hpp"
#include "wormnet/cdg/cdg_builder.hpp"
#include "wormnet/lint/rules_internal.hpp"

namespace wormnet::lint::rules {

void certificate_audit_mismatch(LintContext& ctx,
                                std::vector<Diagnostic>& out) {
  const std::optional<audit::Certificate>& cert = ctx.certificate();
  if (!cert.has_value()) return;
  const audit::AuditResult audit =
      audit::check(ctx.topo(), ctx.routing(), *cert);
  if (audit.ok()) return;

  Diagnostic d;
  d.rule_id = "WN021";
  d.severity = Severity::kError;
  std::ostringstream os;
  os << "the " << audit::to_string(cert->kind)
     << " certificate emitted for this pair is refuted by the independent "
        "auditor ["
     << audit::to_string(audit.code) << "]: " << audit.detail
     << " — the checker and the relation disagree; do not trust the verdict";
  d.message = os.str();
  out.push_back(std::move(d));
}

void certificate_roundtrip_unstable(LintContext& ctx,
                                    std::vector<Diagnostic>& out) {
  const std::optional<audit::Certificate>& cert = ctx.certificate();
  if (!cert.has_value()) return;
  const std::string json = cert->to_json();
  const audit::ParseResult parsed = audit::parse_certificate(json);

  std::ostringstream os;
  if (!parsed.certificate.has_value()) {
    os << "the emitted certificate does not parse back: " << parsed.error;
  } else if (*parsed.certificate != *cert) {
    os << "the emitted certificate parses back to a different value";
  } else if (parsed.certificate->to_json() != json) {
    os << "re-serializing the parsed certificate is not byte-identical";
  } else {
    return;
  }
  os << " — persisted certificates would drift from the in-memory evidence";

  Diagnostic d;
  d.rule_id = "WN022";
  d.severity = Severity::kError;
  d.message = os.str();
  out.push_back(std::move(d));
}

void certificate_missing(LintContext& ctx, std::vector<Diagnostic>& out) {
  const cdg::SearchResult& search = ctx.duato_search();
  // Decisive Duato verdicts: a subfunction was found, or the exhaustive
  // search refuted every subset for an in-scope relation.  Budget-limited
  // and out-of-scope outcomes are kUnknown — no certificate is expected.
  const bool decisive =
      search.found ||
      (search.exhaustive_complete && cdg::condition_exact(ctx.states()));
  if (!decisive) return;
  if (ctx.certificate().has_value()) return;

  Diagnostic d;
  d.rule_id = "WN023";
  d.severity = Severity::kWarning;
  std::ostringstream os;
  os << "the Duato verdict is decisive ("
     << (search.found ? "subfunction found" : "exhaustively refuted")
     << ") but certificate emission produced nothing — the verdict cannot "
        "be independently re-validated by wormnet::audit";
  d.message = os.str();
  out.push_back(std::move(d));
}

}  // namespace wormnet::lint::rules
