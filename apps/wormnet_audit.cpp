// wormnet-audit: the independent certificate auditor CLI.
//
//   wormnet-audit certificate.json
//   wormnet-audit --relation e-cube certificate.json
//   wormnet-sweep --grid "..." --certify-out certs/ && wormnet-audit certs/*.json
//
// Re-validates proof-carrying certificates (emitted by wormnet-sweep
// --certify-out, exp::AnalysisCache, or core::verify_certified) against the
// routing relation they speak about, using only the wormnet::audit trusted
// base — none of the checker code that produced them.  The binding is the
// certificate's own `topology` and `relation` (reconfig::RelationExpr
// text: ROUTING, ROUTING|MASK, transition|SPEC or transition|SPEC|MASK)
// and can be overridden to audit a certificate against a *different*
// relation (which should fail, loudly).
//
// Exit status (cli.hpp): 0 = every certificate audits valid,
//              1 = at least one certificate was refuted by the auditor
//                  (well-formed, but the relation does not support it),
//              2 = usage error, unreadable input, malformed certificate
//                  JSON (an unsupported schema included), or a binding
//                  that cannot be constructed.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "wormnet/audit/certificate.hpp"
#include "wormnet/audit/check.hpp"
#include "wormnet/core/registry.hpp"
#include "wormnet/reconfig/union_routing.hpp"

namespace {

using namespace wormnet;

constexpr cli::Flag kFlags[] = {
    {"--topology", "SPEC", "override the certificate's topology binding"},
    {"--relation", "EXPR",
     "override the certificate's relation binding:\nROUTING, ROUTING|MASK, "
     "transition|SPEC or\ntransition|SPEC|MASK (canonical text only)"},
    {"--quiet", "", "only report failures"},
};

const cli::Spec kSpec{
    .forms = "[options] CERT.json [CERT.json ...]",
    .flags = kFlags,
    .notes = "Audits proof-carrying certificates against the routing relation\n"
             "they describe, via the independent wormnet::audit checker.\n",
    .positional = true,
};

/// One certificate: parse, bind, audit.  Returns the per-file exit code.
int audit_file(const cli::Args& args, const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return args.error("cannot open " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();

  const audit::ParseResult parsed = audit::parse_certificate(buffer.str());
  if (!parsed.certificate.has_value()) {
    return args.error(path + ": malformed certificate: " + parsed.error);
  }
  const audit::Certificate& cert = *parsed.certificate;

  const std::string topo_spec = args.value("--topology", cert.topology);
  const std::string relation = args.value("--relation", cert.relation);

  std::unique_ptr<routing::RoutingFunction> routing;
  std::unique_ptr<topology::Topology> topo;
  try {
    topo = std::make_unique<topology::Topology>(core::make_topology(topo_spec));
    routing = reconfig::RelationExpr::parse(relation, *topo).build(*topo);
  } catch (const std::invalid_argument& e) {
    return args.error(path + ": cannot construct binding " + topo_spec +
                      " / " + relation + ": " + e.what());
  }

  const audit::AuditResult result = audit::check(*topo, *routing, cert);
  if (!result.ok()) {
    std::cerr << path << ": REFUTED BY AUDIT ["
              << audit::to_string(result.code) << "] " << result.detail
              << "\n";
    return cli::kFinding;
  }
  if (!args.has("--quiet")) {
    std::cout << path << ": valid " << audit::to_string(cert.kind) << " ("
              << cert.method << ", " << topo_spec << " / " << relation
              << "; " << result.states_checked << " states, "
              << result.edges_checked << " edges checked)\n";
  }
  return cli::kClean;
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args(argc, argv, kSpec);
  if (args.exit_code) return *args.exit_code;
  if (args.positional().empty()) return args.error("no certificate given");

  // Severity-max fold: malformed (2) dominates refuted (1) dominates valid.
  int exit_code = cli::kClean;
  for (const std::string& path : args.positional()) {
    exit_code = std::max(exit_code, audit_file(args, path));
  }
  return exit_code;
}
