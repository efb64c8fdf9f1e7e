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
// Exit status: 0 = every certificate audits valid,
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

#include "wormnet/audit/certificate.hpp"
#include "wormnet/audit/check.hpp"
#include "wormnet/core/registry.hpp"
#include "wormnet/reconfig/union_routing.hpp"

namespace {

using namespace wormnet;

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options] CERT.json [CERT.json ...]\n"
      << "\n"
      << "Audits proof-carrying certificates against the routing relation\n"
      << "they describe, via the independent wormnet::audit checker.\n"
      << "\n"
      << "options:\n"
      << "  --topology SPEC  override the certificate's topology binding\n"
      << "  --relation EXPR  override the certificate's relation binding:\n"
      << "                   ROUTING, ROUTING|MASK, transition|SPEC or\n"
      << "                   transition|SPEC|MASK (canonical text only)\n"
      << "  --quiet          only report failures\n"
      << "\n"
      << "exit: 0 = all valid, 1 = refuted by audit, 2 = malformed/usage\n";
  return 2;
}

/// One certificate: parse, bind, audit.  Returns the per-file exit code.
int audit_file(const char* argv0, const std::string& path,
               const std::string& topo_override,
               const std::string& relation_override, bool quiet) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    std::cerr << argv0 << ": cannot open " << path << "\n";
    return 2;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();

  const audit::ParseResult parsed = audit::parse_certificate(buffer.str());
  if (!parsed.certificate.has_value()) {
    std::cerr << argv0 << ": " << path << ": malformed certificate: "
              << parsed.error << "\n";
    return 2;
  }
  const audit::Certificate& cert = *parsed.certificate;

  const std::string topo_spec =
      topo_override.empty() ? cert.topology : topo_override;
  const std::string relation =
      relation_override.empty() ? cert.relation : relation_override;

  std::unique_ptr<routing::RoutingFunction> routing;
  std::unique_ptr<topology::Topology> topo;
  try {
    topo = std::make_unique<topology::Topology>(core::make_topology(topo_spec));
    routing = reconfig::RelationExpr::parse(relation, *topo).build(*topo);
  } catch (const std::invalid_argument& e) {
    std::cerr << argv0 << ": " << path << ": cannot construct binding "
              << topo_spec << " / " << relation << ": " << e.what() << "\n";
    return 2;
  }

  const audit::AuditResult result = audit::check(*topo, *routing, cert);
  if (!result.ok()) {
    std::cerr << path << ": REFUTED BY AUDIT ["
              << audit::to_string(result.code) << "] " << result.detail
              << "\n";
    return 1;
  }
  if (!quiet) {
    std::cout << path << ": valid " << audit::to_string(cert.kind) << " ("
              << cert.method << ", " << topo_spec << " / " << relation
              << "; " << result.states_checked << " states, "
              << result.edges_checked << " edges checked)\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string topo_override;
  std::string relation_override;
  bool quiet = false;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << argv[0] << ": " << arg << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--topology") {
      const char* v = value();
      if (v == nullptr) return 2;
      topo_override = v;
    } else if (arg == "--relation") {
      const char* v = value();
      if (v == nullptr) return 2;
      relation_override = v;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << argv[0] << ": unknown option " << arg << "\n";
      return usage(argv[0]);
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) return usage(argv[0]);

  // Severity-max fold: malformed (2) dominates refuted (1) dominates valid.
  int exit_code = 0;
  for (const std::string& path : paths) {
    exit_code = std::max(exit_code, audit_file(argv[0], path, topo_override,
                                               relation_override, quiet));
  }
  return exit_code;
}
