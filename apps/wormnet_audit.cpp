// wormnet-audit: the independent certificate auditor CLI.
//
//   wormnet-audit certificate.json
//   wormnet-audit --topology ring:8:2 --routing dateline certificate.json
//   wormnet-sweep --grid "..." --certify-out certs/ && wormnet-audit certs/*.json
//
// Re-validates proof-carrying certificates (emitted by wormnet-sweep
// --certify-out, exp::AnalysisCache, or core::verify_certified) against the
// routing relation they speak about, using only the wormnet::audit trusted
// base — none of the checker code that produced them.  The binding defaults
// to the certificate's own topology/routing/fault-mask fields and can be
// overridden to audit a certificate against a *different* relation (which
// should fail, loudly).
//
// Exit status: 0 = every certificate audits valid,
//              1 = at least one certificate was refuted by the auditor
//                  (well-formed, but the relation does not support it),
//              2 = usage error, unreadable input, malformed certificate
//                  JSON, or a binding that cannot be constructed.
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
      << "  --routing NAME   override the certificate's routing binding\n"
      << "  --fault-mask HEX override the certificate's fault mask\n"
      << "                   ('' = audit against the pristine relation)\n"
      << "  --transition S   override the certificate's transition binding\n"
      << "                   (a reconfig UnionSpec; '' = pure routing)\n"
      << "  --quiet          only report failures\n"
      << "\n"
      << "exit: 0 = all valid, 1 = refuted by audit, 2 = malformed/usage\n";
  return 2;
}

/// One certificate: parse, bind, audit.  Returns the per-file exit code.
int audit_file(const char* argv0, const std::string& path,
               const std::string& topo_override,
               const std::string& routing_override,
               const std::string& mask_override, bool mask_overridden,
               const std::string& transition_override,
               bool transition_overridden, bool quiet) {
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
  const std::string routing_name =
      routing_override.empty() ? cert.routing : routing_override;
  const std::string fault_mask =
      mask_overridden ? mask_override : cert.fault_mask;
  const std::string transition =
      transition_overridden ? transition_override : cert.transition;

  std::unique_ptr<routing::RoutingFunction> routing;
  std::unique_ptr<topology::Topology> topo;
  try {
    topo = std::make_unique<topology::Topology>(core::make_topology(topo_spec));
    // A transition binding names a reconfiguration epoch's union relation
    // (the routing name is then informative only); a fault mask degrades
    // the relation, composed certificates (DESIGN 3.13) carrying both.
    routing = reconfig::RelationExpr(routing_name, transition, fault_mask)
                  .build(*topo);
  } catch (const std::invalid_argument& e) {
    std::cerr << argv0 << ": " << path << ": cannot construct binding "
              << topo_spec << " / " << routing_name << ": " << e.what()
              << "\n";
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
              << cert.method << ", " << topo_spec << " / " << routing_name
              << (fault_mask.empty() ? "" : ", mask " + fault_mask)
              << (transition.empty() ? "" : ", transition " + transition)
              << "; " << result.states_checked << " states, "
              << result.edges_checked << " edges checked)\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string topo_override;
  std::string routing_override;
  std::string mask_override;
  bool mask_overridden = false;
  std::string transition_override;
  bool transition_overridden = false;
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
    } else if (arg == "--routing") {
      const char* v = value();
      if (v == nullptr) return 2;
      routing_override = v;
    } else if (arg == "--fault-mask") {
      const char* v = value();
      if (v == nullptr) return 2;
      mask_override = v;
      mask_overridden = true;
    } else if (arg == "--transition") {
      const char* v = value();
      if (v == nullptr) return 2;
      transition_override = v;
      transition_overridden = true;
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
    exit_code = std::max(
        exit_code, audit_file(argv[0], path, topo_override, routing_override,
                              mask_override, mask_overridden,
                              transition_override, transition_overridden,
                              quiet));
  }
  return exit_code;
}
