// wormnet-explain: render a deadlock postmortem artifact as a human-readable
// blame report.
//
//   wormnet-explain postmortem_3_0.json
//   G="topo=ring:8;routing=unrestricted;load=0.4"
//   wormnet-sweep --grid "$G" --postmortem-dir pm
//   wormnet-explain pm/postmortem_*.json
//
// The artifact is self-contained (channel names are embedded by
// write_postmortem_json), so this tool deliberately does NOT link the
// analysis layers: it is a pure JSON reader, usable on artifacts produced by
// a different build or shipped from another machine.  It reads through the
// project's one strict JSON reader (wormnet/audit/json.hpp, header-only), so
// malformed JSON, duplicate keys, nesting deeper than 64 levels and bytes
// after the document are all bad input.
//
// Exit status (cli.hpp): 0 = rendered, 1 = the artifact flags a theorem
// contradiction (a Duato-certified live relation with an escape-confined
// runtime cycle), 2 = usage or parse error.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "cli.hpp"
#include "wormnet/audit/json.hpp"

namespace {

using namespace wormnet;

const cli::Spec kSpec{
    .forms = "POSTMORTEM.json [MORE.json ...]",
    .notes = "Renders wormnet-sweep --postmortem-dir artifacts as\n"
             "human-readable blame reports.\n",
    .positional = true,
};

// ---------------------------------------------------------------------------
// Typed field access.  Missing optional fields are normal (the writer omits
// them rather than emitting null) and render a default; a field present with
// the wrong type is malformed input.
// ---------------------------------------------------------------------------

namespace json = audit::json;

/// The member `key` of `obj`, or nullptr when absent; throws unless `obj`
/// is an object and the member, if present, has kind `kind`.
const json::Value* field(const json::Value& obj, std::string_view key,
                         json::Kind kind, const char* what) {
  if (obj.kind() != json::Kind::kObject) {
    throw json::Error("expected an object holding \"" + std::string(key) +
                      "\"");
  }
  const json::Value* value = obj.find(key);
  if (value != nullptr && value->kind() != kind) {
    throw json::Error("\"" + std::string(key) + "\" is not " + what);
  }
  return value;
}

std::string text(const json::Value& obj, std::string_view key) {
  const json::Value* v = field(obj, key, json::Kind::kString, "a string");
  return v != nullptr ? v->as_string() : "?";
}

bool flag(const json::Value& obj, std::string_view key) {
  const json::Value* v = field(obj, key, json::Kind::kBool, "a boolean");
  return v != nullptr && v->as_bool();
}

const std::vector<json::Value>& list(const json::Value& obj,
                                     std::string_view key) {
  static const std::vector<json::Value> kEmpty;
  const json::Value* v = field(obj, key, json::Kind::kArray, "an array");
  return v != nullptr ? v->as_array() : kEmpty;
}

/// A count: a non-negative integer that a double holds exactly.
std::uint64_t as_count(const json::Value& v, std::string_view what) {
  constexpr double kExact = 9007199254740992.0;  // 2^53
  const double d = v.kind() == json::Kind::kNumber ? v.as_number() : -1.0;
  if (!(d >= 0.0 && d <= kExact && d == std::floor(d))) {
    throw json::Error("\"" + std::string(what) + "\" is not a count");
  }
  return static_cast<std::uint64_t>(d);
}

std::uint64_t count(const json::Value& obj, std::string_view key) {
  const json::Value* v = field(obj, key, json::Kind::kNumber, "a count");
  return v != nullptr ? as_count(*v, key) : 0;
}

/// A channel is an {"id", "name"} object or a bare name; "?" when absent.
std::string channel_ref(const json::Value* v) {
  if (v == nullptr) return "?";
  if (v->kind() == json::Kind::kString) return v->as_string();
  return text(*v, "name");
}

// ---------------------------------------------------------------------------
// Report rendering
// ---------------------------------------------------------------------------

/// Renders one postmortem; throws json::Error on malformed input.
int render(const json::Value& root, const std::string& path,
           std::ostream& os) {
  const json::Value* found = root.find("postmortem");
  if (found == nullptr || found->kind() != json::Kind::kObject) {
    throw json::Error("not a postmortem artifact (no \"postmortem\" object)");
  }
  const json::Value& pm = *found;

  const std::string reason = text(pm, "reason");
  const bool certified = flag(pm, "certified");
  const bool contradiction = flag(pm, "contradiction");

  os << "== Deadlock postmortem: " << path << " ==\n";
  os << "reason     : " << reason << " (sim cycle " << count(pm, "cycle")
     << ")\n";
  os << "topology   : " << text(pm, "topology") << "\n";
  os << "relation   : " << text(pm, "relation") << "  (live at capture)\n";
  os << "certified  : " << (certified ? "yes" : "no");
  if (certified) os << "  (escape set: " << text(pm, "subfunction") << ")";
  os << "\n";
  if (pm.has("victim")) {
    os << "victim     : packet " << count(pm, "victim")
       << " (aborted by the recovery policy)\n";
  }

  const auto& wait_for = list(pm, "wait_for");
  os << "\n-- Terminal wait-for graph (" << wait_for.size()
     << " blocked packet" << (wait_for.size() == 1 ? "" : "s") << ") --\n";
  for (const auto& node : wait_for) {
    os << "  packet " << count(node, "packet") << " @ node "
       << count(node, "node");
    if (const json::Value* occupies = node.find("occupies")) {
      os << ", holds " << channel_ref(occupies);
    } else {
      os << ", source-queued";
    }
    os << ", waits on";
    const auto& waits = list(node, "waiting_on");
    for (std::size_t i = 0; i < waits.size(); ++i) {
      os << (i == 0 ? " " : ", ") << channel_ref(&waits[i]);
      if (waits[i].has("owner")) {
        os << " (owner p" << count(waits[i], "owner") << ")";
      } else {
        os << " (free)";
      }
    }
    os << "\n";
  }

  const auto& cycles = list(pm, "cycles");
  for (std::size_t ci = 0; ci < cycles.size(); ++ci) {
    const auto& cycle = cycles[ci];
    const auto& packets = list(cycle, "packets");
    os << "\n-- Runtime wait cycle " << ci + 1 << "/" << cycles.size()
       << " (";
    for (std::size_t i = 0; i < packets.size(); ++i) {
      os << (i == 0 ? "p" : " -> p") << as_count(packets[i], "packets");
    }
    os << ") --\n";
    for (const auto& hop : list(cycle, "hops")) {
      os << "  packet " << count(hop, "packet") << " holds [";
      const auto& chain = list(hop, "chain");
      for (std::size_t i = 0; i < chain.size(); ++i) {
        os << (i == 0 ? "" : " -> ") << channel_ref(&chain[i]);
      }
      os << "] and waits for " << channel_ref(hop.find("waits_for")) << "\n";
    }
    os << "  lifted static channel cycle:\n";
    for (const auto& edge : list(cycle, "edges")) {
      os << "    " << text(edge, "from") << " -> " << text(edge, "to")
         << "  [" << (flag(edge, "in_cdg") ? "in CDG" : "NOT in CDG") << ", "
         << text(edge, "kind");
      if (flag(edge, "escape")) os << ", escape";
      os << "]\n";
    }
    os << "  maps onto static CDG: "
       << (flag(cycle, "maps_to_cdg") ? "yes" : "NO") << "; "
       << "escape-confined: "
       << (flag(cycle, "escape_confined") ? "YES" : "no") << "\n";
  }

  const json::Value* flight =
      field(pm, "flight", json::Kind::kObject, "an object");
  static const json::Value kNoFlight = json::parse("{}");  // renders empty
  const json::Value& recorder = flight != nullptr ? *flight : kNoFlight;
  const auto& tail = list(recorder, "tail");
  os << "\n-- Flight recorder (last " << tail.size() << " of "
     << count(recorder, "recorded") << " events, "
     << count(recorder, "dropped") << " dropped by wraparound) --\n";
  for (const auto& ev : tail) {
    os << "  cycle " << count(ev, "cycle") << ": " << text(ev, "kind");
    if (ev.has("packet")) os << " p" << count(ev, "packet");
    if (ev.has("channel")) os << " " << text(ev, "channel");
    if (ev.has("aux")) os << " (aux " << count(ev, "aux") << ")";
    os << "\n";
  }

  os << "\n-- Blame --\n";
  if (contradiction) {
    os << "CONTRADICTION: the live relation is Duato-certified, yet the\n"
          "runtime wait cycle is confined to the escape subfunction's\n"
          "extended CDG.  The theorem says that graph is acyclic, so either\n"
          "the checker or the simulator is wrong.  Treat as a bug.\n";
  } else if (certified) {
    os << "The live relation is Duato-certified; the cycle is NOT confined\n"
          "to escape edges.  A certified relation should not deadlock at all\n"
          "— if reason is '" << reason << "' via watchdog this may be\n"
          "saturation rather than true deadlock; otherwise investigate.\n";
  } else {
    os << "The live relation is uncertified: the deadlock is the static CDG\n"
          "cycle shown above, which no escape subfunction breaks.  This is\n"
          "the expected failure mode the paper's condition rules out.\n";
  }
  return contradiction ? cli::kFinding : cli::kClean;
}

int explain(const cli::Args& args, const std::string& path,
            std::ostream& os) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return args.error("cannot open " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  // Render into a buffer so malformed input prints no partial report.
  std::ostringstream report;
  try {
    const int rc = render(json::parse(buffer.str()), path, report);
    os << report.str();
    return rc;
  } catch (const json::Error& e) {
    return args.error(path + ": " + e.what());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args(argc, argv, kSpec);
  if (args.exit_code) return *args.exit_code;
  if (args.positional().empty()) return args.error("no postmortem given");
  int worst = cli::kClean;
  for (std::size_t i = 0; i < args.positional().size(); ++i) {
    if (i > 0) std::cout << "\n";
    const int rc = explain(args, args.positional()[i], std::cout);
    if (rc == cli::kBadInput) return rc;
    worst = std::max(worst, rc);
  }
  return worst;
}
