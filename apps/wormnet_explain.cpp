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
// a different build or shipped from another machine.  The parser below is a
// minimal recursive-descent reader of the JSON subset our writers emit; it
// rejects nesting deeper than JsonParser::kMaxDepth and any bytes after the
// document.
//
// Exit status (cli.hpp): 0 = rendered, 1 = the artifact flags a theorem
// contradiction (a Duato-certified configuration with an escape-confined
// runtime cycle), 2 = usage or parse error.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "cli.hpp"

namespace {

using namespace wormnet;

const cli::Spec kSpec{
    .forms = "POSTMORTEM.json [MORE.json ...]",
    .notes = "Renders wormnet-sweep --postmortem-dir artifacts as\n"
             "human-readable blame reports.\n",
    .positional = true,
};

// ---------------------------------------------------------------------------
// Minimal JSON value + parser (objects, arrays, strings, numbers, booleans,
// null) — just enough for postmortem artifacts.
// ---------------------------------------------------------------------------

struct JValue;
using JObject = std::map<std::string, std::shared_ptr<JValue>>;
using JArray = std::vector<std::shared_ptr<JValue>>;

struct JValue {
  std::variant<std::nullptr_t, bool, double, std::string, JArray, JObject> v =
      nullptr;
};

class JsonParser {
 public:
  /// Postmortem artifacts nest a few levels; deeper input is refused
  /// instead of recursed into.
  static constexpr int kMaxDepth = 64;

  explicit JsonParser(std::string_view text) : text_(text) {}

  std::shared_ptr<JValue> parse() {
    auto value = parse_value();
    skip_ws();
    if (pos_ < text_.size()) fail("trailing bytes after the document");
    return value;
  }

  bool failed() const { return failed_; }
  const std::string& error() const { return error_; }

 private:
  std::shared_ptr<JValue> fail(const std::string& what) {
    if (!failed_) {
      failed_ = true;
      error_ = what + " at offset " + std::to_string(pos_);
    }
    return std::make_shared<JValue>();
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  bool consume(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }

  std::shared_ptr<JValue> parse_value() {
    switch (peek()) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth) {
          return fail("nesting deeper than " + std::to_string(kMaxDepth) +
                      " levels");
        }
        ++depth_;
        auto out = peek() == '{' ? parse_object() : parse_array();
        --depth_;
        return out;
      }
      case '"': {
        auto out = std::make_shared<JValue>();
        out->v = parse_string();
        return out;
      }
      case 't':
      case 'f': return parse_literal();
      case 'n': return parse_literal();
      default: return parse_number();
    }
  }

  std::shared_ptr<JValue> parse_object() {
    auto out = std::make_shared<JValue>();
    JObject obj;
    if (!consume('{')) return fail("expected '{'");
    if (!consume('}')) {
      do {
        if (peek() != '"') return fail("expected object key");
        std::string key = parse_string();
        if (!consume(':')) return fail("expected ':'");
        obj[key] = parse_value();
        if (failed_) return out;
      } while (consume(','));
      if (!consume('}')) return fail("expected '}'");
    }
    out->v = std::move(obj);
    return out;
  }

  std::shared_ptr<JValue> parse_array() {
    auto out = std::make_shared<JValue>();
    JArray arr;
    if (!consume('[')) return fail("expected '['");
    if (!consume(']')) {
      do {
        arr.push_back(parse_value());
        if (failed_) return out;
      } while (consume(','));
      if (!consume(']')) return fail("expected ']'");
    }
    out->v = std::move(arr);
    return out;
  }

  std::string parse_string() {
    if (!consume('"')) {
      fail("expected '\"'");
      return {};
    }
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        char esc = text_[pos_++];
        switch (esc) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'r': out += '\r'; break;
          case 'u':
            // Channel names are ASCII; render escapes opaquely.
            if (pos_ + 4 <= text_.size()) pos_ += 4;
            out += '?';
            break;
          default: out += esc; break;
        }
      } else {
        out += c;
      }
    }
    if (!consume('"')) fail("unterminated string");
    return out;
  }

  std::shared_ptr<JValue> parse_literal() {
    auto out = std::make_shared<JValue>();
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      out->v = true;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      out->v = false;
    } else if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
    } else {
      return fail("bad literal");
    }
    return out;
  }

  std::shared_ptr<JValue> parse_number() {
    const char* begin = text_.data() + pos_;
    char* end = nullptr;
    const double value = std::strtod(begin, &end);
    if (end == begin) return fail("bad number");
    pos_ += static_cast<std::size_t>(end - begin);
    auto out = std::make_shared<JValue>();
    out->v = value;
    return out;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  bool failed_ = false;
  std::string error_;
};

// ---------------------------------------------------------------------------
// Typed accessors with friendly defaults (missing optional fields are normal:
// the writer omits them rather than emitting null).
// ---------------------------------------------------------------------------

const std::shared_ptr<JValue> kMissing = std::make_shared<JValue>();

const std::shared_ptr<JValue>& get(const std::shared_ptr<JValue>& v,
                                   const std::string& key) {
  if (const auto* obj = std::get_if<JObject>(&v->v)) {
    const auto it = obj->find(key);
    if (it != obj->end()) return it->second;
  }
  return kMissing;
}

bool has(const std::shared_ptr<JValue>& v, const std::string& key) {
  const auto* obj = std::get_if<JObject>(&v->v);
  return obj != nullptr && obj->count(key) > 0;
}

std::string as_string(const std::shared_ptr<JValue>& v,
                      const std::string& fallback = "?") {
  const auto* s = std::get_if<std::string>(&v->v);
  return s != nullptr ? *s : fallback;
}

double as_number(const std::shared_ptr<JValue>& v) {
  const auto* d = std::get_if<double>(&v->v);
  return d != nullptr ? *d : 0.0;
}

std::uint64_t as_u64(const std::shared_ptr<JValue>& v) {
  return static_cast<std::uint64_t>(as_number(v));
}

bool as_bool(const std::shared_ptr<JValue>& v) {
  const auto* b = std::get_if<bool>(&v->v);
  return b != nullptr && *b;
}

const JArray& as_array(const std::shared_ptr<JValue>& v) {
  static const JArray kEmpty;
  const auto* a = std::get_if<JArray>(&v->v);
  return a != nullptr ? *a : kEmpty;
}

std::string channel_ref(const std::shared_ptr<JValue>& v) {
  if (std::holds_alternative<JObject>(v->v)) {
    return as_string(get(v, "name"));
  }
  return as_string(v);
}

// ---------------------------------------------------------------------------
// Report rendering
// ---------------------------------------------------------------------------

int explain(const cli::Args& args, const std::string& path,
            std::ostream& os) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return args.error("cannot open " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  const std::string text = buffer.str();

  JsonParser parser(text);
  const auto root = parser.parse();
  if (parser.failed()) return args.error(path + ": " + parser.error());
  const auto& pm = get(root, "postmortem");
  if (!std::holds_alternative<JObject>(pm->v)) {
    return args.error(path +
                      ": not a postmortem artifact (no \"postmortem\" object)");
  }

  const std::string reason = as_string(get(pm, "reason"));
  const bool certified = as_bool(get(pm, "certified"));
  const bool contradiction = as_bool(get(pm, "contradiction"));

  os << "== Deadlock postmortem: " << path << " ==\n";
  os << "reason     : " << reason << " (sim cycle "
     << as_u64(get(pm, "cycle")) << ")\n";
  os << "config     : " << as_string(get(pm, "topology")) << " / "
     << as_string(get(pm, "routing")) << "\n";
  os << "certified  : " << (certified ? "yes" : "no");
  if (certified) os << "  (escape set: " << as_string(get(pm, "subfunction")) << ")";
  os << "\n";
  if (has(pm, "victim")) {
    os << "victim     : packet " << as_u64(get(pm, "victim"))
       << " (aborted by the recovery policy)\n";
  }

  const JArray& wait_for = as_array(get(pm, "wait_for"));
  os << "\n-- Terminal wait-for graph (" << wait_for.size()
     << " blocked packet" << (wait_for.size() == 1 ? "" : "s") << ") --\n";
  for (const auto& node : wait_for) {
    os << "  packet " << as_u64(get(node, "packet")) << " @ node "
       << as_u64(get(node, "node"));
    if (has(node, "occupies")) {
      os << ", holds " << channel_ref(get(node, "occupies"));
    } else {
      os << ", source-queued";
    }
    os << ", waits on";
    const JArray& waits = as_array(get(node, "waiting_on"));
    for (std::size_t i = 0; i < waits.size(); ++i) {
      os << (i == 0 ? " " : ", ") << channel_ref(waits[i]);
      if (has(waits[i], "owner")) {
        os << " (owner p" << as_u64(get(waits[i], "owner")) << ")";
      } else {
        os << " (free)";
      }
    }
    os << "\n";
  }

  const JArray& cycles = as_array(get(pm, "cycles"));
  for (std::size_t ci = 0; ci < cycles.size(); ++ci) {
    const auto& cycle = cycles[ci];
    const JArray& packets = as_array(get(cycle, "packets"));
    os << "\n-- Runtime wait cycle " << ci + 1 << "/" << cycles.size()
       << " (";
    for (std::size_t i = 0; i < packets.size(); ++i) {
      os << (i == 0 ? "p" : " -> p") << as_u64(packets[i]);
    }
    os << ") --\n";
    for (const auto& hop : as_array(get(cycle, "hops"))) {
      os << "  packet " << as_u64(get(hop, "packet")) << " holds [";
      const JArray& chain = as_array(get(hop, "chain"));
      for (std::size_t i = 0; i < chain.size(); ++i) {
        os << (i == 0 ? "" : " -> ") << channel_ref(chain[i]);
      }
      os << "] and waits for " << channel_ref(get(hop, "waits_for")) << "\n";
    }
    os << "  lifted static channel cycle:\n";
    for (const auto& edge : as_array(get(cycle, "edges"))) {
      os << "    " << as_string(get(edge, "from")) << " -> "
         << as_string(get(edge, "to")) << "  ["
         << (as_bool(get(edge, "in_cdg")) ? "in CDG" : "NOT in CDG") << ", "
         << as_string(get(edge, "kind"));
      if (as_bool(get(edge, "escape"))) os << ", escape";
      os << "]\n";
    }
    os << "  maps onto static CDG: "
       << (as_bool(get(cycle, "maps_to_cdg")) ? "yes" : "NO") << "; "
       << "escape-confined: "
       << (as_bool(get(cycle, "escape_confined")) ? "YES" : "no") << "\n";
  }

  const auto& flight = get(pm, "flight");
  const JArray& tail = as_array(get(flight, "tail"));
  os << "\n-- Flight recorder (last " << tail.size() << " of "
     << as_u64(get(flight, "recorded")) << " events, "
     << as_u64(get(flight, "dropped")) << " dropped by wraparound) --\n";
  for (const auto& ev : tail) {
    os << "  cycle " << as_u64(get(ev, "cycle")) << ": "
       << as_string(get(ev, "kind"));
    if (has(ev, "packet")) os << " p" << as_u64(get(ev, "packet"));
    if (has(ev, "channel")) os << " " << as_string(get(ev, "channel"));
    if (has(ev, "aux")) os << " (aux " << as_u64(get(ev, "aux")) << ")";
    os << "\n";
  }

  os << "\n-- Blame --\n";
  if (contradiction) {
    os << "CONTRADICTION: this configuration is Duato-certified, yet the\n"
          "runtime wait cycle is confined to the escape subfunction's\n"
          "extended CDG.  The theorem says that graph is acyclic, so either\n"
          "the checker or the simulator is wrong.  Treat as a bug.\n";
  } else if (certified) {
    os << "Configuration is Duato-certified and the cycle is NOT confined\n"
          "to escape edges.  A certified config should not deadlock at all —\n"
          "if reason is '" << reason << "' via watchdog this may be\n"
          "saturation rather than true deadlock; otherwise investigate.\n";
  } else {
    os << "Configuration is not Duato-certified: the deadlock is the static\n"
          "CDG cycle shown above, which no escape subfunction breaks.  This\n"
          "is the expected failure mode the paper's condition rules out.\n";
  }
  return contradiction ? cli::kFinding : cli::kClean;
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
