#include "wormnet/audit/certificate.hpp"

#include <cctype>
#include <sstream>

namespace wormnet::audit {

const char* to_string(CertKind kind) {
  switch (kind) {
    case CertKind::kCertified:
      return "certified";
    case CertKind::kRefuted:
      return "refuted";
  }
  return "?";
}

const char* to_string(Evidence evidence) {
  switch (evidence) {
    case Evidence::kNone:
      return "none";
    case Evidence::kDependencyCycle:
      return "dependency-cycle";
    case Evidence::kWaitCycle:
      return "wait-cycle";
    case Evidence::kNotWaitConnected:
      return "not-wait-connected";
  }
  return "?";
}

namespace {

void quote(std::ostream& os, std::string_view text) {
  os << '"';
  for (const char raw : text) {
    const auto c = static_cast<unsigned char>(raw);
    switch (raw) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      case '\r':
        os << "\\r";
        break;
      default:
        if (c < 0x20) {
          static const char* kHex = "0123456789abcdef";
          os << "\\u00" << kHex[c >> 4] << kHex[c & 0xf];
        } else {
          os << raw;
        }
    }
  }
  os << '"';
}

void write_ids(std::ostream& os, const std::vector<ChannelId>& ids) {
  os << '[';
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i != 0) os << ", ";
    os << ids[i];
  }
  os << ']';
}

}  // namespace

std::string Certificate::to_json() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"" << kCertificateSchema << "\",\n";
  os << "  \"kind\": \"" << to_string(kind) << "\",\n";
  os << "  \"method\": ";
  quote(os, method);
  os << ",\n  \"topology\": ";
  quote(os, topology);
  os << ",\n  \"relation\": ";
  quote(os, relation);
  os << ",\n  \"nodes\": " << num_nodes;
  os << ",\n  \"channels\": " << num_channels;
  os << ",\n  \"subfunction\": ";
  quote(os, subfunction);
  if (kind == CertKind::kCertified) {
    os << ",\n  \"escape_channels\": ";
    write_ids(os, escape_channels);
    os << ",\n  \"topological_order\": ";
    write_ids(os, topological_order);
    os << ",\n  \"escapes\": [";
    for (std::size_t i = 0; i < escapes.size(); ++i) {
      os << (i == 0 ? "\n" : ",\n") << "    {\"channel\": "
         << escapes[i].channel << ", \"dest\": " << escapes[i].dest
         << ", \"via\": " << escapes[i].via << '}';
    }
    os << (escapes.empty() ? "]" : "\n  ]");
    os << ",\n  \"injection_escapes\": [";
    for (std::size_t i = 0; i < injection_escapes.size(); ++i) {
      os << (i == 0 ? "\n" : ",\n") << "    {\"src\": "
         << injection_escapes[i].src
         << ", \"dest\": " << injection_escapes[i].dest
         << ", \"via\": " << injection_escapes[i].via << '}';
    }
    os << (injection_escapes.empty() ? "]" : "\n  ]");
    os << ",\n  \"witness_paths\": [";
    for (std::size_t i = 0; i < witness_paths.size(); ++i) {
      os << (i == 0 ? "\n" : ",\n") << "    {\"src\": " << witness_paths[i].src
         << ", \"dest\": " << witness_paths[i].dest << ", \"path\": ";
      write_ids(os, witness_paths[i].path);
      os << '}';
    }
    os << (witness_paths.empty() ? "]" : "\n  ]");
  } else {
    os << ",\n  \"evidence\": \"" << to_string(evidence) << "\"";
    os << ",\n  \"cycle\": [";
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      os << (i == 0 ? "\n" : ",\n") << "    {\"from\": " << cycle[i].from
         << ", \"to\": " << cycle[i].to << ", \"dest\": " << cycle[i].dest
         << ", \"hold\": ";
      write_ids(os, cycle[i].hold);
      os << '}';
    }
    os << (cycle.empty() ? "]" : "\n  ]");
    if (evidence == Evidence::kNotWaitConnected) {
      os << ",\n  \"disconnection\": {\"at_injection\": "
         << (disconnection.at_injection ? "true" : "false")
         << ", \"src\": " << disconnection.src
         << ", \"channel\": " << disconnection.channel
         << ", \"dest\": " << disconnection.dest << '}';
    }
  }
  os << "\n}\n";
  return os.str();
}

// ------------------------------------------------------------------ parser

namespace {

/// Minimal strict recursive-descent reader.  Errors are collected as plain
/// strings; the first failure wins and aborts the parse.
class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] bool failed() const { return !error_.empty(); }

  void fail(const std::string& message) {
    if (error_.empty()) {
      error_ = message + " (at byte " + std::to_string(pos_) + ")";
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  [[nodiscard]] char peek() {
    skip_ws();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  bool expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "'");
      return false;
    }
    ++pos_;
    return true;
  }

  bool at_end() {
    skip_ws();
    return pos_ >= text_.size();
  }

  std::string parse_string() {
    std::string out;
    if (!expect('"')) return out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"':
          case '\\':
          case '/':
            out += esc;
            break;
          case 'n':
            out += '\n';
            break;
          case 't':
            out += '\t';
            break;
          case 'r':
            out += '\r';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              if (pos_ >= text_.size()) {
                fail("truncated \\u escape");
                return out;
              }
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                fail("malformed \\u escape");
                return out;
              }
            }
            // Certificates only ever escape control bytes; reject the rest
            // rather than grow a UTF-16 decoder inside the trusted base.
            if (code >= 0x80) {
              fail("unsupported \\u escape above U+007F");
              return out;
            }
            out += static_cast<char>(code);
            break;
          }
          default:
            fail("unknown escape");
            return out;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
        return out;
      } else {
        out += c;
      }
    }
    expect('"');
    return out;
  }

  std::uint64_t parse_uint(std::uint64_t max) {
    skip_ws();
    if (pos_ >= text_.size() ||
        std::isdigit(static_cast<unsigned char>(text_[pos_])) == 0) {
      fail("expected a non-negative integer");
      return 0;
    }
    std::uint64_t value = 0;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
      value = value * 10 + static_cast<std::uint64_t>(text_[pos_] - '0');
      if (value > max) {
        fail("integer out of range");
        return 0;
      }
      ++pos_;
    }
    return value;
  }

  bool parse_bool() {
    skip_ws();
    if (text_.substr(pos_).rfind("true", 0) == 0) {
      pos_ += 4;
      return true;
    }
    if (text_.substr(pos_).rfind("false", 0) == 0) {
      pos_ += 5;
      return false;
    }
    fail("expected true or false");
    return false;
  }

  std::vector<ChannelId> parse_id_array() {
    std::vector<ChannelId> out;
    if (!expect('[')) return out;
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    while (!failed()) {
      out.push_back(
          static_cast<ChannelId>(parse_uint(topology::kInvalidChannel)));
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      break;
    }
    return out;
  }

  /// Parses `{ "k": v, ... }`, dispatching each key to `field`; the callback
  /// must consume exactly one value and returns false for unknown keys.
  template <typename Fn>
  void parse_object(const Fn& field) {
    if (!expect('{')) return;
    if (peek() == '}') {
      ++pos_;
      return;
    }
    while (!failed()) {
      const std::string key = parse_string();
      if (failed()) return;
      if (!expect(':')) return;
      if (!field(key)) {
        fail("unknown key \"" + key + "\"");
        return;
      }
      if (failed()) return;
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return;
    }
  }

  /// Parses `[ e, ... ]`, calling `element` once per entry.
  template <typename Fn>
  void parse_array(const Fn& element) {
    if (!expect('[')) return;
    if (peek() == ']') {
      ++pos_;
      return;
    }
    while (!failed()) {
      element();
      if (failed()) return;
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return;
    }
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

ParseResult parse_certificate(std::string_view text) {
  Reader r(text);
  Certificate cert;
  bool saw_kind = false;
  bool saw_evidence = false;
  std::vector<std::string> seen;
  const auto once = [&](const std::string& key) {
    for (const std::string& k : seen) {
      if (k == key) {
        r.fail("duplicate key \"" + key + "\"");
        return false;
      }
    }
    seen.push_back(key);
    return true;
  };

  r.parse_object([&](const std::string& key) {
    if (!once(key)) return true;
    if (key == "schema") {
      if (r.parse_string() != kCertificateSchema) {
        r.fail("unsupported schema");
      }
    } else if (key == "kind") {
      const std::string v = r.parse_string();
      saw_kind = true;
      if (v == "certified") {
        cert.kind = CertKind::kCertified;
      } else if (v == "refuted") {
        cert.kind = CertKind::kRefuted;
      } else {
        r.fail("unknown kind \"" + v + "\"");
      }
    } else if (key == "method") {
      cert.method = r.parse_string();
    } else if (key == "topology") {
      cert.topology = r.parse_string();
    } else if (key == "relation") {
      cert.relation = r.parse_string();
    } else if (key == "nodes") {
      cert.num_nodes = static_cast<std::uint32_t>(r.parse_uint(0xffffffffu));
    } else if (key == "channels") {
      cert.num_channels =
          static_cast<std::uint32_t>(r.parse_uint(0xffffffffu));
    } else if (key == "subfunction") {
      cert.subfunction = r.parse_string();
    } else if (key == "escape_channels") {
      cert.escape_channels = r.parse_id_array();
    } else if (key == "topological_order") {
      cert.topological_order = r.parse_id_array();
    } else if (key == "escapes") {
      r.parse_array([&] {
        EscapeWitness w;
        r.parse_object([&](const std::string& k) {
          if (k == "channel") {
            w.channel =
                static_cast<ChannelId>(r.parse_uint(topology::kInvalidChannel));
          } else if (k == "dest") {
            w.dest = static_cast<NodeId>(r.parse_uint(0xffffffffu));
          } else if (k == "via") {
            w.via =
                static_cast<ChannelId>(r.parse_uint(topology::kInvalidChannel));
          } else {
            return false;
          }
          return true;
        });
        cert.escapes.push_back(w);
      });
    } else if (key == "injection_escapes") {
      r.parse_array([&] {
        InjectionEscape w;
        r.parse_object([&](const std::string& k) {
          if (k == "src") {
            w.src = static_cast<NodeId>(r.parse_uint(0xffffffffu));
          } else if (k == "dest") {
            w.dest = static_cast<NodeId>(r.parse_uint(0xffffffffu));
          } else if (k == "via") {
            w.via =
                static_cast<ChannelId>(r.parse_uint(topology::kInvalidChannel));
          } else {
            return false;
          }
          return true;
        });
        cert.injection_escapes.push_back(w);
      });
    } else if (key == "witness_paths") {
      r.parse_array([&] {
        WitnessPath w;
        r.parse_object([&](const std::string& k) {
          if (k == "src") {
            w.src = static_cast<NodeId>(r.parse_uint(0xffffffffu));
          } else if (k == "dest") {
            w.dest = static_cast<NodeId>(r.parse_uint(0xffffffffu));
          } else if (k == "path") {
            w.path = r.parse_id_array();
          } else {
            return false;
          }
          return true;
        });
        cert.witness_paths.push_back(std::move(w));
      });
    } else if (key == "evidence") {
      const std::string v = r.parse_string();
      saw_evidence = true;
      if (v == "dependency-cycle") {
        cert.evidence = Evidence::kDependencyCycle;
      } else if (v == "wait-cycle") {
        cert.evidence = Evidence::kWaitCycle;
      } else if (v == "not-wait-connected") {
        cert.evidence = Evidence::kNotWaitConnected;
      } else {
        r.fail("unknown evidence \"" + v + "\"");
      }
    } else if (key == "cycle") {
      r.parse_array([&] {
        CycleEdge e;
        r.parse_object([&](const std::string& k) {
          if (k == "from") {
            e.from =
                static_cast<ChannelId>(r.parse_uint(topology::kInvalidChannel));
          } else if (k == "to") {
            e.to =
                static_cast<ChannelId>(r.parse_uint(topology::kInvalidChannel));
          } else if (k == "dest") {
            e.dest = static_cast<NodeId>(r.parse_uint(0xffffffffu));
          } else if (k == "hold") {
            e.hold = r.parse_id_array();
          } else {
            return false;
          }
          return true;
        });
        cert.cycle.push_back(std::move(e));
      });
    } else if (key == "disconnection") {
      r.parse_object([&](const std::string& k) {
        if (k == "at_injection") {
          cert.disconnection.at_injection = r.parse_bool();
        } else if (k == "src") {
          cert.disconnection.src =
              static_cast<NodeId>(r.parse_uint(0xffffffffu));
        } else if (k == "channel") {
          cert.disconnection.channel =
              static_cast<ChannelId>(r.parse_uint(topology::kInvalidChannel));
        } else if (k == "dest") {
          cert.disconnection.dest =
              static_cast<NodeId>(r.parse_uint(0xffffffffu));
        } else {
          return false;
        }
        return true;
      });
    } else {
      return false;
    }
    return true;
  });

  if (!r.failed() && !r.at_end()) r.fail("trailing bytes after certificate");

  ParseResult result;
  if (r.failed()) {
    result.error = r.error();
    return result;
  }
  const auto has = [&](const char* key) {
    for (const std::string& k : seen) {
      if (k == key) return true;
    }
    return false;
  };
  for (const char* key : {"schema", "method", "topology", "relation", "nodes",
                          "channels", "subfunction"}) {
    if (!has(key)) {
      result.error = std::string("missing required key \"") + key + "\"";
      return result;
    }
  }
  if (!saw_kind) {
    result.error = "missing required key \"kind\"";
    return result;
  }
  if (cert.kind == CertKind::kCertified) {
    for (const char* key : {"escape_channels", "topological_order", "escapes",
                            "injection_escapes", "witness_paths"}) {
      if (!has(key)) {
        result.error =
            std::string("certified certificate missing \"") + key + "\"";
        return result;
      }
    }
    if (saw_evidence || has("cycle") || has("disconnection")) {
      result.error = "certified certificate carries refutation evidence";
      return result;
    }
  } else {
    if (!saw_evidence || !has("cycle")) {
      result.error = "refuted certificate missing evidence";
      return result;
    }
    if (cert.evidence == Evidence::kNone) {
      result.error = "refuted certificate with evidence \"none\"";
      return result;
    }
    if ((cert.evidence == Evidence::kNotWaitConnected) !=
        has("disconnection")) {
      result.error = "disconnection witness does not match evidence kind";
      return result;
    }
    if (has("escape_channels") || has("topological_order") || has("escapes") ||
        has("injection_escapes") || has("witness_paths")) {
      result.error = "refuted certificate carries certified payload";
      return result;
    }
  }
  result.certificate = std::move(cert);
  return result;
}

}  // namespace wormnet::audit
