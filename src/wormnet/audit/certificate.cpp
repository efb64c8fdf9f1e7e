#include "wormnet/audit/certificate.hpp"

#include <algorithm>
#include <sstream>

#include "wormnet/audit/json.hpp"

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

/// Certificate strings are ASCII: any byte >= 0x80, raw or escaped, is an
/// error.
std::string read_text(json::Reader& r) {
  std::string text = r.string();
  for (const char c : text) {
    if (static_cast<unsigned char>(c) >= 0x80) {
      r.fail("non-ASCII byte in certificate string");
      break;
    }
  }
  return text;
}

ChannelId read_channel(json::Reader& r) {
  return static_cast<ChannelId>(r.unsigned_int(topology::kInvalidChannel));
}

NodeId read_node(json::Reader& r) {
  return static_cast<NodeId>(r.unsigned_int(0xffffffffu));
}

std::vector<ChannelId> read_ids(json::Reader& r) {
  std::vector<ChannelId> out;
  r.array([&] { out.push_back(read_channel(r)); });
  return out;
}

/// Reads an object holding exactly the members `keys` (at most 32), each
/// once; `member(key)` consumes the value of one.
template <typename Fn>
void read_record(json::Reader& r, std::initializer_list<std::string_view> keys,
                 const Fn& member) {
  std::uint32_t seen = 0;
  r.object([&](const std::string& key) {
    const auto it = std::find(keys.begin(), keys.end(), key);
    if (it == keys.end()) return false;
    seen |= 1u << (it - keys.begin());
    member(key);
    return true;
  });
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if ((seen >> i & 1u) == 0) {
      r.fail("missing key \"" + std::string(keys.begin()[i]) + "\"");
      return;
    }
  }
}

}  // namespace

ParseResult parse_certificate(std::string_view text) {
  json::Reader r(text);
  Certificate cert;
  std::vector<std::string> seen;

  r.object([&](const std::string& key) {
    seen.push_back(key);
    if (key == "schema") {
      if (read_text(r) != kCertificateSchema) r.fail("unsupported schema");
    } else if (key == "kind") {
      const std::string v = read_text(r);
      if (v == "certified") {
        cert.kind = CertKind::kCertified;
      } else if (v == "refuted") {
        cert.kind = CertKind::kRefuted;
      } else {
        r.fail("unknown kind \"" + v + "\"");
      }
    } else if (key == "method") {
      cert.method = read_text(r);
    } else if (key == "topology") {
      cert.topology = read_text(r);
    } else if (key == "relation") {
      cert.relation = read_text(r);
    } else if (key == "nodes") {
      cert.num_nodes = static_cast<std::uint32_t>(r.unsigned_int(0xffffffffu));
    } else if (key == "channels") {
      cert.num_channels =
          static_cast<std::uint32_t>(r.unsigned_int(0xffffffffu));
    } else if (key == "subfunction") {
      cert.subfunction = read_text(r);
    } else if (key == "escape_channels") {
      cert.escape_channels = read_ids(r);
    } else if (key == "topological_order") {
      cert.topological_order = read_ids(r);
    } else if (key == "evidence") {
      const std::string v = read_text(r);
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
      r.array([&] {
        CycleEdge& e = cert.cycle.emplace_back();
        read_record(r, {"from", "to", "dest", "hold"}, [&](std::string_view k) {
          if (k == "from") {
            e.from = read_channel(r);
          } else if (k == "to") {
            e.to = read_channel(r);
          } else if (k == "dest") {
            e.dest = read_node(r);
          } else {
            e.hold = read_ids(r);
          }
        });
      });
    } else if (key == "disconnection") {
      Disconnection& d = cert.disconnection;
      read_record(r, {"at_injection", "src", "channel", "dest"},
                  [&](std::string_view k) {
                    if (k == "at_injection") {
                      d.at_injection = r.boolean();
                    } else if (k == "src") {
                      d.src = read_node(r);
                    } else if (k == "channel") {
                      d.channel = read_channel(r);
                    } else {
                      d.dest = read_node(r);
                    }
                  });
    } else {
      return false;
    }
    return true;
  });
  r.end();

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
                          "channels", "subfunction", "kind"}) {
    if (!has(key)) {
      result.error = std::string("missing required key \"") + key + "\"";
      return result;
    }
  }
  if (cert.kind == CertKind::kCertified) {
    for (const char* key : {"escape_channels", "topological_order"}) {
      if (!has(key)) {
        result.error =
            std::string("certified certificate missing \"") + key + "\"";
        return result;
      }
    }
    if (has("evidence") || has("cycle") || has("disconnection")) {
      result.error = "certified certificate carries refutation evidence";
      return result;
    }
  } else {
    if (!has("evidence") || !has("cycle")) {
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
    if (has("escape_channels") || has("topological_order")) {
      result.error = "refuted certificate carries certified payload";
      return result;
    }
  }
  result.certificate = std::move(cert);
  return result;
}

}  // namespace wormnet::audit
