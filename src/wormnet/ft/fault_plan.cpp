#include "wormnet/ft/fault_plan.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "wormnet/util/number.hpp"
#include "wormnet/util/rng.hpp"

namespace wormnet::ft {
namespace {

[[noreturn]] void bad(const std::string& what) {
  throw std::invalid_argument("fault plan: " + what);
}

std::string trim(const std::string& text) {
  std::size_t begin = text.find_first_not_of(" \t");
  if (begin == std::string::npos) return {};
  std::size_t end = text.find_last_not_of(" \t");
  return text.substr(begin, end - begin + 1);
}

template <class T = std::uint64_t>
T parse_number(const std::string& text, const std::string& what) {
  const auto v = util::read_number<T>(text);
  if (!v) bad("bad " + what + " '" + text + "'");
  return v.value;
}

FaultEvent parse_event(const std::string& text) {
  const auto at = text.rfind('@');
  if (at == std::string::npos) bad("event '" + text + "' has no @CYCLE");
  const auto colon = text.find(':');
  if (colon == std::string::npos || colon > at) {
    bad("event '" + text + "' is not OP:ARGS@CYCLE");
  }
  const std::string op = text.substr(0, colon);
  const std::string args = text.substr(colon + 1, at - colon - 1);
  FaultEvent ev;
  ev.cycle = parse_number(text.substr(at + 1), "cycle");
  if (op == "kill" || op == "repair") {
    const auto dash = args.find('-');
    if (dash == std::string::npos) {
      bad("link event '" + text + "' needs SRC-DST");
    }
    ev.kind = op == "kill" ? FaultEvent::Kind::kLinkDown
                           : FaultEvent::Kind::kLinkUp;
    ev.src = parse_number<NodeId>(args.substr(0, dash), "node");
    ev.dst = parse_number<NodeId>(args.substr(dash + 1), "node");
  } else if (op == "killch" || op == "repairch") {
    ev.kind = op == "killch" ? FaultEvent::Kind::kChannelDown
                             : FaultEvent::Kind::kChannelUp;
    ev.channel = parse_number<ChannelId>(args, "channel");
  } else if (op == "rand") {
    ev.kind = FaultEvent::Kind::kRandomLinks;
    const auto slash = args.find('/');
    if (slash == std::string::npos) {
      ev.count = parse_number<std::size_t>(args, "count");
    } else {
      ev.count = parse_number<std::size_t>(args.substr(0, slash), "count");
      ev.seed = parse_number(args.substr(slash + 1), "seed");
    }
    if (ev.count == 0) bad("random campaign with count 0 in '" + text + "'");
  } else {
    bad("unknown op '" + op + "'");
  }
  return ev;
}

}  // namespace

FaultPlan parse_fault_plan(const std::string& text) {
  FaultPlan plan;
  std::istringstream stream(text);
  std::string part;
  while (std::getline(stream, part, '+')) {
    part = trim(part);
    if (part.empty() || part == "none") continue;
    plan.events.push_back(parse_event(part));
  }
  return plan;
}

std::string FaultPlan::to_string() const {
  if (events.empty()) return "none";
  std::ostringstream os;
  bool first = true;
  for (const FaultEvent& ev : events) {
    if (!first) os << '+';
    first = false;
    switch (ev.kind) {
      case FaultEvent::Kind::kLinkDown:
        os << "kill:" << ev.src << '-' << ev.dst;
        break;
      case FaultEvent::Kind::kLinkUp:
        os << "repair:" << ev.src << '-' << ev.dst;
        break;
      case FaultEvent::Kind::kChannelDown:
        os << "killch:" << ev.channel;
        break;
      case FaultEvent::Kind::kChannelUp:
        os << "repairch:" << ev.channel;
        break;
      case FaultEvent::Kind::kRandomLinks:
        os << "rand:" << ev.count << '/' << ev.seed;
        break;
    }
    os << '@' << ev.cycle;
  }
  return os.str();
}

CompiledFaultPlan compile(const FaultPlan& plan, const Topology& topo) {
  CompiledFaultPlan out;
  out.num_channels = topo.num_channels();

  auto link_channels = [&](NodeId src, NodeId dst) {
    if (src >= topo.num_nodes() || dst >= topo.num_nodes()) {
      bad("node out of range in link " + std::to_string(src) + "-" +
          std::to_string(dst));
    }
    std::vector<ChannelId> chs = topo.channels_between(src, dst);
    if (chs.empty()) {
      bad("nodes " + std::to_string(src) + " and " + std::to_string(dst) +
          " are not adjacent");
    }
    return chs;
  };

  // steps keyed by cycle; within a cycle, plan order decides list order.
  std::map<std::uint64_t, CompiledStep> steps;
  for (const FaultEvent& ev : plan.events) {
    CompiledStep& step = steps[ev.cycle];
    step.cycle = ev.cycle;
    switch (ev.kind) {
      case FaultEvent::Kind::kLinkDown:
      case FaultEvent::Kind::kLinkUp: {
        auto& list = ev.kind == FaultEvent::Kind::kLinkDown ? step.down
                                                            : step.up;
        for (ChannelId c : link_channels(ev.src, ev.dst)) list.push_back(c);
        break;
      }
      case FaultEvent::Kind::kChannelDown:
      case FaultEvent::Kind::kChannelUp: {
        if (ev.channel >= topo.num_channels()) {
          bad("channel " + std::to_string(ev.channel) + " out of range");
        }
        auto& list = ev.kind == FaultEvent::Kind::kChannelDown ? step.down
                                                               : step.up;
        list.push_back(ev.channel);
        break;
      }
      case FaultEvent::Kind::kRandomLinks: {
        // Same pool construction as routing::random_link_faults: distinct
        // physical links in (src, dst) order, partial Fisher-Yates from the
        // campaign's own seed.
        std::set<std::pair<NodeId, NodeId>> all_links;
        for (ChannelId c = 0; c < topo.num_channels(); ++c) {
          const auto& ch = topo.channel(c);
          all_links.emplace(ch.src, ch.dst);
        }
        std::vector<std::pair<NodeId, NodeId>> pool(all_links.begin(),
                                                    all_links.end());
        util::Xoshiro256 rng(ev.seed);
        const std::size_t picks = std::min(ev.count, pool.size());
        for (std::size_t i = 0; i < picks; ++i) {
          const std::size_t pick = i + rng.below(pool.size() - i);
          std::swap(pool[i], pool[pick]);
          for (ChannelId c :
               topo.channels_between(pool[i].first, pool[i].second)) {
            step.down.push_back(c);
          }
        }
        break;
      }
    }
  }
  out.steps.reserve(steps.size());
  for (auto& [cycle, step] : steps) out.steps.push_back(std::move(step));
  return out;
}

std::vector<std::vector<bool>> CompiledFaultPlan::epoch_masks() const {
  std::vector<std::vector<bool>> masks;
  std::vector<bool> mask(num_channels, false);
  masks.push_back(mask);
  for (const CompiledStep& step : steps) {
    for (ChannelId c : step.down) mask[c] = true;
    for (ChannelId c : step.up) mask[c] = false;
    masks.push_back(mask);
  }
  return masks;
}

std::string mask_to_hex(const std::vector<bool>& mask) {
  static const char* kDigits = "0123456789abcdef";
  const std::size_t chars = (mask.size() + 3) / 4;
  std::string out(chars, '0');
  for (std::size_t c = 0; c < mask.size(); ++c) {
    if (!mask[c]) continue;
    const std::size_t nibble = chars - 1 - c / 4;
    const char digit = out[nibble];
    const int value = digit <= '9' ? digit - '0' : digit - 'a' + 10;
    out[nibble] = kDigits[value | (1 << (c % 4))];
  }
  return out;
}

std::vector<bool> mask_from_hex(const std::string& hex,
                                std::size_t num_channels) {
  std::vector<bool> mask(num_channels, false);
  for (std::size_t i = 0; i < hex.size(); ++i) {
    const char digit = hex[hex.size() - 1 - i];
    int value = 0;
    if (digit >= '0' && digit <= '9') {
      value = digit - '0';
    } else if (digit >= 'a' && digit <= 'f') {
      value = digit - 'a' + 10;
    } else {
      throw std::invalid_argument("mask_from_hex: non-hex character in " +
                                  hex);
    }
    for (int bit = 0; bit < 4; ++bit) {
      if ((value & (1 << bit)) == 0) continue;
      const std::size_t c = i * 4 + static_cast<std::size_t>(bit);
      if (c >= num_channels) {
        throw std::invalid_argument("mask_from_hex: bit " + std::to_string(c) +
                                    " beyond " +
                                    std::to_string(num_channels) +
                                    " channels");
      }
      mask[c] = true;
    }
  }
  return mask;
}

}  // namespace wormnet::ft
