#include "wormnet/reconfig/union_routing.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "wormnet/core/registry.hpp"
#include "wormnet/ft/fault_plan.hpp"
#include "wormnet/routing/fault.hpp"

namespace wormnet::reconfig {

using routing::ChannelSet;
using routing::RelationForm;
using routing::RoutingFunction;
using routing::WaitMode;
using topology::ChannelId;

UnionRouting::UnionRouting(
    const Topology& topo, UnionSpec spec,
    std::vector<std::unique_ptr<RoutingFunction>> members)
    : RoutingFunction(topo), spec_(std::move(spec)),
      members_(std::move(members)) {
  if (spec_.names.size() != members_.size() ||
      spec_.active.size() != members_.size()) {
    throw std::invalid_argument("union routing: member count mismatch");
  }
  if (spec_.num_nodes != topo.num_nodes()) {
    throw std::invalid_argument("union routing: node count mismatch");
  }
}

std::string UnionRouting::name() const {
  return "union[" + spec_.to_string() + "]";
}

RelationForm UnionRouting::form() const {
  for (const auto& m : members_) {
    if (m->form() == RelationForm::kChannelNodeDest) {
      return RelationForm::kChannelNodeDest;
    }
  }
  return RelationForm::kNodeDest;
}

WaitMode UnionRouting::wait_mode() const {
  // Mixed disciplines degrade to wait-on-any, the conservative choice for
  // the extended-CDG check (every waiting edge is considered).
  WaitMode mode = WaitMode::kAnyOf;
  bool first = true;
  for (const auto& m : members_) {
    if (first) {
      mode = m->wait_mode();
      first = false;
    } else if (m->wait_mode() != mode) {
      return WaitMode::kAnyOf;
    }
  }
  return mode;
}

namespace {

/// Drops the repeats in out[start..], keeping each channel's first place
/// (sets are tiny: node degree).
void dedup_from(ChannelSet& out, std::size_t start) {
  std::size_t w = start;
  for (std::size_t r = start; r < out.size(); ++r) {
    bool seen = false;
    for (std::size_t k = start; k < w; ++k) {
      if (out[k] == out[r]) {
        seen = true;
        break;
      }
    }
    if (!seen) out[w++] = out[r];
  }
  out.resize(w);
}

}  // namespace

void UnionRouting::route_into(ChannelId input, NodeId current, NodeId dest,
                              ChannelSet& out) const {
  const std::size_t start = out.size();
  for (std::size_t v = 0; v < members_.size(); ++v) {
    if (!spec_.active[v][dest]) continue;
    members_[v]->route_into(input, current, dest, out);
  }
  dedup_from(out, start);
}

bool UnionRouting::waiting_into(ChannelId input, NodeId current, NodeId dest,
                                ChannelSet& out) const {
  // The union of the active members' waiting sets, in member order: each is
  // a subset of its member's route, so the result is a subset of the union
  // route.  When no member narrows its route, that union is the route.
  const std::size_t start = out.size();
  bool narrowed = false;
  for (std::size_t v = 0; v < members_.size(); ++v) {
    if (spec_.active[v][dest]) {
      narrowed |= members_[v]->waiting_into(input, current, dest, out);
    }
  }
  if (!narrowed) return false;
  out.resize(start);
  for (std::size_t v = 0; v < members_.size(); ++v) {
    if (spec_.active[v][dest] &&
        !members_[v]->waiting_into(input, current, dest, out)) {
      members_[v]->route_into(input, current, dest, out);
    }
  }
  dedup_from(out, start);
  return true;
}

bool UnionRouting::minimal() const {
  for (const auto& m : members_) {
    if (!m->minimal()) return false;
  }
  return true;
}

namespace {

/// A masked member is some packet's *only* relation between its switch and
/// the lifting barrier, so it must stay connected on its own: every source
/// must reach every destination through in-mask channels alone.  (Without
/// this, a stamped packet can strand forever and the barrier's drain gate
/// never opens.)  Forward search over (input channel, node) states.
void require_connected(const Topology& topo,
                       const routing::RoutingFunction& relation,
                       const std::string& name) {
  const std::size_t n = topo.num_nodes();
  const std::size_t channels = topo.num_channels();
  std::vector<std::vector<bool>> visited(channels,
                                         std::vector<bool>(n, false));
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      if (s == d) continue;
      for (auto& row : visited) row.assign(n, false);
      std::vector<std::pair<topology::ChannelId, NodeId>> frontier;
      frontier.emplace_back(topology::kInvalidChannel, s);
      bool reached = false;
      while (!frontier.empty() && !reached) {
        const auto [in, at] = frontier.back();
        frontier.pop_back();
        for (const topology::ChannelId c : relation.route(in, at, d)) {
          const NodeId next = topo.channel(c).dst;
          if (next == d) {
            reached = true;
            break;
          }
          if (!visited[c][next]) {
            visited[c][next] = true;
            frontier.emplace_back(c, next);
          }
        }
      }
      if (!reached) {
        throw std::invalid_argument(
            "masked routing \"" + name + "\" disconnects node " +
            std::to_string(s) + " from destination " + std::to_string(d));
      }
    }
  }
}

}  // namespace

std::unique_ptr<routing::RoutingFunction> make_member_routing(
    const Topology& topo, const std::string& name) {
  auto [algorithm, mask] = split_member(topo, name);
  if (mask.empty()) return core::make_algorithm(algorithm, topo);
  mask.flip();  // dead: every channel outside the mask
  auto masked = RelationExpr(algorithm, std::move(mask)).build(topo);
  require_connected(topo, *masked, name);
  return masked;
}

namespace {

std::vector<bool> normalised(std::vector<bool> fault_mask) {
  if (std::find(fault_mask.begin(), fault_mask.end(), true) ==
      fault_mask.end()) {
    fault_mask.clear();
  }
  return fault_mask;
}

/// `text` split at every `sep` (empty parts kept).
std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (std::size_t at = text.find(sep); at != std::string::npos;
       at = text.find(sep, start)) {
    parts.push_back(text.substr(start, at - start));
    start = at + 1;
  }
  parts.push_back(text.substr(start));
  return parts;
}

}  // namespace

RelationExpr::RelationExpr(std::string routing, std::vector<bool> fault_mask)
    : routing(std::move(routing)),
      fault_mask(normalised(std::move(fault_mask))) {}

RelationExpr::RelationExpr(UnionSpec transition, std::vector<bool> fault_mask)
    : transition(std::move(transition)),
      fault_mask(normalised(std::move(fault_mask))) {}

std::string RelationExpr::to_string() const {
  std::string out =
      transition ? "transition|" + transition->to_string() : routing;
  if (!fault_mask.empty()) (out += '|') += ft::mask_to_hex(fault_mask);
  return out;
}

std::string RelationExpr::key(const std::string& topo_spec) const {
  return topo_spec + "|" + to_string();
}

RelationExpr RelationExpr::parse(const std::string& text,
                                 const Topology& topo) {
  const auto fail = [&](const std::string& part, const std::string& why) {
    throw std::invalid_argument("relation \"" + text + "\": \"" + part +
                                "\": " + why);
  };
  // Every part must already be its own canonical spelling.
  const auto expect_canonical = [&](const std::string& part,
                                    auto&& canonicalize) {
    std::string canon;
    try {
      canon = canonicalize(part);
    } catch (const std::invalid_argument& e) {
      fail(part, e.what());
    }
    if (canon != part) fail(part, "not canonical, expected \"" + canon + "\"");
  };

  const std::vector<std::string> fields = split(text, '|');
  const bool is_union = fields.front() == "transition";
  const std::size_t head = is_union ? 2 : 1;
  if (fields.size() < head) fail(text, "missing union spec");
  if (fields.size() > head + 1) fail(fields[head + 1], "extra field");
  std::vector<bool> faults;
  if (fields.size() == head + 1) {
    expect_canonical(fields.back(), [&](const std::string& hex) {
      faults = ft::mask_from_hex(hex, topo.num_channels());
      return ft::mask_to_hex(faults);
    });
    if (normalised(faults).empty()) fail(fields.back(), "all-zero fault mask");
  }
  if (!is_union) {
    expect_canonical(fields[0], [&](const std::string& name) {
      std::string canon = core::canonical_algorithm_name(name, topo);
      (void)core::make_algorithm(canon, topo);
      return canon;
    });
    return RelationExpr(fields[0], std::move(faults));
  }

  // SPEC is NAME>NAME.../MASK.MASK...: the members, then one destination
  // mask per member.
  const std::size_t slash = fields[1].find('/');
  if (slash == std::string::npos) fail(fields[1], "missing '/'");
  UnionSpec spec;
  spec.num_nodes = topo.num_nodes();
  spec.names = split(fields[1].substr(0, slash), '>');
  for (const std::string& name : spec.names) {
    expect_canonical(name, [&](const std::string& member) {
      return canonical_member(topo, member);
    });
  }
  for (const std::string& hex : split(fields[1].substr(slash + 1), '.')) {
    expect_canonical(hex, [&](const std::string& digits) {
      spec.active.push_back(ft::mask_from_hex(digits, topo.num_nodes()));
      return ft::mask_to_hex(spec.active.back());
    });
  }
  if (spec.names.size() != spec.active.size()) {
    fail(fields[1], "member and destination-mask counts differ");
  }
  return RelationExpr(std::move(spec), std::move(faults));
}

std::unique_ptr<routing::RoutingFunction> RelationExpr::build(
    const Topology& topo) const {
  std::unique_ptr<routing::RoutingFunction> relation;
  if (transition) {
    std::vector<std::unique_ptr<routing::RoutingFunction>> members;
    for (const std::string& name : transition->names) {
      members.push_back(make_member_routing(topo, name));
    }
    relation =
        std::make_unique<UnionRouting>(topo, *transition, std::move(members));
  } else {
    relation = core::make_algorithm(routing, topo);
  }
  if (fault_mask.empty()) return relation;
  return std::make_unique<routing::FaultAwareRouting>(topo, std::move(relation),
                                                      fault_mask);
}

}  // namespace wormnet::reconfig
