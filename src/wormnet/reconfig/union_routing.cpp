#include "wormnet/reconfig/union_routing.hpp"

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

void UnionRouting::route_into(ChannelId input, NodeId current, NodeId dest,
                              ChannelSet& out) const {
  const std::size_t start = out.size();
  for (std::size_t v = 0; v < members_.size(); ++v) {
    if (!spec_.active[v][dest]) continue;
    members_[v]->route_into(input, current, dest, out);
  }
  // Stable in-place dedup across members (sets are tiny: node degree).
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

ChannelSet UnionRouting::waiting(ChannelId input, NodeId current,
                                 NodeId dest) const {
  // Union of member waiting sets: each is a subset of its member's route
  // set, so the result is a subset of the union route set as required.
  ChannelSet out;
  for (std::size_t v = 0; v < members_.size(); ++v) {
    if (!spec_.active[v][dest]) continue;
    for (const ChannelId c : members_[v]->waiting(input, current, dest)) {
      bool seen = false;
      for (const ChannelId have : out) {
        if (have == c) {
          seen = true;
          break;
        }
      }
      if (!seen) out.push_back(c);
    }
  }
  return out;
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
  const std::size_t pct = name.find('%');
  if (pct == std::string::npos) return core::make_algorithm(name, topo);
  const std::vector<bool> allowed =
      ft::mask_from_hex(name.substr(pct + 1), topo.num_channels());
  std::vector<bool> faulty(allowed.size());
  for (std::size_t c = 0; c < allowed.size(); ++c) faulty[c] = !allowed[c];
  auto masked = RelationExpr(name.substr(0, pct), "", ft::mask_to_hex(faulty))
                    .build(topo);
  require_connected(topo, *masked, name);
  return masked;
}

std::unique_ptr<UnionRouting> make_union_routing(const Topology& topo,
                                                 const UnionSpec& spec) {
  if (spec.num_nodes != topo.num_nodes()) {
    throw std::invalid_argument(
        "union spec describes " + std::to_string(spec.num_nodes) +
        " nodes but topology has " + std::to_string(topo.num_nodes()));
  }
  std::vector<std::unique_ptr<routing::RoutingFunction>> members;
  members.reserve(spec.names.size());
  for (const std::string& name : spec.names) {
    members.push_back(make_member_routing(topo, name));
  }
  return std::make_unique<UnionRouting>(topo, spec, std::move(members));
}

RelationExpr::RelationExpr(std::string routing, std::string transition,
                           std::string fault_mask)
    : routing(std::move(routing)), transition(std::move(transition)),
      fault_mask(std::move(fault_mask)) {
  if (this->fault_mask.find_first_not_of('0') == std::string::npos) {
    this->fault_mask.clear();
  }
}

std::string RelationExpr::key(const std::string& topo_spec) const {
  std::string out = topo_spec + "|" +
                    (transition.empty() ? routing : "transition|" + transition);
  if (!fault_mask.empty()) out += "|" + fault_mask;
  return out;
}

std::unique_ptr<routing::RoutingFunction> RelationExpr::build(
    const Topology& topo) const {
  std::unique_ptr<routing::RoutingFunction> relation =
      transition.empty()
          ? core::make_algorithm(routing, topo)
          : make_union_routing(
                topo, parse_union_spec(transition, topo.num_nodes()));
  if (fault_mask.empty()) return relation;
  return std::make_unique<routing::FaultAwareRouting>(
      topo, std::move(relation),
      ft::mask_from_hex(fault_mask, topo.num_channels()));
}

}  // namespace wormnet::reconfig
