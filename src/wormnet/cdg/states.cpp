#include "wormnet/cdg/states.hpp"

#include <algorithm>
#include <stdexcept>

namespace wormnet::cdg {

StateGraph::StateGraph(const Topology& topo, const RoutingFunction& routing)
    : topo_(&topo), routing_(&routing) {
  explore([&routing](ChannelId input, NodeId at, NodeId dest,
                     ChannelSet& route, ChannelSet& waits) {
    route.clear();
    routing.route_into(input, at, dest, route);
    waits.clear();
    return routing.waiting_into(input, at, dest, waits);
  });
}

StateGraph::StateGraph(const StateGraph& parent,
                       const RoutingFunction& relation,
                       const std::vector<bool>& dead)
    : topo_(parent.topo_), routing_(&relation) {
  if (dead.size() != topo_->num_channels()) {
    throw std::invalid_argument("dead mask size mismatch");
  }
  const auto keep = [&dead](std::span<const ChannelId> row, ChannelSet& out) {
    out.clear();
    for (ChannelId c : row) {
      if (!dead[c]) out.push_back(c);
    }
  };
  // A parent whose every waiting list is its route list gives the derived
  // graph the same property: its waiting lists need no filtering.
  const bool distinct = !parent.wait_.empty() || !parent.inject_wait_.empty();
  lists_.reserve(parent.lists_.size());
  explore([&](ChannelId input, NodeId at, NodeId dest, ChannelSet& route,
              ChannelSet& waits) {
    const bool inject = input == topology::kInvalidChannel;
    keep(inject ? parent.injection(at, dest) : parent.successors(input, dest),
         route);
    if (!distinct) return false;
    keep(inject ? parent.injection_waiting(at, dest)
                : parent.waiting(input, dest),
         waits);
    return true;
  });
}

template <class Row>
void StateGraph::explore(Row&& row) {
  const std::size_t channels = topo_->num_channels();
  const NodeId nodes = topo_->num_nodes();
  words_ = row_words(channels);
  reachable_.assign(words_ * nodes, 0);
  succ_.assign(channels * nodes, {});
  inject_.assign(static_cast<std::size_t>(nodes) * nodes, {});
  closure_.resize(nodes);

  // Forward fixpoint per destination.  A channel enters the frontier at
  // most once per destination, so the frontier is a vector read as a FIFO.
  std::vector<ChannelId> frontier;
  frontier.reserve(channels);
  ChannelSet route;
  ChannelSet waits;
  // Row i's waiting slice in `waits_at` (wait_ or inject_wait_): its route
  // slice in `routes_at` unless `row` gave a distinct list.  `waits_at` is
  // allocated, as a copy of `routes_at`, at the first distinct list.
  const auto set_waiting = [&](std::vector<Slice>& waits_at,
                               const std::vector<Slice>& routes_at,
                               std::size_t i, bool narrowed) {
    if (narrowed && !std::ranges::equal(waits, route)) {
      if (waits_at.empty()) waits_at = routes_at;
      waits_at[i] = append(waits);
    } else if (!waits_at.empty()) {
      waits_at[i] = routes_at[i];
    }
  };
  for (NodeId dest = 0; dest < nodes; ++dest) {
    Word* reached = &reachable_[dest * words_];
    const auto enqueue = [&] {
      for (ChannelId next : route) {
        if (!test_bit(reached, next)) {
          set_bit(reached, next);
          frontier.push_back(next);
        }
      }
    };
    frontier.clear();
    for (NodeId src = 0; src < nodes; ++src) {
      if (src == dest) continue;
      const bool narrowed =
          row(topology::kInvalidChannel, src, dest, route, waits);
      inject_[pair(src, dest)] = append(route);
      set_waiting(inject_wait_, inject_, pair(src, dest), narrowed);
      enqueue();
    }
    for (std::size_t next = 0; next < frontier.size(); ++next) {
      const ChannelId c = frontier[next];
      const NodeId head = topo_->channel(c).dst;
      if (head == dest) continue;  // sink state: consumed
      const bool narrowed = row(c, head, dest, route, waits);
      succ_[index(c, dest)] = append(route);
      set_waiting(wait_, succ_, index(c, dest), narrowed);
      enqueue();
    }
    num_reachable_ += frontier.size();
  }
}

StateGraph::Slice StateGraph::append(std::span<const ChannelId> channels) {
  const Slice slice{static_cast<std::uint32_t>(lists_.size()),
                    static_cast<std::uint32_t>(channels.size())};
  lists_.insert(lists_.end(), channels.begin(), channels.end());
  return slice;
}

void StateGraph::ensure_closure(NodeId dest) const {
  auto& matrix = closure_[dest];
  if (!matrix.empty()) return;
  matrix.assign(topo_->num_channels() * words_, 0);
  // DFS from each reachable channel.  Rows are reused as visited sets.
  std::vector<ChannelId> stack;
  for_each_bit(reachable_words(dest).data(), words_, [&](ChannelId c) {
    Word* row = &matrix[c * words_];
    stack.assign(1, c);
    set_bit(row, c);
    while (!stack.empty()) {
      const ChannelId u = stack.back();
      stack.pop_back();
      for (ChannelId v : successors(u, dest)) {
        if (!test_bit(row, v)) {
          set_bit(row, v);
          stack.push_back(v);
        }
      }
    }
  });
}

bool StateGraph::reaches(ChannelId from, ChannelId to, NodeId dest) const {
  if (!reachable(from, dest)) return false;
  ensure_closure(dest);
  return test_bit(&closure_[dest][from * words_], to);
}

std::string ConnectivityReport::describe(const Topology& topo) const {
  switch (failure) {
    case Failure::kNone:
      return "connected";
    case Failure::kNoInjection:
      return "no first hop for source " + std::to_string(src) +
             " -> destination " + std::to_string(dest);
    case Failure::kDeadEnd:
      return "dead-end state (" + topo.channel_name(channel) +
             ", dest " + std::to_string(dest) + "): no outputs supplied";
    case Failure::kCannotFinish:
      return "state (" + topo.channel_name(channel) + ", dest " +
             std::to_string(dest) + ") can never reach its destination";
  }
  return "?";
}

ConnectivityReport relation_connectivity(const StateGraph& states) {
  ConnectivityReport report;
  const Topology& topo = states.topo();
  std::vector<ChannelId> sinks;
  for (NodeId d = 0; d < topo.num_nodes(); ++d) {
    for (NodeId s = 0; s < topo.num_nodes(); ++s) {
      if (s != d && states.injection(s, d).empty()) {
        report.failure = ConnectivityReport::Failure::kNoInjection;
        report.src = s;
        report.dest = d;
        return report;
      }
    }
    // Collect sinks, then require every reachable state to reach one.
    const std::span<const Word> reachable = states.reachable_words(d);
    sinks.clear();
    for_each_bit(reachable.data(), reachable.size(), [&](ChannelId c) {
      if (topo.channel(c).dst == d) sinks.push_back(c);
    });
    const auto stranded = [&](ChannelId c) {
      if (topo.channel(c).dst == d) return false;
      return states.successors(c, d).empty() ||
             std::ranges::none_of(sinks, [&](ChannelId sink) {
               return states.reaches(c, sink, d);
             });
    };
    const ChannelId stuck =
        find_bit(reachable.data(), reachable.size(), stranded);
    if (stuck != kNoBit) {
      report.failure = states.successors(stuck, d).empty()
                           ? ConnectivityReport::Failure::kDeadEnd
                           : ConnectivityReport::Failure::kCannotFinish;
      report.channel = stuck;
      report.dest = d;
      return report;
    }
  }
  return report;
}

bool relation_connected(const StateGraph& states) {
  return relation_connectivity(states).connected();
}

bool relation_minimal(const StateGraph& states) {
  const Topology& topo = states.topo();
  // distance[n] = distance(n, d), filled once per destination d.
  std::vector<std::uint32_t> distance(topo.num_nodes());
  for (NodeId d = 0; d < topo.num_nodes(); ++d) {
    for (NodeId n = 0; n < topo.num_nodes(); ++n) {
      distance[n] = topo.distance(n, d);
    }
    const std::span<const Word> reachable = states.reachable_words(d);
    const ChannelId detour =
        find_bit(reachable.data(), reachable.size(), [&](ChannelId c) {
          const NodeId at = topo.channel(c).dst;
          if (at == d) return false;
          return std::ranges::any_of(
              states.successors(c, d), [&](ChannelId next) {
                return distance[topo.channel(next).dst] + 1 != distance[at];
              });
        });
    if (detour != kNoBit) return false;
  }
  return true;
}

bool condition_exact(const StateGraph& states) {
  const RoutingFunction& routing = states.routing();
  return routing.form() == routing::RelationForm::kNodeDest &&
         routing.wait_mode() == routing::WaitMode::kAnyOf &&
         relation_minimal(states);
}

std::vector<std::pair<ChannelId, NodeId>> StateGraph::states() const {
  std::vector<std::pair<ChannelId, NodeId>> out;
  out.reserve(num_reachable_);
  for (NodeId dest = 0; dest < topo_->num_nodes(); ++dest) {
    for_each_bit(reachable_words(dest).data(), words_,
                 [&](ChannelId c) { out.emplace_back(c, dest); });
  }
  return out;
}

}  // namespace wormnet::cdg
