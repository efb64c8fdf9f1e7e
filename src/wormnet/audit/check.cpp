#include "wormnet/audit/check.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace wormnet::audit {

using routing::ChannelSet;
using routing::RoutingFunction;
using topology::Topology;

const char* to_string(AuditCode code) {
  switch (code) {
    case AuditCode::kValid:
      return "valid";
    case AuditCode::kMalformed:
      return "malformed-certificate";
    case AuditCode::kBindingMismatch:
      return "binding-mismatch";
    case AuditCode::kOrderNotPermutation:
      return "order-not-permutation";
    case AuditCode::kOrderViolation:
      return "order-violation";
    case AuditCode::kNoEscape:
      return "no-escape";
    case AuditCode::kStrandedNode:
      return "stranded-node";
    case AuditCode::kCycleEdgeUnsupported:
      return "cycle-edge-unsupported";
    case AuditCode::kWaitCycleUnsupported:
      return "wait-cycle-unsupported";
    case AuditCode::kDisconnectionUnsupported:
      return "disconnection-unsupported";
  }
  return "?";
}

namespace {

/// One destination's relation as the auditor's own forward fixpoint found
/// it (mirroring the state-graph semantics: injection states seed the
/// frontier, sink states — head == dest — are reachable but never
/// expanded).  The relation is evaluated once per state: every later check
/// reads these flat rows instead of calling it again.
struct DestRows {
  std::vector<bool> reached;             ///< per channel
  std::vector<std::uint32_t> first_at;   ///< per source, then one past end
  std::vector<ChannelId> first;          ///< first hops, sources ascending
  std::vector<std::pair<std::uint32_t, std::uint32_t>> succ_at;  ///< ranges
  std::vector<ChannelId> succ;  ///< successors of expanded states

  /// R(kInvalidChannel, src, dest); empty for src == dest.
  [[nodiscard]] std::span<const ChannelId> first_hops(NodeId src) const {
    return {first.data() + first_at[src], first_at[src + 1] - first_at[src]};
  }
  /// R(c, head(c), dest) of an expanded state; empty for any other channel.
  [[nodiscard]] std::span<const ChannelId> successors(ChannelId c) const {
    const auto [begin, end] = succ_at[c];
    return {succ.data() + begin, end - begin};
  }
};

/// Shared scratch state for one audit: the binding plus the lazily built
/// rows of each destination.
class Auditor {
 public:
  Auditor(const Topology& topo, const RoutingFunction& routing,
          const Certificate& cert)
      : topo_(topo), routing_(routing), cert_(cert) {
    rows_.resize(topo.num_nodes());
  }

  AuditResult run() {
    if (cert_.num_nodes != topo_.num_nodes() ||
        cert_.num_channels != topo_.num_channels()) {
      return fail(AuditCode::kBindingMismatch,
                  "certificate speaks about " +
                      std::to_string(cert_.num_nodes) + " nodes / " +
                      std::to_string(cert_.num_channels) + " channels, got " +
                      std::to_string(topo_.num_nodes()) + " / " +
                      std::to_string(topo_.num_channels()));
    }
    if (cert_.kind == CertKind::kCertified) return run_certified();
    return run_refuted();
  }

 private:
  AuditResult fail(AuditCode code, std::string detail) {
    result_.code = code;
    result_.detail = std::move(detail);
    return result_;
  }

  AuditResult pass() {
    result_.code = AuditCode::kValid;
    return result_;
  }

  [[nodiscard]] NodeId head(ChannelId c) const {
    return topo_.channel(c).dst;
  }
  [[nodiscard]] NodeId tail(ChannelId c) const {
    return topo_.channel(c).src;
  }

  static bool contains(std::span<const ChannelId> set, ChannelId c) {
    return std::find(set.begin(), set.end(), c) != set.end();
  }

  /// The relation toward `dest` at every state some message destined for
  /// `dest` can occupy (own fixpoint, one route_into call per state).
  const DestRows& reach(NodeId dest) {
    DestRows& rows = rows_[dest];
    if (!rows.first_at.empty()) return rows;
    rows.reached.assign(topo_.num_channels(), false);
    rows.succ_at.assign(topo_.num_channels(), {0, 0});
    frontier_.clear();
    const auto discover = [&](std::span<const ChannelId> hops) {
      for (const ChannelId c : hops) {
        if (!rows.reached[c]) {
          rows.reached[c] = true;
          frontier_.push_back(c);
        }
      }
    };
    for (NodeId src = 0; src < topo_.num_nodes(); ++src) {
      const auto begin = static_cast<std::uint32_t>(rows.first.size());
      rows.first_at.push_back(begin);
      if (src == dest) continue;
      routing_.route_into(topology::kInvalidChannel, src, dest, rows.first);
      discover(std::span<const ChannelId>(rows.first).subspan(begin));
    }
    rows.first_at.push_back(static_cast<std::uint32_t>(rows.first.size()));
    for (std::size_t i = 0; i < frontier_.size(); ++i) {
      const ChannelId c = frontier_[i];
      if (head(c) == dest) continue;  // sink state: consumed, not expanded
      ++result_.states_checked;
      const auto begin = static_cast<std::uint32_t>(rows.succ.size());
      routing_.route_into(c, head(c), dest, rows.succ);
      rows.succ_at[c] = {begin, static_cast<std::uint32_t>(rows.succ.size())};
      discover(rows.successors(c));
    }
    return rows;
  }

  [[nodiscard]] std::string state_name(ChannelId c, NodeId dest) const {
    std::string name = "(";
    name += topo_.channel_name(c);
    name += ", dest " + std::to_string(dest) + ")";
    return name;
  }

  // ---------------------------------------------------------- certified

  AuditResult run_certified() {
    const std::size_t channels = topo_.num_channels();
    const std::size_t nodes = topo_.num_nodes();

    // Escape set: sorted, unique, in range.
    std::vector<bool> in_c1(channels, false);
    for (std::size_t i = 0; i < cert_.escape_channels.size(); ++i) {
      const ChannelId c = cert_.escape_channels[i];
      if (c >= channels) {
        return fail(AuditCode::kMalformed,
                    "escape channel " + std::to_string(c) + " out of range");
      }
      if (i > 0 && cert_.escape_channels[i - 1] >= c) {
        return fail(AuditCode::kMalformed,
                    "escape_channels not sorted strictly ascending");
      }
      in_c1[c] = true;
    }

    // Topological order: exactly a permutation of the escape set.
    constexpr std::size_t kUnordered = ~std::size_t{0};
    std::vector<std::size_t> pos(channels, kUnordered);
    for (std::size_t i = 0; i < cert_.topological_order.size(); ++i) {
      const ChannelId c = cert_.topological_order[i];
      if (c >= channels || !in_c1[c]) {
        return fail(AuditCode::kOrderNotPermutation,
                    "order entry " + std::to_string(c) +
                        " is not an escape channel");
      }
      if (pos[c] != kUnordered) {
        return fail(AuditCode::kOrderNotPermutation,
                    "order lists channel " + std::to_string(c) + " twice");
      }
      pos[c] = i;
    }
    if (cert_.topological_order.size() != cert_.escape_channels.size()) {
      return fail(AuditCode::kOrderNotPermutation,
                  "order covers " +
                      std::to_string(cert_.topological_order.size()) +
                      " channels, escape set has " +
                      std::to_string(cert_.escape_channels.size()));
    }

    const auto has_escape = [&](std::span<const ChannelId> outputs) {
      return std::any_of(outputs.begin(), outputs.end(),
                         [&](ChannelId c) { return in_c1[c]; });
    };
    // C1 channels grouped by head node, each with its tail: the reverse BFS
    // below scans only these.
    std::vector<std::uint32_t> c1_in_at(nodes + 1, 0);
    for (const ChannelId c : cert_.escape_channels) ++c1_in_at[head(c) + 1];
    for (std::size_t v = 0; v < nodes; ++v) c1_in_at[v + 1] += c1_in_at[v];
    std::vector<std::pair<ChannelId, NodeId>> c1_in(c1_in_at.back());
    std::vector<std::uint32_t> next(c1_in_at.begin(), c1_in_at.end() - 1);
    for (const ChannelId c : cert_.escape_channels) {
      c1_in[next[head(c)]++] = {c, tail(c)};
    }
    std::vector<bool> connected(nodes, false);  // reverse-BFS marks
    std::vector<NodeId> pending;
    std::vector<std::uint32_t> visited(channels, 0);  // excursion walk stamp
    std::uint32_t walk = 0;
    std::vector<ChannelId> stack;

    for (NodeId dest = 0; dest < nodes; ++dest) {
      const DestRows& rows = reach(dest);

      // Connectivity: every node reaches `dest` on escape channels the
      // relation supplies toward it, i.e. reached ones (every first hop is
      // reached) — one reverse BFS from `dest`.  It runs before
      // escape-everywhere because escape-everywhere plus an acyclic order
      // implies it: checked second, it could never be the first failure.
      std::fill(connected.begin(), connected.end(), false);
      connected[dest] = true;
      pending.assign(1, dest);
      for (std::size_t i = 0; i < pending.size(); ++i) {
        const NodeId v = pending[i];
        for (std::uint32_t k = c1_in_at[v]; k < c1_in_at[v + 1]; ++k) {
          const auto [c, u] = c1_in[k];
          if (connected[u] || !rows.reached[c]) continue;
          connected[u] = true;
          pending.push_back(u);
        }
      }
      if (pending.size() != nodes) {
        const auto stranded = static_cast<NodeId>(
            std::find(connected.begin(), connected.end(), false) -
            connected.begin());
        return fail(AuditCode::kStrandedNode,
                    "node " + std::to_string(stranded) + " cannot reach " +
                        std::to_string(dest) +
                        " on escape channels the relation supplies");
      }

      // Escape-everywhere: every reachable blocked state, and every
      // injection state, is offered some escape channel by the relation.
      for (ChannelId c = 0; c < channels; ++c) {
        if (!rows.reached[c] || head(c) == dest) continue;
        if (!has_escape(rows.successors(c))) {
          return fail(AuditCode::kNoEscape,
                      "reachable state " + state_name(c, dest) +
                          " has no escape channel among its successors");
        }
      }
      for (NodeId src = 0; src < nodes; ++src) {
        if (src != dest && !has_escape(rows.first_hops(src))) {
          return fail(AuditCode::kNoEscape,
                      "injection " + std::to_string(src) + " -> " +
                          std::to_string(dest) + " has no escape first hop");
        }
      }

      // Acyclicity: enumerate every extended-CDG dependency among escape
      // channels for this destination and compare against the order.  The
      // emitted escape sets are uniform (one C1 for all destinations), so
      // all dependencies stay inside C1 and cross edges cannot arise.
      for (const ChannelId ci : cert_.escape_channels) {
        if (!rows.reached[ci] || head(ci) == dest) continue;
        const std::span<const ChannelId> succ = rows.successors(ci);
        for (ChannelId cj : succ) {
          if (in_c1[cj]) {
            const AuditResult bad = check_order(pos, ci, cj, dest, "direct");
            if (!bad.ok()) return bad;
          }
        }
        // Indirect dependencies: one excursion walk from this state over
        // the non-escape channels the relation supplies for this
        // destination.
        ++walk;
        stack.clear();
        for (ChannelId mid : succ) {
          if (!in_c1[mid] && visited[mid] != walk) {
            visited[mid] = walk;
            stack.push_back(mid);
          }
        }
        while (!stack.empty()) {
          const ChannelId mid = stack.back();
          stack.pop_back();
          if (head(mid) == dest) continue;
          for (ChannelId cj : rows.successors(mid)) {
            if (in_c1[cj]) {
              const AuditResult bad =
                  check_order(pos, ci, cj, dest, "indirect");
              if (!bad.ok()) return bad;
            } else if (visited[cj] != walk) {
              visited[cj] = walk;
              stack.push_back(cj);
            }
          }
        }
      }
    }
    return pass();
  }

  AuditResult check_order(const std::vector<std::size_t>& pos, ChannelId ci,
                          ChannelId cj, NodeId dest, const char* kind) {
    ++result_.edges_checked;
    if (ci == cj || pos[ci] >= pos[cj]) {
      return fail(AuditCode::kOrderViolation,
                  std::string(kind) + " dependency " + topo_.channel_name(ci) +
                      " -> " + topo_.channel_name(cj) + " (dest " +
                      std::to_string(dest) +
                      ") contradicts the claimed topological order");
    }
    return AuditResult{};
  }

  // ------------------------------------------------------------ refuted

  AuditResult run_refuted() {
    switch (cert_.evidence) {
      case Evidence::kDependencyCycle:
        return check_dependency_cycle();
      case Evidence::kWaitCycle:
        return check_wait_cycle();
      case Evidence::kNotWaitConnected:
        return check_disconnection();
      case Evidence::kNone:
        break;
    }
    return fail(AuditCode::kMalformed, "refuted certificate without evidence");
  }

  AuditResult check_dependency_cycle() {
    if (cert_.cycle.empty()) {
      return fail(AuditCode::kMalformed, "empty dependency cycle");
    }
    for (std::size_t i = 0; i < cert_.cycle.size(); ++i) {
      const CycleEdge& e = cert_.cycle[i];
      const CycleEdge& next = cert_.cycle[(i + 1) % cert_.cycle.size()];
      ++result_.edges_checked;
      if (e.from >= topo_.num_channels() || e.to >= topo_.num_channels() ||
          e.dest >= topo_.num_nodes()) {
        return fail(AuditCode::kMalformed, "cycle edge out of range");
      }
      if (e.to != next.from) {
        return fail(AuditCode::kCycleEdgeUnsupported,
                    "cycle edges do not close: " + topo_.channel_name(e.to) +
                        " != " + topo_.channel_name(next.from));
      }
      const DestRows& rows = reach(e.dest);
      if (!rows.reached[e.from] || head(e.from) == e.dest ||
          !contains(rows.successors(e.from), e.to)) {
        return fail(AuditCode::kCycleEdgeUnsupported,
                    "relation does not supply dependency " +
                        topo_.channel_name(e.from) + " -> " +
                        topo_.channel_name(e.to) + " for dest " +
                        std::to_string(e.dest));
      }
    }
    return pass();
  }

  AuditResult check_wait_cycle() {
    if (cert_.cycle.empty()) {
      return fail(AuditCode::kMalformed, "empty wait cycle");
    }
    // Each edge carries the full held-channel path of one message; the set
    // of messages must be a realizable deadlock configuration: contiguous
    // supplied paths, each blocked waiting exactly for the next message's
    // head-of-cycle channel, all paths pairwise channel-disjoint.
    std::vector<bool> occupied(topo_.num_channels(), false);
    for (std::size_t i = 0; i < cert_.cycle.size(); ++i) {
      const CycleEdge& e = cert_.cycle[i];
      const CycleEdge& next = cert_.cycle[(i + 1) % cert_.cycle.size()];
      const auto unsupported = [&](const std::string& why) {
        return fail(AuditCode::kWaitCycleUnsupported,
                    "wait-cycle edge " + std::to_string(i) + ": " + why);
      };
      if (e.from >= topo_.num_channels() || e.to >= topo_.num_channels() ||
          e.dest >= topo_.num_nodes()) {
        return fail(AuditCode::kMalformed, "cycle edge out of range");
      }
      if (e.to != next.from) {
        return unsupported("cycle does not close on the next held channel");
      }
      if (e.hold.empty() || e.hold.front() != e.from) {
        return unsupported("held path does not start at the held channel");
      }
      const DestRows& rows = reach(e.dest);
      if (!rows.reached[e.hold.front()]) {
        return unsupported("held path starts at an unreachable state");
      }
      for (std::size_t j = 0; j < e.hold.size(); ++j) {
        const ChannelId c = e.hold[j];
        ++result_.edges_checked;
        if (c >= topo_.num_channels()) {
          return fail(AuditCode::kMalformed, "held channel out of range");
        }
        // Note: the waited channel e.to may legitimately appear in a hold
        // path — for a length-1 cycle the message waits for the channel it
        // itself occupies (the paper's indirect self-dependency deadlock).
        // Closure pins e.to == next.hold.front(), so every waited channel
        // is occupied by a blocked message; the disjointness check below
        // rejects any other duplicate occupancy claim.
        if (occupied[c]) {
          return unsupported("held paths are not channel-disjoint");
        }
        occupied[c] = true;
        if (head(c) == e.dest) {
          return unsupported("message is at its destination, cannot block");
        }
        // c is reachable: the first hop was checked above, each later one
        // is a successor of the hop before it.
        if (j + 1 < e.hold.size() &&
            !contains(rows.successors(c), e.hold[j + 1])) {
          return unsupported("held path hop " + topo_.channel_name(c) +
                             " -> " + topo_.channel_name(e.hold[j + 1]) +
                             " is not supplied by the relation");
        }
      }
      const ChannelId blocked = e.hold.back();
      if (!contains(routing_.waiting(blocked, head(blocked), e.dest), e.to)) {
        return unsupported("relation does not let the blocked message wait "
                           "for " +
                           topo_.channel_name(e.to));
      }
    }
    return pass();
  }

  AuditResult check_disconnection() {
    const Disconnection& d = cert_.disconnection;
    if (d.dest >= topo_.num_nodes()) {
      return fail(AuditCode::kMalformed, "disconnection out of range");
    }
    ++result_.edges_checked;
    if (d.at_injection) {
      if (d.src >= topo_.num_nodes() || d.src == d.dest) {
        return fail(AuditCode::kMalformed, "disconnection out of range");
      }
      if (!routing_.waiting(topology::kInvalidChannel, d.src, d.dest)
               .empty()) {
        return fail(AuditCode::kDisconnectionUnsupported,
                    "injection " + std::to_string(d.src) + " -> " +
                        std::to_string(d.dest) + " has waiting channels");
      }
      return pass();
    }
    if (d.channel >= topo_.num_channels()) {
      return fail(AuditCode::kMalformed, "disconnection out of range");
    }
    if (!reach(d.dest).reached[d.channel] || head(d.channel) == d.dest) {
      return fail(AuditCode::kDisconnectionUnsupported,
                  "claimed starved state " + state_name(d.channel, d.dest) +
                      " is not a reachable blocked state");
    }
    if (!routing_.waiting(d.channel, head(d.channel), d.dest).empty()) {
      return fail(AuditCode::kDisconnectionUnsupported,
                  "state " + state_name(d.channel, d.dest) +
                      " has waiting channels");
    }
    return pass();
  }

  const Topology& topo_;
  const RoutingFunction& routing_;
  const Certificate& cert_;
  AuditResult result_;
  std::vector<DestRows> rows_;       ///< per destination, built by reach()
  std::vector<ChannelId> frontier_;  ///< reach()'s discovery queue
};

}  // namespace

AuditResult check(const Topology& topo, const RoutingFunction& routing,
                  const Certificate& cert) {
  Auditor auditor(topo, routing, cert);
  return auditor.run();
}

}  // namespace wormnet::audit
