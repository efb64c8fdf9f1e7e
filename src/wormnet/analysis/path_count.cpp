#include "wormnet/analysis/path_count.hpp"

#include <unordered_map>

namespace wormnet::analysis {
namespace {

using routing::ChannelSet;
using topology::ChannelId;
using topology::kInvalidChannel;

/// Memoized completions from "arrived on channel c" to dst; minimal hops
/// only.  The memo key is the channel, which also captures the input for
/// input-dependent relations.
class PathCounter {
 public:
  PathCounter(const Topology& topo, const RoutingFunction& routing, NodeId dst)
      : topo_(topo), routing_(routing), dst_(dst) {}

  [[nodiscard]] double from_source(NodeId src) {
    return expand(routing_.route(kInvalidChannel, src, dst_), src);
  }

 private:
  [[nodiscard]] double expand(const ChannelSet& candidates, NodeId current) {
    const std::uint32_t here = topo_.distance(current, dst_);
    double total = 0;
    for (ChannelId c : candidates) {
      const NodeId next = topo_.channel(c).dst;
      if (topo_.distance(next, dst_) + 1 != here) continue;  // not minimal
      total += completions(c);
    }
    return total;
  }

  [[nodiscard]] double completions(ChannelId c) {
    const NodeId at = topo_.channel(c).dst;
    if (at == dst_) return 1.0;
    auto memo = memo_.find(c);
    if (memo != memo_.end()) return memo->second;
    const double total = expand(routing_.route(c, at, dst_), at);
    memo_.emplace(c, total);
    return total;
  }

  const Topology& topo_;
  const RoutingFunction& routing_;
  NodeId dst_;
  std::unordered_map<ChannelId, double> memo_;
};

/// The all-minimal-paths relation, used as the denominator.
class AllMinimal final : public RoutingFunction {
 public:
  explicit AllMinimal(const Topology& topo) : RoutingFunction(topo) {}
  [[nodiscard]] std::string name() const override { return "all-minimal"; }
  void route_into(ChannelId, NodeId current, NodeId dest,
                  ChannelSet& out) const override {
    if (topo_->is_cube()) {
      routing::minimal_channels_into(*topo_, current, dest, 0,
                                     topo_->cube().vcs - 1, out);
      return;
    }
    const std::uint32_t here = topo_->distance(current, dest);
    for (ChannelId c : topo_->out_channels(current)) {
      if (topo_->distance(topo_->channel(c).dst, dest) + 1 == here) {
        out.push_back(c);
      }
    }
  }
};

}  // namespace

double count_permitted_paths(const Topology& topo,
                             const RoutingFunction& routing, NodeId src,
                             NodeId dst) {
  if (src == dst) return 0.0;
  PathCounter counter(topo, routing, dst);
  return counter.from_source(src);
}

double count_all_minimal_paths(const Topology& topo, NodeId src, NodeId dst) {
  if (src == dst) return 0.0;
  AllMinimal relation(topo);
  PathCounter counter(topo, relation, dst);
  return counter.from_source(src);
}

}  // namespace wormnet::analysis
