#include "wormnet/sim/traffic.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace wormnet::sim {

std::optional<Pattern> pattern_from_string(const std::string& name) {
  static constexpr Pattern kAll[] = {
      Pattern::kUniform,  Pattern::kTranspose, Pattern::kBitComplement,
      Pattern::kBitReverse, Pattern::kShuffle, Pattern::kTornado,
      Pattern::kHotspot};
  for (Pattern p : kAll) {
    if (name == to_string(p)) return p;
  }
  return std::nullopt;
}

const char* to_string(Pattern pattern) {
  switch (pattern) {
    case Pattern::kUniform:
      return "uniform";
    case Pattern::kTranspose:
      return "transpose";
    case Pattern::kBitComplement:
      return "bit-complement";
    case Pattern::kBitReverse:
      return "bit-reverse";
    case Pattern::kShuffle:
      return "shuffle";
    case Pattern::kTornado:
      return "tornado";
    case Pattern::kHotspot:
      return "hotspot";
  }
  return "?";
}

TrafficGenerator::TrafficGenerator(const Topology& topo, Pattern pattern,
                                   std::uint64_t seed, double hotspot_fraction,
                                   std::vector<NodeId> hotspots)
    : topo_(&topo), pattern_(pattern), rng_(seed),
      hotspot_fraction_(hotspot_fraction), hotspots_(std::move(hotspots)) {
  const NodeId n = topo.num_nodes();
  id_bits_ = n > 1 ? 32u - static_cast<std::uint32_t>(std::countl_zero(n - 1))
                   : 1u;
  if (pattern_ == Pattern::kHotspot && hotspots_.empty()) {
    hotspots_.push_back(n / 2);  // sensible default: a central-ish node
  }
  if (pattern_ != Pattern::kUniform && pattern_ != Pattern::kHotspot) {
    dest_.resize(n);
    for (NodeId src = 0; src < n; ++src) {
      const NodeId dst = permute(src);
      dest_[src] = dst == src || dst >= n ? kNoDest : dst;
    }
  }
}

NodeId TrafficGenerator::permute(NodeId src) const {
  const NodeId n = topo_->num_nodes();
  switch (pattern_) {
    case Pattern::kTranspose: {
      if (!topo_->is_cube()) return (src + n / 2) % n;
      auto xs = topo_->coords(src);
      std::reverse(xs.begin(), xs.end());
      // Transpose is only an automorphism when the radices are symmetric;
      // clamp coordinates otherwise (keeps the pattern defined everywhere).
      const auto& radices = topo_->cube().radices;
      for (std::size_t d = 0; d < xs.size(); ++d) {
        xs[d] = std::min(xs[d], radices[d] - 1);
      }
      return topo_->node_at(xs);
    }
    case Pattern::kBitComplement:
      return (~src) & ((1u << id_bits_) - 1) & (n - 1);
    case Pattern::kBitReverse: {
      NodeId out = 0;
      for (std::uint32_t b = 0; b < id_bits_; ++b) {
        if (src & (1u << b)) out |= 1u << (id_bits_ - 1 - b);
      }
      return out & (n - 1);
    }
    case Pattern::kShuffle: {
      const NodeId top = (src >> (id_bits_ - 1)) & 1u;
      return ((src << 1) | top) & ((1u << id_bits_) - 1) & (n - 1);
    }
    case Pattern::kTornado: {
      if (!topo_->is_cube()) return (src + n / 2) % n;
      auto xs = topo_->coords(src);
      const auto& radices = topo_->cube().radices;
      for (std::size_t d = 0; d < xs.size(); ++d) {
        xs[d] = (xs[d] + (radices[d] / 2)) % radices[d];
      }
      return topo_->node_at(xs);
    }
    default:
      throw std::logic_error("permute called for stochastic pattern");
  }
}

std::optional<NodeId> TrafficGenerator::destination(NodeId src) {
  const NodeId n = topo_->num_nodes();
  switch (pattern_) {
    case Pattern::kUniform: {
      NodeId dst = static_cast<NodeId>(rng_.below(n - 1));
      if (dst >= src) ++dst;  // uniform over all nodes except src
      return dst;
    }
    case Pattern::kHotspot: {
      if (rng_.chance(hotspot_fraction_)) {
        const NodeId dst =
            hotspots_[rng_.below(hotspots_.size())];
        if (dst == src) return std::nullopt;
        return dst;
      }
      NodeId dst = static_cast<NodeId>(rng_.below(n - 1));
      if (dst >= src) ++dst;
      return dst;
    }
    default: {
      const NodeId dst = dest_[src];
      if (dst == kNoDest) return std::nullopt;
      return dst;
    }
  }
}

}  // namespace wormnet::sim
