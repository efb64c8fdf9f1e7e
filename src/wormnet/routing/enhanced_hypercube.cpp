#include "wormnet/routing/enhanced_hypercube.hpp"

#include <stdexcept>

namespace wormnet::routing {

EnhancedFullyAdaptive::EnhancedFullyAdaptive(const Topology& topo, bool relaxed)
    : RoutingFunction(topo), relaxed_(relaxed) {
  if (!topo.is_cube() || topo.cube().vcs < 2) {
    throw std::invalid_argument("EnhancedFullyAdaptive needs >= 2 VCs");
  }
  for (std::uint32_t k : topo.cube().radices) {
    if (k != 2) {
      throw std::invalid_argument("EnhancedFullyAdaptive is hypercube-only");
    }
  }
}

std::pair<std::size_t, Direction> EnhancedFullyAdaptive::lowest_needed(
    NodeId current, NodeId dest) const {
  for (std::size_t d = 0; d < topo_->num_dims(); ++d) {
    const std::uint32_t x = topo_->coord(current, d);
    const std::uint32_t y = topo_->coord(dest, d);
    if (x != y) {
      return {d, y > x ? Direction::kPos : Direction::kNeg};
    }
  }
  throw std::logic_error("lowest_needed called with current == dest");
}

void EnhancedFullyAdaptive::route_into(ChannelId /*input*/, NodeId current,
                                       NodeId dest, ChannelSet& out) const {
  const auto [l, dir_l] = lowest_needed(current, dest);
  // First set (vc0), listed first so deterministic selection drains it.
  if (dir_l == Direction::kNeg || relaxed_) {
    // Negative-in-l unlocks vc0 everywhere (the relaxed variant removes the
    // guard entirely — the deliberate Theorem-6 violation).
    for (std::size_t d = 0; d < topo_->num_dims(); ++d) {
      for (Direction dir : productive_dirs(*topo_, current, dest, d)) {
        append_link_vcs(*topo_, current, d, dir, 0, 0, out);
      }
    }
  } else {
    append_link_vcs(*topo_, current, l, dir_l, 0, 0, out);
  }
  // Second set (vc1): unrestricted minimal.
  for (std::size_t d = 0; d < topo_->num_dims(); ++d) {
    for (Direction dir : productive_dirs(*topo_, current, dest, d)) {
      append_link_vcs(*topo_, current, d, dir, 1, 1, out);
    }
  }
}

bool EnhancedFullyAdaptive::waiting_into(ChannelId /*input*/, NodeId current,
                                         NodeId dest, ChannelSet& out) const {
  const auto [l, dir_l] = lowest_needed(current, dest);
  append_link_vcs(*topo_, current, l, dir_l, 0, 0, out);
  return true;
}

}  // namespace wormnet::routing
