#include "wormnet/routing/routing_function.hpp"

#include <algorithm>
#include <cassert>

namespace wormnet::routing {

DirSet productive_dirs(const Topology& topo, NodeId current, NodeId dest,
                       std::size_t dim) {
  const auto& cube = topo.cube();
  const std::uint32_t k = cube.radices[dim];
  const std::uint32_t x = topo.coord(current, dim);
  const std::uint32_t y = topo.coord(dest, dim);
  DirSet dirs;
  if (x == y) return dirs;
  if (cube.unidirectional) {
    dirs.push_back(Direction::kPos);
    return dirs;
  }
  if (!cube.wraps[dim]) {
    dirs.push_back(y > x ? Direction::kPos : Direction::kNeg);
    return dirs;
  }
  const std::uint32_t fwd = (y + k - x) % k;   // hops going +
  const std::uint32_t bwd = k - fwd;           // hops going -
  if (fwd <= bwd) dirs.push_back(Direction::kPos);
  if (bwd <= fwd) dirs.push_back(Direction::kNeg);
  return dirs;
}

Direction preferred_dir(const Topology& topo, NodeId current, NodeId dest,
                        std::size_t dim) {
  const auto dirs = productive_dirs(topo, current, dest, dim);
  assert(!dirs.empty());
  return dirs.front();  // productive_dirs lists kPos first on ties
}

void append_link_vcs(const Topology& topo, NodeId current, std::size_t dim,
                     Direction dir, std::uint8_t vc_lo, std::uint8_t vc_hi,
                     ChannelSet& out) {
  const auto by_vc = topo.link_channels(current, dim, dir);
  const std::size_t end = std::min<std::size_t>(vc_hi + 1u, by_vc.size());
  for (std::size_t vc = vc_lo; vc < end; ++vc) {
    if (by_vc[vc] != kInvalidChannel) out.push_back(by_vc[vc]);
  }
}

void minimal_channels_into(const Topology& topo, NodeId current, NodeId dest,
                           std::uint8_t vc_lo, std::uint8_t vc_hi,
                           ChannelSet& out) {
  for (std::size_t dim = 0; dim < topo.num_dims(); ++dim) {
    for (Direction dir : productive_dirs(topo, current, dest, dim)) {
      append_link_vcs(topo, current, dim, dir, vc_lo, vc_hi, out);
    }
  }
}

}  // namespace wormnet::routing
