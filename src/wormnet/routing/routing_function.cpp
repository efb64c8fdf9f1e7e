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
  const auto next = topo.neighbor(current, dim, dir);
  if (!next) return;
  // One pass over the out-adjacency instead of a scan per VC, emitting in
  // ascending VC order (the order the per-VC scan produced).
  constexpr int kMaxVcs = 32;
  const int span = int(vc_hi) - int(vc_lo);
  if (span >= 0 && span < kMaxVcs) {
    ChannelId by_vc[kMaxVcs];
    std::fill(by_vc, by_vc + (span + 1), kInvalidChannel);
    for (const ChannelId c : topo.out_channels(current)) {
      const auto& ch = topo.channel(c);
      if (ch.dst == *next && ch.vc >= vc_lo && ch.vc <= vc_hi &&
          by_vc[ch.vc - vc_lo] == kInvalidChannel) {
        by_vc[ch.vc - vc_lo] = c;  // first match, as find_channel returns
      }
    }
    for (int i = 0; i <= span; ++i) {
      if (by_vc[i] != kInvalidChannel) out.push_back(by_vc[i]);
    }
    return;
  }
  for (std::uint8_t vc = vc_lo; vc <= vc_hi; ++vc) {
    const ChannelId c = topo.find_channel(current, *next, vc);
    if (c != kInvalidChannel) out.push_back(c);
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
