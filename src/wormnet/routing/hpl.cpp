#include "wormnet/routing/hpl.hpp"

#include <stdexcept>

namespace wormnet::routing {

HighestPositiveLast::HighestPositiveLast(const Topology& topo, bool nonminimal)
    : RoutingFunction(topo), nonminimal_(nonminimal) {
  if (!topo.is_cube()) throw std::invalid_argument("HPL needs a mesh");
  for (std::size_t d = 0; d < topo.num_dims(); ++d) {
    if (topo.cube().wraps[d]) {
      throw std::invalid_argument("HPL is defined for meshes, not tori");
    }
  }
}

int HighestPositiveLast::highest_negative(NodeId current, NodeId dest) const {
  for (int d = static_cast<int>(topo_->num_dims()) - 1; d >= 0; --d) {
    if (topo_->coord(dest, d) < topo_->coord(current, d)) return d;
  }
  return -1;
}

bool HighestPositiveLast::turn_allowed(ChannelId input, std::size_t out_dim,
                                       Direction out_dir, NodeId current,
                                       NodeId dest) const {
  if (input == kInvalidChannel) return true;
  const auto& in_ch = topo_->channel(input);
  if (in_ch.dim != out_dim || in_ch.dir == out_dir) return true;
  // 180-degree turn within out_dim.
  const std::uint32_t x = topo_->coord(current, out_dim);
  const std::uint32_t y = topo_->coord(dest, out_dim);
  if (in_ch.dir == Direction::kPos && out_dir == Direction::kNeg) {
    // + -> - : must need negative here AND in some higher dimension.
    if (y >= x) return false;
    for (std::size_t d = out_dim + 1; d < topo_->num_dims(); ++d) {
      if (topo_->coord(dest, d) < topo_->coord(current, d)) return true;
    }
    return false;
  }
  // - -> + : must need positive in this dimension.
  return y > x;
}

void HighestPositiveLast::route_into(ChannelId input, NodeId current,
                                     NodeId dest, ChannelSet& out) const {
  const std::uint8_t vmax = topo_->cube().vcs - 1;
  const int p = highest_negative(current, dest);

  auto add = [&](std::size_t dim, Direction dir) {
    if (turn_allowed(input, dim, dir, current, dest)) {
      append_link_vcs(*topo_, current, dim, dir, 0, vmax, out);
    }
  };

  if (p >= 0) {
    // Productive channels first (preference order): every needed negative
    // dimension, then needed positive dimensions below p.
    for (int d = p; d >= 0; --d) {
      if (topo_->coord(dest, d) < topo_->coord(current, d)) {
        add(static_cast<std::size_t>(d), Direction::kNeg);
      }
    }
    for (int d = 0; d < p; ++d) {
      if (topo_->coord(dest, d) > topo_->coord(current, d)) {
        add(static_cast<std::size_t>(d), Direction::kPos);
      }
    }
    if (nonminimal_) {
      // Any channel in a dimension below p, even if not needed.
      for (int d = 0; d < p; ++d) {
        const std::uint32_t x = topo_->coord(current, d);
        const std::uint32_t y = topo_->coord(dest, d);
        if (y <= x) add(static_cast<std::size_t>(d), Direction::kPos);
        if (y >= x) add(static_cast<std::size_t>(d), Direction::kNeg);
      }
    }
  } else {
    // Positive-only: increasing dimension order.
    for (std::size_t d = 0; d < topo_->num_dims(); ++d) {
      if (topo_->coord(dest, d) > topo_->coord(current, d)) {
        add(d, Direction::kPos);
        break;
      }
    }
  }
}

bool HighestPositiveLast::waiting_into(ChannelId input, NodeId current,
                                       NodeId dest, ChannelSet& out) const {
  const std::uint8_t vmax = topo_->cube().vcs - 1;
  const int p = highest_negative(current, dest);
  if (p >= 0) {
    if (turn_allowed(input, static_cast<std::size_t>(p), Direction::kNeg,
                     current, dest)) {
      append_link_vcs(*topo_, current, static_cast<std::size_t>(p),
                      Direction::kNeg, 0, vmax, out);
      return true;
    }
    // The + -> - turn in p is temporarily forbidden (the message arrived on
    // the positive channel of p after a misroute); it must first hop in a
    // lower dimension, so it waits for the highest usable lower-dimension
    // channel (negative preferred — consistent with the proof's partition
    // argument).
    for (int d = p - 1; d >= 0; --d) {
      const auto dsz = static_cast<std::size_t>(d);
      if (topo_->neighbor(current, dsz, Direction::kNeg) &&
          turn_allowed(input, dsz, Direction::kNeg, current, dest)) {
        append_link_vcs(*topo_, current, dsz, Direction::kNeg, 0, vmax, out);
        return true;
      }
      if (topo_->neighbor(current, dsz, Direction::kPos) &&
          turn_allowed(input, dsz, Direction::kPos, current, dest)) {
        append_link_vcs(*topo_, current, dsz, Direction::kPos, 0, vmax, out);
        return true;
      }
    }
    return true;
  }
  for (std::size_t d = 0; d < topo_->num_dims(); ++d) {
    if (topo_->coord(dest, d) > topo_->coord(current, d)) {
      append_link_vcs(*topo_, current, d, Direction::kPos, 0, vmax, out);
      return true;
    }
  }
  return true;
}

}  // namespace wormnet::routing
