#include "wormnet/routing/turn_model.hpp"

#include <stdexcept>

namespace wormnet::routing {
namespace {

void require_mesh(const Topology& topo, std::size_t dims_exact) {
  if (!topo.is_cube()) throw std::invalid_argument("turn model needs a mesh");
  if (dims_exact != 0 && topo.num_dims() != dims_exact) {
    throw std::invalid_argument("this turn-model variant is 2-D only");
  }
  for (std::size_t d = 0; d < topo.num_dims(); ++d) {
    if (topo.cube().wraps[d]) {
      throw std::invalid_argument("turn model is defined for meshes, not tori");
    }
  }
}

/// Appends all VCs of every productive channel that `keep(dim, dir)`
/// accepts to `out`.
template <class Keep>
void productive(const Topology& topo, NodeId current, NodeId dest, Keep keep,
                ChannelSet& out) {
  const std::uint8_t vmax = topo.cube().vcs - 1;
  for (std::size_t dim = 0; dim < topo.num_dims(); ++dim) {
    for (Direction dir : productive_dirs(topo, current, dest, dim)) {
      if (keep(dim, dir)) append_link_vcs(topo, current, dim, dir, 0, vmax, out);
    }
  }
}

}  // namespace

WestFirst::WestFirst(const Topology& topo) : RoutingFunction(topo) {
  require_mesh(topo, 2);
}

void WestFirst::route_into(ChannelId /*input*/, NodeId current, NodeId dest,
                           ChannelSet& out) const {
  const bool needs_west = topo_->coord(dest, 0) < topo_->coord(current, 0);
  // West exclusively until dim0 is resolved westward.
  productive(*topo_, current, dest,
             [needs_west](std::size_t dim, Direction dir) {
               return !needs_west || (dim == 0 && dir == Direction::kNeg);
             },
             out);
}

NorthLast::NorthLast(const Topology& topo) : RoutingFunction(topo) {
  require_mesh(topo, 2);
}

void NorthLast::route_into(ChannelId /*input*/, NodeId current, NodeId dest,
                           ChannelSet& out) const {
  // Adaptive among everything except north; north only when it is the sole
  // remaining productive direction.
  const std::size_t start = out.size();
  productive(*topo_, current, dest,
             [](std::size_t dim, Direction dir) {
               return !(dim == 1 && dir == Direction::kPos);
             },
             out);
  if (out.size() == start) {
    productive(*topo_, current, dest,
               [](std::size_t dim, Direction dir) {
                 return dim == 1 && dir == Direction::kPos;
               },
               out);
  }
}

NegativeFirst::NegativeFirst(const Topology& topo, bool nonminimal)
    : RoutingFunction(topo), nonminimal_(nonminimal) {
  require_mesh(topo, 0);
}

void NegativeFirst::route_into(ChannelId /*input*/, NodeId current,
                               NodeId dest, ChannelSet& out) const {
  const std::size_t start = out.size();
  productive(*topo_, current, dest,
             [](std::size_t, Direction dir) { return dir == Direction::kNeg; },
             out);
  if (nonminimal_ && out.size() != start) {
    // Negative phase: any negative channel may be used, needed or not
    // (productive ones stay first in preference order).
    const std::uint8_t vmax = topo_->cube().vcs - 1;
    for (std::size_t dim = 0; dim < topo_->num_dims(); ++dim) {
      if (topo_->coord(dest, dim) < topo_->coord(current, dim)) continue;
      append_link_vcs(*topo_, current, dim, Direction::kNeg, 0, vmax, out);
    }
  }
  if (out.size() == start) {
    productive(*topo_, current, dest,
               [](std::size_t, Direction dir) { return dir == Direction::kPos; },
               out);
  }
}

}  // namespace wormnet::routing
