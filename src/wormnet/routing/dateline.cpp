#include "wormnet/routing/dateline.hpp"

#include <sstream>
#include <stdexcept>

namespace wormnet::routing {

DatelineRouting::DatelineRouting(const Topology& topo, std::uint8_t vc_a,
                                 std::uint8_t vc_b)
    : RoutingFunction(topo), vc_a_(vc_a), vc_b_(vc_b) {
  if (!topo.is_cube()) {
    throw std::invalid_argument("DatelineRouting needs a cube-family topology");
  }
  if (vc_a == vc_b || vc_a >= topo.cube().vcs || vc_b >= topo.cube().vcs) {
    throw std::invalid_argument(
        "DatelineRouting needs two distinct virtual channels per link");
  }
}

DatelineRouting::DatelineRouting(const Topology& topo)
    : DatelineRouting(topo, 0, 1) {}

std::string DatelineRouting::name() const {
  std::ostringstream os;
  os << "dateline[v" << int(vc_a_) << ",v" << int(vc_b_) << "]";
  return os.str();
}

bool DatelineRouting::wrap_ahead(NodeId current, NodeId dest,
                                 std::size_t dim) const {
  if (!topo_->cube().wraps[dim]) return false;
  const std::uint32_t x = topo_->coord(current, dim);
  const std::uint32_t y = topo_->coord(dest, dim);
  if (x == y) return false;
  const Direction dir = preferred_dir(*topo_, current, dest, dim);
  // Going + passes the k-1 -> 0 wrap iff dest lies "behind" us; symmetric
  // for the - direction and the 0 -> k-1 wrap.
  return dir == Direction::kPos ? y < x : y > x;
}

void DatelineRouting::route_into(ChannelId /*input*/, NodeId current,
                                 NodeId dest, ChannelSet& out) const {
  for (std::size_t dim = 0; dim < topo_->num_dims(); ++dim) {
    if (topo_->coord(current, dim) == topo_->coord(dest, dim)) continue;
    const Direction dir = preferred_dir(*topo_, current, dest, dim);
    const std::uint8_t vc = wrap_ahead(current, dest, dim) ? vc_b_ : vc_a_;
    append_link_vcs(*topo_, current, dim, dir, vc, vc, out);
    break;  // dimension order
  }
}

}  // namespace wormnet::routing
