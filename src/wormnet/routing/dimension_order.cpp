#include "wormnet/routing/dimension_order.hpp"

#include <sstream>
#include <stdexcept>

namespace wormnet::routing {

DimensionOrder::DimensionOrder(const Topology& topo, std::uint8_t vc_lo,
                               std::uint8_t vc_hi)
    : RoutingFunction(topo), vc_lo_(vc_lo), vc_hi_(vc_hi) {
  if (!topo.is_cube()) {
    throw std::invalid_argument("DimensionOrder needs a cube-family topology");
  }
  for (std::size_t d = 0; d < topo.num_dims(); ++d) {
    if (topo.cube().wraps[d]) {
      throw std::invalid_argument(
          "DimensionOrder is not deadlock-free on wraparound dimensions; "
          "use DatelineRouting");
    }
  }
  if (vc_lo > vc_hi || vc_hi >= topo.cube().vcs) {
    throw std::invalid_argument("bad virtual-channel range");
  }
}

DimensionOrder::DimensionOrder(const Topology& topo)
    : DimensionOrder(topo, 0, static_cast<std::uint8_t>(topo.is_cube()
                                                            ? topo.cube().vcs - 1
                                                            : 0)) {}

std::string DimensionOrder::name() const {
  std::ostringstream os;
  os << "e-cube";
  if (vc_lo_ != 0 || vc_hi_ + 1 != topo_->cube().vcs) {
    os << "[v" << int(vc_lo_) << "-" << int(vc_hi_) << "]";
  }
  return os.str();
}

void DimensionOrder::route_into(ChannelId /*input*/, NodeId current,
                                NodeId dest, ChannelSet& out) const {
  for (std::size_t dim = 0; dim < topo_->num_dims(); ++dim) {
    if (topo_->coord(current, dim) == topo_->coord(dest, dim)) continue;
    const Direction dir = preferred_dir(*topo_, current, dest, dim);
    append_link_vcs(*topo_, current, dim, dir, vc_lo_, vc_hi_, out);
    break;  // lowest unresolved dimension only
  }
}

}  // namespace wormnet::routing
