#include "wormnet/routing/duato_adaptive.hpp"

#include <stdexcept>

#include "wormnet/routing/dateline.hpp"
#include "wormnet/routing/dimension_order.hpp"

namespace wormnet::routing {

DuatoAdaptive::DuatoAdaptive(const Topology& topo,
                             std::unique_ptr<RoutingFunction> escape,
                             std::uint8_t adaptive_vc_lo, std::string label)
    : RoutingFunction(topo), escape_(std::move(escape)),
      adaptive_vc_lo_(adaptive_vc_lo), label_(std::move(label)) {
  if (!topo.is_cube()) {
    throw std::invalid_argument("DuatoAdaptive needs a cube-family topology");
  }
  if (adaptive_vc_lo_ >= topo.cube().vcs) {
    throw std::invalid_argument(
        "DuatoAdaptive needs at least one adaptive virtual channel");
  }
}

void DuatoAdaptive::route_into(ChannelId input, NodeId current, NodeId dest,
                               ChannelSet& out) const {
  minimal_channels_into(*topo_, current, dest, adaptive_vc_lo_,
                        topo_->cube().vcs - 1, out);
  escape_->route_into(input, current, dest, out);
}

std::unique_ptr<DuatoAdaptive> make_duato_mesh(const Topology& topo) {
  if (!topo.is_cube() || topo.cube().vcs < 2) {
    throw std::invalid_argument("duato-mesh needs >= 2 virtual channels");
  }
  auto escape = std::make_unique<DimensionOrder>(topo, 0, 0);
  return std::make_unique<DuatoAdaptive>(topo, std::move(escape), 1,
                                         "duato-adaptive(mesh)");
}

std::unique_ptr<DuatoAdaptive> make_duato_hypercube(const Topology& topo) {
  if (!topo.is_cube() || topo.cube().vcs < 2) {
    throw std::invalid_argument("duato-hypercube needs >= 2 virtual channels");
  }
  auto escape = std::make_unique<DimensionOrder>(topo, 0, 0);
  return std::make_unique<DuatoAdaptive>(topo, std::move(escape), 1,
                                         "duato-adaptive(hypercube)");
}

std::unique_ptr<DuatoAdaptive> make_duato_torus(const Topology& topo) {
  if (!topo.is_cube() || topo.cube().vcs < 3) {
    throw std::invalid_argument("duato-torus needs >= 3 virtual channels");
  }
  auto escape = std::make_unique<DatelineRouting>(topo, 0, 1);
  return std::make_unique<DuatoAdaptive>(topo, std::move(escape), 2,
                                         "duato-adaptive(torus)");
}

}  // namespace wormnet::routing
