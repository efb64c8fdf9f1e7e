#include "wormnet/routing/unrestricted.hpp"

#include <stdexcept>

namespace wormnet::routing {

UnrestrictedMinimal::UnrestrictedMinimal(const Topology& topo)
    : RoutingFunction(topo) {
  if (!topo.is_cube()) {
    throw std::invalid_argument("UnrestrictedMinimal needs a cube topology");
  }
}

void UnrestrictedMinimal::route_into(ChannelId /*input*/, NodeId current,
                                     NodeId dest, ChannelSet& out) const {
  minimal_channels_into(*topo_, current, dest, 0, topo_->cube().vcs - 1, out);
}

}  // namespace wormnet::routing
