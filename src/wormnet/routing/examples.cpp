#include "wormnet/routing/examples.hpp"

#include <stdexcept>

namespace wormnet::routing {

topology::Topology make_incoherent_net() {
  using topology::Channel;
  using topology::Direction;
  std::vector<Channel> channels;
  auto add = [&](topology::NodeId src, topology::NodeId dst, const char* name) {
    Channel ch;
    ch.src = src;
    ch.dst = dst;
    ch.dir = dst > src ? Direction::kPos : Direction::kNeg;
    ch.name = name;
    channels.push_back(ch);
  };
  add(0, 1, "cH0");
  add(1, 2, "cH1");
  add(2, 3, "cH2");
  add(1, 0, "cL1");
  add(2, 1, "cL2");
  add(3, 2, "cL3");
  add(1, 2, "cA1");
  add(2, 1, "cB2");
  // Give the detour channels distinct vc indices so (src, dst, vc) stays a
  // unique key alongside the parallel minimal channels.
  channels[6].vc = 1;  // cA1 parallels cH1
  channels[7].vc = 1;  // cB2 parallels cL2
  return topology::Topology("incoherent-net", 4, std::move(channels));
}

IncoherentChannels incoherent_channels(const topology::Topology& topo) {
  if (topo.name() != "incoherent-net") {
    throw std::invalid_argument("not an incoherent-example topology");
  }
  return IncoherentChannels{0, 1, 2, 3, 4, 5, 6, 7};
}

IncoherentRouting::IncoherentRouting(const Topology& topo, bool wait_specific)
    : RoutingFunction(topo), ch_(incoherent_channels(topo)),
      wait_specific_(wait_specific) {}

void IncoherentRouting::route_into(ChannelId /*input*/, NodeId current,
                                   NodeId dest, ChannelSet& out) const {
  if (dest > current) {
    const ChannelId right[] = {ch_.cH0, ch_.cH1, ch_.cH2};
    out.push_back(right[current]);
    return;
  }
  const ChannelId left[] = {ch_.cL1, ch_.cL2, ch_.cL3};
  out.push_back(left[current - 1]);
  if (dest == 0) {
    if (current == 1) out.push_back(ch_.cA1);
    if (current == 2) out.push_back(ch_.cB2);
  }
}

bool IncoherentRouting::waiting_into(ChannelId input, NodeId current,
                                     NodeId dest, ChannelSet& out) const {
  if (!wait_specific_) return false;
  const std::size_t first = out.size();
  route_into(input, current, dest, out);
  if (out.size() - first > 1) {
    // Commit to the detour channel: the Section-6 deadlock configuration
    // (two dest-n0 messages, one blocking the other's detour).
    out[first] = out.back();
    out.resize(first + 1);
    return true;
  }
  out.resize(first);
  return false;
}

}  // namespace wormnet::routing
