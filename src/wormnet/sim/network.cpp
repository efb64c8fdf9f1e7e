#include "wormnet/sim/network.hpp"

#include <algorithm>

namespace wormnet::sim {

NetworkState::NetworkState(const Topology& topo) {
  const std::size_t n = topo.num_channels();
  owner_.assign(n, kNoPacket);
  out_.assign(n, kInvalidChannel);
  out_kind_.assign(n, kNoOutput);
  front_seq_.assign(n, 0);
  occupancy_.assign(n, 0);
  link_of_.assign(n, 0);
  eject_rr_.assign(topo.num_nodes(), 0);

  // Physical-link grouping via a flat sorted-vector lookup built once (no
  // std::map on the construction path).  Link ids must keep first-appearance
  // order over the ascending channel scan: the move phase executes one
  // winner per link in link-id order, so the id assignment is visible in
  // trace-event order and has to stay byte-stable.
  std::vector<std::uint64_t> keys(n);
  for (ChannelId c = 0; c < n; ++c) {
    const auto& ch = topo.channel(c);
    keys[c] = (static_cast<std::uint64_t>(ch.src) << 32) | ch.dst;
  }
  std::vector<std::uint64_t> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

  constexpr std::uint32_t kUnassigned = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> id_at(sorted.size(), kUnassigned);
  links_.reserve(sorted.size());
  for (ChannelId c = 0; c < n; ++c) {
    const std::size_t pos = static_cast<std::size_t>(
        std::lower_bound(sorted.begin(), sorted.end(), keys[c]) -
        sorted.begin());
    if (id_at[pos] == kUnassigned) {
      id_at[pos] = static_cast<std::uint32_t>(links_.size());
      links_.emplace_back();
    }
    links_[id_at[pos]].vcs.push_back(c);
    link_of_[c] = id_at[pos];
  }
}

}  // namespace wormnet::sim
