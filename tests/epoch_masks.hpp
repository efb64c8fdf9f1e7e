// Seeded fault masks for the masked-epoch tests: the derived-vs-fresh
// state-graph differential (test_state_derive) and the checker's bitset
// differential (test_checker_bitsets) run over the same epochs.
#pragma once

#include <cstdint>
#include <vector>

#include "wormnet/routing/fault.hpp"
#include "wormnet/topology/topology.hpp"
#include "wormnet/util/rng.hpp"

namespace wormnet::test {

/// Eight seeded masks: single-VC kills, whole-link kills (every VC of a
/// physical link), kills confined to vc0 (the escape layer of the duato-*
/// constructions), and mixes of the three.
inline std::vector<std::vector<bool>> random_masks(
    const topology::Topology& topo, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const std::size_t channels = topo.num_channels();
  const auto any_channel = [&] {
    return static_cast<topology::ChannelId>(rng() % channels);
  };
  const auto escape_channel = [&] {
    topology::ChannelId c = any_channel();
    while (topo.channel(c).vc != 0) c = any_channel();
    return c;
  };
  std::vector<std::vector<bool>> masks;
  for (int i = 0; i < 8; ++i) {
    std::vector<bool> mask(channels, false);
    const int kind = i % 4;
    if (kind == 0 || kind == 3) mask[any_channel()] = true;
    if (kind == 1 || kind == 3) {
      const auto& ch = topo.channel(any_channel());
      (void)routing::mark_link_faulty(topo, ch.src, ch.dst, mask);
    }
    if (kind == 2 || kind == 3) mask[escape_channel()] = true;
    if (kind == 2) mask[escape_channel()] = true;
    masks.push_back(std::move(mask));
  }
  return masks;
}

}  // namespace wormnet::test
