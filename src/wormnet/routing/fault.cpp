#include "wormnet/routing/fault.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

namespace wormnet::routing {
namespace {

/// Removes the masked channels of `out` from index `first` on, keeping the
/// survivors in order.
void drop_masked(ChannelSet& out, std::size_t first,
                 const std::vector<bool>& mask) {
  const auto from = out.begin() + static_cast<std::ptrdiff_t>(first);
  out.erase(std::remove_if(from, out.end(),
                           [&mask](ChannelId c) { return mask[c]; }),
            out.end());
}

}  // namespace

FaultAwareRouting::FaultAwareRouting(const Topology& topo,
                                     std::unique_ptr<RoutingFunction> base,
                                     std::vector<bool> faulty)
    : RoutingFunction(topo), base_(std::move(base)), faulty_(std::move(faulty)) {
  if (faulty_.size() != topo.num_channels()) {
    throw std::invalid_argument("fault mask size mismatch");
  }
  for (bool f : faulty_) count_ += f ? 1 : 0;
}

std::string FaultAwareRouting::name() const {
  return base_->name() + "+faults(" + std::to_string(count_) + ")";
}

void FaultAwareRouting::route_into(ChannelId input, NodeId current,
                                   NodeId dest, ChannelSet& out) const {
  const std::size_t first = out.size();
  base_->route_into(input, current, dest, out);
  drop_masked(out, first, faulty_);
}

bool FaultAwareRouting::waiting_into(ChannelId input, NodeId current,
                                     NodeId dest, ChannelSet& out) const {
  const std::size_t first = out.size();
  if (!base_->waiting_into(input, current, dest, out)) return false;
  drop_masked(out, first, faulty_);
  return true;
}

std::size_t mark_link_faulty(const Topology& topo, NodeId src, NodeId dst,
                             std::vector<bool>& faulty) {
  faulty.resize(topo.num_channels(), false);
  std::size_t marked = 0;
  for (ChannelId c : topo.channels_between(src, dst)) {
    if (!faulty[c]) ++marked;
    faulty[c] = true;
  }
  return marked;
}

std::vector<bool> random_link_faults(const Topology& topo, std::size_t links,
                                     std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<bool> faulty(topo.num_channels(), false);
  // Collect distinct physical links (src, dst pairs).
  std::set<std::pair<NodeId, NodeId>> all_links;
  for (ChannelId c = 0; c < topo.num_channels(); ++c) {
    const auto& ch = topo.channel(c);
    all_links.emplace(ch.src, ch.dst);
  }
  std::vector<std::pair<NodeId, NodeId>> pool(all_links.begin(),
                                              all_links.end());
  links = std::min(links, pool.size());
  for (std::size_t i = 0; i < links; ++i) {
    const std::size_t pick = i + rng.below(pool.size() - i);
    std::swap(pool[i], pool[pick]);
    // Pool entries come from real channels, so every pick marks something.
    (void)mark_link_faulty(topo, pool[i].first, pool[i].second, faulty);
  }
  return faulty;
}

}  // namespace wormnet::routing
