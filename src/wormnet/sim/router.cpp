#include "wormnet/sim/router.hpp"

#include <algorithm>

namespace wormnet::sim {

RouteAllocator::RouteAllocator(const Topology& topo,
                               const RoutingFunction& routing,
                               SelectionPolicy selection,
                               WaitOverride wait_override,
                               std::uint32_t buffer_depth, std::uint64_t seed,
                               const std::vector<bool>* faulty,
                               const reconfig::TransitionOverlay* transition)
    : topo_(&topo), routing_(&routing), selection_(selection),
      wait_override_(wait_override), buffer_depth_(buffer_depth), rng_(seed),
      faulty_(faulty), transition_(transition) {}

const RoutingFunction& RouteAllocator::relation_for(const Packet& pkt) const {
  if (transition_ == nullptr) return *routing_;
  return transition_->relation(pkt.injecting ? pkt.route_version
                                             : transition_->current(pkt.dst));
}

WaitMode RouteAllocator::effective_wait_mode() const {
  switch (wait_override_) {
    case WaitOverride::kFollowRouting:
      return routing_->wait_mode();
    case WaitOverride::kForceAny:
      return WaitMode::kAnyOf;
    case WaitOverride::kForceSpecific:
      return WaitMode::kSpecific;
  }
  return WaitMode::kAnyOf;
}

void RouteAllocator::candidates_into(const Packet& pkt, ChannelId input,
                                     NodeId current,
                                     routing::ChannelSet& set) const {
  set.clear();
  if (!pkt.forced_path.empty()) {
    if (pkt.forced_next < pkt.forced_path.size()) {
      set.push_back(pkt.forced_path[pkt.forced_next]);
    }
  } else if (pkt.committed_wait != kInvalidChannel) {
    set.push_back(pkt.committed_wait);
  } else {
    relation_for(pkt).route_into(input, current, pkt.dst, set);
  }
  if (faulty_ != nullptr) {
    std::erase_if(set, [this](ChannelId c) { return (*faulty_)[c]; });
  }
}

std::optional<ChannelId> RouteAllocator::attempt(Packet& pkt, ChannelId input,
                                                 NodeId current,
                                                 NetworkState& net) {
  candidates_into(pkt, input, current, cands_);
  const routing::ChannelSet& cands = cands_;
  evaluated_ = cands.size();
  if (cands.empty()) return std::nullopt;

  free_.assign(cands.size(), false);
  credits_.assign(cands.size(), 0);
  for (std::size_t i = 0; i < cands.size(); ++i) {
    const ChannelId c = cands[i];
    free_[i] = net.owner(c) == kNoPacket;
    credits_[i] =
        buffer_depth_ - std::min<std::uint32_t>(net.occupancy(c), buffer_depth_);
  }
  const int pick =
      routing::select_channel(selection_, cands, free_, credits_, rng_);
  if (pick >= 0) {
    const ChannelId acquired = cands[static_cast<std::size_t>(pick)];
    net.owner(acquired) = pkt.id;
    pkt.committed_wait = kInvalidChannel;
    if (!pkt.forced_path.empty()) ++pkt.forced_next;
    pkt.path.push_back(acquired);
    return acquired;
  }

  // Blocked: commit under wait-specific discipline.
  if (effective_wait_mode() == WaitMode::kSpecific &&
      pkt.committed_wait == kInvalidChannel && pkt.forced_path.empty()) {
    // The relation's preferred live waiting channel; deterministic
    // commitment.  A dead channel is never committed to: it could never be
    // granted.
    for (const ChannelId c :
         relation_for(pkt).waiting(input, current, pkt.dst)) {
      if (faulty_ == nullptr || !(*faulty_)[c]) {
        pkt.committed_wait = c;
        cands_.assign(1, c);  // the next attempt evaluates only this one
        break;
      }
    }
  }
  return std::nullopt;
}

routing::ChannelSet RouteAllocator::blocked_on(const Packet& pkt,
                                               ChannelId input,
                                               NodeId current) const {
  routing::ChannelSet set;
  candidates_into(pkt, input, current, set);
  return set;
}

}  // namespace wormnet::sim
