#include "wormnet/topology/topology.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <queue>
#include <sstream>
#include <stdexcept>

namespace wormnet::topology {

Topology::Topology(std::string name, NodeId num_nodes,
                   std::vector<Channel> channels)
    : name_(std::move(name)), num_nodes_(num_nodes),
      channels_(std::move(channels)) {
  index_channels();
}

Topology::Topology(std::string name, NodeId num_nodes,
                   std::vector<Channel> channels, CubeInfo cube)
    : name_(std::move(name)), num_nodes_(num_nodes),
      channels_(std::move(channels)), cube_(std::move(cube)) {
  strides_.resize(cube_->radices.size());
  std::uint32_t stride = 1;
  for (std::size_t d = 0; d < cube_->radices.size(); ++d) {
    strides_[d] = stride;
    stride *= cube_->radices[d];
  }
  if (stride != num_nodes_) {
    throw std::invalid_argument("cube radices do not match node count");
  }
  dims_ = cube_->radices.size();
  coords_flat_.resize(static_cast<std::size_t>(num_nodes_) * dims_);
  for (NodeId node = 0; node < num_nodes_; ++node) {
    for (std::size_t d = 0; d < dims_; ++d) {
      coords_flat_[node * dims_ + d] = (node / strides_[d]) % cube_->radices[d];
    }
  }
  index_channels();
}

void Topology::index_channels() {
  out_at_.assign(num_nodes_ + 1, 0);
  in_at_.assign(num_nodes_ + 1, 0);
  std::uint8_t max_vc = 0;
  for (const Channel& ch : channels_) {
    if (ch.src >= num_nodes_ || ch.dst >= num_nodes_) {
      throw std::invalid_argument("channel endpoint out of range");
    }
    ++out_at_[ch.src + 1];
    ++in_at_[ch.dst + 1];
    max_vc = std::max(max_vc, ch.vc);
  }
  std::partial_sum(out_at_.begin(), out_at_.end(), out_at_.begin());
  std::partial_sum(in_at_.begin(), in_at_.end(), in_at_.begin());
  out_.resize(channels_.size());
  in_.resize(channels_.size());
  std::vector<std::uint32_t> out_next(out_at_.begin(), out_at_.end() - 1);
  std::vector<std::uint32_t> in_next(in_at_.begin(), in_at_.end() - 1);
  if (cube_) {
    link_vcs_ = std::size_t{max_vc} + 1;
    link_.assign(std::size_t{num_nodes_} * dims_ * 2 * link_vcs_,
                 kInvalidChannel);
  }
  for (ChannelId c = 0; c < channels_.size(); ++c) {
    const Channel& ch = channels_[c];
    out_[out_next[ch.src]++] = c;
    in_[in_next[ch.dst]++] = c;
    if (!cube_) continue;
    // c serves every (dim, dir) of its source whose neighbour is its head,
    // at its vc, unless an earlier channel already does: find_channel's
    // first match in id order.
    for (std::size_t d = 0; d < dims_; ++d) {
      for (const Direction dir : {Direction::kPos, Direction::kNeg}) {
        if (neighbor(ch.src, d, dir) != ch.dst) continue;
        ChannelId& slot = link_[link_at(ch.src, d, dir) + ch.vc];
        if (slot == kInvalidChannel) slot = c;
      }
    }
  }
}

ChannelId Topology::find_channel(NodeId src, NodeId dst,
                                 std::uint8_t vc) const {
  for (ChannelId c : out_channels(src)) {
    const Channel& ch = channels_[c];
    if (ch.dst == dst && ch.vc == vc) return c;
  }
  return kInvalidChannel;
}

std::vector<ChannelId> Topology::channels_between(NodeId src,
                                                  NodeId dst) const {
  std::vector<ChannelId> result;
  for (ChannelId c : out_channels(src)) {
    if (channels_[c].dst == dst) result.push_back(c);
  }
  std::sort(result.begin(), result.end(), [this](ChannelId a, ChannelId b) {
    return channels_[a].vc < channels_[b].vc;
  });
  return result;
}

std::vector<std::uint32_t> Topology::coords(NodeId node) const {
  assert(is_cube());
  std::vector<std::uint32_t> result(num_dims());
  for (std::size_t d = 0; d < result.size(); ++d) {
    result[d] = (node / strides_[d]) % cube_->radices[d];
  }
  return result;
}

NodeId Topology::node_at(std::span<const std::uint32_t> coords) const {
  assert(is_cube() && coords.size() == num_dims());
  NodeId node = 0;
  for (std::size_t d = 0; d < coords.size(); ++d) {
    assert(coords[d] < cube_->radices[d]);
    node += coords[d] * strides_[d];
  }
  return node;
}

std::uint32_t Topology::distance(NodeId a, NodeId b) const {
  if (is_cube()) {
    std::uint32_t total = 0;
    for (std::size_t d = 0; d < num_dims(); ++d) {
      const std::uint32_t k = cube_->radices[d];
      const std::uint32_t xa = coord(a, d);
      const std::uint32_t xb = coord(b, d);
      const std::uint32_t fwd = (xb + k - xa) % k;
      if (cube_->unidirectional) {
        total += fwd;
      } else if (cube_->wraps[d]) {
        total += std::min(fwd, k - fwd);
      } else {
        total += xa > xb ? xa - xb : xb - xa;
      }
    }
    return total;
  }
  // Custom network: BFS over channels.
  std::vector<std::uint32_t> dist(num_nodes_, static_cast<std::uint32_t>(-1));
  std::queue<NodeId> frontier;
  dist[a] = 0;
  frontier.push(a);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    if (u == b) return dist[u];
    for (ChannelId c : out_channels(u)) {
      const NodeId v = channels_[c].dst;
      if (dist[v] == static_cast<std::uint32_t>(-1)) {
        dist[v] = dist[u] + 1;
        frontier.push(v);
      }
    }
  }
  throw std::runtime_error("distance: nodes not connected");
}

std::string Topology::channel_name(ChannelId c) const {
  const Channel& ch = channels_[c];
  if (!ch.name.empty()) return ch.name;
  std::ostringstream os;
  auto print_node = [&](NodeId n) {
    if (is_cube() && num_dims() > 1) {
      auto xs = coords(n);
      os << '(';
      for (std::size_t d = 0; d < xs.size(); ++d) {
        if (d) os << ',';
        os << xs[d];
      }
      os << ')';
    } else {
      os << 'n' << n;
    }
  };
  print_node(ch.src);
  os << "->";
  print_node(ch.dst);
  os << ".v" << int(ch.vc);
  return os.str();
}

bool Topology::strongly_connected() const {
  if (num_nodes_ == 0) return false;
  auto bfs = [&](bool forward) {
    std::vector<bool> seen(num_nodes_, false);
    std::vector<NodeId> stack{0};
    seen[0] = true;
    std::size_t count = 1;
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      const auto row = forward ? out_channels(u) : in_channels(u);
      for (ChannelId c : row) {
        const NodeId v = forward ? channels_[c].dst : channels_[c].src;
        if (!seen[v]) {
          seen[v] = true;
          ++count;
          stack.push_back(v);
        }
      }
    }
    return count == num_nodes_;
  };
  return bfs(true) && bfs(false);
}

}  // namespace wormnet::topology
