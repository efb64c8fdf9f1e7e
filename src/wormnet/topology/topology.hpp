// Interconnection networks: strongly connected directed multigraphs whose
// arcs are (virtual) channels — Definition 1 of the deadlock-freedom theory.
//
// One concrete class covers the whole k-ary n-cube family (ring, mesh, torus,
// hypercube) plus arbitrary hand-built networks (used for the small
// counterexample networks the theory papers reason about).  Cube-family
// instances carry coordinate metadata that the routing algorithms consume;
// custom networks carry none and are only routed by custom routing relations.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace wormnet::topology {

using NodeId = std::uint32_t;
using ChannelId = std::uint32_t;

/// Sentinel for "no channel" — also used as the input-channel value for a
/// message still at its source (the injection pseudo-channel).
inline constexpr ChannelId kInvalidChannel = static_cast<ChannelId>(-1);

enum class Direction : std::uint8_t { kPos = 0, kNeg = 1 };

[[nodiscard]] constexpr Direction opposite(Direction d) noexcept {
  return d == Direction::kPos ? Direction::kNeg : Direction::kPos;
}

/// A virtual channel: a unidirectional arc with its own flit queue.
struct Channel {
  NodeId src = 0;               ///< transmitting node
  NodeId dst = 0;               ///< receiving node
  std::uint8_t dim = 0;         ///< dimension of travel (cube family)
  Direction dir = Direction::kPos;
  std::uint8_t vc = 0;          ///< virtual-channel index on the physical link
  bool wrap = false;            ///< true for torus wraparound links
  std::string name;             ///< optional label for custom networks
};

/// Cube-family metadata (meshes/tori/hypercubes are k-ary n-cubes).
struct CubeInfo {
  std::vector<std::uint32_t> radices;  ///< radix per dimension, k_i >= 2
  std::vector<bool> wraps;             ///< wraparound links in dimension i?
  bool unidirectional = false;         ///< only +direction links (rings)
  std::uint8_t vcs = 1;                ///< virtual channels per physical link
};

class Topology {
 public:
  /// Builds a custom network.  Channel ids are the indices into `channels`.
  Topology(std::string name, NodeId num_nodes, std::vector<Channel> channels);

  /// Builds a cube-family network (used by the factory functions in
  /// builders.hpp; prefer those).
  Topology(std::string name, NodeId num_nodes, std::vector<Channel> channels,
           CubeInfo cube);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] NodeId num_nodes() const noexcept { return num_nodes_; }
  [[nodiscard]] std::size_t num_channels() const noexcept {
    return channels_.size();
  }

  [[nodiscard]] const Channel& channel(ChannelId c) const {
    return channels_[c];
  }

  /// Channels transmitting out of / into `node`, in ascending id order.
  [[nodiscard]] std::span<const ChannelId> out_channels(NodeId node) const {
    return {out_.data() + out_at_[node], out_at_[node + 1] - out_at_[node]};
  }
  [[nodiscard]] std::span<const ChannelId> in_channels(NodeId node) const {
    return {in_.data() + in_at_[node], in_at_[node + 1] - in_at_[node]};
  }

  /// The channel src -> dst with virtual-channel index `vc`, or
  /// kInvalidChannel if absent.
  [[nodiscard]] ChannelId find_channel(NodeId src, NodeId dst,
                                       std::uint8_t vc = 0) const;

  /// All virtual channels on the physical link src -> dst (ascending vc).
  [[nodiscard]] std::vector<ChannelId> channels_between(NodeId src,
                                                        NodeId dst) const;

  // --- cube-family accessors -------------------------------------------
  [[nodiscard]] bool is_cube() const noexcept { return cube_.has_value(); }
  [[nodiscard]] const CubeInfo& cube() const { return *cube_; }
  [[nodiscard]] std::size_t num_dims() const { return cube_->radices.size(); }

  /// Mixed-radix coordinate conversion (dimension 0 varies fastest).
  [[nodiscard]] std::vector<std::uint32_t> coords(NodeId node) const;
  [[nodiscard]] NodeId node_at(std::span<const std::uint32_t> coords) const;

  /// Coordinate of `node` in dimension `dim` without materializing the whole
  /// vector — hot path for routing relations (precomputed flat table; no
  /// divisions).
  [[nodiscard]] std::uint32_t coord(NodeId node, std::size_t dim) const {
    return coords_flat_[node * dims_ + dim];
  }

  /// The neighbor of `node` in (dim, dir), honoring mesh edges / torus wraps.
  /// Returns nullopt at a mesh boundary.  Inline: hot path for routing.
  [[nodiscard]] std::optional<NodeId> neighbor(NodeId node, std::size_t dim,
                                               Direction dir) const {
    const std::uint32_t k = cube_->radices[dim];
    const std::uint32_t x = coord(node, dim);
    std::uint32_t nx;
    if (dir == Direction::kPos) {
      if (x + 1 < k) {
        nx = x + 1;
      } else if (cube_->wraps[dim]) {
        nx = 0;
      } else {
        return std::nullopt;
      }
    } else {
      if (x > 0) {
        nx = x - 1;
      } else if (cube_->wraps[dim]) {
        nx = k - 1;
      } else {
        return std::nullopt;
      }
    }
    return node + (static_cast<std::int64_t>(nx) - x) * strides_[dim];
  }

  /// The channels of the link from `node` toward neighbor(node, dim, dir),
  /// indexed by vc (kInvalidChannel where that vc has no channel, and
  /// everywhere at a mesh boundary): entry v is find_channel(node,
  /// neighbor, v).  One read of a table built with the adjacency — hot
  /// path for routing.  Cube family only.
  [[nodiscard]] std::span<const ChannelId> link_channels(
      NodeId node, std::size_t dim, Direction dir) const {
    return {link_.data() + link_at(node, dim, dir), link_vcs_};
  }

  /// Hop distance of the minimal path respecting the topology (mesh: L1;
  /// torus: ring distance per dim; custom: BFS).
  [[nodiscard]] std::uint32_t distance(NodeId a, NodeId b) const;

  /// Human-readable channel label, e.g. "(1,2)->(2,2).v0" or a custom name.
  [[nodiscard]] std::string channel_name(ChannelId c) const;

  /// True iff every node can reach every other node along channels —
  /// Definition 1 requires strong connectivity.
  [[nodiscard]] bool strongly_connected() const;

 private:
  void index_channels();
  /// Offset of the (node, dim, dir) row in link_.
  [[nodiscard]] std::size_t link_at(NodeId node, std::size_t dim,
                                    Direction dir) const {
    return ((node * dims_ + dim) * 2 + static_cast<std::size_t>(dir)) *
           link_vcs_;
  }

  std::string name_;
  NodeId num_nodes_;
  std::vector<Channel> channels_;
  // Adjacency, flat (CSR): node n's out-channels are out_[out_at_[n] ..
  // out_at_[n + 1]), its in-channels likewise.
  std::vector<std::uint32_t> out_at_;
  std::vector<ChannelId> out_;
  std::vector<std::uint32_t> in_at_;
  std::vector<ChannelId> in_;
  // Cube family: link_channels' rows, link_vcs_ entries per (node, dim, dir).
  std::vector<ChannelId> link_;
  std::size_t link_vcs_ = 0;
  std::optional<CubeInfo> cube_;
  std::vector<std::uint32_t> strides_;  ///< mixed-radix strides (cube family)
  std::size_t dims_ = 0;                ///< cached cube dimension count
  std::vector<std::uint32_t> coords_flat_;  ///< [node * dims_ + dim]
};

}  // namespace wormnet::topology
