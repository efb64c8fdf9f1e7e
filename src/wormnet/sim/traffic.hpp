// Synthetic traffic patterns (the standard BookSim/Dally-Towles set).
//
// A pattern maps a source node to a destination, either deterministically
// (permutation patterns) or stochastically (uniform, hotspot).  Packet
// arrivals are Bernoulli per node per cycle, parameterized by the offered
// load in flits/node/cycle.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "wormnet/topology/topology.hpp"
#include "wormnet/util/rng.hpp"

namespace wormnet::sim {

using topology::NodeId;
using topology::Topology;

enum class Pattern : std::uint8_t {
  kUniform,        ///< destination uniform over all other nodes
  kTranspose,      ///< (x, y, ...) -> reversed coordinates
  kBitComplement,  ///< node id's bits complemented (power-of-two networks)
  kBitReverse,     ///< node id's bits reversed
  kShuffle,        ///< perfect shuffle: rotate id bits left by one
  kTornado,        ///< half-way around each dimension (tori)
  kHotspot,        ///< uniform, but a fraction of traffic targets hot nodes
};

[[nodiscard]] const char* to_string(Pattern pattern);

/// Inverse of to_string (exact names: "uniform", "transpose", ...);
/// nullopt for unknown names.  Used by CLI / sweep-grid parsing.
[[nodiscard]] std::optional<Pattern> pattern_from_string(
    const std::string& name);

class TrafficGenerator {
 public:
  TrafficGenerator(const Topology& topo, Pattern pattern, std::uint64_t seed,
                   double hotspot_fraction = 0.2,
                   std::vector<NodeId> hotspots = {});

  /// Destination for a new packet from `src`; nullopt if the pattern maps
  /// src to itself (callers skip generation then).
  [[nodiscard]] std::optional<NodeId> destination(NodeId src);

  /// Bernoulli arrival: true if `src` generates a packet this cycle, given
  /// `rate` flits/node/cycle and `packet_length` flits/packet.
  [[nodiscard]] bool arrival(double rate, std::uint32_t packet_length) {
    return rng_.chance(rate / static_cast<double>(packet_length));
  }

  /// The same trial with its probability precomputed by the caller as
  /// util::Xoshiro256::chance_threshold(p): one integer compare per node
  /// per cycle on the simulator's hot path, deciding as chance(p) does.
  [[nodiscard]] bool arrival_below(std::uint64_t threshold) noexcept {
    return (rng_() >> 11) < threshold;
  }

 private:
  [[nodiscard]] NodeId permute(NodeId src) const;

  static constexpr NodeId kNoDest = static_cast<NodeId>(-1);

  const Topology* topo_;
  Pattern pattern_;
  util::Xoshiro256 rng_;
  double hotspot_fraction_;
  std::vector<NodeId> hotspots_;
  std::uint32_t id_bits_;
  /// Deterministic patterns: each source's destination, computed once
  /// (kNoDest where the pattern maps a node to itself or off the network).
  std::vector<NodeId> dest_;
};

}  // namespace wormnet::sim
