// Routing subfunctions (the R1 of the necessary-and-sufficient condition).
//
// R1 restricts the base relation to an *escape* channel set C1:
//
//     R1(input, n, d) = R(input, n, d) ∩ C1(d)
//
// C1 may be one channel set for all traffic (the common case, matching
// Duato's 1993 sufficient condition) or vary per destination (the ICPP'94
// generalization that introduces cross dependencies).
//
// For the condition to certify deadlock freedom, R1 must be *connected*:
// every message, wherever it is, must be able to finish its journey using
// escape channels alone.  Two facets are checked:
//   * node connectivity — from every node, every destination is reachable
//     hopping only on C1(d) channels supplied by R;
//   * escape-everywhere — every reachable state (c, d) whose head is not d
//     offers at least one R1 output (so a blocked message always has an
//     escape to wait on, regardless of how it got where it is).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "wormnet/cdg/states.hpp"

namespace wormnet::cdg {

class Subfunction;

/// Witness for a failed subfunction connectivity or escape-everywhere check
/// — *which* node is stranded or *which* state has no escape, so checkers and
/// lint rules can explain a rejection instead of reporting a bare bool.
struct SubfunctionWitness {
  enum class Kind : std::uint8_t {
    kNone,              ///< the check passed
    kUnreachableNode,   ///< node cannot reach dest hopping on C1(dest) only
    kNoEscape,          ///< reachable state (channel, dest) has no R1 output
    kNoEscapeFirstHop   ///< injection state (src, dest) has no R1 first hop
  };
  Kind kind = Kind::kNone;
  NodeId node = 0;  ///< kUnreachableNode: stranded node; kNoEscapeFirstHop: src
  ChannelId channel = topology::kInvalidChannel;  ///< kNoEscape: occupied channel
  NodeId dest = 0;  ///< destination under check (all failure kinds)

  [[nodiscard]] bool ok() const { return kind == Kind::kNone; }
  [[nodiscard]] std::string describe(const Topology& topo) const;
};

/// Builds a per-destination subfunction from an *escape relation*: C1(d) is
/// the set of channels the escape relation can use toward destination d
/// (its reachable channels for d).  This is the ICPP'94 generalization where
/// each pair gets its own escape set — the situation that makes cross
/// dependencies necessary.  `escape` must be a sub-relation of the base
/// relation of `states` (checked per reachable state in debug builds).
[[nodiscard]] Subfunction per_destination_from_escape(
    const StateGraph& states, const RoutingFunction& escape,
    std::string label);

class Subfunction {
 public:
  /// Uniform escape set: C1(d) = C1 for every destination.
  Subfunction(const StateGraph& states, const std::vector<bool>& c1,
              std::string label);

  /// Per-destination escape sets: c1_by_dest[d] is the C1 for destination d.
  /// Introduces cross dependencies in the extended CDG.
  Subfunction(const StateGraph& states,
              const std::vector<std::vector<bool>>& c1_by_dest,
              std::string label);

  [[nodiscard]] const std::string& label() const noexcept { return label_; }
  [[nodiscard]] const StateGraph& states() const noexcept { return *states_; }
  [[nodiscard]] bool per_destination() const noexcept {
    return per_destination_;
  }

  [[nodiscard]] bool in_c1(ChannelId c, NodeId dest) const {
    return test_bit(c1_words(dest).data(), c);
  }

  /// C1(dest) as a row of row_words(num_channels) words.
  [[nodiscard]] std::span<const Word> c1_words(NodeId dest) const {
    return {c1_.data() + (per_destination_ ? dest * words_ : 0), words_};
  }

  /// True if c belongs to C1(d) for *some* destination d (cross-dependency
  /// targets).  O(1) — precomputed union.
  [[nodiscard]] bool in_any_c1(ChannelId c) const {
    return test_bit(c1_union_.data(), c);
  }

  /// The union of C1 over every destination, as a row of words.
  [[nodiscard]] std::span<const Word> any_c1_words() const {
    return c1_union_;
  }

  /// R1 outputs for state (input channel c at node `current`, destination d).
  [[nodiscard]] ChannelSet r1(ChannelId input, NodeId current,
                              NodeId dest) const;

  /// Node connectivity of R1 (see file comment).
  [[nodiscard]] bool connected() const;

  /// Escape-everywhere over reachable states (see file comment).
  [[nodiscard]] bool escape_everywhere() const;

  /// Node-connectivity check with witness: on failure names a node that
  /// cannot reach some destination using C1(dest) hops alone.
  [[nodiscard]] SubfunctionWitness connectivity_witness() const;

  /// Escape-everywhere check with witness: on failure names the reachable
  /// (or injection) state that offers no R1 output to wait on.
  [[nodiscard]] SubfunctionWitness escape_witness() const;

  [[nodiscard]] std::size_t channel_count() const;

 private:
  const StateGraph* states_;
  std::size_t words_;
  bool per_destination_;
  std::vector<Word> c1_;  ///< one row (uniform) or one per destination
  std::vector<Word> c1_union_;
  std::string label_;
};

}  // namespace wormnet::cdg
