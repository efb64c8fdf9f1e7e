// Duato's design methodology: fully adaptive routing built from
//
//   * an *escape* layer — any deterministic (or restricted) deadlock-free
//     routing confined to a dedicated set of virtual-channel classes, and
//   * an *adaptive* layer — completely unrestricted minimal routing on the
//     remaining virtual-channel classes.
//
// The full relation R(n, d) = adaptive(n, d) ∪ escape(n, d) has a *cyclic*
// channel dependency graph (the adaptive layer allows every turn), yet is
// deadlock-free because the escape layer is a connected routing subfunction
// R1 whose extended channel dependency graph is acyclic — exactly the
// situation the paper's necessary-and-sufficient condition certifies and
// older acyclic-CDG techniques cannot.
//
// Instantiations:
//   mesh       escape = dimension order on vc0,          adaptive on vc1..   (>= 2 VCs)
//   hypercube  escape = dimension order on vc0,          adaptive on vc1..   (>= 2 VCs)
//   torus      escape = dateline on vc0/vc1,             adaptive on vc2..   (>= 3 VCs)
#pragma once

#include <memory>

#include "wormnet/routing/routing_function.hpp"

namespace wormnet::routing {

class DuatoAdaptive final : public RoutingFunction {
 public:
  /// `escape` must route exclusively on VC indices < adaptive_vc_lo;
  /// the adaptive layer uses [adaptive_vc_lo, vcs).
  DuatoAdaptive(const Topology& topo, std::unique_ptr<RoutingFunction> escape,
                std::uint8_t adaptive_vc_lo, std::string label);

  [[nodiscard]] std::string name() const override { return label_; }
  /// The adaptive layer ignores the input, so the escape's form is the
  /// relation's.
  [[nodiscard]] RelationForm form() const override { return escape_->form(); }

  /// Adaptive candidates first (preference order), escape candidates last.
  void route_into(ChannelId input, NodeId current, NodeId dest,
                  ChannelSet& out) const override;

  /// The escape relation R1 — exposed so the Duato checker can use it as the
  /// canonical routing subfunction without re-deriving it.
  [[nodiscard]] const RoutingFunction& escape() const { return *escape_; }
  [[nodiscard]] std::uint8_t adaptive_vc_lo() const { return adaptive_vc_lo_; }

 private:
  std::unique_ptr<RoutingFunction> escape_;
  std::uint8_t adaptive_vc_lo_;
  std::string label_;
};

/// Mesh instantiation (needs >= 2 VCs): escape e-cube on vc0.
[[nodiscard]] std::unique_ptr<DuatoAdaptive> make_duato_mesh(
    const Topology& topo);

/// Hypercube instantiation (needs >= 2 VCs): escape e-cube on vc0.
[[nodiscard]] std::unique_ptr<DuatoAdaptive> make_duato_hypercube(
    const Topology& topo);

/// Torus instantiation (needs >= 3 VCs): escape dateline on vc0/vc1.
[[nodiscard]] std::unique_ptr<DuatoAdaptive> make_duato_torus(
    const Topology& topo);

}  // namespace wormnet::routing
