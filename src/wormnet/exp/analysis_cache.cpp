#include "wormnet/exp/analysis_cache.hpp"

#include <optional>

#include "wormnet/core/registry.hpp"
#include "wormnet/core/verifier.hpp"

namespace wormnet::exp {

const AnalysisEntry& AnalysisCache::get(
    const std::string& topo_spec, const reconfig::RelationExpr& relation,
    bool masked_epochs_follow) {
  Slot* slot = nullptr;
  {
    std::lock_guard lock(registry_mutex_);
    auto& owned = slots_[relation.key(topo_spec)];
    if (!owned) owned = std::make_unique<Slot>();
    slot = owned.get();
  }
  // Fast path: already published (acquire pairs with the release below).
  if (slot->ready.load(std::memory_order_acquire)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return slot->entry;
  }
  std::lock_guard fill_lock(slot->fill);
  if (slot->ready.load(std::memory_order_acquire)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return slot->entry;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);

  // Every epoch but a pristine registry relation shares the topology of its
  // base relation's entry.  The nested get() is lock-safe: it only ever
  // takes registry_mutex_ and its own slot's fill mutex, never this one.
  // A masked registry relation's base is its unmasked parent, so that get()
  // keeps the graph this epoch derives from.
  const bool pristine_registry =
      !relation.transition && relation.fault_mask.empty();
  const AnalysisEntry* base =
      pristine_registry
          ? nullptr
          : &get(topo_spec,
                 reconfig::RelationExpr(relation.transition
                                            ? relation.transition->names[0]
                                            : relation.routing),
                 !relation.transition);
  obs::Profiler::Scope miss_timer(
      profiler_, pristine_registry ? "sweep.analysis" : "sweep.epoch_reverify");

  AnalysisEntry entry;
  entry.topo = base != nullptr ? base->topo
                               : std::make_shared<const topology::Topology>(
                                     core::make_topology(topo_spec));
  reconfig::RelationExpr canonical = relation;
  if (!canonical.transition) {
    canonical.routing =
        core::canonical_algorithm_name(relation.routing, *entry.topo);
  }

  // An unmasked relation whose masked epochs follow is verified on the
  // graph kept for them.  A masked epoch's graph is its parent's minus the
  // dead channels; the parent is built (once) before the derivation is
  // timed.  Any other relation gets a transient graph.
  const cdg::StateGraph* states = nullptr;
  std::unique_ptr<routing::RoutingFunction> algorithm;
  std::optional<cdg::StateGraph> transient;
  if (canonical.fault_mask.empty() && masked_epochs_follow) {
    states = &parent_states(topo_spec, *entry.topo, canonical);
  } else {
    const cdg::StateGraph* parent = nullptr;
    if (!canonical.fault_mask.empty()) {
      reconfig::RelationExpr unmasked = canonical;
      unmasked.fault_mask.clear();
      parent = &parent_states(topo_spec, *entry.topo, unmasked);
    }
    algorithm = canonical.build(*entry.topo);
    obs::Profiler::Scope timer(profiler_, "verify.state_graph");
    if (parent != nullptr) {
      transient.emplace(*parent, *algorithm, canonical.fault_mask);
    } else {
      transient.emplace(*entry.topo, *algorithm);
    }
    states = &*transient;
  }

  core::VerifyOptions options;
  options.method = core::Method::kDuato;
  options.profiler = profiler_;
  if (certify_) {
    core::CertifiedVerdict certified = core::verify_certified(*states, options);
    entry.duato = std::move(certified.verdict);
    if (certified.certificate) {
      // Rebind the labels to the registry coordinates so the certificate
      // names the exact relation it was emitted for.
      certified.certificate->topology = topo_spec;
      certified.certificate->relation = canonical.to_string();
      entry.certificate = std::make_shared<const audit::Certificate>(
          std::move(*certified.certificate));
    }
  } else {
    entry.duato = core::verify(*states, options);
  }
  entry.certified =
      entry.duato.conclusion == core::Conclusion::kDeadlockFree;
  if (with_cwg_ && pristine_registry) {
    options.method = core::Method::kCwg;
    entry.cwg = core::verify(*states, options);
  }

  slot->entry = std::move(entry);
  slot->ready.store(true, std::memory_order_release);
  return slot->entry;
}

const cdg::StateGraph& AnalysisCache::parent_states(
    const std::string& topo_spec, const topology::Topology& topo,
    const reconfig::RelationExpr& parent) {
  Parent* kept = nullptr;
  {
    std::lock_guard lock(registry_mutex_);
    auto& owned = parents_[parent.key(topo_spec)];
    if (!owned) owned = std::make_unique<Parent>();
    kept = owned.get();
  }
  std::lock_guard fill_lock(kept->fill);
  if (!kept->states) {
    kept->relation = parent.build(topo);
    obs::Profiler::Scope timer(profiler_, "verify.state_graph");
    kept->states = std::make_unique<const cdg::StateGraph>(topo,
                                                           *kept->relation);
  }
  return *kept->states;
}

std::vector<CertificateRecord> AnalysisCache::certificates() {
  std::vector<CertificateRecord> out;
  std::lock_guard lock(registry_mutex_);
  for (const auto& [key, slot] : slots_) {
    if (!slot->ready.load(std::memory_order_acquire)) continue;
    if (slot->entry.certificate) {
      out.push_back({key, slot->entry.certificate});
    }
  }
  return out;
}

}  // namespace wormnet::exp
