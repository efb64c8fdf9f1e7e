#include "wormnet/reconfig/planner.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

#include "wormnet/core/registry.hpp"
#include "wormnet/core/verifier.hpp"
#include "wormnet/ft/fault_plan.hpp"
#include "wormnet/reconfig/union_routing.hpp"

namespace wormnet::reconfig {

namespace {

using topology::ChannelId;

/// Budget-counted, memoized Duato certifier for candidate stage unions.
/// Duplicate epochs (to_string-identical specs) are free, which is what
/// makes found plans monotone in the budget.  A relation that cannot be
/// built or verified (e.g. a mask disconnecting the network) counts as a
/// refutation.
class BudgetedCertifier {
 public:
  BudgetedCertifier(const Topology& topo, const PlannerOptions& options)
      : topo_(&topo), budget_(options.budget) {}

  bool ok(const UnionSpec& spec) {
    const std::string key = spec.to_string();
    const auto it = memo_.find(key);
    if (it != memo_.end()) return it->second.first;
    if (calls_ >= budget_) {
      exhausted_ = true;
      return false;
    }
    ++calls_;
    core::Verdict verdict;
    bool good = false;
    try {
      verdict = core::verify(*topo_, *RelationExpr(spec).build(*topo_));
      good = verdict.conclusion == core::Conclusion::kDeadlockFree;
    } catch (const std::exception& e) {
      // A mask or intermediate that disconnects the network surfaces as a
      // construction/verification throw; for the search it is a refutation.
      verdict.conclusion = core::Conclusion::kDeadlockable;
      verdict.detail = std::string("certifier threw: ") + e.what();
    }
    memo_.emplace(key, std::make_pair(good, std::move(verdict)));
    return good;
  }

  [[nodiscard]] const core::Verdict* verdict(const UnionSpec& spec) const {
    const auto it = memo_.find(spec.to_string());
    return it == memo_.end() ? nullptr : &it->second.second;
  }

  [[nodiscard]] std::size_t calls() const noexcept { return calls_; }
  [[nodiscard]] bool exhausted() const noexcept { return exhausted_; }

 private:
  const Topology* topo_;
  std::size_t budget_;
  std::size_t calls_ = 0;
  bool exhausted_ = false;
  std::map<std::string, std::pair<bool, core::Verdict>> memo_;
};

TransitionEvent switch_event(const std::string& target, std::uint64_t cycle) {
  TransitionEvent ev;
  ev.kind = TransitionEvent::Kind::kSwitch;
  ev.cycle = cycle;
  ev.target = target;
  return ev;
}

TransitionEvent barrier_event(const std::string& target, std::uint64_t cycle) {
  TransitionEvent ev;
  ev.kind = TransitionEvent::Kind::kBarrier;
  ev.cycle = cycle;
  ev.target = target;
  return ev;
}

TransitionEvent barrier_stage_event(const std::string& target, NodeId dest,
                                    std::uint64_t cycle) {
  TransitionEvent ev = barrier_event(target, cycle);
  ev.ranged = true;
  ev.lo = dest;
  ev.hi = dest;
  return ev;
}

/// Compiles `candidate` and certifies its verification epochs in order
/// (first refuted epoch aborts, so failed candidates usually cost one
/// call).  On success fills `result` and returns true.
bool try_candidate(const Topology& topo, const std::string& base,
                   const TransitionPlan& candidate,
                   const std::string& strategy,
                   BudgetedCertifier& certifier, StagedPlan& result) {
  std::vector<UnionSpec> epochs;
  try {
    epochs = compile(candidate, topo, base).verification_epochs();
  } catch (const std::exception&) {
    return false;
  }
  for (const UnionSpec& epoch : epochs) {
    if (!certifier.ok(epoch)) return false;
  }
  result.certified = true;
  result.strategy = strategy;
  result.stages = std::move(epochs);
  result.plan = candidate;
  return true;
}

}  // namespace

StagedPlan plan_certified_transition(const Topology& topo,
                                     const std::string& base_name,
                                     const std::string& target_name,
                                     const PlannerOptions& options) {
  const std::string base = core::canonical_algorithm_name(base_name, topo);
  (void)core::make_algorithm(base, topo);
  const std::string target = canonical_member(topo, target_name);
  const std::uint64_t start = options.start_cycle;
  const std::uint64_t stride =
      std::max<std::uint64_t>(std::uint64_t{1}, options.stage_stride);
  const std::size_t n = topo.num_nodes();

  StagedPlan result;
  if (target == base) {
    result.certified = true;
    result.strategy = "identity";
    result.detail = "target equals base; nothing to migrate";
    return result;
  }

  BudgetedCertifier certifier(topo, options);

  // Rung 0: the pure target.  No staging order can end at a refuted
  // relation, so a refutation here ends the search immediately.
  UnionSpec pure_target;
  pure_target.num_nodes = n;
  pure_target.names = {base, target};
  pure_target.active = {std::vector<bool>(n, false),
                        std::vector<bool>(n, true)};
  if (!certifier.ok(pure_target)) {
    result.strategy = "target-refuted";
    result.verify_calls = certifier.calls();
    result.detail =
        "the target relation itself is refuted; no staging order can exist";
    return result;
  }

  // Rung 1: the naive single switch (PR 9's only strategy).
  TransitionPlan naive;
  naive.events.push_back(switch_event(target, start));
  if (try_candidate(topo, base, naive, "naive", certifier, result)) {
    result.verify_calls = certifier.calls();
    result.detail =
        "the naive cumulative union is certified; no staging needed";
    return result;
  }

  // Rung 2: one registry intermediate R — switch every destination to R,
  // drain behind a barrier, then switch to the target.  The epochs are
  // union(base, R), union(R, target) and the pure target.
  for (const auto* entry : core::algorithms_for(topo)) {
    if (certifier.exhausted()) break;
    const std::string& mid = entry->name;
    if (mid == base || mid == target) continue;
    TransitionPlan candidate;
    candidate.events.push_back(switch_event(mid, start));
    candidate.events.push_back(barrier_event(target, start + stride));
    if (try_candidate(topo, base, candidate, "intermediate:" + mid, certifier,
                      result)) {
      result.verify_calls = certifier.calls();
      result.detail = "staged through registry intermediate " + mid +
                      " behind a drain barrier";
      return result;
    }
  }

  // Rung 3: a per-channel migration mask — switch to the target minus one
  // channel, drain, lift the restriction behind a barrier.  Channels on
  // the naive refutation's witness cycle break that cycle directly, so
  // they are tried first.
  if (split_member(topo, target).second.empty()) {
    const std::size_t channels = topo.num_channels();
    UnionSpec naive_union;
    naive_union.num_nodes = n;
    naive_union.names = {base, target};
    naive_union.active = {std::vector<bool>(n, true),
                          std::vector<bool>(n, true)};
    std::vector<ChannelId> order;
    std::vector<bool> queued(channels, false);
    if (const core::Verdict* refutation = certifier.verdict(naive_union)) {
      for (const ChannelId c : refutation->witness_channels) {
        if (c < channels && !queued[c]) {
          queued[c] = true;
          order.push_back(c);
        }
      }
    }
    for (std::size_t c = 0; c < channels; ++c) {
      if (!queued[c]) order.push_back(static_cast<ChannelId>(c));
    }
    for (const ChannelId c : order) {
      if (certifier.exhausted()) break;
      std::vector<bool> allowed(channels, true);
      allowed[c] = false;
      const std::string hex = ft::mask_to_hex(allowed);
      TransitionPlan candidate;
      candidate.events.push_back(switch_event(target + '%' + hex, start));
      candidate.events.push_back(barrier_event(target, start + stride));
      if (try_candidate(topo, base, candidate, "masked:" + hex, certifier,
                        result)) {
        result.verify_calls = certifier.calls();
        result.detail = "migrated behind per-channel mask " + hex +
                        " (channel " + std::to_string(c) +
                        " withheld), then lifted it behind a drain barrier";
        return result;
      }
    }
  }

  // Rung 4: one destination per drain barrier, ascending.  The barrier
  // reset keeps each stage's union down to two relations spanning a
  // single migrating destination — the finest order the per-destination
  // cutover model can express.
  if (!certifier.exhausted()) {
    TransitionPlan candidate;
    for (std::size_t d = 0; d < n; ++d) {
      candidate.events.push_back(barrier_stage_event(
          target, static_cast<NodeId>(d), start + d * stride));
    }
    if (try_candidate(topo, base, candidate, "per-dest-barrier", certifier,
                      result)) {
      result.verify_calls = certifier.calls();
      result.detail =
          "migrated one destination per drain barrier, ascending";
      return result;
    }
  }

  result.strategy = certifier.exhausted() ? "budget-exhausted" : "none";
  result.verify_calls = certifier.calls();
  result.detail =
      certifier.exhausted()
          ? "verification budget exhausted before a certified order was found"
          : "no strategy in the ladder yields a fully certified staging order";
  return result;
}

}  // namespace wormnet::reconfig
