// Memoized static analysis for sweep grids.
//
// A sweep visits each (topology, routing) pair once per pattern × load ×
// replication, but CDG construction and the Duato / CWG verdicts depend
// only on the pair itself.  The cache computes them once per key and shares
// the result across every point and every worker thread; on the reference
// grids this turns thousands of checker invocations into a handful.
//
// A masked epoch's reachable-state graph is derived from its unmasked
// parent's (cdg::StateGraph's derive constructor) rather than built through
// the relation.  The cache keeps each parent's relation and graph for its
// lifetime, built on the first request that says masked epochs of that
// parent follow (or on the first masked request), and the parent's own
// verdict is computed on that kept graph.  Other unmasked epochs build a
// transient graph and keep nothing, so a fault-free sweep keeps no graph.
//
// Thread safety: keyed slots are created under a registry mutex, then each
// slot is filled under its own mutex — so two workers asking for the same
// uncached key block on that key only, while different keys compute
// concurrently.  Parent graphs follow the same discipline.  Results are
// immutable once published.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "wormnet/audit/certificate.hpp"
#include "wormnet/cdg/states.hpp"
#include "wormnet/core/verdict.hpp"
#include "wormnet/obs/profiler.hpp"
#include "wormnet/reconfig/union_routing.hpp"
#include "wormnet/topology/topology.hpp"

namespace wormnet::exp {

struct AnalysisEntry {
  std::shared_ptr<const topology::Topology> topo;
  core::Verdict duato;  ///< Method::kDuato verdict
  core::Verdict cwg;    ///< Method::kCwg verdict (kUnknown when disabled)
  /// True iff the Duato checker proved the pair deadlock-free — the
  /// certification the differential tests compare simulator behaviour
  /// against (a deadlock on a certified pair falsifies the theorem or,
  /// far more likely, the implementation).
  bool certified = false;
  /// Proof-carrying certificate for the decisive verdict, when emission is
  /// on and the verdict admits one.  Its topology field carries the
  /// registry spec and its relation field the epoch's canonical
  /// RelationExpr text, so `wormnet-audit` can rebuild the exact relation
  /// it speaks about.
  std::shared_ptr<const audit::Certificate> certificate;
};

/// One persisted certificate, in deterministic (cache-key) order.
struct CertificateRecord {
  std::string key;  ///< reconfig::RelationExpr::key
  std::shared_ptr<const audit::Certificate> certificate;
};

class AnalysisCache {
 public:
  /// `with_cwg` additionally runs the channel-waiting-graph reduction per
  /// key; off by default because sweeps only need the Duato certification.
  /// `profiler` (borrowed, nullable) times each cache miss as
  /// "sweep.analysis" / "sweep.epoch_reverify" and is passed down to the
  /// verifier for its per-method phases; hits cost nothing.
  /// `certify` additionally emits the proof-carrying certificate on every
  /// cache miss (verify_certified instead of verify); certificates persist
  /// alongside the verdicts and can be drained with certificates().
  explicit AnalysisCache(bool with_cwg = false,
                         obs::Profiler* profiler = nullptr,
                         bool certify = false)
      : with_cwg_(with_cwg), certify_(certify), profiler_(profiler) {}

  /// Returns the entry for one epoch relation on a topology spec, computing
  /// it on first use.  Keyed by `relation.key(topo_spec)`, so a sweep
  /// verifies each distinct pristine, faulted, transition or composed epoch
  /// exactly once no matter how many points — or threads — pass through
  /// it.  CWG analysis only ever runs for pristine registry relations.  An
  /// emitted certificate's relation is the expression's text, with the
  /// canonical routing name.  The reference stays valid for the cache's
  /// lifetime.  Throws std::invalid_argument for specs/names that do not
  /// resolve (expand() normally filters these out beforehand).
  /// `masked_epochs_follow` says the caller will also ask for masked epochs
  /// of the unmasked `relation`: on a miss its state graph is then built
  /// once, kept as the parent those epochs derive from, and verified on.
  const AnalysisEntry& get(const std::string& topo_spec,
                           const reconfig::RelationExpr& relation,
                           bool masked_epochs_follow = false);

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }

  /// Snapshot of every emitted certificate, in cache-key order (so output
  /// is deterministic regardless of which threads filled which slots).
  /// Empty unless constructed with certify = true.
  [[nodiscard]] std::vector<CertificateRecord> certificates();

 private:
  struct Slot {
    std::mutex fill;
    std::atomic<bool> ready{false};
    AnalysisEntry entry;
  };

  /// An unmasked relation kept for deriving its masked epochs' graphs.
  struct Parent {
    std::mutex fill;
    std::unique_ptr<routing::RoutingFunction> relation;
    std::unique_ptr<const cdg::StateGraph> states;
  };

  /// The kept state graph of `parent` (an unmasked expression with its
  /// canonical routing name) on `topo`, built on first use under the
  /// "verify.state_graph" phase.
  const cdg::StateGraph& parent_states(const std::string& topo_spec,
                                       const topology::Topology& topo,
                                       const reconfig::RelationExpr& parent);

  bool with_cwg_;
  bool certify_;
  obs::Profiler* profiler_;
  std::mutex registry_mutex_;
  std::map<std::string, std::unique_ptr<Slot>> slots_;
  std::map<std::string, std::unique_ptr<Parent>> parents_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace wormnet::exp
