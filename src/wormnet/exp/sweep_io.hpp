// Sweep output writers: JSONL and CSV, both deterministic.
//
// Rows appear in canonical point order with obs-style number formatting
// (shortest round-trip doubles), so two runs of the same spec — at any
// thread counts — produce byte-identical files.  Wall-clock time and other
// environment-dependent values are deliberately excluded; cache hit/miss
// counts are included because they are spec-determined (one miss per unique
// (topology, routing) key, hits = points - misses).
#pragma once

#include <ostream>

#include "wormnet/exp/sweep_runner.hpp"

namespace wormnet::exp {

struct SweepIoOptions {
  /// Append the wall-clock timing column (`point_ms`) to every row.  Wall
  /// time is environment-dependent, so this defaults to off: the default
  /// outputs stay byte-identical across runs, hosts, and thread counts (the
  /// property the golden tests pin).  `wormnet-sweep --profile` turns it on.
  bool timings = false;
};

/// One JSON object per point, then one trailing summary object
/// ({"aggregate":…,"skipped":…,"cache":…}).
void write_jsonl(std::ostream& os, const SweepOutcome& outcome,
                 const SweepIoOptions& options = {});

/// RFC-4180-style CSV: a header row then one row per point.  The aggregate
/// is not embedded (CSV consumers recompute or read the JSONL).
void write_csv(std::ostream& os, const SweepOutcome& outcome,
               const SweepIoOptions& options = {});

/// Writes a postmortem of a run on `topo_spec` as `wormnet-sweep
/// --postmortem-dir` does: judged by `cache` (certify on, so a certified
/// verdict carries C1) against the relation its stamp names.  Throws
/// std::invalid_argument for a non-canonical stamp.
void write_postmortem(std::ostream& os, AnalysisCache& cache,
                      const std::string& topo_spec,
                      const obs::RuntimePostmortem& runtime);

}  // namespace wormnet::exp
