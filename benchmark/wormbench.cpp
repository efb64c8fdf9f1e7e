// wormbench — runs one workload of the repository benchmark in one
// single-threaded process and writes what it measured to a directory.
//
//   wormbench --workload NAME --seed N --seconds S --out DIR [--trace] [--smoke]
//   wormbench --describe NAME [--smoke]
//
// A run is set-up (the inputs of kPreparedJobs jobs, built from the seed),
// then short jobs, one after another, until S seconds have passed (at least
// kMinJobs).  Job j runs the inputs prepared for job j mod kPreparedJobs.
// Every job of a workload has the same shape and differs only in its seeded
// details, so the job time is a sample of one quantity and its median over a
// run is steady.  Set-up is timed again after every job, so its median too
// samples the whole run.  Load is closed-loop: each request or sweep starts
// when the previous one has finished.
//
// A yardstick, a fixed piece of the benchmark's own work, is timed before
// and after every operation and every set-up.  Its samples cut each job into
// segments; run.py uses the samples on both sides of a segment to rate the
// host's speed while the segment ran.
//
// Untraced runs time each job and each operation (a verify request or a sweep
// point).  Traced runs (--trace) run each job twice, once untraced and once
// with spans around every call into the library, alternating which goes
// first; the pair gives the tracing overhead, the spans give per-layer self
// times.  Spans are kept in memory and written when the run ends.
//
// Files written to DIR (benchmark/run.py reads and checks them):
//   result.json        timings, per-layer numbers, counters, errors
//   rows.jsonl         untraced output rows, each tagged with its job (and,
//                      for sweeps, the cycle horizon)
//   certs.txt          certificates of job 0, one JSON document per request
//   rows_traced.jsonl  traced output rows (traced runs only)
//   certs_traced.txt   traced certificates of job 0 (traced runs only)
//   spans.json         spans and counters (traced runs only)
//
// The benchmark calls only these library entry points: core::make_topology,
// core::make_algorithm, core::verify_certified, core::certify_duato,
// cdg::StateGraph, cdg::search, audit::check, exp::parse_grid,
// exp::run_sweep, exp::write_jsonl, obs::ProbeScope, obs::Profiler and, in
// traced runs, reconfig::parse_transition_plan / reconfig::compile.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "wormnet/audit/check.hpp"
#include "wormnet/cdg/duato_checker.hpp"
#include "wormnet/cdg/states.hpp"
#include "wormnet/core/certify.hpp"
#include "wormnet/core/registry.hpp"
#include "wormnet/core/verifier.hpp"
#include "wormnet/exp/sweep_io.hpp"
#include "wormnet/exp/sweep_runner.hpp"
#include "wormnet/exp/sweep_spec.hpp"
#include "wormnet/obs/probe.hpp"
#include "wormnet/obs/profiler.hpp"
#include "wormnet/reconfig/transition_plan.hpp"

namespace {

using namespace wormnet;
using Clock = std::chrono::steady_clock;

/// Jobs whose inputs set-up builds; later jobs reuse them in turn.
constexpr std::size_t kPreparedJobs = 64;
/// Jobs a run makes however short its time, so its medians rest on several.
constexpr std::size_t kMinJobs = 4;

const Clock::time_point kEpoch = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

double ms_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) / 1e6;
}

/// SplitMix64: a fully specified generator, so the inputs a seed produces do
/// not depend on the standard library's distribution algorithms.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// The seed of job `job` of a workload: a pure function of the run seed.
std::uint64_t job_seed(std::uint64_t seed, std::size_t job, std::uint64_t salt) {
  Rng rng(seed * 0x100000001b3ULL + salt);
  for (std::size_t i = 0; i <= job; ++i) rng.next();
  return rng.next() % 1000000007ULL + 1;
}

// ---------------------------------------------------------------------------
// Yardstick: how fast the host runs, sampled between operations.

/// A job's time line cut by yardstick samples: segment k is the timed work
/// that ran between sample k and sample k + 1.
struct Timeline {
  std::vector<double> sample_ms;
  std::vector<double> segment_ms;
  std::int64_t yardstick_ns = 0;  ///< time spent sampling
};

/// A fixed piece of work that belongs to the benchmark, so no change to the
/// library moves it.  The host changes speed under the benchmark by about
/// 1.5x, back and forth, over seconds to minutes (README, "Host speed"); the
/// yardstick's time just before and just after a stretch of work tells how
/// fast the host ran it.  A sample fills and probes a hash map and runs a
/// breadth-first search over a random graph: allocation, hashing, branches
/// and short dependent loads, the mix of the library's state-graph searches
/// and simulator.  (Dependent multiply chains and long pointer chases were
/// tried too; they do not slow down when the library does.)
class Yardstick {
 public:
  Yardstick() : keys_(kKeys), edges_(kNodes * kDegree) {
    Rng rng(0x2545f4914f6cdd1dULL);
    for (std::uint32_t& k : keys_) k = static_cast<std::uint32_t>(rng.next());
    for (std::uint32_t& e : edges_) {
      e = static_cast<std::uint32_t>(rng.below(kNodes));
    }
  }

  static std::string describe() {
    return "yardstick hash_map_keys=" + std::to_string(kKeys) +
           " bfs_nodes=" + std::to_string(kNodes) +
           " bfs_degree=" + std::to_string(kDegree);
  }

  void sample(Timeline& line) {
    const std::int64_t t0 = now_ns();
    work();
    const std::int64_t t1 = now_ns();
    line.sample_ms.push_back(ms_between(t0, t1));
    line.yardstick_ns += t1 - t0;
  }

 private:
  /// One sample's work, freeing included.
  void work() {
    std::unordered_map<std::uint32_t, std::uint32_t> map;
    map.reserve(kKeys);
    for (const std::uint32_t k : keys_) map[k * 2654435761U + salt_] += k;
    std::size_t found = 0;
    for (const std::uint32_t k : keys_) found += map.count(k * 2654435761U);

    std::vector<std::uint32_t> depth(kNodes, ~0U);
    std::vector<std::uint32_t> queue;
    queue.reserve(kNodes);
    const auto root = static_cast<std::uint32_t>((found + salt_) % kNodes);
    depth[root] = 0;
    queue.push_back(root);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::uint32_t u = queue[head];
      for (std::uint32_t e = u * kDegree; e < (u + 1) * kDegree; ++e) {
        if (depth[edges_[e]] == ~0U) {
          depth[edges_[e]] = depth[u] + 1;
          queue.push_back(edges_[e]);
        }
      }
    }
    // Feed the result forward so no part of the sample is dead code.
    salt_ = static_cast<std::uint32_t>(found + queue.size() + depth[queue.back()]);
  }

  static constexpr std::uint32_t kKeys = 8192;
  static constexpr std::uint32_t kNodes = 8192;
  static constexpr std::uint32_t kDegree = 6;
  std::vector<std::uint32_t> keys_;
  std::vector<std::uint32_t> edges_;  ///< node u's successors: [u*6, u*6+6)
  std::uint32_t salt_ = 0;
};

// ---------------------------------------------------------------------------
// JSON output (numbers at full precision; strings here are ASCII specs).

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string num_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ",";
    out += num(values[i]);
  }
  return out + "]";
}

template <typename Map>
std::string num_map(const Map& values) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : values) {
    if (!first) out += ",";
    first = false;
    out += quote(key) + ":" + num(static_cast<double>(value));
  }
  return out + "}";
}

// ---------------------------------------------------------------------------
// Spans: {id, parent, job, name, t0, t1}, kept in memory until the run ends.

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::int64_t job = -1;
  std::string name;
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;

  [[nodiscard]] double ms() const { return ms_between(t0_ns, t1_ns); }
};

class SpanLog {
 public:
  std::uint32_t open(std::uint32_t parent, std::int64_t job, std::string name) {
    return add(parent, job, std::move(name), now_ns(), 0);
  }
  /// Records a span whose bounds were measured elsewhere.
  std::uint32_t add(std::uint32_t parent, std::int64_t job, std::string name,
                    std::int64_t t0, std::int64_t t1) {
    const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
    spans_.push_back({id, parent, job, std::move(name), t0, t1});
    return id;
  }
  /// Ends span `id`; returns its duration in ms.
  double close(std::uint32_t id) {
    Span& span = spans_[id - 1];
    span.t1_ns = now_ns();
    return span.ms();
  }
  /// Runs `body(id)` inside a new span; returns the span's duration in ms.
  template <typename Body>
  double time(std::uint32_t parent, std::int64_t job, std::string name,
              Body&& body) {
    const std::uint32_t id = open(parent, job, std::move(name));
    try {
      body(id);
    } catch (...) {
      close(id);
      throw;
    }
    return close(id);
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Workload definitions.

/// One relation of the verify suite.  `cls` groups relations of similar
/// cost; the percentile report names the class each percentile lands in.
struct VerifyCase {
  std::string topology;
  std::string routing;
  std::string cls;
  int weight = 1;  ///< requests per job
};

struct SimSettings {
  std::uint64_t warmup = 0, measure = 0, drain = 0;
  std::uint32_t buffer_depth = 4;
  bool abort_retry = false;  ///< abort-retry recovery, budget 4, timeout 300
  bool rollback = false;     ///< transition guard per reconfig point
};

/// One run_sweep call of a job: a grid template whose "{seed}" and
/// "{faults}" placeholders are filled from the job seed.
struct SweepCall {
  std::string grid;
  SimSettings sim;
};

struct Workload {
  std::string name;
  std::vector<VerifyCase> suite;
  std::vector<SweepCall> calls;
  std::size_t fault_plans = 0;  ///< plans generated per job for "{faults}"
  std::string fault_topology;   ///< topology the plans are drawn against
  std::uint64_t salt = 0;
};

std::vector<Workload> workloads(bool smoke) {
  constexpr SimSettings kFaultSim{.warmup = 200, .measure = 1500,
                                  .drain = 4000, .abort_retry = true};
  constexpr SimSettings kChaosSim{.warmup = 200, .measure = 1500,
                                  .drain = 4000, .buffer_depth = 2,
                                  .abort_retry = true, .rollback = true};
  if (!smoke) {
    return {
        {.name = "verify",
         .suite = {{"mesh:8x8:2", "duato-mesh", "duato-construction"},
                   {"hypercube:6:2", "duato-hypercube", "duato-construction"},
                   {"torus:8x8:3", "duato-torus", "duato-construction"},
                   {"mesh:9x9:1", "west-first", "turn-model"},
                   {"mesh:9x9:1", "negative-first", "turn-model"},
                   {"torus:8x8:2", "dateline", "dateline"},
                   {"mesh:8x8:1", "hpl-minimal", "hpl"},
                   {"ring:7", "unrestricted", "small-cyclic"},
                   {"uniring:6:1", "unrestricted", "small-cyclic"},
                   {"ring:7:2", "unrestricted", "small-cyclic"},
                   {"mesh:4x4:2", "unrestricted", "budget", 2}},
         .salt = 1},
        {.name = "sweep_light",
         .calls = {{"topo=torus:8x8:3,mesh:8x8:2;routing=duato;"
                    "pattern=uniform,transpose,bit-complement;"
                    "load=0.02,0.05,0.1;seed={seed}",
                    {.warmup = 1000, .measure = 5000, .drain = 20000}}},
         .salt = 2},
        {.name = "sweep_saturated",
         // The first point of each call also verifies its relation, which
         // makes it the costliest.  Three calls of six points put one such
         // point in six, so p90 falls inside that class, not at its edge.
         .calls = {{"topo=torus:8x8:3;routing=duato;"
                    "pattern=uniform,transpose;load=0.5,0.7,0.9;"
                    "seed={seed}",
                    {.warmup = 200, .measure = 300, .drain = 1200}},
                   {"topo=mesh:8x8:2;routing=duato;"
                    "pattern=uniform,transpose;load=0.5,0.7,0.9;"
                    "seed={seed}",
                    {.warmup = 200, .measure = 300, .drain = 1200}},
                   {"topo=mesh:8x8:2;routing=duato;"
                    "pattern=uniform,transpose;load=0.5,0.7,0.9;"
                    "seed={seed}",
                    {.warmup = 200, .measure = 300, .drain = 1200}}},
         .salt = 3},
        {.name = "faults",
         .calls = {{"topo=mesh:8x8:2;routing=duato;load=0.15;"
                    "fault={faults};seed={seed}",
                    kFaultSim}},
         .fault_plans = 6,
         .fault_topology = "mesh:8x8:2",
         .salt = 4},
        {.name = "reconfig",
         .calls = {{"topo=mesh:4x4:1;routing=e-cube;load=0.3;"
                    "reconfig=plan:negative-first@300,plan:north-last@300,"
                    "ramp:west-first/4/50@300,"
                    "stage:negative-first/0-7@300+"
                    "stage:negative-first/8-15@600;reps=2;seed={seed}",
                    {.warmup = 200, .measure = 1500, .drain = 4000,
                     .buffer_depth = 2}},
                   {"topo=mesh:2x2:2;routing=e-cube;load=0.5;"
                    "reconfig=plan:negative-first@300;reps=2;seed={seed}",
                    {.warmup = 200, .measure = 1500, .drain = 4000,
                     .rollback = true}},
                   {"topo=mesh:4x4:2;routing=e-cube;load=0.8;"
                    "fault=killch:3@420,kill:5-6@500;"
                    "reconfig=switch:west-first@300;seed={seed}",
                    kChaosSim},
                   {"topo=mesh:3x3:1;routing=e-cube;load=0.8;"
                    "fault=kill:4-5@500;"
                    "reconfig=ramp:negative-first/3/50@300;reps=2;"
                    "seed={seed}",
                    kChaosSim}},
         .salt = 5},
    };
  }
  // Smoke: the same workloads, code paths and metric names on tiny inputs.
  return {
      {.name = "verify",
       .suite = {{"mesh:4x4:2", "duato-mesh", "duato-construction"},
                 {"mesh:4x4:1", "west-first", "turn-model"},
                 {"torus:4x4:2", "dateline", "dateline"},
                 {"mesh:4x4:1", "hpl-minimal", "hpl"},
                 {"ring:5", "unrestricted", "small-cyclic"},
                 {"uniring:4:1", "unrestricted", "small-cyclic"},
                 {"mesh:3x3:2", "unrestricted", "budget", 2}},
       .salt = 1},
      {.name = "sweep_light",
       .calls = {{"topo=mesh:4x4:2;routing=duato;pattern=uniform,transpose;"
                  "load=0.05;seed={seed}",
                  {.warmup = 100, .measure = 500, .drain = 2000}}},
       .salt = 2},
      {.name = "sweep_saturated",
       .calls = {{"topo=mesh:4x4:2;routing=duato;pattern=uniform;load=0.7;"
                  "seed={seed}",
                  {.warmup = 100, .measure = 500, .drain = 2000}}},
       .salt = 3},
      {.name = "faults",
       .calls = {{"topo=mesh:4x4:2;routing=duato;load=0.15;"
                  "fault={faults};seed={seed}",
                  kFaultSim}},
       .fault_plans = 4,
       .fault_topology = "mesh:4x4:2",
       .salt = 4},
      {.name = "reconfig",
       .calls = {{"topo=mesh:3x3:1;routing=e-cube;load=0.2;"
                  "reconfig=plan:north-last@100,ramp:west-first/3/50@100;"
                  "seed={seed}",
                  {.warmup = 100, .measure = 500, .drain = 2000,
                   .buffer_depth = 2}},
                 {"topo=mesh:3x3:2;routing=e-cube;load=0.5;"
                  "fault=killch:3@220;"
                  "reconfig=ramp:negative-first/3/50@100;seed={seed}",
                  {.warmup = 100, .measure = 500, .drain = 2000,
                   .buffer_depth = 2, .abort_retry = true,
                   .rollback = true}}},
       .salt = 5},
  };
}

/// Canonical text of a workload definition (hashed into every manifest).
std::string describe(const Workload& w) {
  std::ostringstream os;
  os << "workload " << w.name << "\nprepared_jobs " << kPreparedJobs
     << "\nmin_jobs " << kMinJobs << "\n" << Yardstick::describe() << "\n";
  if (!w.suite.empty()) os << "warmup one untimed request per relation\n";
  for (const VerifyCase& c : w.suite) {
    os << "verify " << c.topology << " " << c.routing << " class=" << c.cls
       << " weight=" << c.weight << "\n";
  }
  for (const SweepCall& call : w.calls) {
    const SimSettings& s = call.sim;
    os << "sweep " << call.grid << " cycles=" << s.warmup << "/" << s.measure
       << "/" << s.drain << " buffer_depth=" << s.buffer_depth
       << " abort_retry=" << s.abort_retry << " rollback=" << s.rollback
       << "\n";
  }
  if (w.fault_plans > 0) {
    os << "fault_plans " << w.fault_plans << " on " << w.fault_topology
       << ": killch on two vc>=1 channels at 400/800, rand:1/S at 1200\n";
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Set-up: everything a job needs, built from the seed.

/// A topology and a routing relation bound to it (the relation keeps a
/// reference to the topology, so both live behind stable pointers).
struct Relation {
  std::unique_ptr<topology::Topology> topo;
  std::unique_ptr<routing::RoutingFunction> routing;
};

struct PreparedCall {
  exp::SweepSpec spec;
  bool rollback = false;
};

struct Prepared {
  std::vector<Relation> suite;                    ///< verify: per case
  std::vector<std::vector<std::size_t>> orders;   ///< verify: per job
  std::vector<std::vector<PreparedCall>> calls;   ///< sweeps: per job
  std::map<std::string, std::unique_ptr<topology::Topology>> topologies;
};

std::string replace_all(std::string text, const std::string& from,
                        const std::string& to) {
  for (std::size_t pos = text.find(from); pos != std::string::npos;
       pos = text.find(from, pos + to.size())) {
    text.replace(pos, from.size(), to);
  }
  return text;
}

/// Fault plans for one job, all of one shape: a random vc>=1 channel dies at
/// cycle 400 and another at 800 (the escape layer survives, so both epochs
/// re-certify), then a random whole link at 1200 (which usually cuts the
/// escape layer: an uncertified epoch, and abort-retry recovers).  One shape
/// keeps the plans' costs in one class, so the percentiles never sit in a
/// gap between classes.
std::string fault_plans(const topology::Topology& topo, std::size_t count,
                        std::uint64_t seed) {
  std::vector<topology::ChannelId> upper;
  for (topology::ChannelId c = 0; c < topo.num_channels(); ++c) {
    if (topo.channel(c).vc >= 1) upper.push_back(c);
  }
  if (upper.empty()) throw std::invalid_argument("fault topology has one VC");
  Rng rng(seed);
  std::string out;
  for (std::size_t p = 0; p < count; ++p) {
    if (p) out += ",";
    std::set<topology::ChannelId> used;
    for (int k = 0; k < 3; ++k) {
      if (k) out += "+";
      const std::uint64_t cycle = 400 * static_cast<std::uint64_t>(k + 1);
      if (k == 2) {
        out += "rand:1/" + std::to_string(rng.below(1000000) + 1) + "@" +
               std::to_string(cycle);
      } else {
        topology::ChannelId c = upper[rng.below(upper.size())];
        while (used.count(c)) c = upper[rng.below(upper.size())];
        used.insert(c);
        out += "killch:" + std::to_string(c) + "@" + std::to_string(cycle);
      }
    }
  }
  return out;
}

const topology::Topology& topology_for(Prepared& prep, const std::string& spec) {
  auto& slot = prep.topologies[spec];
  if (!slot) {
    slot = std::make_unique<topology::Topology>(core::make_topology(spec));
  }
  return *slot;
}

Prepared prepare(const Workload& w, std::uint64_t seed, std::size_t jobs) {
  Prepared prep;
  for (const VerifyCase& c : w.suite) {
    Relation rel;
    rel.topo = std::make_unique<topology::Topology>(
        core::make_topology(c.topology));
    rel.routing = core::make_algorithm(c.routing, *rel.topo);
    prep.suite.push_back(std::move(rel));
  }
  for (std::size_t job = 0; job < jobs; ++job) {
    const std::uint64_t js = job_seed(seed, job, w.salt);
    if (!w.suite.empty()) {
      // A seeded Fisher-Yates shuffle of the job's weighted request list.
      std::vector<std::size_t> order;
      for (std::size_t i = 0; i < w.suite.size(); ++i) {
        for (int k = 0; k < w.suite[i].weight; ++k) order.push_back(i);
      }
      Rng rng(js);
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.below(i)]);
      }
      prep.orders.push_back(std::move(order));
    }
    std::vector<PreparedCall> calls;
    for (std::size_t k = 0; k < w.calls.size(); ++k) {
      const SweepCall& call = w.calls[k];
      std::string grid = replace_all(call.grid, "{seed}",
                                     std::to_string(js + k));
      if (w.fault_plans > 0) {
        grid = replace_all(
            grid, "{faults}",
            fault_plans(topology_for(prep, w.fault_topology), w.fault_plans,
                        js ^ 0x5bd1e995ULL));
      }
      PreparedCall pc;
      pc.spec = exp::parse_grid(grid);
      sim::SimConfig& base = pc.spec.base;
      base.warmup_cycles = call.sim.warmup;
      base.measure_cycles = call.sim.measure;
      base.drain_cycles = call.sim.drain;
      base.buffer_depth = call.sim.buffer_depth;
      if (call.sim.abort_retry) {
        base.recovery.policy = ft::RecoveryPolicy::kAbortRetry;
        base.recovery.retry_budget = 4;
        base.recovery.packet_timeout = 300;
      }
      pc.rollback = call.sim.rollback;
      // Build every relation the grid names, as a user's driver would
      // before submitting it (and as the compile probes need).
      for (const std::string& topo_spec : pc.spec.topologies) {
        const topology::Topology& topo = topology_for(prep, topo_spec);
        for (const std::string& routing : pc.spec.routings) {
          (void)core::make_algorithm(routing, topo);
        }
      }
      calls.push_back(std::move(pc));
    }
    prep.calls.push_back(std::move(calls));
  }
  return prep;
}

// ---------------------------------------------------------------------------
// Jobs.

struct Op {
  std::int64_t job = 0;
  std::string label;
  std::string cls;
  double ms = 0.0;
  std::size_t segment = 0;  ///< the timeline segment the operation ran in
};

/// What one job produced.  Rows are the deterministic outputs (checked and
/// digested by run.py); timings are kept apart from them.
struct JobOutput {
  double wall_s = 0.0;  ///< the sum of the timeline's segments
  Timeline timeline;
  std::vector<Op> ops;
  std::string rows;  ///< JSONL, each line tagged with the job index
  std::uint64_t delivered_flits = 0;
  std::vector<std::string> errors;
};

/// Per-layer self times (ms), informational gross times (ms) and counters,
/// accumulated over traced jobs.
struct Layers {
  std::map<std::string, double> self_ms;
  std::map<std::string, double> info_ms;
  std::map<std::string, double> counts;  ///< job 0 only
  std::vector<double> point_ms;          ///< traced sweep points
};

/// The stages of cdg::search, as its phase timers name them.
constexpr const char* kSearchStages[] = {"full_set", "seeded", "vc_classes",
                                         "greedy", "exhaustive"};

std::string tag(std::size_t job, const std::string& json_object_line) {
  return "{\"job\":" + std::to_string(job) + "," +
         json_object_line.substr(1) + "\n";
}

/// Hash of the first certificate JSON seen per suite case: every later
/// request for the case must reproduce it byte for byte.
using CertMemo = std::vector<std::optional<std::size_t>>;

/// What one verify request produced.
struct Request {
  core::Conclusion conclusion = core::Conclusion::kUnknown;
  std::optional<audit::Certificate> cert;
  std::optional<audit::AuditResult> audit_result;
  obs::CheckerStats probe;  ///< traced requests only
  std::size_t reachable_states = 0;
};

/// Verifies one request's relation.  Untraced requests call
/// verify_certified; traced ones run the same pipeline one public step at a
/// time, each inside a span, and add their self times to `layers`.
Request verify_request(const Relation& rel, std::int64_t job, SpanLog* trace,
                       Layers* layers) {
  Request req;
  if (trace == nullptr) {
    core::CertifiedVerdict cv = core::verify_certified(*rel.topo, *rel.routing);
    req.conclusion = cv.verdict.conclusion;
    req.cert = std::move(cv.certificate);
    if (req.cert) {
      req.audit_result = audit::check(*rel.topo, *rel.routing, *req.cert);
    }
    return req;
  }
  const std::uint32_t rs = trace->open(0, job, "request");
  std::optional<cdg::StateGraph> states;
  cdg::SearchResult result;
  const double states_ms = trace->time(rs, job, "cdg.states", [&](auto) {
    states.emplace(*rel.topo, *rel.routing);
  });
  const double search_ms = trace->time(rs, job, "cdg.search", [&](auto) {
    const obs::ProbeScope probe(req.probe);
    result = cdg::search(*states);
  });
  const double certify_ms = trace->time(rs, job, "core.certify", [&](auto) {
    req.cert = core::certify_duato(*states, result);
  });
  const double audit_ms = trace->time(rs, job, "audit.check", [&](auto) {
    if (req.cert) {
      req.audit_result = audit::check(*rel.topo, *rel.routing, *req.cert);
    }
  });
  trace->close(rs);
  // verify_certified's rule: a found subfunction proves freedom, a
  // refutation carries a refuted certificate, anything else is unknown.
  if (result.found) {
    req.conclusion = core::Conclusion::kDeadlockFree;
  } else if (req.cert && req.cert->kind == audit::CertKind::kRefuted) {
    req.conclusion = core::Conclusion::kDeadlockable;
  }
  req.reachable_states = states->num_reachable_states();

  const auto phase = [&](const std::string& name) {
    const auto it = req.probe.phase_seconds.find(name);
    return it == req.probe.phase_seconds.end() ? 0.0 : it->second * 1e3;
  };
  // ecdg_build runs inside the search stages; search is reported net of it.
  const double ecdg_ms = phase("ecdg_build");
  layers->self_ms["cdg.states_ms"] += states_ms;
  layers->self_ms["cdg.ecdg_build_ms"] += ecdg_ms;
  layers->self_ms["cdg.search_ms"] += search_ms - ecdg_ms;
  layers->self_ms["core.certify_ms"] += certify_ms;
  layers->self_ms["audit.check_ms"] += audit_ms;
  for (const char* stage : kSearchStages) {
    layers->info_ms[std::string("cdg.search_") + stage + "_ms"] +=
        phase(std::string("search_") + stage);
  }
  return req;
}

/// One verify job.  Only the requests are timed: the job's wall time is the
/// sum of their latencies, and request k is segment k of the timeline.  Each
/// request's bookkeeping (certificate JSON, rows, counters) runs between
/// requests, untimed, and drops the certificate, so the process never holds
/// more than one.  Job 0 writes its certificates to `certs`.
JobOutput run_verify_job(const Workload& w, const Prepared& prep,
                         std::size_t job, CertMemo& memo, std::ostream& certs,
                         Yardstick& stick, SpanLog* trace, Layers* layers) {
  const auto j = static_cast<std::int64_t>(job);
  JobOutput out;
  const std::vector<std::size_t>& order =
      prep.orders[job % prep.orders.size()];
  stick.sample(out.timeline);
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t ci = order[k];
    const VerifyCase& c = w.suite[ci];
    Request req;
    const std::int64_t t0 = now_ns();
    try {
      req = verify_request(prep.suite[ci], j, trace, layers);
    } catch (const std::exception& e) {
      out.errors.push_back(c.topology + " " + c.routing + ": " + e.what());
    }
    const double ms = ms_between(t0, now_ns());
    stick.sample(out.timeline);
    out.timeline.segment_ms.push_back(ms);
    out.wall_s += ms / 1e3;
    out.ops.push_back({j, c.topology + " " + c.routing, c.cls, ms, k});

    const std::string json = req.cert ? req.cert->to_json() : "null";
    const std::size_t hash = std::hash<std::string>{}(json);
    if (!memo[ci]) memo[ci] = hash;
    const audit::AuditResult* audit_result =
        req.audit_result ? &*req.audit_result : nullptr;
    out.rows += tag(
        job,
        "{\"i\":" + std::to_string(k) + ",\"topology\":" + quote(c.topology) +
            ",\"routing\":" + quote(c.routing) +
            ",\"conclusion\":" + quote(core::to_string(req.conclusion)) +
            ",\"certificate\":" +
            quote(req.cert ? audit::to_string(req.cert->kind) : "none") +
            ",\"audit\":" +
            quote(audit_result ? audit::to_string(audit_result->code)
                               : "none") +
            ",\"stable\":" + (*memo[ci] == hash ? "true" : "false") + "}");
    if (job != 0) continue;
    certs << json << "\n";
    if (layers == nullptr) continue;
    auto& n = layers->counts;
    n["cdg.reachable_states"] += static_cast<double>(req.reachable_states);
    n["cdg.ecdg_builds"] += static_cast<double>(req.probe.ecdg_builds);
    n["cdg.ecdg_edges"] += static_cast<double>(req.probe.ecdg_direct_edges +
                                               req.probe.ecdg_indirect_edges +
                                               req.probe.ecdg_cross_edges);
    n["cdg.excursion_visits"] +=
        static_cast<double>(req.probe.ecdg_excursion_visits);
    n["cdg.candidates"] += static_cast<double>(req.probe.subfunction_candidates);
    n["cdg.greedy_expansions"] +=
        static_cast<double>(req.probe.greedy_expansions);
    n["core.cert_bytes"] += req.cert ? static_cast<double>(json.size()) : 0.0;
    if (audit_result) {
      n["audit.states_checked"] +=
          static_cast<double>(audit_result->states_checked);
      n["audit.edges_checked"] +=
          static_cast<double>(audit_result->edges_checked);
    }
  }
  return out;
}

/// Compile cost of one (topology, routing, plan) triple, measured once per
/// distinct triple after the traced job ends (outside coverage).
class CompileProbe {
 public:
  double ms(Prepared& prep, const std::string& topo_spec,
            const std::string& routing, const std::string& plan) {
    const std::string key = topo_spec + "|" + routing + "|" + plan;
    const auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
    const topology::Topology& topo = topology_for(prep, topo_spec);
    const std::int64_t t0 = now_ns();
    const reconfig::CompiledTransitionPlan compiled = reconfig::compile(
        reconfig::parse_transition_plan(plan), topo, routing);
    const double elapsed = ms_between(t0, now_ns());
    return cache_[key] = elapsed;
  }

 private:
  std::map<std::string, double> cache_;
};

JobOutput run_sweep_job(Prepared& prep, std::size_t job, Yardstick& stick,
                        SpanLog* trace, Layers* layers, CompileProbe* probe) {
  struct Call {
    const exp::SweepSpec* spec = nullptr;
    exp::SweepOutcome outcome;
    std::string rows;
    bool failed = false;  ///< run_sweep or write_jsonl threw
    std::size_t first_segment = 0;  ///< the segment its point 0 ran in
    // Traced calls only.
    obs::Profiler profiler;
    std::vector<std::int64_t> finished;  ///< progress timestamps per point
    std::uint32_t sweep_span = 0;
    double sweep_ms = 0.0;
    double io_ms = 0.0;
  };
  JobOutput out;
  Timeline& line = out.timeline;
  const std::vector<PreparedCall>& calls =
      prep.calls[job % prep.calls.size()];
  std::vector<Call> done(calls.size());
  const auto j = static_cast<std::int64_t>(job);
  // The job is cut by a yardstick sample before its first call, after each
  // point (in the progress callback, which a single-threaded sweep calls as
  // each point ends) and after its last call.
  stick.sample(line);
  std::int64_t segment_t0 = now_ns();
  const auto cut = [&] {
    line.segment_ms.push_back(ms_between(segment_t0, now_ns()));
    stick.sample(line);
    segment_t0 = now_ns();
  };
  const std::uint32_t job_span = trace ? trace->open(0, j, "job") : 0;
  for (std::size_t k = 0; k < done.size(); ++k) {
    const PreparedCall& call = calls[k];
    Call& c = done[k];
    c.spec = &call.spec;
    c.first_segment = line.segment_ms.size();
    try {
      exp::RunnerOptions options;
      options.threads = 1;
      options.rollback = call.rollback;
      options.progress = [&](std::size_t, std::size_t) {
        if (trace) c.finished.push_back(now_ns());
        cut();
      };
      if (trace == nullptr) {
        c.outcome = exp::run_sweep(call.spec, options);
        std::ostringstream os;
        exp::write_jsonl(os, c.outcome);
        c.rows = os.str();
      } else {
        options.profiler = &c.profiler;
        const std::int64_t sampled_ns = line.yardstick_ns;
        c.sweep_ms = trace->time(job_span, j, "exp.run_sweep",
                                 [&](std::uint32_t id) {
                                   c.sweep_span = id;
                                   c.outcome = exp::run_sweep(call.spec, options);
                                 });
        // The samples taken between points are not the sweep's work.
        c.sweep_ms -= static_cast<double>(line.yardstick_ns - sampled_ns) / 1e6;
        c.io_ms = trace->time(job_span, j, "exp.io", [&](auto) {
          std::ostringstream os;
          exp::write_jsonl(os, c.outcome);
          c.rows = os.str();
        });
      }
    } catch (const std::exception& e) {
      c.failed = true;
      out.errors.push_back(std::string("run_sweep: ") + e.what());
    }
  }
  cut();
  if (trace) trace->close(job_span);
  for (const double ms : line.segment_ms) out.wall_s += ms / 1e3;

  // Bookkeeping, outside the timed job.
  for (const Call& c : done) {
    // The cycle horizon lets the checks tell a point that drained from one
    // that was cut off with packets still in flight.
    const sim::SimConfig& base = c.spec->base;
    const std::string horizon =
        "{\"horizon\":" +
        std::to_string(base.warmup_cycles + base.measure_cycles +
                       base.drain_cycles) +
        ",";
    std::istringstream lines(c.rows);
    for (std::string line; std::getline(lines, line);) {
      out.rows += tag(job, horizon + line.substr(1));
    }
    for (std::size_t i = 0; i < c.outcome.results.size(); ++i) {
      const exp::SweepResult& r = c.outcome.results[i];
      out.ops.push_back({j,
                         r.point.topology + " " + r.point.routing + " " +
                             r.point.fault_plan + " " + r.point.reconfig_plan,
                         "point", r.point_ms, c.first_segment + i});
      out.delivered_flits +=
          r.stats.packets_delivered * c.spec->base.packet_length;
    }
  }
  if (trace == nullptr) return out;

  // Self-time accounting, after the job (the compile probes run here).
  auto& self = layers->self_ms;
  auto& info = layers->info_ms;
  for (const Call& t : done) {
    // A failed call's outcome may hold fewer results than progress reports,
    // and its error already fails the run.
    if (t.failed) continue;
    // Point spans, rebuilt from the progress timestamps (inline runs report
    // each point as it finishes) and each point's own wall time.
    for (std::size_t i = 0; i < t.finished.size(); ++i) {
      const double point_ms = t.outcome.results[i].point_ms;
      trace->add(t.sweep_span, j, "exp.point#" + std::to_string(i),
                 t.finished[i] - static_cast<std::int64_t>(point_ms * 1e6),
                 t.finished[i]);
    }
    const auto phase = [&](const std::string& name) {
      return t.profiler.total_ms(name);
    };
    double points_ms = 0.0;
    double compile_points = 0.0;
    for (const exp::SweepResult& r : t.outcome.results) {
      points_ms += r.point_ms;
      layers->point_ms.push_back(r.point_ms);
      if (r.point.reconfig_plan != "none") {
        compile_points += probe->ms(prep, r.point.topology, r.point.routing,
                                    r.point.reconfig_plan);
      }
    }
    // expand() compiles every (topology, routing, fault, reconfig) combo.
    double compile_expand = 0.0;
    for (const std::string& topo : t.spec->topologies) {
      for (const std::string& routing : t.spec->routings) {
        for (const std::string& plan : t.spec->reconfig_plans) {
          if (plan == "none") continue;
          compile_expand += static_cast<double>(t.spec->fault_plans.size()) *
                            probe->ms(prep, topo, routing, plan);
        }
      }
    }
    const double analysis = phase("sweep.analysis");
    const double reverify = phase("sweep.epoch_reverify");
    const double states = phase("verify.state_graph");
    const double duato = phase("verify.duato");
    const double ecdg = phase("checker.ecdg_build");
    // A probe is one sample of a cost that varies run to run; never let the
    // estimate exceed the measured time that encloses it.
    compile_expand = std::min(compile_expand, t.sweep_ms - points_ms);
    compile_points =
        std::min(compile_points, points_ms - analysis - reverify);
    self["exp.expand_ms"] += t.sweep_ms - points_ms - compile_expand;
    self["reconfig.compile_ms"] += compile_expand + compile_points;
    self["cdg.states_ms"] += states;
    self["cdg.ecdg_build_ms"] += ecdg;
    self["cdg.search_ms"] += duato - ecdg;
    self["exp.analysis_self_ms"] += analysis + reverify - states - duato;
    self["sim.run_est_ms"] += points_ms - analysis - reverify - compile_points;
    self["exp.io_ms"] += t.io_ms;
    info["exp.analysis_ms"] += analysis;
    info["exp.epoch_reverify_ms"] += reverify;
    for (const char* stage : kSearchStages) {
      info[std::string("cdg.search_") + stage + "_ms"] +=
          phase(std::string("checker.search_") + stage);
    }
    if (job != 0) continue;
    auto& n = layers->counts;
    n["exp.points"] += static_cast<double>(t.outcome.results.size());
    n["exp.cache_hits"] += static_cast<double>(t.outcome.cache_hits);
    n["exp.cache_misses"] += static_cast<double>(t.outcome.cache_misses);
    for (const exp::SweepResult& r : t.outcome.results) {
      const sim::SimStats& s = r.stats;
      n["exp.epochs_checked"] +=
          r.fault_epochs + r.transition_epochs + r.composed_epochs;
      n["exp.epochs_uncertified"] += r.uncertified_epochs +
                                     r.uncertified_transition_epochs +
                                     r.uncertified_composed_epochs;
      n["sim.cycles"] += static_cast<double>(s.cycles_run);
      n["sim.flight_events"] += static_cast<double>(s.flight_events_recorded);
      n["sim.packets_aborted"] += static_cast<double>(s.packets_aborted);
      n["sim.packets_retried"] += static_cast<double>(s.packets_retried);
      n["sim.packets_dropped"] += static_cast<double>(s.packets_dropped);
      n["reconfig.rollbacks"] += static_cast<double>(s.rollbacks);
      n["reconfig.drain_switches"] += static_cast<double>(s.drain_switches);
      n["reconfig.dests_switched"] += static_cast<double>(s.dests_switched);
    }
  }
  if (job == 0) {
    layers->counts["sim.delivered_flits"] +=
        static_cast<double>(out.delivered_flits);
  }
  return out;
}

// ---------------------------------------------------------------------------

/// Peak resident set of this process in MiB.  Linux keeps getrusage()'s
/// ru_maxrss across exec, so a child started by a large parent would report
/// the parent's peak; VmHWM belongs to this process image alone.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary);
  os << text;
  if (!os) throw std::runtime_error("cannot write " + path.string());
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload NAME --seed N --seconds S --out DIR [--trace] "
               "[--smoke]\n       "
            << argv0 << " --describe NAME [--smoke]\n";
  return 2;
}

int run(const Workload& w, std::uint64_t seed, double seconds, bool traced,
        bool smoke, const std::string& out_dir) {
  const std::size_t prepared_jobs = smoke ? 1 : kPreparedJobs;

  // Set-up is timed before the first job and again after every job, so its
  // median samples the host over the whole run rather than only at process
  // start.  Only the first result is used.  Each set-up lies between two
  // yardstick samples of its own.
  Yardstick stick;
  std::vector<double> setup_s;
  Timeline setup_samples;
  const auto set_up = [&] {
    stick.sample(setup_samples);
    const std::int64_t t0 = now_ns();
    Prepared p = prepare(w, seed, prepared_jobs);
    setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
    stick.sample(setup_samples);
    return p;
  };
  Prepared prep = set_up();

  const bool is_verify = !w.suite.empty();
  if (is_verify) {
    // One untimed request per relation: the first touches of the large
    // relations' graphs would otherwise make job 0 ~30% slower.
    for (const Relation& rel : prep.suite) {
      try {
        const core::CertifiedVerdict cv =
            core::verify_certified(*rel.topo, *rel.routing);
        if (cv.certificate) {
          (void)audit::check(*rel.topo, *rel.routing, *cv.certificate);
        }
      } catch (const std::exception&) {
        // The timed requests report it.
      }
    }
  }
  // Rows and certificates hold only deterministic outputs, so equal inputs
  // give byte-equal files; timings go to result.json.  Both are written as
  // each job ends, so memory does not grow with the number of jobs a run
  // has time for.
  const std::filesystem::path dir(out_dir);
  std::filesystem::create_directories(dir);
  std::ofstream plain_certs(dir / "certs.txt", std::ios::binary);
  std::ofstream plain_rows(dir / "rows.jsonl", std::ios::binary);
  std::ofstream traced_certs;
  std::ofstream traced_rows;
  if (traced) {
    traced_certs.open(dir / "certs_traced.txt", std::ios::binary);
    traced_rows.open(dir / "rows_traced.jsonl", std::ios::binary);
  }

  CertMemo memo(w.suite.size());
  SpanLog spans;
  Layers layers;
  CompileProbe probe;
  std::vector<JobOutput> plain;
  std::vector<JobOutput> with_trace;
  const auto run_job = [&](std::size_t job, bool trace_it) {
    SpanLog* t = trace_it ? &spans : nullptr;
    Layers* l = trace_it ? &layers : nullptr;
    std::ostream& certs = trace_it ? traced_certs : plain_certs;
    JobOutput o = is_verify
                      ? run_verify_job(w, prep, job, memo, certs, stick, t, l)
                      : run_sweep_job(prep, job, stick, t, l, &probe);
    (trace_it ? traced_rows : plain_rows) << o.rows;
    std::string().swap(o.rows);
    (trace_it ? with_trace : plain).push_back(std::move(o));
    (void)set_up();
  };
  // Jobs run until the run's time is up; a traced run spends it on pairs.
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  const std::size_t min_jobs = smoke ? 1 : kMinJobs;
  for (std::size_t job = 0;
       job < min_jobs || (!smoke && now_ns() < deadline); ++job) {
    if (!traced) {
      run_job(job, false);
    } else if (job % 2 == 0) {
      run_job(job, false);
      run_job(job, true);
    } else {
      run_job(job, true);
      run_job(job, false);
    }
  }

  // The peak of the jobs, before the result text below is built.
  const double peak_mb = peak_rss_mb();
  if (!plain_certs.flush() || !plain_rows.flush() ||
      (traced && (!traced_certs.flush() || !traced_rows.flush()))) {
    throw std::runtime_error("cannot write rows or certificates to " +
                             out_dir);
  }
  std::vector<std::string> errors;
  const auto gather = [&](const std::vector<JobOutput>& outputs) {
    for (const JobOutput& o : outputs) {
      errors.insert(errors.end(), o.errors.begin(), o.errors.end());
    }
  };
  const auto walls = [](const std::vector<JobOutput>& outputs) {
    std::vector<double> out;
    for (const JobOutput& o : outputs) out.push_back(o.wall_s);
    return out;
  };
  gather(plain);
  std::string ops;
  std::string timelines;
  std::uint64_t flits = 0;
  for (const JobOutput& o : plain) {
    flits += o.delivered_flits;
    for (const Op& op : o.ops) {
      ops += std::string(ops.empty() ? "" : ",") + "{\"job\":" +
             std::to_string(op.job) + ",\"label\":" + quote(op.label) +
             ",\"class\":" + quote(op.cls) + ",\"ms\":" + num(op.ms) +
             ",\"segment\":" + std::to_string(op.segment) + "}";
    }
    timelines += std::string(timelines.empty() ? "" : ",") +
                 "{\"segment_ms\":" + num_list(o.timeline.segment_ms) +
                 ",\"sample_ms\":" + num_list(o.timeline.sample_ms) + "}";
  }

  std::ostringstream result;
  result << "{\"workload\":" << quote(w.name) << ",\"seed\":" << seed
         << ",\"smoke\":" << (smoke ? "true" : "false")
         << ",\"traced\":" << (traced ? "true" : "false")
         << ",\"jobs\":" << plain.size() << ",\"setup_s\":" << num_list(setup_s)
         << ",\"setup_sample_ms\":" << num_list(setup_samples.sample_ms)
         << ",\"job_wall_s\":" << num_list(walls(plain))
         << ",\"timelines\":[" << timelines << "]"
         << ",\"delivered_flits\":" << flits << ",\"ops\":[" << ops << "]";
  if (traced) {
    gather(with_trace);
    // Traced operations in run order; their untraced twins are the same
    // operations of `ops`, in the same order.
    std::vector<double> traced_op_ms;
    for (const JobOutput& o : with_trace) {
      for (const Op& op : o.ops) traced_op_ms.push_back(op.ms);
    }
    // Per-layer times are reported per traced job; counters cover job 0.
    const auto per_job = [&](const std::map<std::string, double>& totals) {
      std::map<std::string, double> out;
      for (const auto& [k, v] : totals) {
        out[k] = v / static_cast<double>(with_trace.size());
      }
      return num_map(out);
    };
    std::string span_text;
    for (const Span& s : spans.spans()) {
      span_text += std::string(span_text.empty() ? "" : ",") +
                   "{\"id\":" + std::to_string(s.id) +
                   ",\"parent\":" + std::to_string(s.parent) +
                   ",\"job\":" + std::to_string(s.job) +
                   ",\"name\":" + quote(s.name) +
                   ",\"t0_ns\":" + std::to_string(s.t0_ns) +
                   ",\"t1_ns\":" + std::to_string(s.t1_ns) + "}";
    }
    write_file(dir / "spans.json", "{\"spans\":[" + span_text +
                                       "],\"counters\":" +
                                       num_map(layers.counts) + "}\n");
    result << ",\"traced_wall_s\":" << num_list(walls(with_trace))
           << ",\"traced_op_ms\":" << num_list(traced_op_ms)
           << ",\"layers_ms\":" << per_job(layers.self_ms)
           << ",\"info_ms\":" << per_job(layers.info_ms)
           << ",\"counts\":" << num_map(layers.counts)
           << ",\"traced_point_ms\":" << num_list(layers.point_ms);
  }
  std::string error_text;
  for (const std::string& e : errors) {
    error_text += std::string(error_text.empty() ? "" : ",") + quote(e);
  }
  result << ",\"peak_rss_mb\":" << num(peak_mb) << ",\"errors\":["
         << error_text << "]}\n";
  write_file(dir / "result.json", result.str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::string describe_name;
  std::string out_dir;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool traced = false;
  bool smoke = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        name = value();
      } else if (arg == "--describe") {
        describe_name = value();
      } else if (arg == "--seed") {
        seed = std::stoull(value());
      } else if (arg == "--seconds") {
        seconds = std::stod(value());
      } else if (arg == "--out") {
        out_dir = value();
      } else if (arg == "--trace") {
        traced = true;
      } else if (arg == "--smoke") {
        smoke = true;
      } else {
        throw std::invalid_argument("unknown argument " + arg);
      }
    }
  } catch (const std::exception& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n";
    return usage(argv[0]);
  }
  const std::vector<Workload> all = workloads(smoke);
  const std::string wanted = describe_name.empty() ? name : describe_name;
  const auto it = std::find_if(all.begin(), all.end(),
                               [&](const Workload& w) { return w.name == wanted; });
  if (it == all.end()) {
    std::cerr << argv[0] << ": unknown workload '" << wanted << "'\n";
    return usage(argv[0]);
  }
  const Workload& w = *it;
  if (!describe_name.empty()) {
    std::cout << describe(w);
    return 0;
  }
  if (out_dir.empty() || seconds <= 0.0) return usage(argv[0]);
  try {
    return run(w, seed, seconds, traced, smoke, out_dir);
  } catch (const std::exception& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n";
    return 1;
  }
}
