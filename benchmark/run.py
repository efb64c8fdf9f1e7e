#!/usr/bin/env python3
"""wormbench: the repository benchmark (standard library only).

Builds benchmark/ into build-bench/, runs every workload in its own
single-threaded process, checks the outputs against references that share no
code with the checkers, and prints every end-to-end metric as
`workload metric value unit`.

  python3 benchmark/run.py [--seed N] [--runs N] [--trace] [--out FILE]
  python3 benchmark/run.py --smoke
  python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 benchmark/run.py compare PARENT.json CHANGE.json [--agree]
  python3 benchmark/run.py baseline RESULTS.json --out benchmark/baseline.json

With --workload the last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} holding
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1) that
BENCHMARK.json names.  See benchmark/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / "build-bench"
BINARY = BUILD / "wormbench"
RUN_TIMEOUT_S = 170
# Times are reported at a fixed host speed: the speed at which one yardstick
# sample takes this long (README, "Host speed").
YARDSTICK_REF_MS = 1.0

WORKLOADS = ["verify", "sweep_light", "sweep_saturated", "faults", "reconfig"]
VERIFY = "verify"

# Ground truth for every relation the verify workload asks about, written
# from the literature rather than from any checker output:
#   (topology, routing) -> (verdict, unknown_allowed, why)
# A budget-limited "unknown" is acceptable where unknown_allowed is set; a
# decisive verdict that disagrees with the table is always a failure.
FREE, DEADLOCK = "deadlock-free", "deadlockable"
GROUND_TRUTH = {
    ("mesh:8x8:2", "duato-mesh"): (FREE, False, "Duato: e-cube escape VC"),
    ("hypercube:6:2", "duato-hypercube"): (FREE, False,
                                           "Duato: e-cube escape VC"),
    ("torus:8x8:3", "duato-torus"): (FREE, False,
                                     "Duato: dateline escape VCs"),
    ("mesh:9x9:1", "west-first"): (FREE, False,
                                   "turn model: no cycle of turns"),
    ("mesh:9x9:1", "negative-first"): (FREE, False,
                                       "turn model: no cycle of turns"),
    ("torus:8x8:2", "dateline"): (FREE, False,
                                  "Dally-Seitz: dateline breaks each ring"),
    ("mesh:8x8:1", "hpl-minimal"): (FREE, True,
                                    "Schwiebert-Jayasimha: acyclic waiting "
                                    "graph; wait-specific, outside the exact "
                                    "scope"),
    ("ring:7", "unrestricted"): (DEADLOCK, False,
                                 "odd ring, one VC: deterministic minimal "
                                 "routing around a cycle"),
    ("uniring:6:1", "unrestricted"): (DEADLOCK, False,
                                      "one-way ring, one VC: the ring is a "
                                      "dependency cycle"),
    ("ring:7:2", "unrestricted"): (DEADLOCK, True,
                                   "every connected subset keeps a VC on each "
                                   "link, so the ring cycle survives"),
    ("mesh:4x4:2", "unrestricted"): (DEADLOCK, True,
                                     "straight-line destinations force all "
                                     "four directions at every node, so a "
                                     "square of turns survives"),
    # --smoke relations.
    ("mesh:4x4:2", "duato-mesh"): (FREE, False, "Duato: e-cube escape VC"),
    ("mesh:4x4:1", "west-first"): (FREE, False,
                                   "turn model: no cycle of turns"),
    ("torus:4x4:2", "dateline"): (FREE, False,
                                  "Dally-Seitz: dateline breaks each ring"),
    ("mesh:4x4:1", "hpl-minimal"): (FREE, True,
                                    "Schwiebert-Jayasimha: acyclic waiting "
                                    "graph"),
    ("ring:5", "unrestricted"): (DEADLOCK, False,
                                 "odd ring, one VC: deterministic minimal "
                                 "routing around a cycle"),
    ("uniring:4:1", "unrestricted"): (DEADLOCK, False,
                                      "one-way ring, one VC: the ring is a "
                                      "dependency cycle"),
    ("mesh:3x3:2", "unrestricted"): (DEADLOCK, True,
                                     "a square of turns survives in every "
                                     "connected subset"),
}
CERT_KIND = {FREE: "certified", DEADLOCK: "refuted", "unknown": "none"}


class BenchError(Exception):
    """A failure that must end the run without printing a result."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_definition():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read BENCHMARK.json: {e}") from e


# ---------------------------------------------------------------------------
# Build


def build():
    """Configures (once) and builds build-bench/wormbench from source."""
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        raise BenchError("library sources (src/) are missing from this tree")
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD), "--target", "wormbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=880)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"build step failed: {e}") from e
        if proc.returncode != 0:
            raise BenchError("build failed:\n" +
                             (proc.stdout + proc.stderr)[-4000:])
    if not BINARY.exists():
        raise BenchError(f"build produced no {BINARY}")


def cmake_cache():
    values = {}
    try:
        for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
            if "=" in line and ":" in line and not line.startswith(("#", "//")):
                key, value = line.split("=", 1)
                values[key.split(":", 1)[0]] = value
    except OSError:
        pass
    return values


def git(*args):
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def workloads_hash(smoke):
    text = ""
    for name in WORKLOADS:
        cmd = [str(BINARY), "--describe", name] + (["--smoke"] if smoke else [])
        text += subprocess.run(cmd, capture_output=True, text=True,
                               check=True, timeout=30).stdout
    return hashlib.sha256(text.encode()).hexdigest()


def manifest(seed, smoke, seconds):
    cache = cmake_cache()
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    # Only this tree's own repository counts, not one that encloses it.
    toplevel = git("rev-parse", "--show-toplevel")
    in_repo = toplevel is not None and Path(toplevel).resolve() == ROOT
    revision = git("rev-parse", "HEAD") if in_repo else None
    status = git("status", "--porcelain") if in_repo else None
    compiler_version = ""
    for path in BUILD.glob("CMakeFiles/*/CMakeCXXCompiler.cmake"):
        for line in path.read_text().splitlines():
            if line.startswith('set(CMAKE_CXX_COMPILER_VERSION "'):
                compiler_version = line.split('"')[1]
    return {
        "git_revision": revision or "unknown",
        "git_dirty": None if status is None else bool(status),
        "build_type": build_type,
        "compiler": cache.get("CMAKE_CXX_COMPILER", ""),
        "compiler_version": compiler_version,
        "cxx_flags": " ".join(filter(None, [
            cache.get("CMAKE_CXX_FLAGS", ""),
            cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", "")])),
        "nproc": os.cpu_count(),
        "host": platform.node(),
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "workloads_sha256": workloads_hash(smoke),
    }


# ---------------------------------------------------------------------------
# Statistics


def percentile(values, p):
    """Linear interpolation between closest ranks, at rank (n - 1) * p."""
    ordered = sorted(values)
    x = (len(ordered) - 1) * p
    i = int(x)
    j = min(i + 1, len(ordered) - 1)
    return ordered[i] + (ordered[j] - ordered[i]) * (x - i)


def percentile_class(ops, p):
    """The relation class at percentile p, and whether the ranks on both
    sides of it belong to that class too (strictly inside, not a boundary)."""
    ordered = sorted(ops, key=lambda op: op["ms"])
    i = int((len(ordered) - 1) * p)
    window = ordered[max(0, i - 1):i + 3]
    cls = ordered[i]["class"]
    return cls, all(op["class"] == cls for op in window)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ---------------------------------------------------------------------------
# Output checks.  They read the rows the workload process wrote; none of them
# calls into the library.


def check_verify(rows):
    failures = []
    for row in rows:
        key = (row["topology"], row["routing"])
        label = f"job {row['job']} request {row['i']} {key[0]} {key[1]}"
        truth = GROUND_TRUTH.get(key)
        verdict = row["conclusion"]
        if truth is None:
            failures.append(f"{label}: no ground truth")
            continue
        expected, unknown_ok, _ = truth
        if verdict != expected and not (verdict == "unknown" and unknown_ok):
            failures.append(f"{label}: verdict {verdict}, truth {expected}")
        if row["certificate"] != CERT_KIND.get(verdict):
            failures.append(f"{label}: {verdict} with certificate "
                            f"{row['certificate']}")
        if row["certificate"] != "none" and row["audit"] != "valid":
            failures.append(f"{label}: audit {row['audit']}")
        if not row["stable"]:
            failures.append(f"{label}: certificate differs from the first "
                            "one for this relation")
    return len(rows), failures


def check_sweep(rows):
    points, failures = 0, []
    for row in rows:
        if "aggregate" in row:
            if row["aggregate"]["certified_deadlocks"] != 0:
                failures.append(f"job {row['job']}: certified_deadlocks = "
                                f"{row['aggregate']['certified_deadlocks']}")
            continue
        points += 1
        label = (f"job {row['job']} point {row['i']} {row['topology']} "
                 f"{row['fault']} {row['reconfig']}")
        if row["certified"] and row["deadlocked"]:
            failures.append(f"{label}: deadlock on a certified point")
        drained = row["cycles_run"] < row["horizon"]
        if drained and not row["deadlocked"] and not row["saturated"]:
            created = row["packets_created"]
            accounted = row["packets_delivered"] + row["packets_dropped"]
            if accounted != created:
                failures.append(f"{label}: delivered + dropped = {accounted},"
                                f" created = {created}")
    return points, failures


def read_rows(path):
    lines = path.read_bytes().splitlines(keepends=True)
    rows = [json.loads(line) for line in lines]
    job0 = b"".join(line for line, row in zip(lines, rows) if row["job"] == 0)
    return rows, hashlib.sha256(job0).hexdigest()


def file_digest(path):
    data = path.read_bytes()
    return hashlib.sha256(data).hexdigest() if data else None


def check_spans(path):
    """The span log is well formed: ids count up from 1, every span is
    closed, and every child lies inside an earlier parent."""
    spans = json.loads(path.read_text())["spans"]
    failures = []
    for k, span in enumerate(spans, 1):
        label = f"span {k} {span['name']}"
        if span["id"] != k:
            failures.append(f"{label}: id {span['id']}")
        elif span["t1_ns"] < span["t0_ns"]:
            failures.append(f"{label}: not closed")
        elif span["parent"]:
            if not 0 < span["parent"] < k:
                failures.append(f"{label}: parent {span['parent']}")
                continue
            parent = spans[span["parent"] - 1]
            if not (parent["t0_ns"] <= span["t0_ns"] and
                    span["t1_ns"] <= parent["t1_ns"]):
                failures.append(f"{label}: outside its parent")
    return len(spans), failures


# ---------------------------------------------------------------------------
# One workload process


def run_workload(name, seed, seconds, trace, smoke, spans_path):
    """Runs one workload in its own process and returns its checked record.
    A traced run's span log is checked and kept at `spans_path`."""
    out = BUILD / "runs" / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    cmd = [str(BINARY), "--workload", name, "--seed", str(seed), "--seconds",
           str(seconds), "--out", str(out)]
    if trace:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{name}: no result within {RUN_TIMEOUT_S} s") from e
    if proc.returncode != 0:
        raise BenchError(f"{name}: workload process exited "
                         f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    try:
        result = json.loads((out / "result.json").read_text())
        rows, rows_digest = read_rows(out / "rows.jsonl")
        certs_digest = file_digest(out / "certs.txt")
        traced_rows, traced_digest, traced_certs = [], None, None
        span_count, span_failures = 0, []
        if trace:
            traced_rows, traced_digest = read_rows(out / "rows_traced.jsonl")
            traced_certs = file_digest(out / "certs_traced.txt")
            span_count, span_failures = check_spans(out / "spans.json")
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(out / "spans.json", spans_path)
    except (OSError, ValueError, KeyError) as e:
        raise BenchError(f"{name}: unreadable output: {e}") from e
    finally:
        shutil.rmtree(out, ignore_errors=True)

    check = check_verify if name == VERIFY else check_sweep
    attempted, failures = check(rows)
    if trace:
        traced_attempted, traced_failures = check(traced_rows)
        attempted += traced_attempted
        failures += traced_failures
        if (traced_digest, traced_certs) != (rows_digest, certs_digest):
            failures.append("traced outputs differ from untraced outputs")
    expected_ops = len(result["ops"]) + len(result.get("traced_op_ms", []))
    if attempted != expected_ops:
        failures.append(f"{attempted} output rows for {expected_ops} timed "
                        "operations")
    failures += [f"error: {e}" for e in result["errors"]]
    failures += span_failures
    record = {
        "workload": name,
        "seed": seed,
        "traced": trace,
        "attempted": max(attempted, len(failures), 1),
        "failed": len(failures),
        "failures": failures[:20],
        "rows_digest": rows_digest,
        "certs_digest": certs_digest,
        "metrics": end_to_end(result),
        "info": info(result),
    }
    if trace:
        record["per_layer"] = per_layer(result)
        record["spans"] = {"count": span_count, "file": str(spans_path)}
    return record


def pace(ms, before_ms, after_ms):
    """`ms` of host time, rescaled to the reference host speed by the
    yardstick samples taken just before and just after it."""
    return ms * 2.0 * YARDSTICK_REF_MS / (before_ms + after_ms)


def paced(result):
    """Job times (s), operations and set-up times (s), each rescaled to the
    reference host speed by the yardstick samples around it."""
    jobs, rates = [], []
    for line in result["timelines"]:
        y = line["sample_ms"]
        rates.append([pace(1.0, y[k], y[k + 1])
                      for k in range(len(line["segment_ms"]))])
        jobs.append(sum(ms * r for ms, r in zip(line["segment_ms"],
                                                rates[-1])) / 1e3)
    ops = [{"ms": op["ms"] * rates[op["job"]][op["segment"]],
            "class": op["class"]} for op in result["ops"]]
    y = result["setup_sample_ms"]
    setups = [pace(s, y[2 * i], y[2 * i + 1])
              for i, s in enumerate(result["setup_s"])]
    return jobs, ops, setups


def end_to_end(result):
    jobs, ops, setups = paced(result)
    ms = [op["ms"] for op in ops]
    return {
        "setup_s": statistics.median(setups),
        "job_s": statistics.median(jobs),
        "op_p50_ms": percentile(ms, 0.5),
        "op_p90_ms": percentile(ms, 0.9),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def info(result):
    jobs, ops, _ = paced(result)
    samples = [y for line in result["timelines"] for y in line["sample_ms"]]
    out = {"ops": len(ops), "jobs": len(jobs),
           "host_job_s": statistics.median(result["job_wall_s"]),
           "yardstick_ms": statistics.median(samples)}
    if result["workload"] == VERIFY:
        for p, key in ((0.5, "p50"), (0.9, "p90")):
            cls, inside = percentile_class(ops, p)
            out[f"{key}_class"] = cls
            out[f"{key}_strictly_inside"] = inside
    else:
        out["flits_per_s"] = result["delivered_flits"] / sum(jobs)
    return out


def per_layer(result):
    """Self times (ms per traced job), counters (job 0) and trace quality."""
    layers = dict(result["layers_ms"])
    traced_ms = statistics.mean(result["traced_wall_s"]) * 1e3
    out = dict(layers)
    out.update(result["info_ms"])
    out.update(result["counts"])
    # Each traced operation against its untraced twin: the median ratio is
    # immune to the first job's cold start and to bursts of host noise.
    ratios = [t / u for t, u in zip(result["traced_op_ms"],
                                    (op["ms"] for op in result["ops"]))
              if u > 0]
    out["trace.overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0)
    out["trace.coverage_pct"] = 100.0 * sum(layers.values()) / traced_ms
    counts = result["counts"]
    lookups = counts.get("exp.cache_hits", 0) + counts.get("exp.cache_misses",
                                                           0)
    if lookups:
        out["exp.cache_hit_ratio"] = counts["exp.cache_hits"] / lookups
    if counts.get("sim.delivered_flits"):
        out["sim.ns_per_flit"] = (layers["sim.run_est_ms"] * 1e6 /
                                  counts["sim.delivered_flits"])
    points = result.get("traced_point_ms") or []
    if points:
        out["exp.point_p50_ms"] = percentile(points, 0.5)
        out["exp.point_p90_ms"] = percentile(points, 0.9)
    return out


# ---------------------------------------------------------------------------
# Reports


def unit_of(definition, name):
    for metric in definition["end_to_end"] + definition["per_layer"]:
        if metric["name"] == name:
            return metric["unit"]
    for suffix, unit in (("_ms", "ms"), ("_pct", "%"), ("_per_flit", "ns"),
                         ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def print_record(definition, record):
    name = record["workload"]
    if not record["traced"]:
        for metric in definition["end_to_end"]:
            print(f"{name} {metric['name']} {record['metrics'][metric['name']]!r}"
                  f" {metric['unit']}")
    for key, value in record["info"].items():
        print(f"{name} {key} {value!r}")
    print(f"{name} rows_digest {record['rows_digest']}")
    print(f"{name} certs_digest {record['certs_digest'] or 'none'}")
    if record["traced"]:
        spans = record["spans"]
        print(f"{name} spans {spans['count']} in {spans['file']}")
    print(f"{name} error_rate {record['failed']}/{record['attempted']}")
    for failure in record["failures"]:
        print(f"{name} FAILED {failure}")
    if record["traced"]:
        print_layers(definition, record)


# Layers whose self times partition a traced job, in display order.
SELF_LAYERS = ["cdg.states_ms", "cdg.search_ms", "cdg.ecdg_build_ms",
               "core.certify_ms", "audit.check_ms", "exp.expand_ms",
               "reconfig.compile_ms", "exp.analysis_self_ms",
               "sim.run_est_ms", "exp.io_ms"]


def print_layers(definition, record):
    layers = record["per_layer"]
    attributed = sum(layers[k] for k in SELF_LAYERS if k in layers)
    print(f"\n{record['workload']}: per-layer self time per traced job")
    for key in SELF_LAYERS:
        if key in layers:
            share = 100.0 * layers[key] / attributed if attributed else 0.0
            print(f"  {key:28s} {layers[key]:12.3f} ms  {share:6.2f} %")
    for key in sorted(layers):
        if key not in SELF_LAYERS:
            print(f"  {key:28s} {layers[key]!r} {unit_of(definition, key)}")
    print()


def driver_line(definition, record):
    if record["traced"]:
        wanted = definition["per_layer"]
        values = record["per_layer"]
    else:
        wanted = definition["end_to_end"]
        values = record["metrics"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    return json.dumps({"correct": record["failed"] == 0,
                       "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


# ---------------------------------------------------------------------------
# compare / baseline


def load_results(path):
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}") from e
    if "manifest" not in data or "runs" not in data:
        raise BenchError(f"{path} is not a wormbench results file")
    return data


def series(data, workload, metric):
    return [r["metrics"][metric] for r in data["runs"]
            if r["workload"] == workload and not r["traced"]]


def compare(definition, parent_path, change_path, agree):
    parent, change = load_results(parent_path), load_results(change_path)
    ph = parent["manifest"]["workloads_sha256"]
    ch = change["manifest"]["workloads_sha256"]
    if ph != ch:
        raise BenchError("workload definitions differ "
                         f"({ph[:12]} vs {ch[:12]}); refusing to compare")
    bad = False
    fewest_pairs = None
    for workload in WORKLOADS:
        for metric in definition["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            a, b = series(parent, workload, name), series(change, workload,
                                                          name)
            if not a or not b:
                continue
            pairs = min(len(a), len(b))
            fewest_pairs = min(pairs, fewest_pairs or pairs)
            qa, qb = quartiles(a), quartiles(b)
            gap = (qb[1] - qa[1]) / qa[1]
            worse = gap if lower else -gap
            spread = (qa[2] - qa[0]) / qa[1]
            wins = sum(1 for x, y in zip(a, b)
                       if (y < x if lower else y > x))
            every_better = all((y < x if lower else y > x)
                               for x in a for y in b)
            if agree:
                verdict = "agree" if abs(gap) < bound else "DISAGREE"
                bad |= verdict != "agree"
            elif (pairs >= 10 and wins / pairs >= 0.9 and worse < 0 and
                  abs(qb[1] - qa[1]) > qa[2] - qa[0]):
                verdict = "gain"
            elif spread > bound and not every_better:
                verdict = "unresolved"
            elif worse <= bound:
                verdict = "no-worse"
            else:
                verdict = "REGRESSION"
                bad = True
            print(f"{workload:16s} {name:12s} parent {qa[1]:.6g} "
                  f"[{qa[0]:.6g}, {qa[2]:.6g}]  change {qb[1]:.6g} "
                  f"[{qb[0]:.6g}, {qb[2]:.6g}]  {100 * gap:+.2f}% "
                  f"(bound {100 * bound:.0f}%, spread {100 * spread:.1f}%) "
                  f"wins {wins}/{pairs}  {verdict}")
    for side, data in (("parent", parent), ("change", change)):
        attempted = sum(r["attempted"] for r in data["runs"])
        failed = sum(r["failed"] for r in data["runs"])
        print(f"{side} error_rate {failed}/{attempted}")
        bad |= failed > 0
    digests = {}
    for side, data in (("parent", parent), ("change", change)):
        for r in data["runs"]:
            key = (r["workload"], r["seed"])
            digests.setdefault(key, {}).setdefault(side, set()).add(
                (r["rows_digest"], r["certs_digest"]))
    for (workload, seed), sides in sorted(digests.items()):
        if len(sides) == 2:
            same = sides["parent"] == sides["change"] and len(
                sides["parent"]) == 1
            print(f"{workload} seed {seed} digests "
                  f"{'identical' if same else 'DIFFER'}")
            bad |= not same
    if not agree and (fewest_pairs or 0) < 10:
        print("note: a gain needs at least 10 parent/change pairs per workload")
    return 1 if bad else 0


def baseline(definition, results_path, out_path):
    data = load_results(results_path)
    summary = {"manifest": data["manifest"], "e2e": {}, "per_layer": {},
               "info": {}, "digests": {}}
    for workload in WORKLOADS:
        runs = [r for r in data["runs"] if r["workload"] == workload]
        plain = [r for r in runs if not r["traced"]]
        if not plain:
            continue
        summary["e2e"][workload] = {}
        for metric in definition["end_to_end"]:
            values = series(data, workload, metric["name"])
            q1, q2, q3 = quartiles(values)
            summary["e2e"][workload][metric["name"]] = {
                "median": q2, "q1": q1, "q3": q3, "runs": len(values),
                "unit": metric["unit"]}
        summary["info"][workload] = plain[0]["info"]
        summary["digests"][workload] = sorted(
            {(r["seed"], r["rows_digest"], r["certs_digest"] or "none")
             for r in runs})
        traced = [r for r in runs if r["traced"]]
        if traced:
            summary["per_layer"][workload] = traced[0]["per_layer"]
    Path(out_path).write_text(json.dumps(summary, indent=1, sort_keys=True) +
                              "\n")
    print(f"wrote {out_path}")
    return 0


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", nargs="*",
                        help="compare PARENT CHANGE | baseline RESULTS")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1])
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="results file to write")
    parser.add_argument("--append", help="results file to extend")
    parser.add_argument("--agree", action="store_true",
                        help="compare: two sets of runs of one commit")
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    definition = load_definition()
    if args.command:
        if args.command[0] == "compare" and len(args.command) == 3:
            return compare(definition, args.command[1], args.command[2],
                           args.agree)
        if args.command[0] == "baseline" and len(args.command) == 2 and args.out:
            return baseline(definition, args.command[1], args.out)
        raise BenchError("usage: run.py compare PARENT CHANGE [--agree] | "
                         "run.py baseline RESULTS --out FILE")
    seconds = args.seconds or definition["run_seconds"]
    build()

    results_dir = BUILD / "results"
    if args.workload:
        spans = results_dir / f"spans-{args.workload}-s{args.seed}.json"
        record = run_workload(args.workload, args.seed, seconds,
                              bool(args.trace), args.smoke, spans)
        print_record(definition, record)
        print(driver_line(definition, record))
        return 0

    started = time.monotonic()
    results = {"manifest": manifest(args.seed, args.smoke, seconds), "runs": []}
    if args.append and Path(args.append).exists():
        appended = load_results(args.append)
        if (appended["manifest"]["workloads_sha256"] !=
                results["manifest"]["workloads_sha256"]):
            raise BenchError(f"{args.append} holds other workload definitions")
        results = appended
    out = Path(args.append or args.out or results_dir /
               f"results-s{args.seed}-{time.strftime('%Y%m%d-%H%M%S')}.json")
    spans_dir = out.with_name(out.stem + "-spans")
    passes = [False] * args.runs + ([True] if args.trace or args.smoke else [])
    for trace in passes:
        for name in WORKLOADS:
            record = run_workload(name, args.seed, seconds, trace, args.smoke,
                                  spans_dir / f"{name}.json")
            print_record(definition, record)
            results["runs"].append(record)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    failed = sum(r["failed"] for r in results["runs"])
    log(f"wrote {out} ({time.monotonic() - started:.1f} s, "
        f"{failed} failed checks)")
    return 1 if failed else 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        log(f"wormbench: {e}")
        sys.exit(2)
