#!/usr/bin/env python3
"""Interleaved parent/change pairs of one wormbench workload (stdlib only).

Usage: pair_bench.py --workload W [--seed S] [--pairs N] [--trace]
       [--parent REV] [--change REV|worktree] [--workdir DIR]

Extracts the parent and the change into DIR/parent and DIR/change with
`git archive` (`--change worktree` copies the working tree's tracked and
untracked, non-ignored files instead), then runs N pairs of
`python3 benchmark/run.py --workload W --seed S` in the two trees,
alternating which side goes first.  Each run.py call builds its tree's
build-bench/ first, so the first pair pays for two builds; pass the same
--workdir again to reuse them.  Offline: it needs only git and the trees.

Each run's last JSON line gives its metrics (the end-to-end ones, or the
per-layer ones with --trace); its `rows_digest`/`certs_digest` lines give its
output digests.  Printed per metric: each side's median and quartiles, the
median gap, and how many pairs the change won in the direction
BENCHMARK.json names.  A metric reads "gain" when the change won at least
90% of at least 10 pairs and its median moved by more than the parent's
interquartile range.  Exit 1 if a run failed a check or the digests differ.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAMP = ".pair_bench_rev"


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def checkout(rev, dest):
    """Makes `dest` hold `rev` (a commit, or "worktree"); returns its label."""
    if rev == "worktree":
        dest.mkdir(parents=True, exist_ok=True)
        files = git("ls-files", "-z", "--cached", "--others",
                    "--exclude-standard").split(b"\0")
        for name in filter(None, files):
            src = ROOT / name.decode()
            if src.is_file():
                target = dest / name.decode()
                target.parent.mkdir(parents=True, exist_ok=True)
                # copy2 keeps mtimes, so an unchanged file is not rebuilt.
                if (not target.exists() or
                        target.stat().st_mtime != src.stat().st_mtime):
                    shutil.copy2(src, target)
        return "worktree"
    sha = git("rev-parse", "--verify", rev + "^{commit}").decode().strip()
    stamp = dest / STAMP
    if stamp.exists() and stamp.read_text().strip() == sha:
        return sha[:10]
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    stamp.write_text(sha + "\n")
    return sha[:10]


def run_once(tree, workload, seed, trace):
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: run.py exited {proc.returncode}\n" +
                           (proc.stdout + proc.stderr)[-2000:])
    record = json.loads(lines[-1])
    digests = tuple(line.split()[2] for line in lines
                    if line.split()[1:2] in (["rows_digest"],
                                             ["certs_digest"]))
    return {"metrics": {k: v["value"] for k, v in record["metrics"].items()},
            "failed": record["failed"], "attempted": record["attempted"],
            "digests": digests}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(q):
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def directions(tree):
    definition = json.loads((tree / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], m["unit"])
            for m in definition["end_to_end"] + definition["per_layer"]}


def report(runs, better):
    pairs = len(runs["parent"])
    print(f"{'metric':22s} {'parent median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'gap':>8s}  wins")
    for name in runs["parent"][0]["metrics"]:
        a = [r["metrics"][name] for r in runs["parent"]]
        b = [r["metrics"][name] for r in runs["change"]]
        lower = better.get(name, ("lower", ""))[0] == "lower"
        qa, qb = quartiles(a), quartiles(b)
        gap = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
        wins = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
        improved = qb[1] < qa[1] if lower else qb[1] > qa[1]
        gain = (pairs >= 10 and wins >= 0.9 * pairs and improved and
                abs(qb[1] - qa[1]) > qa[2] - qa[0])
        print(f"{name:22s} {spread(qa):34s} {spread(qb):34s} "
              f"{100 * gap:+7.1f}%  {wins}/{pairs}{'  gain' if gain else ''}")
    bad = False
    for side in ("parent", "change"):
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        print(f"{side} failed {failed}/{attempted}")
        bad |= failed > 0
    digests = {r["digests"] for side in runs.values() for r in side}
    print(f"digests {'identical' if len(digests) == 1 else 'DIFFER'}")
    return 1 if bad or len(digests) != 1 else 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", action="store_true",
                        help="per-layer metrics (run.py --trace 1)")
    parser.add_argument("--parent", default="HEAD~1")
    parser.add_argument("--change", default="HEAD",
                        help="a revision, or 'worktree'")
    parser.add_argument("--workdir", help="reused between calls if given")
    args = parser.parse_args(argv)

    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="pair_bench-"))
    trees = {"parent": workdir / "parent", "change": workdir / "change"}
    labels = {side: checkout(rev, trees[side])
              for side, rev in (("parent", args.parent),
                                ("change", args.change))}
    print(f"pair_bench: {args.workload} seed {args.seed}, {args.pairs} pairs"
          f" (parent {labels['parent']}, change {labels['change']}) in "
          f"{workdir}", flush=True)
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(trees[side], args.workload, args.seed,
                                       args.trace))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)
    return report(runs, directions(trees["change"]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
