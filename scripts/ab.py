#!/usr/bin/env python3
"""Interleaved same-host A/B of the benchmark: a base git ref against the
working tree.

    python3 scripts/ab.py BASE [--workload W ...] [--pairs N]

Extracts BASE with `git archive` into a temporary directory (never a
worktree), then runs each tree's own `perfbench/run.py --trace 0`, for
--pairs pairs per workload (default 10; every workload of BENCHMARK.json
unless --workload names some). Pair i uses seed i + 1 on both sides, and
the side that runs first alternates from pair to pair. Each side builds
into its own temporary CARGO_TARGET_DIR, and one untimed 1 s run per
side builds both trees before the first pair. Every run lasts
BENCHMARK.json's run_seconds. Nothing is written into the repository.

Prints, per workload and end-to-end metric, each side's median and
interquartile range, the pairs the head won (ties count for neither),
failed/attempted operations per side, and hardware_concurrency.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A measured run ends within 180 s (perfbench/run.py); the warm-up run
# also builds its tree from scratch.
RUN_TIMEOUT_S = 600
BUILD_TIMEOUT_S = 3600


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def extract(ref, dest):
    """Write the tree of git ref @ref into dest."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", ref],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        sys.exit("ab: cannot extract %r" % ref)


def run_side(tree, target, workload, seed, seconds, timeout):
    """One perfbench run of tree; returns (result, report) or
    (None, None) when the run crashed, timed out or printed no result."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, None
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
        report = json.loads(lines[-2]).get("report", {})
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr[-2000:])
        return None, None
    return result, report


def quartiles(values):
    """(q1, median, q3), linear interpolation between order statistics."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="git ref of the base side")
    ap.add_argument("--workload", action="append", choices=names,
                    help="workload to run (repeatable; default all)")
    ap.add_argument("--pairs", type=int, default=10,
                    help="pairs of runs per workload (default 10)")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    workloads = args.workload or names
    seconds = spec["run_seconds"]

    with tempfile.TemporaryDirectory(prefix="pargpu-ab-") as tmp:
        base_tree = os.path.join(tmp, "base")
        extract(args.base, base_tree)
        sides = {"base": (base_tree, os.path.join(tmp, "base-build")),
                 "head": (ROOT, os.path.join(tmp, "head-build"))}
        for side, (tree, target) in sides.items():
            print("ab: building %s" % side, flush=True)
            result, _ = run_side(tree, target, workloads[0], 1, 1,
                                 BUILD_TIMEOUT_S)
            if result is None:
                sys.exit("ab: the %s tree did not build or run" % side)

        for workload in workloads:
            runs = {"base": [], "head": []}
            hw = set()
            for i in range(args.pairs):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                for side in order:
                    tree, target = sides[side]
                    result, report = run_side(tree, target, workload, i + 1,
                                              seconds, RUN_TIMEOUT_S)
                    runs[side].append(result)
                    if report and "hardware_concurrency" in report:
                        hw.add(str(report["hardware_concurrency"]))
                print("ab: %s pair %d/%d done (%s first)"
                      % (workload, i + 1, args.pairs, order[0]), flush=True)
            report_workload(spec, workload, runs, hw)


def report_workload(spec, workload, runs, hw):
    print("\n%s: %d pairs, hardware_concurrency %s"
          % (workload, len(runs["head"]), "/".join(sorted(hw)) or "?"))
    for side in ("base", "head"):
        done = [r for r in runs[side] if r is not None]
        attempted = sum(r["attempted"] for r in done) + \
            (len(runs[side]) - len(done))
        failed = sum(r["failed"] for r in done) + \
            (len(runs[side]) - len(done))
        wrong = sum(1 for r in done if not r["correct"])
        print("  %s: failed/attempted %d/%d, incorrect runs %d"
              % (side, failed, attempted, wrong))
    print("  %-18s %-10s %12s %10s %12s %10s %9s"
          % ("metric", "unit", "base median", "base IQR", "head median",
             "head IQR", "head wins"))
    for m in spec["end_to_end"]:
        name = m["name"]
        pairs = [(b["metrics"][name]["value"], h["metrics"][name]["value"])
                 for b, h in zip(runs["base"], runs["head"])
                 if b is not None and h is not None]
        if not pairs or all(b == 0 and h == 0 for b, h in pairs):
            continue  # The workload does not measure this metric.
        higher = m["better"] == "higher"
        wins = sum(1 for b, h in pairs if (h > b if higher else h < b))
        bq = quartiles([b for b, _ in pairs])
        hq = quartiles([h for _, h in pairs])
        print("  %-18s %-10s %12.4g %10.3g %12.4g %10.3g %6d/%d"
              % (name, m["unit"], bq[1], bq[2] - bq[0], hq[1],
                 hq[2] - hq[0], wins, len(pairs)))


if __name__ == "__main__":
    main()
