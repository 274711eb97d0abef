#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs.

Usage:
  python3 scripts/bench_pairs.py PARENT CHANGE --workload NAME [--pairs N] [--seed S]

Pair i runs `perfbench/run.py --workload NAME --seed S+i --trace 0` once in
each checkout, in a fresh process with PYTHONDONTWRITEBYTECODE=1 (so that
neither tree times a bytecode cache), one run at a time; the parent goes
first in even pairs and the change in odd ones.  Each run's last line of
stdout is its JSON result.  A run that exits non-zero, or whose last line
is not that JSON, is reported with its side, seed and exit code, and its
pair is left out of the table.

For each end-to-end metric of CHANGE's BENCHMARK.json the table gives both
sides' median and quartiles (`statistics.quantiles(n=4)`), the change's
shift of the median against the metric's bound, the pairs the change wins
(its value better, by the metric's `better`), and the pair rule: the
change wins at least nine in ten pairs and its median is better by more
than the parent's q3 - q1.  It also sums each side's failed and attempted
ops.  It exits 1 when a run failed, else 0.  It imports nothing from
`perfbench/`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(tree: str, workload: str, seed: int) -> tuple:
    """(exit code, the run's JSON result or None, its stderr's last line)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
            "--workload", workload, "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    err = done.stderr.strip().splitlines()
    return done.returncode, result if isinstance(result, dict) else None, err[-1] if err else ""


def quartiles(values: list) -> tuple:
    """(q1, median, q3) of the values."""
    if len(values) < 2:
        return values * 3
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the parent checkout")
    parser.add_argument("change", help="the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    sides = (("parent", args.parent), ("change", args.change))
    pairs, failures = [], []
    for i in range(args.pairs):
        seed, got = args.seed + i, {}
        for name, tree in sides if i % 2 == 0 else sides[::-1]:
            code, result, err = run_once(tree, args.workload, seed)
            if code != 0 or result is None:
                failures.append((name, seed, code, err))
                print(f"pair {i + 1} seed {seed}: {name} run FAILED with exit {code}: {err}", flush=True)
            got[name] = result
        if all(got.values()):
            pairs.append(got)
            shown = "  ".join(f"{m['name']} {got['parent']['metrics'][m['name']]['value']:.4g}"
                              f"/{got['change']['metrics'][m['name']]['value']:.4g}" for m in metrics)
            print(f"pair {i + 1} seed {seed}: parent/change  {shown}", flush=True)
    print(f"\n{args.workload}: {len(pairs)} of {args.pairs} pairs complete, {len(failures)} runs failed")
    for name in ("parent", "change"):
        failed = sum(p[name]["failed"] for p in pairs)
        attempted = sum(p[name]["attempted"] for p in pairs)
        correct = all(p[name]["correct"] for p in pairs)
        print(f"  {name}: failed ops {failed} of {attempted}, every run correct: {correct}")
    if pairs:
        print(f"  {'metric':<12} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}"
              f" {'shift':>8} {'bound':>6} {'wins':>6}  pair rule")
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
            change = [p["change"]["metrics"][name]["value"] for p in pairs]
            (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
            gain = (pm - cm) if lower else (cm - pm)
            wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
            holds = wins * 10 >= 9 * len(pairs) and gain > p3 - p1
            print(f"  {name:<12} {pm:>12.5g} [{p1:.5g}, {p3:.5g}] {cm:>12.5g} [{c1:.5g}, {c3:.5g}]"
                  f" {(cm - pm) / pm:>+8.2%} {metric['bound']:>6} {wins:>3}/{len(pairs)}  {'holds' if holds else 'no'}")
    for name, seed, code, err in failures:
        print(f"FAILED: {name} seed {seed} exit {code}: {err}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
