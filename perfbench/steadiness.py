"""Steadiness check: do two sets of runs of the same code agree?

Runs every workload of BENCHMARK.json RUNS times in each of two sets, at
its run_seconds, seed i in run i of both sets, alternating which set goes
first from one round to the next.
For each end-to-end metric it prints, per set, the median and quartiles
(Python's statistics.quantiles, n=4) and the spread (q3 - q1) / median,
then whether the second set's median is worse than the first's by no
more than the metric's bound in BENCHMARK.json, and whether each set's
spread stays within the bound (setup_s excepted).  It also checks that
the share of failed ops is the same in both sets.

Usage: python3 perfbench/steadiness.py
Exit code 0 when every check agrees, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(cmd)} exited with {done.returncode}\n"
                         f"{done.stdout}{done.stderr}")
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]

    results = {(w, s): [] for w in workloads for s in (0, 1)}
    for i in range(RUNS):
        for s in ((0, 1) if i % 2 == 0 else (1, 0)):
            for w in (workloads if i % 2 == 0 else workloads[::-1]):
                result = run_once(w, i + 1, spec["run_seconds"])
                results[(w, s)].append(result)
                print(f"round {i + 1} set {s + 1} {w}: correct={result['correct']}",
                      file=sys.stderr, flush=True)

    agree = True
    for w in workloads:
        sets = (results[(w, 0)], results[(w, 1)])
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs)
        print(f"\n{w}: {RUNS} runs per set, failed share {shares[0]:.4f} / "
              f"{shares[1]:.4f}, all correct: {correct}")
        agree = agree and correct and shares[0] == shares[1]
        print(f"  {'metric':<13} {'set':>3} {'q1':>11} {'median':>11} {'q3':>11} "
              f"{'spread':>7}  {'shift':>7} {'bound':>6}  verdict")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            rows = [summary([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            shift = rows[1][1] / rows[0][1] - 1
            worse = shift if metric["better"] == "lower" else -shift
            ok = worse <= bound and (name == "setup_s" or max(r[3] for r in rows) <= bound)
            agree = agree and ok
            for k, (q1, med, q3, spread) in enumerate(rows):
                tail = f"  {shift:+7.2%} {bound:6.2f}  {'agree' if ok else 'DISAGREE'}" if k else ""
                print(f"  {name if not k else '':<13} {k + 1:>3} {q1:11.5g} {med:11.5g} "
                      f"{q3:11.5g} {spread:7.2%}{tail}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
