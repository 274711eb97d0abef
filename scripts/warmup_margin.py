"""Time the benchmark's warm-up pass of each workload in fresh processes.

Usage:
  python3 scripts/warmup_margin.py [--runs N] [--workload NAME ...]

`perfbench/run.py` runs one untimed warm-up pass (`warm_up`) before it
times anything, under the reference sampler, whose first sample comes
20 ms after the pass starts.  A pass that ends before that sample has
none to read its speed from.  This script runs that pass,
`Pass(workloads.setup(name, 1, out_dir).warmup_ops)`, in N fresh
processes per workload (default 12), one workload after the other in
turn, with PYTHONHASHSEED=0 and PYTHONDONTWRITEBYTECODE=1.  Per workload
it prints the median and quartiles of the pass's wall milliseconds and
the fewest reference samples any pass took.  A pass that ends with no
sample is counted and reported, not raised, and the script then exits 1
(0 when every pass took a sample).  It imports only `perfbench` and
writes only to a temporary directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
WORKLOADS = ("catalog_check", "rubin_sweep", "mc_verify")

# one warm-up pass in this process: [wall ms, reference samples taken]
CHILD = """
import json, statistics, sys, time
sys.path.insert(0, sys.argv[1])
import reference, run, workloads
run.reference = reference  # run.py imports it only when run as a script
w = workloads.setup(sys.argv[2], 1, sys.argv[3])
start = time.perf_counter()
try:
    samples = len(run.Pass(w.warmup_ops).sampler.starts)
except statistics.StatisticsError:  # no sample to read an op's speed from
    samples = 0
print(json.dumps([(time.perf_counter() - start) * 1000, samples]))
"""


def warmup(name, out_dir) -> tuple:
    """(wall ms, samples) of one warm-up pass of workload `name` in a fresh process."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", CHILD, PERFBENCH, name, out_dir],
                          stdout=subprocess.PIPE, text=True, env=env, check=True)
    wall, samples = json.loads(done.stdout.splitlines()[-1])
    return wall, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=12, help="fresh processes per workload")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="a workload to time (repeatable; default all three)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    names = args.workload or WORKLOADS
    runs = {name: [] for name in names}
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(args.runs):
            for name in names:
                out_dir = os.path.join(tmp, name)
                os.makedirs(out_dir, exist_ok=True)
                runs[name].append(warmup(name, out_dir))
    print("workload        runs  wall ms median [q1, q3]  fewest samples  passes with none")
    empty = 0
    for name, done in runs.items():
        walls = sorted(wall for wall, _samples in done)
        q1, median, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
        fewest = min(samples for _wall, samples in done)
        none = sum(samples == 0 for _wall, samples in done)
        empty += none
        print(f"{name:<15} {len(done):>4}  {median:8.1f} [{q1:.1f}, {q3:.1f}]  {fewest:>14}  {none:>16}")
    return 1 if empty else 0


if __name__ == "__main__":
    sys.exit(main())
