"""Run one benchmark workload and print its metrics.

Usage:
  python3 perfbench/run.py --workload <catalog_check|rubin_sweep|mc_verify>
                           [--seed N] [--seconds S] [--trace 0|1]

With --trace 0 the run times the workload with tracing off and prints
the end-to-end metrics; with --trace 1 it runs one untraced pass and one
traced pass, checks that their outputs are identical, and prints the
per-layer metrics.  Either way the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the exit code is 0
when every output check passed and 1 otherwise.

Timings are wall clock in units of the reference computation in
reference.py, sampled in the same process while the ops run (unit
`ref`).  See README.md for the metrics, the workloads and measured
figures.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
HASH_SEED = "0"
# cold starts per run, half before the timed passes and half after
SETUP_STARTS = 8
# the reference unit's time in the fast state of the 2-core VM the bounds
# were set on; setup_s is the cold start's wall time at that speed
NOMINAL_REF_S = 0.0006
TAIL_BEYOND = 10  # samples beyond the tail percentile
TAIL_MIN_SAMPLES = 40


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("catalog_check", "rubin_sweep", "mc_verify"))
    parser.add_argument("--seed", type=int, default=1)
    # a run times each workload's fixed number of passes (Workload.passes),
    # about 20 s on a 2-core VM, so that every run times the same ops;
    # --seconds is accepted for the common benchmark interface only
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cold_starts(workload, seed, count):
    """(wall seconds, seconds at the nominal speed) of `count` cold starts
    of a fresh interpreter.

    A cold start's wall time follows the machine's speed, which on the VM
    this was built on changes by up to 2x from one second to the next.
    The probe runs the reference sampler throughout; its samples leave the
    wall time and their mean gives the speed the start ran at."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(count):
        start = time.perf_counter()
        # no timeout: waiting with one polls in steps of up to 50 ms
        done = subprocess.run([sys.executable, probe, workload, str(seed), OUT_DIR],
                              stdout=subprocess.PIPE, text=True)
        wall = time.perf_counter() - start
        if done.returncode != 0:
            raise SystemExit(f"error: set-up probe exited with {done.returncode}")
        samples = json.loads(done.stdout.splitlines()[-1])
        times.append((wall, (wall - sum(samples)) * NOMINAL_REF_S / statistics.fmean(samples)))
    return times


class Failed:
    """The output of an op that raised."""

    def __init__(self, err):
        self.text = f"{type(err).__name__}: {err}"

    def __repr__(self):
        return f"Failed({self.text})"


class Pass:
    """One timed pass over a list of ops."""

    def __init__(self, ops, tracer=None):
        # objects alive now (models, earlier outputs) are left out of every
        # collection, so gc.collect() costs the same before the first op
        # and the last
        gc.collect()
        gc.freeze()
        self.ops = ops
        self.outputs = {}
        intervals = []
        with reference.Sampler() as sampler:
            for op in ops:
                gc.collect()
                if tracer is not None:
                    tracer.op = op.name
                start = time.perf_counter()
                try:
                    output = op.run()
                except Exception as err:  # counted as a failed op; the run goes on
                    output = Failed(err)
                intervals.append((start, time.perf_counter()))
                self.outputs[op.name] = output
        self.sampler = sampler
        # wall seconds of each op, less the reference samples taken inside it
        self.seconds = [end - start - sampler.inside(start, end) for start, end in intervals]
        self.op_refs = [s / sampler.speed(start, end)
                        for s, (start, end) in zip(self.seconds, intervals)]
        self.ref = sum(self.op_refs)

    def check(self):
        """(failed op count, problems found in the outputs of the others)."""
        failed, problems = 0, []
        for op in self.ops:
            output = self.outputs[op.name]
            if isinstance(output, Failed):
                failed += 1
            else:
                problems.extend(op.check(output))
        if self.sampler.bad:
            problems.append(f"{self.sampler.bad} reference samples computed a wrong value")
        return failed, problems


def tail(samples):
    """(percentile, value): the highest whole percentile with at least
    TAIL_BEYOND samples beyond it, by nearest rank."""
    n = len(samples)
    q = math.floor(100 * (n - TAIL_BEYOND) / n)
    rank = math.ceil(q * n / 100)
    return q, sorted(samples)[rank - 1]


def warm_up(w):
    """One untimed pass over the workload's warm-up ops; returns the
    problems found in their outputs."""
    return Pass(w.warmup_ops).check()[1]


def end_to_end(args, w):
    starts = cold_starts(args.workload, args.seed, SETUP_STARTS // 2)
    problems = warm_up(w)
    done, failed = [], 0
    for p in range(w.passes):
        done.append(Pass(w.order(p)))
        n_failed, found = done[-1].check()
        failed += n_failed
        problems += found
        problems += [f"{name}: output differs from the first pass"
                     for name, out in done[-1].outputs.items()
                     if repr(out) != repr(done[0].outputs[name])]
    problems += w.run_checks(done[-1].outputs)
    starts += cold_starts(args.workload, args.seed, SETUP_STARTS - len(starts))
    setup_s = statistics.median(scaled for _wall, scaled in starts)
    samples = [v for d in done for v in d.op_refs]
    path = os.path.join(OUT_DIR, f"run-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"cold_starts": starts, "passes": [
            {"ops": [op.name for op in d.ops], "seconds": d.seconds, "op_refs": d.op_refs,
             "sample_starts": d.sampler.starts, "sample_seconds": d.sampler.seconds}
            for d in done]}, fh)
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_ref": (statistics.median(d.ref for d in done), "ref"),
        "op_p50_ref": (statistics.median(samples), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        "cold starts: median %.3f s wall, %.3f s at the nominal speed" % (
            statistics.median(wall for wall, _scaled in starts), setup_s),
        f"passes {w.passes}, {len(w.ops)} ops each; raw wall s per pass "
        + " ".join(f"{sum(d.seconds):.3f}" for d in done),
        "reference unit %.3f ms (median sample, %d samples)" % (
            1e3 * statistics.median(s for d in done for s in d.sampler.seconds),
            sum(len(d.sampler.seconds) for d in done)),
    ]
    if len(samples) >= TAIL_MIN_SAMPLES:
        q, value = tail(samples)
        metrics["op_tail_ref"] = (value, "ref")
        notes.append(f"op_tail_ref is p{q} of {len(samples)} op samples")
    return sum(len(d.ops) for d in done), failed, problems, metrics, notes


def traced(args, w):
    import tracer as tracing

    problems = warm_up(w)
    plain = Pass(w.order(0))
    failed, found = plain.check()
    problems += found

    # the set-up runs traced too, so that engine functions it captures
    # (the Rubin kernels' dist_new) stay wrapped during the pass; its spans
    # carry no op, and only modelfile.* read them (see tracer.METRICS)
    t = tracing.Tracer()
    t.install()
    try:
        tw = workloads.setup(args.workload, args.seed, OUT_DIR)
        t.reset_counters()
        run = Pass(tw.order(0), tracer=t)
    finally:
        t.uninstall()
    n_failed, found = run.check()
    failed += n_failed
    problems += found
    problems += tw.run_checks(run.outputs)
    if [op.name for op in run.ops] != [op.name for op in plain.ops]:
        problems.append("traced run ordered its ops differently")
    problems += [f"{name}: traced output differs from the untraced one"
                 for name, out in plain.outputs.items()
                 if repr(run.outputs.get(name)) != repr(out)]
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
    t.write(path)
    metrics = {k: (v["value"], v["unit"]) for k, v in t.metrics(run.sampler).items()}
    metrics["trace.overhead"] = (run.ref / plain.ref, "ratio")
    notes = [
        f"untraced pass {plain.ref:.1f} ref, traced pass {run.ref:.1f} ref; "
        f"tracing overhead x{run.ref / plain.ref:.3f}",
        f"{len(t.spans)} spans written to {os.path.relpath(path)}",
    ]
    return len(plain.ops) + len(run.ops), failed, problems, metrics, notes


def main(argv=None):
    args = parse_args(argv)
    os.makedirs(OUT_DIR, exist_ok=True)
    w = workloads.setup(args.workload, args.seed, OUT_DIR)
    run = traced if args.trace else end_to_end
    attempted, failed, problems, metrics, notes = run(args, w)
    print(f"workload {args.workload} seed {args.seed}: attempted {attempted}, failed {failed}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for problem in problems[:50]:
        print(f"CHECK FAILED {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # one process, fixed string hashing: dict and set orders repeat
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)
    sys.path.insert(0, HERE)
    import reference  # noqa: E402
    import workloads  # noqa: E402

    sys.exit(main())
