#!/usr/bin/env python3
"""Calibration of the Monte Carlo gate of the acceptance suite.

Criterion 9 runs `mc-verify` on every catalog model at its first grid
point, with 100,000 draws and seed 20260810, and passes when at most 1% of
the cells fall outside their three-sigma band (`McCell.within`).  This
script prints two figures behind that gate:

1. per catalog cell, the exact binomial probability that its count at
   100,000 draws falls outside the band.  The counts inside the band are
   found with `McCell.within` itself, so the float band is the one the
   gate applies; the probability is an exact ratio of integers, rounded
   once for printing.  From these: the expected number of cells outside
   per seed, and the chance that the gate fails if the cells were
   independent (a float sum over the cells);
2. the pooled number of cells outside the band over seeds 0-199, against
   that expectation, and the seeds at which the gate fails.

Usage: python scripts/mc_calibration.py
"""

import math
import statistics
import time
from math import comb

from ignorability_lab.catalog import CATALOG
from ignorability_lab.mc import McCell, compare_exact_vs_mc
from ignorability_lab.modelfile import parse_model

DRAWS = 100_000
GATE_SEED = 20_260_810
SEEDS = range(200)


def inside_range(p, n):
    """(lo, hi): the counts k with McCell(p, k, n).within are lo..hi."""

    def within(k):
        return McCell(outcome=None, exact=p, count=k, draws=n).within

    lo = hi = round(p * n)
    assert within(lo)
    while lo > 0 and within(lo - 1):
        lo -= 1
    while hi < n and within(hi + 1):
        hi += 1
    return lo, hi


def outside_probability(p, n):
    """P(count outside the band) for count ~ Binomial(n, p), as an exact
    (numerator, denominator) pair."""
    a, b = p.numerator, p.denominator
    c = b - a
    lo, hi = inside_range(p, n)
    if c == 0:  # p = 1: the count is always n
        return (0 if lo <= n <= hi else 1), 1
    # term(k) = C(n, k) a^k c^(n-k), and P(count = k) = term(k) / b^n
    term = comb(n, lo) * a**lo * c ** (n - lo)
    inside = term
    for k in range(lo, hi):
        term = term * (n - k) * a // ((k + 1) * c)  # exact: term(k + 1) is an integer
        inside += term
    den = b**n
    return den - inside, den


def at_least(probs, m):
    """P(at least m of independent events with these probabilities)."""
    dist = [1.0]  # dist[j] = P(j events so far)
    for q in probs:
        dist = [
            (dist[j] if j < len(dist) else 0.0) * (1 - q)
            + (dist[j - 1] * q if j > 0 else 0.0)
            for j in range(len(dist) + 1)
        ]
    return 1.0 - sum(dist[:m])


def main():
    start = time.monotonic()
    models = {}
    for name in sorted(CATALOG):
        build = parse_model(CATALOG[name]).build()
        theta, phi = build.model.grid[0]
        models[name] = (build.model, theta, phi, build.scheme)

    print(f"1. exact probability of a cell outside its band at {DRAWS:,} draws")
    print(f"{'model':<18} {'exact':>7} {'inside':>13} {'P(outside)':>11}")
    probs = []
    expected_of = {}  # model -> (cells, expected cells outside per seed)
    for name, (m, theta, phi, scheme) in models.items():
        report = compare_exact_vs_mc(m, theta, phi, scheme=scheme, draws=1, seed=0)
        first = len(probs)
        for cell in report.cells:
            num, den = outside_probability(cell.exact, DRAWS)
            probs.append(num / den)
            lo, hi = inside_range(cell.exact, DRAWS)
            print(f"{name:<18} {str(cell.exact):>7} {f'{lo}-{hi}':>13} {probs[-1]:>11.5f}")
        expected_of[name] = (len(probs) - first, sum(probs[first:]))
    cells = len(probs)
    allowed = math.floor(0.01 * cells)
    expected = sum(probs)
    print(f"cells: {cells}; the gate allows {allowed} outside")
    print(f"expected cells outside per seed: {expected:.4f} ({expected / cells:.3%} of cells)")
    print(f"P(gate fails) if the cells were independent: {at_least(probs, allowed + 1):.4f}")

    print(f"\n2. cells outside the band over seeds {SEEDS[0]}-{SEEDS[-1]}")
    per_seed = []
    failing = []
    by_model = dict.fromkeys(models, 0)
    for seed in SEEDS:
        outside = 0
        for name, (m, theta, phi, scheme) in models.items():
            report = compare_exact_vs_mc(m, theta, phi, scheme=scheme, draws=DRAWS, seed=seed)
            outside += report.cells_outside
            by_model[name] += report.cells_outside
        per_seed.append(outside)
        if outside > allowed:
            failing.append(seed)
    observed = sum(per_seed)
    pooled = expected * len(SEEDS)
    # seeds are independent streams; the cells of one seed need not be
    spread = statistics.stdev(per_seed) * math.sqrt(len(SEEDS))
    print(f"cells outside: {observed} of {cells * len(SEEDS):,} "
          f"({observed / (cells * len(SEEDS)):.3%}); expected {pooled:.1f}; "
          f"(observed - expected) / standard error = {(observed - pooled) / spread:+.2f}")
    print(f"seeds failing the gate: {len(failing)} of {len(SEEDS)}: "
          f"{', '.join(map(str, failing))}")
    print(f"{'model':<18} {'cells':>5} {'outside':>8} {'expected':>9}")
    for name, count in by_model.items():
        n_cells, e = expected_of[name]
        print(f"{name:<18} {n_cells:>5} {count:>8} {e * len(SEEDS):>9.1f}")
    gate = sum(
        compare_exact_vs_mc(m, theta, phi, scheme=scheme, draws=DRAWS, seed=GATE_SEED).cells_outside
        for m, theta, phi, scheme in models.values()
    )
    print(f"criterion 9's seed {GATE_SEED}: {gate} cells outside")
    print(f"elapsed: {time.monotonic() - start:.1f} s")


if __name__ == "__main__":
    main()
