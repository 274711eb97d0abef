#!/usr/bin/env python3
"""Exhaustive audit of the missing-data theorems over small models.

Sweeps every model built from the signal and missingness catalogs below
(two units, binary values, grids of size one or two), audits every
positive-probability observation (listed by the model's Rubin context,
with no world space built), and reports how often each theorem's
hypotheses and conclusion hold.  A counterexample row would mean the
audit found hypotheses true and conclusion false somewhere; the engine's
soundness claim is that this never happens.

It also prints a SHA-256 over the audits' machine JSON payloads, one line
each in sweep order, and `ok` when it is the one recorded in DIGEST or
`DIFFERS` when it is not; it exits 1 on a counterexample or a differing
digest.  The sweep is acceptance criterion 6's: the same models in the
same order, so DIGEST is that criterion's digest.

Usage: PYTHONPATH=src python3 scripts/rubin_sweep.py
"""

import hashlib
import itertools
import sys
import time
from fractions import Fraction as F

from ignorability_lab.exactprob import Kernel, dist_new, point_mass, uniform
from ignorability_lab.inference import prepare_rubin
from ignorability_lab.reports import machine_json, rubin_payload
from ignorability_lab.sampling import (
    Population,
    SurveyModel,
    values_and_mapping,
)

SIGNALS = {
    "uniform_pair": [((0, 0), F(1, 4)), ((0, 1), F(1, 4)), ((1, 0), F(1, 4)), ((1, 1), F(1, 4))],
    "iid_third": [((0, 0), F(4, 9)), ((0, 1), F(2, 9)), ((1, 0), F(2, 9)), ((1, 1), F(1, 9))],
    "correlated": [((0, 0), F(1, 2)), ((1, 1), F(1, 2))],
    "skewed": [((0, 0), F(1, 4)), ((0, 1), F(1, 2)), ((1, 0), F(1, 12)), ((1, 1), F(1, 6))],
}

KERNELS = {
    "census": lambda y: point_mass((1, 2)),
    "first_only": lambda y: point_mass((1,)),
    "uniform_subsets": lambda y: uniform([(), (1,), (2,), (1, 2)]),
    "depends_on_first": lambda y: point_mass((1, 2)) if y[0] == 1 else point_mass((1,)),
    "depends_on_second": lambda y: point_mass((1,)) if y[1] == 1 else point_mass((1, 2)),
    "uniform_singletons": lambda y: uniform([(1,), (2,)]),
}

THEOREMS = ("6.1", "6.2", "6.3", "7.1", "7.2")
# SHA-256 of the audit payloads of the sweep
DIGEST = "03f8de6488e0d96f608c2630c09897369da663c80708d414cb7f29a8464eaf25"


def build_model(thetas, phis):
    pop = Population((1, 2))
    return SurveyModel.create(
        population=pop,
        thetas=thetas,
        signal_law={
            t: dist_new([((y, y), w) for y, w in SIGNALS[t]]) for t in thetas
        },
        phis=phis,
        design_law={
            p: Kernel.from_rule(lambda z, fn=KERNELS[p]: fn(tuple(z))) for p in phis
        },
        z_contains_y=True,
    )


def main() -> int:
    start = time.monotonic()
    grids = lambda names: [(n,) for n in names] + list(
        itertools.combinations(names, 2)
    )
    stats = {name: [0, 0, 0, 0] for name in THEOREMS}  # hh, hc, ch, cc buckets
    audits = 0
    counterexamples = []
    digest = hashlib.sha256()
    for thetas in grids(list(SIGNALS)):  # in the order listed
        for phis in grids(sorted(KERNELS)):
            rubin = prepare_rubin(build_model(thetas, phis), values_and_mapping())
            for x in rubin.observations(values_and_mapping()):
                report = rubin.audit(x)
                audits += 1
                digest.update(machine_json(rubin_payload(report)).encode() + b"\n")
                for name in THEOREMS:
                    audit = report.audit(name)
                    row = stats[name]
                    row[0] += audit.hypothesis_true
                    row[1] += audit.hypothesis_true and audit.conclusion_true
                    row[2] += audit.conclusion_true
                    row[3] += 1
                    if name != "6.2" and audit.counterexample():
                        counterexamples.append((thetas, phis, x, name))
    elapsed = time.monotonic() - start
    print(f"models audited over {audits} observations in {elapsed * 1000:.0f} ms\n")
    print("theorem  hyp-true  hyp&concl  concl-true  total")
    for name in THEOREMS:
        hh, hc, ch, total = stats[name]
        print(f"{name:<7}  {hh:>8}  {hc:>9}  {ch:>10}  {total:>5}")
    verdict = "ok" if digest.hexdigest() == DIGEST else "DIFFERS"
    print(f"\nsha256 {digest.hexdigest()}  {verdict}")
    if counterexamples:
        print("\nCOUNTEREXAMPLES FOUND:")
        for row in counterexamples:
            print("  ", row)
        return 1
    print("\nno counterexamples: every audited implication held")
    return 0 if verdict == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
