#!/usr/bin/env python3
"""Classify every catalog example under all three inference types and
print one verdict row per (example, inference) pair.

Usage: python scripts/run_examples.py [--json]
"""

import argparse
import json
import sys

from ignorability_lab.catalog import CATALOG
from ignorability_lab.exactprob import EngineError
from ignorability_lab.ignorance import dirac_fix
from ignorability_lab.inference import (
    FREQUENTIST,
    LIKELIHOOD_BASED,
    default_estimator,
    prepare,
)
from ignorability_lab.modelfile import parse_model
from ignorability_lab.reports import to_jsonable


def verdicts_for(name: str) -> dict:
    build = parse_model(CATALOG[name]).build()
    # one ignored family serves all three inference types
    prepared = prepare(
        build.model, (build.v, build.v_bar), build.scheme, build.target, dirac_fix()
    )
    out = {}
    rep = prepared.test(LIKELIHOOD_BASED, None)
    out["likelihood"] = (rep.verdict, rep.alpha)
    estimator = default_estimator(build.scheme)
    rep = prepared.test(FREQUENTIST, None, estimator)
    out["frequentist"] = (rep.verdict, None)
    # Bayesian verdicts are per observation: all of them in one pass, as
    # `check --inference bayes` without --x reads them
    bayes = "ignorable" if all(prepared.posterior_verdicts()) else "informative"
    out["bayes"] = (bayes, None)
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args()
    rows = []
    for name in sorted(CATALOG):
        try:
            results = verdicts_for(name)
        except EngineError as err:  # some targets do not fit every inference
            rows.append((name, "-", f"skipped: {err}", ""))
            continue
        for inference, (verdict, alpha) in results.items():
            rows.append((name, inference, verdict, alpha))
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "example": n,
                        "inference": i,
                        "verdict": v,
                        "alpha": to_jsonable(a),
                    }
                    for n, i, v, a in rows
                ],
                indent=1,
            )
        )
        return 0
    width = max(len(r[0]) for r in rows)
    for name, inference, verdict, alpha in rows:
        tail = f"  alpha={alpha}" if alpha else ""
        print(f"{name.ljust(width)}  {inference:<12} {verdict}{tail}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
