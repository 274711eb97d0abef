#!/usr/bin/env python3
"""Write the golden corpus under tests/golden/ from the command-line front end.

Each case runs `cli.main` in process on one catalog model (written out as
`examples --dir` writes it) and records the exit code, stdout and stderr
in tests/golden/<case>.json; a case is named
<command>.<model>[.<inference>.<policy>], and its first part is the command:

  - check --json for every model x {likelihood, frequentist, bayes}
    x {dirac, arbitrary, marginal};
  - enumerate --json and inclusion --json for every model;
  - audit-rubin --json for every model whose scheme exposes the mapping.

tests/test_golden.py replays every case and compares byte for byte; it
never rewrites the files.  Regenerate only on purpose and review the diff:

    PYTHONPATH=src python3 scripts/make_golden.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile

from ignorability_lab.catalog import CATALOG
from ignorability_lab.cli import main as cli_main
from ignorability_lab.modelfile import parse_model
from ignorability_lab.sampling import VALUES_AND_MAPPING, VALUES_MAPPING_DESIGN

GOLDEN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "tests", "golden")


def cases():
    """(case name, model name, arguments after the model path) triples."""
    out = []
    for name, text in CATALOG.items():
        for inference in ("likelihood", "frequentist", "bayes"):
            for policy in ("dirac", "arbitrary", "marginal"):
                out.append((f"check.{name}.{inference}.{policy}", name,
                            ["--inference", inference, "--policy", policy, "--json"]))
        out.append((f"enumerate.{name}", name, ["--json"]))
        out.append((f"inclusion.{name}", name, ["--json"]))
        kind = parse_model(text).build().scheme.kind
        if kind in (VALUES_AND_MAPPING, VALUES_MAPPING_DESIGN):
            out.append((f"audit-rubin.{name}", name, ["--json"]))
    return out


def run_case(case, model_path, args):
    """(exit code, stdout, stderr) of one case."""
    command = case.split(".", 1)[0]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main([command, model_path, *args])
    return code, out.getvalue(), err.getvalue()


def write_models(directory):
    """Write every catalog model into `directory`; return {name: path}."""
    paths = {}
    for name, text in CATALOG.items():
        paths[name] = os.path.join(directory, f"{name}.model")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    return paths


def main() -> int:
    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_models(tmp)
        for case, model, args in cases():
            code, stdout, stderr = run_case(case, paths[model], args)
            record = {"model": model, "args": args, "exit": code,
                      "stdout": stdout, "stderr": stderr}
            with open(os.path.join(GOLDEN, f"{case}.json"), "w", encoding="utf-8") as fh:
                fh.write(json.dumps(record, indent=1, sort_keys=True) + "\n")
            print(f"{case}: exit {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
