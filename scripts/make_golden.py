#!/usr/bin/env python3
"""Write the golden corpus under tests/golden/ from the command-line front end.

Each case runs `cli.main` in process on one catalog model (written out as
`examples --dir` writes it) and records the exit code, stdout and stderr
in tests/golden/<case>.json; a case is named
<command>.<model>[.<inference>.<policy>[.mar_uniform]], and its first part
is the command:

  - check --json for every model x {likelihood, frequentist, bayes}
    x {dirac, arbitrary, marginal};
  - enumerate --json and inclusion --json for every model;
  - for every model whose scheme exposes the mapping: audit-rubin --json,
    and check --inference bayes --policy dirac --mar-variant uniform --json;
  - mc-verify --json for every model at its default grid point, with the
    seed of acceptance criterion 9 and 20,000 draws, and once with a
    single draw of seed 0 (case mc-verify.<model>.draws1).

tests/test_golden.py replays every case and compares byte for byte; it
never rewrites the files.  Regenerate only on purpose and review the diff:

    PYTHONPATH=src python3 scripts/make_golden.py

With --check the corpus is regenerated into a temporary directory and
compared with tests/golden/ instead; the script lists every case that
differs (with the first stdout line where the committed and the fresh
output part, or the fields that differ when stdout does not), is missing
from tests/golden/ or is no longer generated, and exits 1 if there is any:

    PYTHONPATH=src python3 scripts/make_golden.py --check
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import sys
import tempfile

from ignorability_lab.catalog import CATALOG
from ignorability_lab.cli import main as cli_main
from ignorability_lab.modelfile import parse_model
from ignorability_lab.sampling import VALUES_AND_MAPPING, VALUES_MAPPING_DESIGN

MC_SEED = "20260810"
MC_DRAWS = "20000"
MC_SINGLE_DRAW_MODEL = "srs_wor_n3"

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
            out.append((f"check.{name}.bayes.dirac.mar_uniform", name,
                        ["--inference", "bayes", "--policy", "dirac",
                         "--mar-variant", "uniform", "--json"]))
        out.append((f"mc-verify.{name}", name,
                    ["--seed", MC_SEED, "--draws", MC_DRAWS, "--json"]))
    out.append((f"mc-verify.{MC_SINGLE_DRAW_MODEL}.draws1", MC_SINGLE_DRAW_MODEL,
                ["--seed", "0", "--draws", "1", "--json"]))
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


def write_corpus(directory, verbose=False):
    """Run every case and write its record to `directory`/<case>.json."""
    os.makedirs(directory, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_models(tmp)
        for case, model, args in cases():
            code, stdout, stderr = run_case(case, paths[model], args)
            record = {"model": model, "args": args, "exit": code,
                      "stdout": stdout, "stderr": stderr}
            with open(os.path.join(directory, f"{case}.json"), "w", encoding="utf-8") as fh:
                fh.write(json.dumps(record, indent=1, sort_keys=True) + "\n")
            if verbose:
                print(f"{case}: exit {code}")


def _read_corpus(directory):
    """{case: file bytes} of every record in `directory`."""
    out = {}
    for entry in sorted(os.listdir(directory)):
        if entry.endswith(".json"):
            with open(os.path.join(directory, entry), "rb") as fh:
                out[entry[: -len(".json")]] = fh.read()
    return out


def first_difference(committed: bytes, fresh: bytes) -> str:
    """Where two records of one case part: the first stdout line that
    differs, numbered from 1, on both sides (None past the last line), or
    else the record fields that differ."""
    old, new = json.loads(committed), json.loads(fresh)
    pairs = itertools.zip_longest(old["stdout"].splitlines(), new["stdout"].splitlines())
    for number, (a, b) in enumerate(pairs, 1):
        if a != b:
            return f"stdout line {number}: committed {a!r}, fresh {b!r}"
    fields = [k for k in sorted(old.keys() | new.keys()) if old.get(k) != new.get(k)]
    return "fields " + ", ".join(fields) if fields else "file bytes only"


def check_corpus() -> int:
    """Compare a fresh corpus with the committed one; 0 when identical."""
    committed = _read_corpus(GOLDEN) if os.path.isdir(GOLDEN) else {}
    with tempfile.TemporaryDirectory() as tmp:
        write_corpus(tmp)
        fresh = _read_corpus(tmp)
    problems = (
        [f"differs: {c}: {first_difference(committed[c], fresh[c])}"
         for c in sorted(fresh) if c in committed and fresh[c] != committed[c]]
        + [f"missing: {c}" for c in sorted(fresh) if c not in committed]
        + [f"extra: {c}" for c in sorted(committed) if c not in fresh]
    )
    for line in problems:
        print(line)
    print(f"{len(fresh)} cases generated, {len(committed)} committed, "
          f"{len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--check", action="store_true",
                        help="compare a fresh corpus with tests/golden/ instead of writing it")
    if parser.parse_args(argv).check:
        return check_corpus()
    write_corpus(GOLDEN, verbose=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
