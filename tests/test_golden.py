"""Golden corpus: every recorded command reproduces its exit code, stdout
and stderr byte for byte, and the committed cases are exactly the ones
scripts/make_golden.py generates.  The files are written only by that
script; this test never rewrites them."""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from ignorability_lab.catalog import CATALOG
from ignorability_lab.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(p.stem for p in GOLDEN.glob("*.json"))
MAKE_GOLDEN = Path(__file__).parent.parent / "scripts" / "make_golden.py"


@pytest.fixture(scope="module")
def model_paths(tmp_path_factory):
    directory = tmp_path_factory.mktemp("models")
    paths = {}
    for name, text in CATALOG.items():
        path = directory / f"{name}.model"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return paths


def test_corpus_present():
    assert CASES


def test_cases_match_generator():
    spec = importlib.util.spec_from_file_location("make_golden", MAKE_GOLDEN)
    make_golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_golden)
    generated = {case: (model, args) for case, model, args in make_golden.cases()}
    assert CASES == sorted(generated)
    for case in CASES:
        record = json.loads((GOLDEN / f"{case}.json").read_text(encoding="utf-8"))
        assert (record["model"], record["args"]) == generated[case]


@pytest.mark.parametrize("case", CASES)
def test_golden(case, model_paths):
    record = json.loads((GOLDEN / f"{case}.json").read_text(encoding="utf-8"))
    command = case.split(".", 1)[0]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, model_paths[record["model"]], *record["args"]])
    assert code == record["exit"]
    assert out.getvalue() == record["stdout"]
    assert err.getvalue() == record["stderr"]
