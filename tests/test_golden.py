"""Golden corpus: every recorded command reproduces its exit code, stdout
and stderr byte for byte.  The files are written only by
scripts/make_golden.py; this test never rewrites them."""

import contextlib
import io
import json
from pathlib import Path

import pytest

from ignorability_lab.catalog import CATALOG
from ignorability_lab.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(p.stem for p in GOLDEN.glob("*.json"))


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
