"""The engine is standard-library only: every absolute import of every
module under src/ignorability_lab names a standard-library module.  It
also starts without `dataclasses` and `inspect`, which its records do not
need, and without `traceback` (with its `linecache` and `tokenize`),
which only an internal error needs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "ignorability_lab").glob("*.py"))


def absolute_imports(path):
    """The top-level module of each absolute import in one source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_engine_module_is_read():
    assert "__init__.py" in {path.name for path in SOURCES} and len(SOURCES) > 1


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_standard_library_imports(path):
    outside = sorted(set(absolute_imports(path)) - sys.stdlib_module_names)
    assert outside == [], f"{path.name} imports {outside}"


def test_engine_imports_neither_dataclasses_nor_inspect():
    # a fresh interpreter, so that no other test's imports count
    code = (
        "import sys, ignorability_lab.cli, ignorability_lab.mc; "
        "print(sorted({'dataclasses', 'inspect', 'traceback', 'linecache', 'tokenize'} & set(sys.modules)))"
    )
    src = str(SOURCES[0].parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    assert done.stdout.strip() == "[]"
