"""The engine is standard-library only: every absolute import of every
module under src/ignorability_lab names a standard-library module."""

import ast
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
