#!/usr/bin/env python3
"""List the engine lines that a pytest run does not execute.

Runs pytest in this process with the given arguments (and
`-p no:cacheprovider`), under a `sys.settrace` hook that records the
lines run in frames whose code lives under src/ignorability_lab.  Then
it prints every executable line of every module there that did not run,
as `path:line: source`, and per module how many of its executable lines
did not run.  A line is executable when the compiled module has a line
start on it (`dis.findlinestarts` over every code object).  Only this
process is traced: what tests run in subprocesses counts as not run.
It exits with pytest's code.  Tracing makes the run several times
slower than an untraced one.

Usage: PYTHONPATH=src python3 scripts/uncovered.py [pytest arguments]
"""

import dis
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ignorability_lab"
PREFIX = str(PACKAGE) + "/"


def executable_lines(path: Path) -> set:
    """The lines of a source file that start a line's bytecode in any of
    its code objects."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _offset, line in dis.findlinestarts(code) if line)  # a module's first line start is 0
        stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return lines


def trace_engine():
    """Start tracing the engine's frames in this thread and in threads
    started later; returns {filename: set of lines run}."""
    hits, local_of = {}, {}

    def local_for(filename):
        add = hits.setdefault(filename, set()).add

        def local(frame, event, _arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        return local

    def tracer(frame, _event, _arg):
        filename = frame.f_code.co_filename
        local = local_of.get(filename)
        if local is None:
            if not filename.startswith(PREFIX):
                return None
            local = local_of[filename] = local_for(filename)
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    return hits


def main() -> int:
    hits = trace_engine()
    try:
        code = pytest.main([*sys.argv[1:], "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    counts = []
    for path in sorted(PACKAGE.glob("*.py")):
        run = hits.get(str(path), set())
        source = path.read_text(encoding="utf-8").splitlines()
        missed = sorted(executable_lines(path) - run)
        shown = path.relative_to(ROOT)
        for line in missed:
            print(f"{shown}:{line}: {source[line - 1]}")
        counts.append(f"{shown}: {len(missed)} lines not run")
        total += len(missed)
    print("\n".join(counts))
    print(f"total: {total} lines not run")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
