#!/usr/bin/env python3
"""Run every engine command on every parseable mutant of the catalog.

The documents are the distinct texts of the parser's mutant corpus
(`diagnostics_corpus` in tests/test_modelfile.py) that parse, in corpus
order; a document's index is its position among them.  On each one, in
this one process and with IGNORABILITY_LAB_MAX_SUPPORT=20000, the script
runs `check --json` under each of the three inference types, `enumerate`,
`inclusion`, `audit-rubin` and `mc-verify --draws 1000` through
`cli.main`, stdout discarded.  It prints one SHA-256 over (document index,
command, exit code, first stderr line) of every run, with `ok` when it is
the one recorded in DIGEST or `DIFFERS` when it is not, and the number of
runs per exit code.  It names every run that ends with an exit code other
than 0 (answered) or 2 (refused with a diagnostic), and exits 1 when there
is one or when the digest differs.

Usage: PYTHONPATH=src python3 scripts/engine_sweep.py
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from test_modelfile import diagnostics_corpus  # noqa: E402

from ignorability_lab.cli import main  # noqa: E402
from ignorability_lab.modelfile import ModelFileError, parse_model  # noqa: E402

COMMANDS = (
    ("check", "--inference", "likelihood", "--json"),
    ("check", "--inference", "frequentist", "--json"),
    ("check", "--inference", "bayes", "--json"),
    ("enumerate",),
    ("inclusion",),
    ("audit-rubin",),
    ("mc-verify", "--draws", "1000"),
)
# SHA-256 over (document index, command, exit code, first stderr line)
DIGEST = "a5393aff182bfbe0c453e412f209baee96a7a0b21fa4608a8833bf641e07e339"


def documents() -> list:
    """The distinct parseable documents of the mutant corpus, in corpus order."""
    out = []
    for text in dict.fromkeys(diagnostics_corpus()):
        with contextlib.suppress(ModelFileError):
            parse_model(text)
            out.append(text)
    return out


def main_sweep() -> int:
    os.environ["IGNORABILITY_LAB_MAX_SUPPORT"] = "20000"
    start, digest, codes, bad = time.monotonic(), hashlib.sha256(), Counter(), []
    docs = documents()
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as devnull:
        path = Path(tmp) / "mutant.model"
        for index, text in enumerate(docs):
            path.write_text(text)
            for command in COMMANDS:
                err = io.StringIO()
                with contextlib.redirect_stdout(devnull), contextlib.redirect_stderr(err):
                    code = main([command[0], str(path), *command[1:]])
                first = err.getvalue().partition("\n")[0]
                name = " ".join(command)
                digest.update(f"{index} {name} {code} {first}\n".encode())
                codes[code] += 1
                if code not in (0, 2):
                    bad.append(f"document {index}: {name} exited {code}: {first}")
    found = digest.hexdigest()
    print(f"{len(docs)} documents x {len(COMMANDS)} commands in {time.monotonic() - start:.1f} s; "
          f"exit codes {dict(sorted(codes.items()))}")
    for line in bad:
        print(line)
    print(f"digest {found} {'ok' if found == DIGEST else 'DIFFERS'}")
    return 1 if bad or found != DIGEST else 0


if __name__ == "__main__":
    sys.exit(main_sweep())
