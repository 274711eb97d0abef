#!/usr/bin/env python3
"""Time the SRS ladder: `srs_wor_n3` with the population size N and the
sample size n varied.

Each rung's model is the `srs_wor_n3` catalog text with `units = 1 .. N`
and `n = n`, for the six rungs (N, n) = (4, 3), (5, 2), (5, 3), (6, 3),
(7, 3), (8, 3).  The script writes the rungs to a temporary directory, runs
`check <rung> --inference likelihood --json` on each in a fresh process,
then `check <rung> --inference bayes --json` (every observation, 960 at
N=6 n=3) on N=6 n=3, and then `mc-verify <rung> --json --draws 100000
--seed 20260810` on N=5 n=3 and N=6 n=3, rungs whose joints split every
top-byte bucket of the simulation's tally.  It prints the wall time, the
exit code and a SHA-256 of stdout of each row, with the child's peak resident set size
(`max_rss_mb`, from `os.wait4`), and `ok` when the digest is the one recorded
in DIGESTS or `DIFFERS` when it is not; it exits 1 when a row differs,
fails or prints different bytes on a repeat.  The last two likelihood rows
take most of the time (86,016 worlds at N=8 n=3).

With --large it then runs the likelihood rows N=9 n=3 (258,048 worlds),
N=10 n=3 (737,280 worlds, the last rung under the default support cap)
and N=7 n=4 (the one row with n > 3, 840 ordered samples), which take
seconds each and several hundred MB; they are not part of the default
run.

Usage: PYTHONPATH=src python3 scripts/srs_ladder.py [--repeat K] [--large]
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
import time

import ignorability_lab
from ignorability_lab.catalog import CATALOG

RUNGS = ((4, 3), (5, 2), (5, 3), (6, 3), (7, 3), (8, 3))
# (N, n, command) of every row: "likelihood" and "bayes" name the
# inference of a check
ROWS = tuple((N, n, "likelihood") for N, n in RUNGS) + (
    (6, 3, "bayes"), (5, 3, "mc-verify"), (6, 3, "mc-verify"))
# the rows that --large adds
LARGE_ROWS = ((9, 3, "likelihood"), (10, 3, "likelihood"), (7, 4, "likelihood"))
# SHA-256 of the stdout of each row
DIGESTS = {
    (4, 3, "likelihood"): "3b090eafda66e822257e71eb0b0162c56099bce008d54cbff01d10d4938a586a",
    (5, 2, "likelihood"): "289487d6f386ec7afaf87d1a9f23edd7f7754130ae2eb2c427c7a9740aad8c50",
    (5, 3, "likelihood"): "b90bab53048df08ef676309a2dd0fe95fbd23e834e4f505b22f9cc94c5fab0d1",
    (6, 3, "likelihood"): "0b5577ea258934aaafc854421857ec165d46c4c0992e586d1ece252d5a9ce62b",
    (7, 3, "likelihood"): "2b5c6d6b8cf08436416a6d32c7b0fa48407721b0debc5fddad8f8e5d0f2f63e8",
    (8, 3, "likelihood"): "6a3c669fae6be21aea3ccc66789324b65cabff537455ab675458e588ad8bde17",
    (6, 3, "bayes"): "5466d03dc70bc46cb85ad36ec73865dd08cd158fada94c9ae5dc1663822c9242",
    (5, 3, "mc-verify"): "e46a39a2364fee7e83bf90be004415295d5d7ab50aa1d3822fa0affdf8945998",
    (6, 3, "mc-verify"): "b65a5f50ffd316e81ae20d45def6e7d9285bab3e12eb6817afb579a7110dc057",
    (9, 3, "likelihood"): "f522b98ac54c9081308e343f93997c982695bbbba379ec8e6502442686a4325d",
    (10, 3, "likelihood"): "7b17208f782c3f3d20c8c6d920e637bc4f7f2e9194eee4d99059a665da594508",
    (7, 4, "likelihood"): "5f26c33eb1d7dea4205b4b04c93f81bf5093c2ff055eed65b665ac33759b5e6b",
}
BASE = "srs_wor_n3"


def rung_text(N: int, n: int) -> str:
    text = CATALOG[BASE]
    for old, new in (
        ("units = 1 2 3\n", "units = " + " ".join(str(k) for k in range(1, N + 1)) + "\n"),
        ("n = 2\n", f"n = {n}\n"),
    ):
        if old not in text:
            raise SystemExit(f"error: the {BASE} catalog text has no line {old.strip()!r}")
        text = text.replace(old, new)
    return text


def run_check(path: str, command: str) -> tuple:
    """(wall seconds, exit code, SHA-256 of stdout, peak RSS in MB) of one
    fresh run of a row's command; the peak is the child's own, read from
    `os.wait4`."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ignorability_lab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    if command == "mc-verify":
        args = ["mc-verify", path, "--json", "--draws", "100000", "--seed", "20260810"]
    else:
        args = ["check", path, "--inference", command, "--json"]
    argv = [sys.executable, "-m", "ignorability_lab.cli", *args]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, env=env) as child:
        out = child.stdout.read()
        _pid, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    return wall, child.returncode, hashlib.sha256(out).hexdigest(), usage.ru_maxrss / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=1, help="runs per rung")
    parser.add_argument("--large", action="store_true", help="also run N=9 n=3, N=10 n=3 and N=7 n=4")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        failed = False
        for N, n, command in ROWS + (LARGE_ROWS if args.large else ()):
            path = os.path.join(tmp, f"{BASE}_N{N}_n{n}.model")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(rung_text(N, n))
            runs = [run_check(path, command) for _ in range(max(args.repeat, 1))]
            walls = ", ".join(f"{wall:.2f}" for wall, _code, _digest, _rss in runs)
            peaks = ", ".join(f"{rss:.0f}" for _wall, _code, _digest, rss in runs)
            codes = sorted({code for _wall, code, _digest, _rss in runs})
            digests = sorted({digest for _wall, _code, digest, _rss in runs})
            verdict = "ok" if digests == [DIGESTS[N, n, command]] else "DIFFERS"
            failed = failed or codes != [0] or verdict != "ok"
            digest = digests[0] if len(digests) == 1 else "differs between runs"
            code = ",".join(str(c) for c in codes)
            print(f"N={N} n={n} {command}  wall_s {walls}  max_rss_mb {peaks}  exit {code}  sha256 {digest}  {verdict}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
