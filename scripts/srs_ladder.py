#!/usr/bin/env python3
"""Time the SRS ladder: `srs_wor_n3` with the population size N and the
sample size n varied, and the take-the-max ladder beside it.

Each SRS rung's model is the `srs_wor_n3` catalog text with `units = 1 ..
N` and `n = n`, for the six rungs (N, n) = (4, 3), (5, 2), (5, 3), (6, 3),
(7, 3), (8, 3).  The script writes the rungs to a temporary directory, runs
`check <rung> --inference likelihood --json` on each in a fresh process,
then `check <rung> --inference bayes --json` (every observation, 960 at
N=6 n=3), likelihood `check --json` under `--policy marginal` and under
`--policy arbitrary`, and `check <rung> --inference frequentist --json`
on N=6 n=3, likelihood `check --json` on N=6 n=3 with the target made the
grid label (`[target] kind = grid_label`) under `--policy marginal`,
`--policy arbitrary` and `--policy dirac` (the one check path that reads
the ignored laws' mass vectors; the Dirac row exits 2, its ignored laws
equal no original law), `audit-rubin <rung> --json` on N=6 n=3 (every
observation, 960), and then `mc-verify <rung> --json --draws 100000
--seed 20260810` on N=5 n=3 and N=6 n=3, rungs whose joints split every
top-byte bucket of the simulation's tally.  Each take-the-max rung is the
`select_max` catalog text with `units = 1 .. N`, the alphabet 1 2 3 (each
value of mass 1/3) and the `values_and_mapping` scheme, so its design
reads the values; on N=7 and N=8 the script runs `check --inference
likelihood --json`, `audit-rubin --json` and the same `mc-verify`.  It
prints the wall time, the exit code and a SHA-256 of stdout of each row,
with the child's peak resident set size (`max_rss_mb`, from `os.wait4`),
and `ok` when the digest is the one recorded in DIGESTS or `DIFFERS` when
it is not; a row that writes to stderr has stdout and stderr digested
together.  It exits 1 when a row differs, exits with another code than
its recorded one (0 unless EXITS names it) or prints different bytes on a
repeat.  The last two SRS likelihood rows take most of the time
(86,016 worlds at N=8 n=3).

With --large it then runs the SRS likelihood rows N=9 n=3 (258,048
worlds), N=10 n=3 (737,280 worlds, the last rung under the default support
cap) and N=7 n=4 (the one row with n > 3, 840 ordered samples),
`audit-rubin --json` on N=10 n=3 (5,760 observations), `enumerate --json`
and `mc-verify` on N=8 n=3, and the three take-the-max rows on N=9 (19,683
signals); they take seconds each and several hundred MB, and
are not part of the default run.

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

SRS, MAX = "srs_wor_n3", "select_max"
RUNGS = ((4, 3), (5, 2), (5, 3), (6, 3), (7, 3), (8, 3))
# (base model, N, n, command) of every row: "likelihood", "frequentist" and
# "bayes" name the inference of a check, under the Dirac policy unless
# another follows a colon; "label" is a likelihood check of the rung with
# the grid label as its target; a take-the-max rung has no n
MAX_COMMANDS = ("likelihood", "audit-rubin", "mc-verify")
ROWS = tuple((SRS, N, n, "likelihood") for N, n in RUNGS) + (
    (SRS, 6, 3, "bayes"), (SRS, 6, 3, "likelihood:marginal"), (SRS, 6, 3, "likelihood:arbitrary"),
    (SRS, 6, 3, "frequentist"), *((SRS, 6, 3, f"label:{policy}") for policy in ("marginal", "arbitrary", "dirac")),
    (SRS, 6, 3, "audit-rubin"), (SRS, 5, 3, "mc-verify"), (SRS, 6, 3, "mc-verify"),
    *((MAX, N, None, command) for N in (7, 8) for command in MAX_COMMANDS))
# the rows that --large adds
LARGE_ROWS = ((SRS, 9, 3, "likelihood"), (SRS, 10, 3, "likelihood"), (SRS, 7, 4, "likelihood"),
              (SRS, 10, 3, "audit-rubin"), (SRS, 8, 3, "enumerate"), (SRS, 8, 3, "mc-verify"),
              *((MAX, 9, None, command) for command in MAX_COMMANDS))
# the exit code of each row that does not exit 0
EXITS = {(SRS, 6, 3, "label:dirac"): 2}
# SHA-256 of the stdout of each row (and of its stderr after it, when not empty)
DIGESTS = {
    (SRS, 4, 3, "likelihood"): "3b090eafda66e822257e71eb0b0162c56099bce008d54cbff01d10d4938a586a",
    (SRS, 5, 2, "likelihood"): "289487d6f386ec7afaf87d1a9f23edd7f7754130ae2eb2c427c7a9740aad8c50",
    (SRS, 5, 3, "likelihood"): "b90bab53048df08ef676309a2dd0fe95fbd23e834e4f505b22f9cc94c5fab0d1",
    (SRS, 6, 3, "likelihood"): "0b5577ea258934aaafc854421857ec165d46c4c0992e586d1ece252d5a9ce62b",
    (SRS, 7, 3, "likelihood"): "2b5c6d6b8cf08436416a6d32c7b0fa48407721b0debc5fddad8f8e5d0f2f63e8",
    (SRS, 8, 3, "likelihood"): "6a3c669fae6be21aea3ccc66789324b65cabff537455ab675458e588ad8bde17",
    (SRS, 6, 3, "bayes"): "6202afdb193a91eeb04293e00bafcf59755917fa9912f995f86e4e11c15c03ea",
    (SRS, 6, 3, "likelihood:marginal"): "b1c207607e52a39173b9b5c6bd7a81541b22bc49f8f93604245961fe6e64b4b7",
    (SRS, 6, 3, "likelihood:arbitrary"): "70738da127262c0f078233975e9eaa6e655091627662153232e031512d18a64a",
    (SRS, 6, 3, "frequentist"): "5fb9d8f2d839499149d4df44d5542429d8ffc0690687150777adb8ecc44a08c3",
    (SRS, 6, 3, "label:marginal"): "7d823d95bd071960014b26bfabcef26e61a40a8f43054e5c35e3b1fe9dfb17f2",
    (SRS, 6, 3, "label:arbitrary"): "d1ee31cdaee3f5e63e971bfc9c53e2ccb9193d5d5a5316bd3192ec95e0063383",
    (SRS, 6, 3, "label:dirac"): "d11ba766089b6f777cdb2bf2d7ca6ba7d2f7301e02c734c591be061b3b95d5da",
    (SRS, 6, 3, "audit-rubin"): "c12d604fde38839ab70f1335bc2082972fc693162ffdf8342ab3dc281c380165",
    (SRS, 5, 3, "mc-verify"): "e46a39a2364fee7e83bf90be004415295d5d7ab50aa1d3822fa0affdf8945998",
    (SRS, 6, 3, "mc-verify"): "b65a5f50ffd316e81ae20d45def6e7d9285bab3e12eb6817afb579a7110dc057",
    (SRS, 9, 3, "likelihood"): "f522b98ac54c9081308e343f93997c982695bbbba379ec8e6502442686a4325d",
    (SRS, 10, 3, "likelihood"): "7b17208f782c3f3d20c8c6d920e637bc4f7f2e9194eee4d99059a665da594508",
    (SRS, 7, 4, "likelihood"): "5f26c33eb1d7dea4205b4b04c93f81bf5093c2ff055eed65b665ac33759b5e6b",
    (SRS, 10, 3, "audit-rubin"): "2ff481efbc89b70af385b7b8b89e47393b0b86dfac4a7efffc147687f9a86f34",
    (SRS, 8, 3, "enumerate"): "485d004f19756438872aae303557a09a776e0648e792af7f9bcaeba350948ab3",
    (SRS, 8, 3, "mc-verify"): "163edf82b755b9c6293cf6665cb4c5b330e06cd1af4e5f46e32c109acd811734",
    (MAX, 7, None, "likelihood"): "33f1af14ea9b3251ee3b4057260a5a82d913dda4afef58d13d478f86f5dcf3e8",
    (MAX, 7, None, "audit-rubin"): "7d87224c09f95a5b3d6241ead8e3b3f497856c26b1af6b532231c5e3eea835c0",
    (MAX, 7, None, "mc-verify"): "31e1a7b19c12d7a20c86f5cb7f2a1bf23cf62f49e5f6d00ebc3f8f0da7c40db8",
    (MAX, 8, None, "likelihood"): "676456eb0b069a33bd461697f2445f9d136880083df4617daa3b12cbf1ab1f20",
    (MAX, 8, None, "audit-rubin"): "b7c6c3831f6e791ee8d7b9cfa3537e8eea0462c47c311ed5bfcd06e91501208b",
    (MAX, 8, None, "mc-verify"): "e0c51a46968422e6914905434dd849b5a578bcc74fc3eb137ddd6353acb68f53",
    (MAX, 9, None, "likelihood"): "bd65e80a7b7523d761347b3eec57d26ad6d9fe5098dbefd35456fcc30d35cd57",
    (MAX, 9, None, "audit-rubin"): "a67ffe64428f64ddeba6b969149e8cdee82b3d091646f8e3b4a3db30779dd9e9",
    (MAX, 9, None, "mc-verify"): "e81b6f641963961fe40188eaf3bb51de93e56e4d0c2b470b09840520cdc59fbf",
}


def _edited(base: str, edits) -> str:
    """The catalog text of `base` with each (old line, new line) replaced."""
    text = CATALOG[base]
    for old, new in edits:
        if old not in text:
            raise SystemExit(f"error: the {base} catalog text has no line {old.strip()!r}")
        text = text.replace(old, new)
    return text


def _units(N: int) -> str:
    return "units = " + " ".join(str(k) for k in range(1, N + 1)) + "\n"


def rung_text(N: int, n: int, label: bool = False) -> str:
    """The SRS rung, with the grid label as its target when `label`."""
    edits = [("units = 1 2 3\n", _units(N)), ("n = 2\n", f"n = {n}\n")]
    if label:
        edits.append(("kind = unit_expectation\nunit = 1\n", "kind = grid_label\n"))
    return _edited(SRS, edits)


def max_text(N: int) -> str:
    """The take-the-max rung: N units, values 1 2 3, the mapping observed."""
    return _edited(MAX, (
        ("units = 1 2\n", _units(N)),
        ("alphabet = 1 2\n", "alphabet = 1 2 3\n"),
        ("iid 1/2 = 1:1/2 2:1/2\n", "iid 1/2 = 1:1/3 2:1/3 3:1/3\n"),
        ("scheme = values_only\n", "scheme = values_and_mapping\n"),
    ))


def command_args(path: str, command: str) -> list:
    """The command line of a row's command on the model at `path`."""
    if command == "mc-verify":
        return ["mc-verify", path, "--json", "--draws", "100000", "--seed", "20260810"]
    if command in ("enumerate", "audit-rubin"):
        return [command, path, "--json"]
    inference, _colon, policy = command.partition(":")
    inference = "likelihood" if inference == "label" else inference
    return ["check", path, "--inference", inference, *(["--policy", policy] if policy else []), "--json"]


def run_check(args: list) -> tuple:
    """(wall seconds, exit code, SHA-256 of stdout and of stderr when not
    empty, peak RSS in MB) of one fresh run of a row's command line; the
    peak is the child's own, read from `os.wait4`."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ignorability_lab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    argv = [sys.executable, "-m", "ignorability_lab.cli", *args]
    start = time.perf_counter()
    with tempfile.TemporaryFile() as err, subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env) as child:
        out = child.stdout.read()
        _pid, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - start
        err.seek(0)
        out += err.read()
    return wall, child.returncode, hashlib.sha256(out).hexdigest(), usage.ru_maxrss / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=1, help="runs per rung")
    parser.add_argument("--large", action="store_true",
                        help="also run the SRS rows N=9 n=3, N=10 n=3 (likelihood and audit-rubin), "
                             "N=7 n=4 and N=8 n=3 enumerate and mc-verify, and take-the-max N=9")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        failed = False
        for row in ROWS + (LARGE_ROWS if args.large else ()):
            base, N, n, command = row
            label = f"N={N} n={n}" if base == SRS else f"{MAX} N={N}"
            path = os.path.join(tmp, f"{base}_N{N}_n{n}.model")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(max_text(N) if base == MAX else rung_text(N, n, command.startswith("label")))
            runs = [run_check(command_args(path, command)) for _ in range(max(args.repeat, 1))]
            walls = ", ".join(f"{wall:.2f}" for wall, _code, _digest, _rss in runs)
            peaks = ", ".join(f"{rss:.0f}" for _wall, _code, _digest, rss in runs)
            codes = sorted({code for _wall, code, _digest, _rss in runs})
            digests = sorted({digest for _wall, _code, digest, _rss in runs})
            verdict = "ok" if digests == [DIGESTS.get(row)] else "DIFFERS"
            failed = failed or codes != [EXITS.get(row, 0)] or verdict != "ok"
            digest = digests[0] if len(digests) == 1 else "differs between runs"
            code = ",".join(str(c) for c in codes)
            print(f"{label} {command}  wall_s {walls}  max_rss_mb {peaks}  exit {code}  sha256 {digest}  {verdict}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
