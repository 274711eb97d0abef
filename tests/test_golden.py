"""Golden corpus: every recorded command reproduces its exit code, stdout
and stderr byte for byte, and the committed cases are exactly the ones
scripts/make_golden.py generates.  The files are written only by that
script; this test never rewrites them.  One SHA-256 over every case run
without --json pins the human form.  SHA-256 digests of `check --json`
on four SRS ladder rungs, the all-observation Bayes check included, pin the output of models larger than any in the
corpus, and `scripts/rubin_sweep.py` checks the Rubin sweep against acceptance
criterion 6's digest."""

import contextlib
import cProfile
import hashlib
import importlib.util
import io
import json
import pstats
from fractions import Fraction
from pathlib import Path

import pytest

from test_acceptance import RUBIN_SWEEP_DIGEST
from ignorability_lab.catalog import CATALOG
from ignorability_lab.cli import main
from ignorability_lab.exactprob import canonical_key

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


def load_script(path):
    """A script under scripts/, imported as a module."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cases_match_generator():
    generated = {case: (model, args) for case, model, args in load_script(MAKE_GOLDEN).cases()}
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


# One SHA-256 over the human form of every command on every catalog model:
# each golden case run without --json, as the line "<case> <exit code>
# <SHA-256 of stdout>", in the generator's case order.  The corpus holds
# only the machine form; this pins the text the human reports print.
HUMAN_DIGEST = "d2645900e723ee81e78f05107022b7a499128d7f29c7d45ac44a7fa78d918041"


def test_human_output_digest(model_paths):
    make_golden = load_script(MAKE_GOLDEN)
    digest = hashlib.sha256()
    for case, model, args in make_golden.cases():
        human = [a for a in args if a != "--json"]
        code, stdout, _stderr = make_golden.run_case(case, model_paths[model], human)
        digest.update(f"{case} {code} {hashlib.sha256(stdout.encode('utf-8')).hexdigest()}\n".encode("utf-8"))
    assert digest.hexdigest() == HUMAN_DIGEST


SRS_LADDER = Path(__file__).parent.parent / "scripts" / "srs_ladder.py"
# SHA-256 of `check --json` stdout on SRS ladder rungs, larger than any
# catalog model: (N, n, inference, policy) -> digest.  The N=7 n=3
# arbitrary and marginal rows build laws of 26,880 atoms; they stay under
# the default size cap because it counts only the atoms the ignore step
# builds
RUNG_DIGESTS = {
    (4, 3, "likelihood", "dirac"): "3b090eafda66e822257e71eb0b0162c56099bce008d54cbff01d10d4938a586a",
    (4, 3, "likelihood", "arbitrary"): "db02142826d0c7bb9848885b5518ca1f9ba0fcd6f22cbb9ecc31feda19794970",
    (4, 3, "likelihood", "marginal"): "7457b831748e8ce73919a12722efa5b26209dfa8f90c7f845b40b39ea88b502b",
    (4, 3, "frequentist", "dirac"): "5fb9d8f2d839499149d4df44d5542429d8ffc0690687150777adb8ecc44a08c3",
    (4, 3, "frequentist", "arbitrary"): "b7c03aa98cb156a0724fa8ede2d2ce92feab4303587c5a37bd66e631fabb5eb3",
    (4, 3, "frequentist", "marginal"): "7556d98f53634b470b5ac61fab2efee5a0fadd4ee378c5129ebd8c6121b3a618",
    (4, 3, "bayes", "dirac"): "505693557bd373c0cf763e29db6e76016ed6cd6ba585538361e5e54bdf0c8999",
    (4, 3, "bayes", "arbitrary"): "b48ce07052c184459359fc54f6fd48cb12d876319698755ea8fed0a9212805c5",
    (4, 3, "bayes", "marginal"): "b21a06d71b438480bdb2621b227c1912c80db307cd0bed280dc81ac86a7b53f1",
    (5, 2, "likelihood", "dirac"): "289487d6f386ec7afaf87d1a9f23edd7f7754130ae2eb2c427c7a9740aad8c50",
    (5, 3, "bayes", "dirac"): "f20e0f41e2027a822e7cf120a4b98ef4f2b6c570e880e26dfee4c1f9b0388309",
    (7, 3, "likelihood", "dirac"): "2b5c6d6b8cf08436416a6d32c7b0fa48407721b0debc5fddad8f8e5d0f2f63e8",
    (7, 3, "likelihood", "arbitrary"): "c6970546b9980ebc12a92589856da74f29735fbc38459e5a0cab6207764ccadb",
    (7, 3, "likelihood", "marginal"): "37737e1250608eafd24bf60171e4b4f761faa09b358254b6586c58870659f217",
}


@pytest.mark.parametrize("N, n, inference, policy", sorted(RUNG_DIGESTS))
def test_srs_rung_digest(N, n, inference, policy, tmp_path):
    srs_ladder = load_script(SRS_LADDER)
    path = tmp_path / f"srs_N{N}_n{n}.model"
    path.write_text(srs_ladder.rung_text(N, n), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check", str(path), "--inference", inference, "--policy", policy, "--json"])
    assert code == 0
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert digest == RUNG_DIGESTS[N, n, inference, policy]


def _rung_calls(tmp_path, function) -> int:
    """Calls of `function`, recursive ones included, during an in-process
    `check --inference likelihood --json` on the SRS rung N=5 n=3."""
    srs_ladder = load_script(SRS_LADDER)
    path = tmp_path / "srs_N5_n3.model"
    path.write_text(srs_ladder.rung_text(5, 3), encoding="utf-8")
    profile = cProfile.Profile()
    with contextlib.redirect_stdout(io.StringIO()):
        profile.enable()
        try:
            code = main(["check", str(path), "--inference", "likelihood", "--json"])
        finally:
            profile.disable()
    assert code == 0
    where = (function.__code__.co_filename, function.__code__.co_firstlineno, function.__code__.co_name)
    return sum(stat[1] for func, stat in pstats.Stats(profile).stats.items() if func == where)


# canonical_key calls on that rung.  Keying every world of the space made
# 88,640; coding the declared variables and observations from the two axes
# of the world ids made 34,232, and merging the two families' interned
# observation keys, instead of keying every observation again, makes 16,952.
RUNG_KEY_CALLS_BOUND = 25_000


def test_srs_rung_keys_per_axis_not_per_world(tmp_path):
    assert 0 < _rung_calls(tmp_path, canonical_key) <= RUNG_KEY_CALLS_BOUND


# Fraction constructions on that rung, those of Fraction arithmetic
# included.  Laws of Fractions from the joint to the verdict made 12,464;
# integer mass vectors, which build Fractions only for the emitted values,
# the signal laws and the target marginals, make 2,834.
RUNG_FRACTION_CALLS_BOUND = 3_500


def test_srs_rung_fractions_only_at_the_boundary(tmp_path):
    assert 0 < _rung_calls(tmp_path, Fraction.__new__) <= RUNG_FRACTION_CALLS_BOUND


# One SHA-256 over `mc-verify --json` stdout of every catalog model at its
# default grid point, for draw counts on both sides of the simulation's
# block size and for seeds at both ends of the 64-bit range.
MC_DRAWS = (1, 7, 4095, 4096, 4097, 10007)
MC_SEEDS = (0, 20260810, 2**64 - 1)
MC_DIGEST = "c866e7119c111883995434ccd7e2620d0295025ac3416fa83b6ee738cbf59e1d"
# The same over the benchmark's own runs: 100,000 draws (25 blocks) per
# catalog model at seed 20260810, past the 3 blocks that MC_DIGEST reaches.
MC_LONG_DIGEST = "500abbd0b8a8ebf0bfe8767ba6b755bc7995d7e229c1bff9bfb9322425ef546f"


def mc_verify_digest(model_paths, draw_counts, seeds):
    digest = hashlib.sha256()
    for name in sorted(model_paths):
        for draws in draw_counts:
            for seed in seeds:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(["mc-verify", model_paths[name], "--json",
                                 "--draws", str(draws), f"--seed={seed}"])
                assert code == 0
                digest.update(out.getvalue().encode("utf-8"))
    return digest.hexdigest()


def test_mc_verify_digest(model_paths):
    assert mc_verify_digest(model_paths, MC_DRAWS, MC_SEEDS) == MC_DIGEST


def test_mc_verify_long_stream_digest(model_paths):
    assert mc_verify_digest(model_paths, (100_000,), (20260810,)) == MC_LONG_DIGEST


RUBIN_SWEEP = Path(__file__).parent.parent / "scripts" / "rubin_sweep.py"


def test_rubin_sweep_script_checks_the_acceptance_digest(capsys):
    # the script sweeps criterion 6's models in its order, so the digest it
    # records and checks is the criterion's
    rubin_sweep = load_script(RUBIN_SWEEP)
    assert rubin_sweep.DIGEST == RUBIN_SWEEP_DIGEST
    assert rubin_sweep.main() == 0
    assert f"sha256 {RUBIN_SWEEP_DIGEST}  ok\n" in capsys.readouterr().out
