"""The benchmark's workloads: their inputs, their ops and the checks on
every op's output.

A workload is built by `setup(name, seed, out_dir)`, which imports the
engine, parses and builds the workload's models and generates its op
list; that is the work `setup_s` times in a fresh interpreter.  Each op
has `run()`, the timed call into the engine, and `check(output)`, which
returns a list of problems and runs outside the timed region.  Checks
re-derive each result from the op's own output or from a computation
made in this file; none compares against a stored copy of an output.

The seed orders the ops of every pass.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import re
import sys
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "ignorability_lab")):
    raise SystemExit(f"error: engine sources not found under {SRC}")
sys.path.insert(0, SRC)

# engine modules are reached through their module attributes so that the
# traced run's wrappers (see tracer.py) see every call
from ignorability_lab import catalog, cli, ignorance, inference, modelfile  # noqa: E402
from ignorability_lab import exactprob, sampling  # noqa: E402

WORKLOADS = ("catalog_check", "rubin_sweep", "mc_verify")
POLICIES = ("dirac", "arbitrary", "marginal")
MC_DRAWS = 100_000
# the simulation seed of acceptance criterion 9; the calibration check
# (at most 1% of cells outside three sigma) fails for some other seeds,
# so --seed only orders the ops of this workload
MC_SEED = 20_260_810
# the all-observation Bayes sweep of `stratified` (32 observations) alone
# takes about 15 s, longer than the rest of the pass
BAYES_EXCLUDED = ("stratified",)
# one rung of the SRS ladder: srs_wor_n3 with a fourth unit, 16 signals x
# 12 ordered samples = 192 worlds
SRS_RUNG = "srs_wor_n3_N4"


def _key(value):
    """Hashable form of a JSON value."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class Op:
    """One timed call into the engine and the checks on its output."""

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self._check = check

    def check(self, output):
        return [f"{self.name}: {p}" for p in self._check(output)]


class Workload:
    def __init__(self, ops, seed, warmup_ops, passes, check=None):
        self.ops = ops
        self.seed = seed
        self.warmup_ops = warmup_ops
        # timed passes a run makes; fixed, so every run times the same ops
        self.passes = passes
        self._check = check  # check over the whole workload's outputs

    def order(self, pass_index):
        """The op order of one pass; the same seed gives the same orders."""
        ops = list(self.ops)
        random.Random(self.seed * 1_000 + pass_index).shuffle(ops)
        return ops

    def run_checks(self, outputs):
        """The check that spans the whole workload; `outputs` maps op name
        to the output of its last run."""
        return self._check(outputs) if self._check else []


def setup(name, seed, out_dir):
    if name == "catalog_check":
        return _catalog_check(seed, out_dir)
    if name == "rubin_sweep":
        return _rubin_sweep(seed)
    if name == "mc_verify":
        return _mc_verify(seed, out_dir)
    raise SystemExit(f"error: unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# CLI-driven workloads
# ---------------------------------------------------------------------------


def _cli_op(name, argv, check):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check_json(output):
        code, text = output
        if code != 0:
            return [f"exit code {code}"]
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as err:
            return [f"output is not JSON: {err}"]
        return check(payload)

    return Op(name, run, check_json)


def _write_models(out_dir):
    """Write the catalog with `examples --dir`, plus the SRS rung; return
    {name: path}."""
    models = os.path.join(out_dir, "models")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["examples", "--dir", models])
    if code != 0:
        raise SystemExit(f"error: examples --dir exited with {code}")
    paths = {n: os.path.join(models, f"{n}.model") for n in catalog.CATALOG}
    rung = catalog.CATALOG["srs_wor_n3"].replace("units = 1 2 3\n", "units = 1 2 3 4\n")
    if rung == catalog.CATALOG["srs_wor_n3"]:
        raise SystemExit("error: srs_wor_n3 no longer has the line 'units = 1 2 3'")
    paths[SRS_RUNG] = os.path.join(models, f"{SRS_RUNG}.model")
    with open(paths[SRS_RUNG], "w", encoding="utf-8") as fh:
        fh.write(rung)
    return paths


def _parse_and_build(paths):
    texts = {}
    for name, path in paths.items():
        with open(path, encoding="utf-8") as fh:
            texts[name] = fh.read()
        modelfile.parse_model(texts[name]).build()
    return texts


def _srs_sizes(text):
    """(N, n) of an srs_wor model text, read by this file's own pattern."""
    units = re.search(r"^units = (.*)$", text, re.M).group(1).split()
    n = int(re.search(r"^n = (\d+)$", text, re.M).group(1))
    return len(units), n


def _catalog_check(seed, out_dir):
    paths = _write_models(out_dir)
    texts = _parse_and_build(paths)
    ops = []
    for name in catalog.CATALOG:
        for policy in POLICIES:
            for inference_type, check in (
                ("likelihood", _check_likelihood(name, texts[name], policy)),
                ("frequentist", _check_frequentist),
            ):
                argv = ["check", paths[name], "--inference", inference_type,
                        "--policy", policy, "--json"]
                ops.append(_cli_op(f"{inference_type}/{policy}/{name}", argv, check))
    for name in catalog.CATALOG:
        if name not in BAYES_EXCLUDED:
            argv = ["check", paths[name], "--inference", "bayes", "--policy", "dirac", "--json"]
            ops.append(_cli_op(f"bayes-all-x/dirac/{name}", argv,
                               _check_bayes_all(name, texts[name])))
    argv = ["check", paths[SRS_RUNG], "--inference", "likelihood", "--json"]
    ops.append(
        _cli_op(f"likelihood/dirac/{SRS_RUNG}", argv,
                _check_likelihood(SRS_RUNG, texts[SRS_RUNG], "dirac"))
    )
    # every command shape on the models that take under 0.1 s
    cheap = ("srs_wor_minimal", "select_max", "census", "correlated_joint")
    warmup = [op for op in ops if op.name.rsplit("/", 1)[1] in cheap]
    return Workload(ops, seed, warmup, passes=1)


def _tables(payload):
    tables = [w for w in payload["witnesses"] if w["kind"] == "likelihood_tables"]
    if len(tables) != 1:
        return None
    detail = tables[0]["detail"]
    return ({_key(k): Fraction(m) for k, m in detail["original"]},
            {_key(k): Fraction(m) for k, m in detail["ignored"]},
            detail["original"])


def _proportionality(orig, ign):
    """The one positive alpha with ign = alpha * orig, or None."""
    alpha = None
    for key in set(orig) | set(ign):
        a, b = orig.get(key, Fraction(0)), ign.get(key, Fraction(0))
        if a == 0 and b == 0:
            continue
        if a == 0 or b == 0:
            return None
        if alpha is None:
            alpha = b / a
        elif b / a != alpha:
            return None
    return alpha


def _select_max_oracle():
    """Four equally likely signals over {1, 2}^2; the largest value is kept."""
    table = {}
    for y in itertools.product((1, 2), repeat=2):
        x = (max(y),)
        table[x] = table.get(x, Fraction(0)) + Fraction(1, 4)
    return table


def _check_likelihood(name, text, policy):
    expected_alpha = None
    if name in ("srs_wor_n3", SRS_RUNG) and policy == "dirac":
        expected_alpha = math.perm(*_srs_sizes(text))  # N!/(N-n)!

    def check(payload):
        problems = []
        if payload.get("inference") != "likelihood":
            problems.append(f"inference {payload.get('inference')!r}")
        tables = _tables(payload)
        if tables is None:
            return problems + ["no single likelihood_tables witness"]
        orig, ign, raw_orig = tables
        alpha = _proportionality(orig, ign)
        verdict = "ignorable" if alpha is not None else "informative"
        if payload["verdict"] != verdict:
            problems.append(f"verdict {payload['verdict']} but the tables say {verdict}")
        reported = payload.get("alpha")
        if (None if reported is None else Fraction(reported)) != alpha:
            problems.append(f"alpha {reported} but the tables give {alpha}")
        if expected_alpha is not None and alpha != expected_alpha:
            problems.append(f"alpha {alpha}, expected N!/(N-n)! = {expected_alpha}")
        if name == "select_max":
            table = {tuple(x): Fraction(m) for (_t, x), m in raw_orig}
            if payload["verdict"] != "informative":
                problems.append("select_max is not informative")
            if table != _select_max_oracle():
                problems.append(f"original table {table} differs from the oracle")
        return problems

    return check


def _check_frequentist(payload):
    problems = []
    witnesses = [w for w in payload["witnesses"] if w["kind"] == "estimator_distribution_sets"]
    if not witnesses:
        return ["no estimator_distribution_sets witness"]
    all_equal = True
    for w in witnesses:
        orig = {_key(d) for d in w["detail"]["original"]}
        ign = {_key(d) for d in w["detail"]["ignored"]}
        if (orig == ign) != w["equal"]:
            problems.append(f"witness at {w['detail']['target_value']} mislabelled")
        all_equal = all_equal and orig == ign
    verdict = "ignorable" if all_equal else "informative"
    if payload["verdict"] != verdict:
        problems.append(f"verdict {payload['verdict']} but the witnesses say {verdict}")
    return problems


def _canon(value):
    """Comparable form of an emitted value: a distribution becomes the
    frozenset of its (value, exact mass) pairs, a list a tuple."""
    if isinstance(value, dict) and set(value) == {"dist"}:
        return frozenset((_canon(v), Fraction(m)) for v, m in value["dist"])
    if isinstance(value, list):
        return tuple(_canon(v) for v in value)
    return value


def _srs_one_draw_oracle(text, x):
    """Posterior law of the signal given the observed value of one unit
    drawn by SRS: uniform prior over the theta grid, iid signals; read from
    the model text by this file's own patterns."""
    (value,) = x
    thetas = re.search(r"^theta = (.*)$", text, re.M).group(1).split()
    laws = {}
    for theta, spec in re.findall(r"^iid (\S+) = (.*)$", text, re.M):
        laws[theta] = {int(v): Fraction(m) for v, m in (a.split(":") for a in spec.split())}
    units, n = _srs_sizes(text)
    if n != 1:
        raise SystemExit(f"error: the one-draw oracle needs n = 1, not {n}")
    weights = {t: Fraction(1, len(thetas)) * laws[t].get(value, Fraction(0)) for t in thetas}
    total = sum(weights.values())
    return frozenset(
        (frozenset(
            (y, math.prod((laws[t][v] for v in y), start=Fraction(1)))
            for y in itertools.product(sorted(laws[t]), repeat=units)
        ), weights[t] / total)
        for t in thetas if weights[t]
    )


def _check_bayes_all(name, text):
    def check(payload):
        if "informative_observations" not in payload:
            return ["no per-observation counts"]
        problems = []
        verdict = "ignorable" if payload["informative_observations"] == 0 else "informative"
        if payload["verdict"] != verdict:
            problems.append(f"verdict {payload['verdict']} with "
                            f"{payload['informative_observations']} informative observations")
        # the witness is the headline observation's: the first informative
        # one, or the first one when every observation is ignorable
        witnesses = [w for w in payload["witnesses"] if w["kind"] == "posterior_sets"]
        if len(witnesses) != 1:
            return problems + ["no single posterior_sets witness"]
        w = witnesses[0]
        sides = {side: {_canon(d) for d in w["detail"][side]} for side in ("original", "ignored")}
        for side, dists in sides.items():
            for d in dists:
                if sum(m for _v, m in d) != 1:
                    problems.append(f"an {side} posterior has total mass {sum(m for _v, m in d)}")
        if (sides["original"] == sides["ignored"]) != w["equal"]:
            problems.append("posterior_sets witness mislabelled")
        if (payload["verdict"] == "ignorable") != (sides["original"] == sides["ignored"]):
            problems.append(f"verdict {payload['verdict']} but the posterior sets say otherwise")
        if name == "srs_wor_minimal":
            # SRS selection does not depend on the signal, so both sides'
            # posterior is the one computed from the drawn value alone
            expected = {_srs_one_draw_oracle(text, w["detail"]["observation"])}
            if sides["original"] != expected or sides["ignored"] != expected:
                problems.append("posteriors differ from the one-draw oracle")
        return problems

    return check


def _mc_verify(seed, out_dir):
    paths = _write_models(out_dir)
    del paths[SRS_RUNG]
    _parse_and_build(paths)
    ops = []
    for name, path in paths.items():
        argv = ["mc-verify", path, "--json", "--draws", str(MC_DRAWS), "--seed", str(MC_SEED)]
        ops.append(_cli_op(f"mc-verify/{name}", argv, _check_mc))
    warmup = [
        _cli_op(op.name, ["mc-verify", paths[op.name.split("/")[1]], "--json",
                          "--draws", "1000", "--seed", str(MC_SEED)], lambda p: [])
        for op in ops
    ]
    # enough passes to time at least 40 ops, so a tail percentile exists
    return Workload(ops, seed, warmup, passes=math.ceil(40 / len(ops)),
                    check=_check_mc_calibration)


def _check_mc(payload):
    problems = []
    cells = payload["cells"]
    if payload["draws"] != MC_DRAWS or payload["seed"] != MC_SEED:
        problems.append(f"ran {payload['draws']} draws with seed {payload['seed']}")
    if sum(c["count"] for c in cells) != payload["draws"]:
        problems.append("counts do not sum to the draws")
    if sum((Fraction(c["exact"]) for c in cells), Fraction(0)) != 1:
        problems.append("exact masses do not sum to 1")
    if _cells_outside(payload) != payload["cells_outside"]:
        problems.append("cells_outside disagrees with the recount")
    return problems


def _cells_outside(payload):
    """Cells whose frequency lies outside the three-sigma binomial band."""
    n = payload["draws"]
    outside = 0
    for c in payload["cells"]:
        p = float(Fraction(c["exact"]))
        if abs(c["count"] / n - p) > 3.0 * math.sqrt(p * (1.0 - p) / n):
            outside += 1
    return outside


def _check_mc_calibration(outputs):
    # ops that raised or exited non-zero are counted or reported elsewhere
    payloads = [json.loads(out[1]) for out in outputs.values()
                if isinstance(out, tuple) and out[0] == 0]
    cells = sum(len(p["cells"]) for p in payloads)
    outside = sum(_cells_outside(p) for p in payloads)
    if outside > 0.01 * cells:
        return [f"mc_verify: {outside} of {cells} cells outside the three-sigma band"]
    return []


# ---------------------------------------------------------------------------
# rubin_sweep: the two-unit binary missing-data models
# ---------------------------------------------------------------------------

Q = Fraction
SIGNALS = {
    "uniform_pair": {(0, 0): Q(1, 4), (0, 1): Q(1, 4), (1, 0): Q(1, 4), (1, 1): Q(1, 4)},
    "iid_third": {(0, 0): Q(4, 9), (0, 1): Q(2, 9), (1, 0): Q(2, 9), (1, 1): Q(1, 9)},
    "correlated": {(0, 0): Q(1, 2), (1, 1): Q(1, 2)},
    "skewed": {(0, 0): Q(1, 4), (0, 1): Q(1, 2), (1, 0): Q(1, 12), (1, 1): Q(1, 6)},
}
# missingness kernels: signal y -> {selected units: mass}
KERNELS = {
    "census": lambda y: {(1, 2): Q(1)},
    "first_only": lambda y: {(1,): Q(1)},
    "uniform_subsets": lambda y: {(): Q(1, 4), (1,): Q(1, 4), (2,): Q(1, 4), (1, 2): Q(1, 4)},
    "depends_on_first": lambda y: {(1, 2): Q(1)} if y[0] == 1 else {(1,): Q(1)},
    "depends_on_second": lambda y: {(1,): Q(1)} if y[1] == 1 else {(1, 2): Q(1)},
    "uniform_singletons": lambda y: {(1,): Q(1, 2), (2,): Q(1, 2)},
}
RUBIN_CLAIMED = ("6.1", "6.3", "7.1", "7.2")


def _grids(names):
    names = sorted(names)
    return [(n,) for n in names] + list(itertools.combinations(names, 2))


def _rubin_model(thetas, phis):
    dist_new = exactprob.dist_new
    return sampling.SurveyModel.create(
        population=sampling.Population((1, 2)),
        thetas=thetas,
        signal_law={t: dist_new([((y, y), w) for y, w in SIGNALS[t].items()]) for t in thetas},
        phis=phis,
        design_law={
            p: exactprob.Kernel.from_rule(
                lambda z, fn=KERNELS[p]: dist_new(list(fn(tuple(z)).items())))
            for p in phis
        },
        z_contains_y=True,
    )


def _brute_observations(thetas, phis):
    """Positive-mass (values, mapping) observations by direct enumeration."""
    seen = set()
    for t in thetas:
        for y, w in SIGNALS[t].items():
            for p in phis:
                for r, wr in KERNELS[p](y).items():
                    if w * wr > 0:
                        seen.add((tuple(y[k - 1] for k in r), r))
    return seen


def _brute_mar(phis, x):
    """Local MAR: the mass of the observed mapping is the same for every
    completion of the observed values, at every phi."""
    values, mapping = x
    fixed = {k - 1: v for v, k in zip(values, mapping)}
    completions = [
        y for y in itertools.product((0, 1), repeat=2)
        if all(y[i] == v for i, v in fixed.items())
    ]
    return all(
        len({KERNELS[p](y).get(mapping, Fraction(0)) for y in completions}) == 1
        for p in phis
    )


def _rubin_sweep(seed):
    scheme = sampling.values_and_mapping()
    ops, engine = [], []
    for thetas in _grids(SIGNALS):
        for phis in _grids(KERNELS):
            model = _rubin_model(thetas, phis)
            family = ignorance.Family.from_survey_model(model, scheme)
            for x in family.observation_support():
                ops.append(_rubin_op(thetas, phis, model, x, scheme))
                engine.append(((thetas, phis), x))

    def check_support(_outputs):
        """The engine's observation supports against direct enumeration."""
        brute = {
            ((thetas, phis), x)
            for thetas in _grids(SIGNALS)
            for phis in _grids(KERNELS)
            for x in _brute_observations(thetas, phis)
        }
        if set(engine) != brute or len(engine) != len(brute):
            return [f"rubin_sweep: {len(engine)} engine observations, "
                    f"{len(brute)} by enumeration"]
        return []

    return Workload(ops, seed, ops[::10], passes=1, check=check_support)


def _rubin_op(thetas, phis, model, x, scheme):
    def run():
        return inference.rubin_theorem_audit(model, x, scheme)

    def check(report):
        problems = []
        for audit in report.audits:
            if audit.theorem in RUBIN_CLAIMED and audit.counterexample():
                problems.append(f"theorem {audit.theorem} has a counterexample")
            if audit.theorem == "6.2" and dict(audit.notes).get("iff") is not True:
                problems.append("theorem 6.2 iff note fails")
        if report.mar != _brute_mar(phis, x):
            problems.append(f"mar {report.mar} differs from the brute-force flag")
        return problems

    name = f"rubin/{'+'.join(thetas)}/{'+'.join(phis)}/{x}"
    return Op(name, run, check)

