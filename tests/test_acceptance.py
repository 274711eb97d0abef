"""Acceptance suite: one test per criterion, exact tolerances, one printed
pass/fail line each.

Expected values marked "oracle" are computed inside this module by
independent brute force (plain dict/loop enumeration, no engine calls on
the checked path) and frozen comparisons against the engine output.
"""

import hashlib
import itertools
import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from reference import dist_eq, split_on
from ignorability_lab.catalog import CATALOG
from ignorability_lab.designs import (
    census,
    constant,
    fixed_design,
    mixture_design,
    poisson,
    select_max,
    srs_wor,
    srs_wr,
    stratified_dist,
)
from ignorability_lab.exactprob import (
    Kernel,
    bernoulli,
    canonical_key,
    condition,
    dist_new,
    point_mass,
    pushforward,
    uniform,
)
from ignorability_lab.ignorance import (
    DISTINCT_COMPLEMENT,
    Family,
    MarginalFunctional,
    RandomVariableRef,
    atrandomize,
    composite_rv,
    design_variable_rv,
    dirac_fix,
    ignore_model,
    make_split,
    selection_rv,
    signal_rv,
)
from ignorability_lab.inference import (
    FREQUENTIST,
    IGNORABLE,
    INFORMATIVE,
    LIKELIHOOD_BASED,
    check_distinct,
    classify,
    default_estimator,
    likelihood_equivalent,
    rubin_theorem_audit,
)
from ignorability_lab.mc import compare_exact_vs_mc
from ignorability_lab.modelfile import (
    BadRational,
    ModelSyntaxError,
    SchemaError,
    UnknownDesignVariant,
    emit_model,
    parse_model,
)
from ignorability_lab.reports import emit_report, machine_json, rubin_payload
from ignorability_lab.sampling import (
    Population,
    SurveyModel,
    build_joint,
    count_vector,
    drawn_values,
    expected_distinct_size,
    expected_size,
    iid_signal_dist,
    inclusion_probabilities,
    indicator_vector,
    observation_distribution,
    selection_expectations,
    values_and_mapping,
    values_only,
)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} [{label}]: FAIL")
        raise
    print(f"criterion {number:02d} [{label}]: PASS")


def test_criterion_01_worked_indicator_and_count_vectors():
    with criterion(1, "worked indicator/count vectors"):
        pop = Population(tuple(range(1, 9)))
        r = (3, 1, 5, 3, 2)
        assert indicator_vector(r, pop) == (1, 1, 1, 0, 1, 0, 0, 0)
        assert count_vector(r, pop) == (1, 1, 2, 0, 1, 0, 0, 0)


def _stratum_maps(n_units):
    yield tuple([1] * n_units)
    if n_units >= 2:
        half = (n_units + 1) // 2
        yield tuple([1] * half + [2] * (n_units - half))


def _all_design_instances():
    """Every built-in design over populations N <= 5, all feasible sizes."""
    for N in range(1, 6):
        pop = Population(tuple(range(1, N + 1)))
        for n in range(N + 1):
            yield pop, srs_wor(n, pop)
        for n in range(5):
            yield pop, srs_wr(n, pop)
        for strata in _stratum_maps(N):
            sizes = {}
            for h in strata:
                sizes[h] = sizes.get(h, 0) + 1
            ids = sorted(sizes)
            for alloc_counts in itertools.product(
                *[range(sizes[h] + 1) for h in ids]
            ):
                alloc = dict(zip(ids, alloc_counts))
                yield pop, stratified_dist(strata, alloc, pop)
        patterns = [
            [F(1, 2)] * N,
            [F(1)] * N,
            [F(0)] * N,
            [F(1, 3) if i % 2 == 0 else F(3, 4) for i in range(N)],
        ]
        for p in patterns:
            yield pop, poisson(p, pop)
        kernel = select_max(pop)
        for y in itertools.product((1, 2), repeat=N):
            yield pop, kernel.get(y)
        components = [srs_wor(min(1, N), pop), srs_wr(2, pop), census(pop)]
        for weights in ((F(1, 6), F(1, 3), F(1, 2)), (F(0), F(0), F(1))):
            law = mixture_design({"w": weights}, components)
            yield pop, law["w"].get(None)


def test_criterion_02_size_identities_across_design_catalog():
    with criterion(2, "size identities over the design catalog"):
        start = time.monotonic()
        count = 0
        for pop, delta in _all_design_instances():
            count += 1
            pi = inclusion_probabilities(delta, pop)
            ups = selection_expectations(delta, pop)
            assert sum(pi, F(0)) == expected_distinct_size(delta)
            assert sum(ups, F(0)) == expected_size(delta)
        assert count > 150
        assert time.monotonic() - start < 10.0


def _select_max_model(values=(1, 2)):
    pop = Population((1, 2))
    unit = dist_new([(values[0], F(1, 2)), (values[1], F(1, 2))])
    return SurveyModel.create(
        population=pop,
        thetas=("u",),
        signal_law={"u": iid_signal_dist(pop, unit, z_of=lambda y: y)},
        design=select_max(pop),
        z_contains_y=True,
    )


def test_criterion_03_select_max_informative():
    with criterion(3, "select-the-max is informative"):
        # oracle: enumerate the 4 equally likely signals; the selection takes
        # the largest value, lowest label on ties
        oracle = {}
        for y in itertools.product((1, 2), repeat=2):
            best = 0 if y[0] >= y[1] else 1
            key = (y[best],)
            oracle[key] = oracle.get(key, F(0)) + F(1, 4)
        assert oracle == {(1,): F(1, 4), (2,): F(3, 4)}

        m = _select_max_model()
        obs = observation_distribution(m, "u", scheme=values_only())
        assert dict(obs.items) == oracle
        marginal = {(1,): F(1, 2), (2,): F(1, 2)}

        target = MarginalFunctional("signal_law", signal_rv(), lambda d: d)
        report = classify(
            m, (signal_rv(), selection_rv()), values_only(), LIKELIHOOD_BASED, target
        )
        assert report.verdict == INFORMATIVE
        tables = next(w for w in report.witnesses if w.kind == "likelihood_tables")
        detail = dict(tables.detail)
        original = {x: mass for (_t, x), mass in detail["original"]}
        ignored = {x: mass for (_t, x), mass in detail["ignored"]}
        assert original == oracle
        assert ignored == marginal


def _srs_model_n3():
    pop = Population((1, 2, 3))
    thetas = (F(1, 3), F(2, 3))
    return SurveyModel.create(
        population=pop,
        thetas=thetas,
        signal_law={t: iid_signal_dist(pop, bernoulli(t)) for t in thetas},
        design=constant(srs_wor(2, pop)),
    )


def test_criterion_04_srs_ignorable():
    with criterion(4, "srs without replacement is ignorable"):
        m = _srs_model_n3()
        target = MarginalFunctional(
            "mean_of_first_unit",
            signal_rv(),
            lambda d: sum((w * F(y[0]) for y, w in d.items), F(0)),
        )
        split = (signal_rv(), composite_rv([selection_rv(), design_variable_rv()]))
        rep = classify(
            m, split, values_and_mapping(), LIKELIHOOD_BASED, target
        )
        assert rep.verdict == IGNORABLE
        # the single proportionality constant is the count of ordered
        # samples of size 2 from 3 units
        assert rep.alpha == 6
        rep2 = classify(
            m,
            split,
            values_and_mapping(),
            FREQUENTIST,
            target,
            estimator=default_estimator(values_and_mapping()),
        )
        assert rep2.verdict == IGNORABLE


def _bernoulli_mixture_model(thetas=(F(1, 3), F(1, 2))):
    components = [fixed_design((1,)), fixed_design((2,)), fixed_design((1, 2))]
    weights = {t: (t / 2, t / 2, 1 - t) for t in thetas}
    return SurveyModel.create(
        population=Population((1, 2)),
        thetas=thetas,
        signal_law={t: iid_signal_dist(Population((1, 2)), bernoulli(t)) for t in thetas},
        phis=thetas,
        design_law=mixture_design(weights, components),
        grid=tuple((t, t) for t in thetas),
    )


def test_criterion_05_mixture_ignorable_conditionals_yet_informative():
    with criterion(5, "mixture: conditional laws match yet likelihood differs"):
        thetas = (F(1, 3), F(1, 2))
        m = _bernoulli_mixture_model(thetas)
        pop = m.population
        for t in thetas:
            joint = build_joint(m, t, t)
            for i in (1, 2):
                got = pushforward(
                    condition(joint, lambda w, i=i: w.r == (i,)),
                    lambda w: drawn_values(w, pop),
                )
                assert dist_eq(got, pushforward(bernoulli(t), lambda v: (v,)))

        fam = Family.from_survey_model(m, values_and_mapping())
        split = make_split(fam, signal_rv(), selection_rv())
        ignored = ignore_model(fam, split, dirac_fix())
        target = MarginalFunctional("signal_law", signal_rv(), lambda d: d)
        x = ((1,), (1,))
        res = likelihood_equivalent(fam, ignored, x, target)
        assert not res.equivalent
        detail = dict(dict(res.witnesses[0].detail))
        original = {canonical_key(t): mass for (t, _x), mass in detail["original"]}
        ignored_table = {canonical_key(t): mass for (t, _x), mass in detail["ignored"]}
        for t in thetas:
            key = canonical_key(pushforward(m.signal_law[t], lambda yz: yz[0]))
            # original likelihood carries the selection factor theta/2
            assert original[key] == (t / 2) * t
            assert ignored_table[key] == t
            assert original[key] == (t / 2) * ignored_table[key]


RUBIN_SIGNALS = {
    "s1": [((0, 0), F(1, 4)), ((0, 1), F(1, 4)), ((1, 0), F(1, 4)), ((1, 1), F(1, 4))],
    "s2": [((0, 0), F(4, 9)), ((0, 1), F(2, 9)), ((1, 0), F(2, 9)), ((1, 1), F(1, 9))],
    "s3": [((0, 0), F(1, 2)), ((1, 1), F(1, 2))],
    "s4": [((0, 0), F(1, 4)), ((0, 1), F(1, 2)), ((1, 0), F(1, 12)), ((1, 1), F(1, 6))],
}

RUBIN_KERNELS = {
    "census": lambda y: point_mass((1, 2)),
    "first_only": lambda y: point_mass((1,)),
    "uniform_subsets": lambda y: uniform([(), (1,), (2,), (1, 2)]),
    "depends_on_first": lambda y: point_mass((1, 2)) if y[0] == 1 else point_mass((1,)),
    "depends_on_second": lambda y: point_mass((1,)) if y[1] == 1 else point_mass((1, 2)),
    "uniform_singletons": lambda y: uniform([(1,), (2,)]),
}


# SHA-256 of the sweep's audit payloads (machine JSON, one per line); it
# pins the MAR/OAR flags and the theorem verdicts of every audited case.
RUBIN_SWEEP_DIGEST = "03f8de6488e0d96f608c2630c09897369da663c80708d414cb7f29a8464eaf25"


def _rubin_model(theta_labels, phi_labels):
    pop = Population((1, 2))
    signal_law = {
        lab: dist_new([((y, y), w) for y, w in RUBIN_SIGNALS[lab]])
        for lab in theta_labels
    }
    design_law = {
        lab: Kernel.from_rule(lambda z, fn=RUBIN_KERNELS[lab]: fn(tuple(z)))
        for lab in phi_labels
    }
    return SurveyModel.create(
        population=pop,
        thetas=theta_labels,
        signal_law=signal_law,
        phis=phi_labels,
        design_law=design_law,
        z_contains_y=True,
    )


def test_criterion_06_rubin_soundness_sweep():
    with criterion(6, "missing-data theorem audit soundness sweep"):
        start = time.monotonic()
        signal_names = sorted(RUBIN_SIGNALS)
        kernel_names = sorted(RUBIN_KERNELS)
        theta_grids = [(s,) for s in signal_names] + [
            pair for pair in itertools.combinations(signal_names, 2)
        ]
        phi_grids = [(k,) for k in kernel_names] + [
            pair for pair in itertools.combinations(kernel_names, 2)
        ]
        audits = 0
        counterexamples = []
        digest = hashlib.sha256()  # every payload, in sweep order
        for thetas in theta_grids:
            for phis in phi_grids:
                m = _rubin_model(thetas, phis)
                fam = Family.from_survey_model(m, values_and_mapping())
                for x in fam.observation_support():
                    report = rubin_theorem_audit(m, x, values_and_mapping())
                    audits += 1
                    digest.update(machine_json(rubin_payload(report)).encode() + b"\n")
                    for name in ("6.1", "6.3", "7.1", "7.2"):
                        if report.audit(name).counterexample():
                            counterexamples.append((thetas, phis, x, name))
        assert audits > 1000
        assert counterexamples == []
        assert digest.hexdigest() == RUBIN_SWEEP_DIGEST
        assert time.monotonic() - start < 60.0


def test_criterion_07_distinctness_detection():
    with criterion(7, "variation independence of parameter grids"):
        product_grid = [(t, p) for t in ("a", "b") for p in ("x", "y")]
        assert check_distinct(product_grid)
        assert not check_distinct([("a", "a"), ("b", "b")])


def _oracle_atrandomize(table):
    """Direct transcription of the ignore construction on dict weights:
    mix the Phi-conditioned interest-laws against the nuisance marginal."""
    support = set(table)
    vb_marginal = {}
    for (v, vb), w in table.items():
        vb_marginal[vb] = vb_marginal.get(vb, F(0)) + w
    out = {}
    for vb0, outer in vb_marginal.items():
        compatible_v = {v for (v, vb) in support if vb == vb0}
        phi = {(v, vb) for (v, vb) in support if v in compatible_v}
        mass = sum((table[p] for p in phi if p in table), F(0))
        for (v, vb) in phi:
            inner = table.get((v, vb), F(0)) / mass
            if inner:
                out[(v, vb0)] = out.get((v, vb0), F(0)) + outer * inner
    return {k: w for k, w in out.items() if w}


def test_criterion_08_atrandomize_algebra():
    with criterion(8, "atrandomize algebra on two-by-two and three-point supports"):
        first = RandomVariableRef("first", lambda w: w[0])
        second = RandomVariableRef("second", lambda w: w[1])
        square = tuple(itertools.product((0, 1), repeat=2))
        supports = [square] + [
            tuple(s) for s in itertools.combinations(square, 3)
        ]
        weight_patterns = {
            4: [
                (F(1, 4),) * 4,
                (F(1, 2), F(1, 4), F(1, 8), F(1, 8)),
                (F(1, 3), F(1, 6), F(1, 4), F(1, 4)),
            ],
            3: [
                (F(1, 3),) * 3,
                (F(1, 2), F(1, 4), F(1, 4)),
                (F(1, 6), F(1, 3), F(1, 2)),
            ],
        }
        checked = 0
        for support in supports:
            split = split_on(support, first, second)
            for weights in weight_patterns[len(support)]:
                P = dist_new(list(zip(support, weights)))
                got = atrandomize(P, split)
                want = _oracle_atrandomize(dict(zip(support, weights)))
                assert dict(got.items) == want
                if split.status == DISTINCT_COMPLEMENT:
                    margins = pushforward(P, first), pushforward(P, second)
                    produced = dist_new(
                        [
                            ((a, b), wa * wb)
                            for a, wa in margins[0].items
                            for b, wb in margins[1].items
                        ]
                    )
                    assert dist_eq(got, produced)
                    assert dist_eq(atrandomize(got, split), got)
                checked += 1
        # the worked three-point table: uniform weights redistribute to
        # 4/9, 1/3, 2/9
        split = split_on(((0, 0), (0, 1), (1, 0)), first, second)
        got = atrandomize(uniform([(0, 0), (0, 1), (1, 0)]), split)
        assert dict(got.items) == {
            (0, 0): F(4, 9),
            (0, 1): F(1, 3),
            (1, 0): F(2, 9),
        }
        assert checked == 15


def test_criterion_09_monte_carlo_calibration():
    with criterion(9, "simulation calibration against the exact engine"):
        start = time.monotonic()
        total_cells = 0
        outside = 0
        snapshots = []
        for name in sorted(CATALOG):
            build = parse_model(CATALOG[name]).build()
            theta, phi = build.model.grid[0]
            report = compare_exact_vs_mc(
                build.model,
                theta,
                phi,
                scheme=build.scheme,
                draws=100_000,
                seed=20_260_810,
            )
            total_cells += len(report.cells)
            outside += report.cells_outside
            snapshots.append(emit_report(report, json_form=True))
        assert total_cells >= 30
        assert outside <= 0.01 * total_cells
        # bit-identical reruns
        for name, snap in zip(sorted(CATALOG), snapshots):
            build = parse_model(CATALOG[name]).build()
            theta, phi = build.model.grid[0]
            again = compare_exact_vs_mc(
                build.model,
                theta,
                phi,
                scheme=build.scheme,
                draws=100_000,
                seed=20_260_810,
            )
            assert emit_report(again, json_form=True) == snap
        assert time.monotonic() - start < 30.0


INVALID_DOCUMENTS = [
    ("decimal", "theta = 1/3 2/3", "theta = 0.5 2/3", BadRational),
    ("dup-unit", "units = 1 2", "units = 1 1", SchemaError),
    ("unknown-variant", "variant = srs_wor", "variant = sampford", UnknownDesignVariant),
    ("unknown-scheme", "scheme = values_only", "scheme = everything", SchemaError),
    ("bad-mass", "iid 1/3 = 0:2/3 1:1/3", "iid 1/3 = 0:2/3 1:1/2", SchemaError),
    ("alien-value", "iid 1/3 = 0:2/3 1:1/3", "iid 1/3 = 0:2/3 9:1/3", SchemaError),
    ("missing-n", "n = 1\n", "", SchemaError),
    ("no-equals", "units = 1 2", "units 1 2", ModelSyntaxError),
    ("dup-key", "n = 1", "n = 1\nn = 2", SchemaError),
    ("unknown-key", "n = 1", "n = 1\nsize = 2", SchemaError),
    ("unknown-theta-law", "iid 1/3", "iid 3/4", SchemaError),
    ("negative-mass", "iid 1/3 = 0:2/3 1:1/3", "iid 1/3 = 0:4/3 1:-1/3", SchemaError),
]


def test_criterion_10_parser_golden_corpus():
    with criterion(10, "model file corpus round-trips and diagnostics"):
        valid = list(CATALOG.values())
        assert len(valid) >= 10
        for text in valid:
            doc = parse_model(text)
            assert parse_model(emit_model(doc)) == doc
            doc.build()
        assert len(INVALID_DOCUMENTS) >= 10
        base = CATALOG["srs_wor_minimal"]
        for _name, old, new, error_type in INVALID_DOCUMENTS:
            text = base.replace(old, new)
            assert text != base
            with pytest.raises(error_type) as info:
                parse_model(text)
            assert info.value.line >= 1
            assert info.value.col >= 1
            assert info.value.rule
