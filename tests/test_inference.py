"""Likelihoods, missing-at-random checks, equivalence tests, classifier,
and the missing-data theorem audits."""

import gc
import itertools
import random
import weakref
from decimal import Decimal
from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from test_axes import grids, survey_models

import reference
from reference import dist_eq, first_of_each_key, rubin_audit
from ignorability_lab.catalog import CATALOG
from ignorability_lab.cli import _rubin_flags
from ignorability_lab.exactprob import (
    EngineError,
    IncomparableOutcomes,
    Kernel,
    ModelTooLarge,
    bernoulli,
    canonical_key,
    condition,
    dist_new,
    expectation,
    numbering,
    point_mass,
    pushforward,
    replace,
    uniform,
)
from ignorability_lab.designs import (
    census,
    constant,
    fixed_design,
    mixture_design,
    select_max,
    srs_wor,
    srs_wr,
)
from ignorability_lab.ignorance import (
    Family,
    MarginalFunctional,
    RandomVariableRef,
    _code,
    composite_rv,
    design_variable_rv,
    dirac_fix,
    make_split,
    selection_rv,
    signal_rv,
)
from ignorability_lab.inference import (
    BAYESIAN,
    EmptyTables,
    FREQUENTIST,
    IGNORABLE,
    INFORMATIVE,
    LIKELIHOOD_BASED,
    NotRubinShape,
    RubinAuditReport,
    RubinContext,
    ZeroEvidence,
    _ranks,
    check_distinct,
    check_mar,
    check_oar,
    classify,
    default_estimator,
    likelihood_equivalent,
    posterior_equivalent,
    prepare,
    prepare_rubin,
    rubin_theorem_audit,
    sampling_dist_equivalent,
)
from ignorability_lab.modelfile import parse_model
from ignorability_lab.sampling import (
    Population,
    SurveyModel,
    UnknownObservation,
    iid_signal_dist,
    validate_observation,
    values_and_mapping,
    values_mapping_design,
    values_only,
)

U2 = Population((1, 2))
U3 = Population((1, 2, 3))


def srs_model(pop, n, thetas=(F(1, 3), F(2, 3)), wr=False):
    design = srs_wr(n, pop) if wr else srs_wor(n, pop)
    return SurveyModel.create(
        population=pop,
        thetas=thetas,
        signal_law={t: iid_signal_dist(pop, bernoulli(t)) for t in thetas},
        design=constant(design),
    )


def select_max_model(pop=U2, thetas=(F(1, 3), F(1, 2)), values=(0, 1)):
    unit = {t: dist_new([(values[0], 1 - t), (values[1], t)]) for t in thetas}
    return SurveyModel.create(
        population=pop,
        thetas=thetas,
        signal_law={
            t: iid_signal_dist(pop, unit[t], z_of=lambda y: y) for t in thetas
        },
        design=select_max(pop),
        z_contains_y=True,
    )


def bernoulli_mixture_model(thetas=(F(1, 3), F(1, 2))):
    """Signal iid Bernoulli(theta); the selection keeps one unit with
    probability theta/2 each or everything with probability 1 - theta.
    The signal parameter leaks into the design: the grid is diagonal."""
    components = [fixed_design((1,)), fixed_design((2,)), fixed_design((1, 2))]
    weights = {t: (t / 2, t / 2, 1 - t) for t in thetas}
    law = mixture_design(weights, components)
    return SurveyModel.create(
        population=U2,
        thetas=thetas,
        signal_law={t: iid_signal_dist(U2, bernoulli(t)) for t in thetas},
        phis=thetas,
        design_law=law,
        grid=tuple((t, t) for t in thetas),
    )


def rubin_model(kernels_by_phi, signals_by_theta=None, grid=None):
    """Signal plus value-dependent missingness: z is the signal itself and
    the observation is (values on the sample, sample)."""
    if signals_by_theta is None:
        signals_by_theta = {
            F(1, 3): iid_signal_dist(U2, bernoulli(F(1, 3)), z_of=lambda y: y),
            F(1, 2): iid_signal_dist(U2, bernoulli(F(1, 2)), z_of=lambda y: y),
        }
    design_law = {
        phi: Kernel.from_rule(lambda z, fn=fn: fn(tuple(z)))
        for phi, fn in kernels_by_phi.items()
    }
    return SurveyModel.create(
        population=U2,
        thetas=tuple(signals_by_theta),
        signal_law=signals_by_theta,
        phis=tuple(kernels_by_phi),
        design_law=design_law,
        grid=grid,
        z_contains_y=True,
    )


def uniform_subsets(_y):
    return uniform([(), (1,), (2,), (1, 2)])


def first_unit_or_both(y):
    # keep only unit 1 when its value is 1, otherwise census: the mass of a
    # mapping depends on an observed coordinate
    return point_mass((1,)) if y[0] == 1 else point_mass((1, 2))


def drop_by_second(y):
    # keep only unit 1 when the value at unit 2 is 1: depends on a
    # coordinate outside the mapping (1,)
    return point_mass((1,)) if y[1] == 1 else point_mass((1, 2))


def e_y1_target(pop):
    return MarginalFunctional(
        "mean_of_first_unit", signal_rv(), lambda d: expectation(d, lambda y: y[0])
    )


def signal_law_target():
    return MarginalFunctional("signal_law", signal_rv(), lambda d: d)


def likelihood_table(m, x, scheme=values_and_mapping()):
    """{grid point: mass of x} from the family's observation tables."""
    family = Family.from_survey_model(m, scheme)
    tables = {p: family.observation_tables()[family.number[p]] for p in family.points}
    return {p: F(sums.get(family.observation_code(x), 0), d) for p, (d, sums) in tables.items()}


class TestLikelihood:
    def test_census_product_mass(self):
        m = SurveyModel.create(
            population=U2,
            thetas=(F(1, 3),),
            signal_law={F(1, 3): iid_signal_dist(U2, bernoulli(F(1, 3)))},
            design=constant(census(U2)),
        )
        table = likelihood_table(m, ((1, 0), (1, 2)))
        assert table[(F(1, 3), None)] == F(2, 9)

    def test_impossible_observation_all_zero(self):
        m = srs_model(U2, 1)
        table = likelihood_table(m, ((1, 0), (2, 1)))
        assert set(table.values()) == {F(0)}

    def test_mixture_worked_value(self):
        m = bernoulli_mixture_model()
        table = likelihood_table(m, ((1,), (1,)))
        assert table[(F(1, 2), F(1, 2))] == F(1, 8)
        assert table[(F(1, 3), F(1, 3))] == F(1, 18)


class TestPointNumbers:
    def test_grid_labels_not_hashed(self, monkeypatch):
        # srs_wor_n3 has the grid points (1/3, None) and (2/3, None); prepare
        # and a likelihood test read every per-point table by point number
        # and each law's atoms by their kept ranks, so no label is hashed.
        # The only Fractions hashed are in the keys of the target's values,
        # E[y_1] = 1/3 and 2/3, once when they are ranked, the two families
        # sharing each value: 2, where keyed lookups by point made 160
        from ignorability_lab.catalog import CATALOG
        from ignorability_lab.modelfile import parse_model

        build = parse_model(CATALOG["srs_wor_n3"]).build()
        hashed, real = [], F.__hash__
        monkeypatch.setattr(F, "__hash__", lambda self: hashed.append(self) or real(self))
        prepared = prepare(build.model, (build.v, build.v_bar), build.scheme, build.target, dirac_fix())
        report = prepared.test(LIKELIHOOD_BASED, None)
        monkeypatch.undo()
        assert report.verdict == IGNORABLE
        assert sorted(hashed) == [F(1, 3), F(2, 3)]


def uniform_mar(m, scheme):
    """The uniform MAR flag as `check` reports it: local MAR at every
    positive-mass observation."""
    observations = Family.from_survey_model(m, scheme).observation_support()
    return dict(_rubin_flags(m, scheme, observations, "uniform"))["mar"]


class TestCheckMar:
    def test_y_free_kernel_always_mar(self):
        m = srs_model(U2, 1)
        assert check_mar(m, ((1,), (2,)), values_and_mapping())
        assert uniform_mar(m, values_and_mapping())

    def test_select_max_observed_top_value(self):
        m = select_max_model(values=(1, 2))
        # every completion compatible with (2 at unit 1) selects unit 1
        assert check_mar(m, ((2,), (1,)), values_and_mapping())

    def test_select_max_disagreeing_argmax(self):
        m = select_max_model(values=(1, 2))
        # completions (1,1) and (1,2) select different units
        assert not check_mar(m, ((1,), (1,)), values_and_mapping())

    def test_uniform_variant_catches_bad_x(self):
        m = select_max_model(values=(1, 2))
        assert not uniform_mar(m, values_and_mapping())


class TestCheckOar:
    def test_y_free_kernel(self):
        m = srs_model(U2, 1)
        assert check_oar(m, ((1,), (2,)), values_and_mapping())

    def test_depends_only_on_unobserved(self):
        m = rubin_model({"k5": drop_by_second})
        assert check_oar(m, ((1,), (1,)), values_and_mapping())
        assert not check_mar(m, ((1,), (1,)), values_and_mapping())

    def test_depends_on_observed(self):
        m = rubin_model({"k4": first_unit_or_both})
        assert not check_oar(m, ((1,), (1,)), values_and_mapping())
        assert check_mar(m, ((1,), (1,)), values_and_mapping())


class TestCheckDistinct:
    def test_product_grid(self):
        grid = [(t, p) for t in ("a", "b") for p in ("x", "y")]
        assert check_distinct(grid)

    def test_diagonal_grid(self):
        assert not check_distinct([("a", "a"), ("b", "b")])

    def test_singleton_factor(self):
        assert check_distinct([("a", "x"), ("b", "x")])

    def test_mixture_grid_not_separated(self):
        m = bernoulli_mixture_model()
        assert not check_distinct(m.grid)

    @pytest.mark.parametrize(
        "grid, distinct",
        [
            (((0, 0), (0, 1), (1, 0), (1, 1)), True),
            (((0, 0), (0, 1), (1, 0)), False),
            (((0, 0), (1, 1)), False),
            # four points, but three distinct pairs on a 2 x 2 image
            (((0, 0), (0, 0), (0, 1), (1, 0)), False),
            (((0, 0), (0, 0), (1, 0)), True),
        ],
        ids=["full-product", "three-point", "diagonal", "repeated-off-product", "repeated-on-product"],
    )
    def test_position_grids(self, grid, distinct):
        assert check_distinct(grid) is distinct

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=8))
    def test_matches_the_reference_rule(self, grid):
        assert check_distinct(grid) == reference.distinct_grid(grid)


class TestLikelihoodEquivalent:
    def test_same_family_alpha_one(self):
        m = srs_model(U2, 1)
        fam = Family.from_survey_model(m, values_and_mapping())
        res = likelihood_equivalent(
            fam, fam, ((1,), (2,)), e_y1_target(U2)
        )
        assert res.equivalent and res.alpha == 1

    def test_srs_uniform_mode_alpha_is_design_factor(self):
        m = srs_model(U3, 2)
        fam = Family.from_survey_model(m, values_and_mapping())
        split = make_split(fam, signal_rv(), selection_rv())
        from ignorability_lab.ignorance import dirac_fix, ignore_model

        ignored = ignore_model(fam, split, dirac_fix())
        res = likelihood_equivalent(fam, ignored, None, e_y1_target(U3))
        assert res.equivalent
        assert res.alpha == 6  # ordered samples of size 2 from 3 units

    def test_select_max_uniform_mode_fails(self):
        m = select_max_model(thetas=(F(1, 2),), values=(1, 2))
        fam = Family.from_survey_model(m, values_only())
        split = make_split(fam, signal_rv(), selection_rv())
        from ignorability_lab.ignorance import dirac_fix, ignore_model

        ignored = ignore_model(fam, split, dirac_fix())
        res = likelihood_equivalent(fam, ignored, None, signal_law_target())
        assert not res.equivalent

    def test_empty_tables(self):
        m = srs_model(U2, 1)
        fam = Family.from_survey_model(m, values_and_mapping())
        with pytest.raises(EmptyTables):
            likelihood_equivalent(
                fam, fam, ((1, 0), (2, 1)), e_y1_target(U2)
            )


class TestSamplingDistEquivalent:
    def test_same_family(self):
        m = srs_model(U2, 1)
        fam = Family.from_survey_model(m, values_only())
        est = default_estimator(values_only())
        res = sampling_dist_equivalent(fam, fam, est, e_y1_target(U2))
        assert res.equivalent

    def test_srs_mean_ignorable(self):
        m = srs_model(U3, 2)
        fam = Family.from_survey_model(m, values_only())
        split = make_split(fam, signal_rv(), selection_rv())
        from ignorability_lab.ignorance import dirac_fix, ignore_model

        ignored = ignore_model(fam, split, dirac_fix())
        est = default_estimator(values_only())
        res = sampling_dist_equivalent(fam, ignored, est, e_y1_target(U3))
        assert res.equivalent

    def test_select_max_sample_value_fails(self):
        m = select_max_model(thetas=(F(1, 2),), values=(1, 2))
        fam = Family.from_survey_model(m, values_only())
        split = make_split(fam, signal_rv(), selection_rv())
        from ignorability_lab.ignorance import dirac_fix, ignore_model

        ignored = ignore_model(fam, split, dirac_fix())
        est = lambda x: x[0]
        res = sampling_dist_equivalent(fam, ignored, est, signal_law_target())
        assert not res.equivalent


def typed(values) -> list:
    """Values with their types, so that 1 and Fraction(1) differ."""
    return [(type(v), v) for v in values]


def mixed_family(laws, obs=lambda w: w) -> Family:
    """A hand-built family over the worlds "a", "b", "c"; `laws` maps a
    point to a law and `obs` is one observation function or one per point."""
    return Family(laws, laws, obs if isinstance(obs, dict) else dict.fromkeys(laws, obs), space="abc")


class TestKeepFirst:
    """Values of different types that share a canonical_key (1 and
    Fraction(1)) are numbered once, and each numbering keeps the first of
    them in its own order: (family, point) order for target values, point
    order for observations, code order for estimates."""

    @pytest.mark.parametrize("seed", range(20))
    def test_numbering(self, seed):
        rng = random.Random(seed)
        values = [rng.choice((int, F))(rng.randrange(4)) for _ in range(rng.randrange(12))]
        keys = [canonical_key(v) for v in values]
        codes, firsts = numbering(keys)
        distinct = sorted(set(keys))
        assert codes == [distinct.index(k) for k in keys]
        assert typed(values[i] for i in firsts) == typed(first_of_each_key(values))

    def test_world_by_world_code(self):
        worlds = ("a", "b", "c", "d")
        as_number = {"a": F(2), "b": 1, "c": 2, "d": F(1)}.__getitem__
        codes, values, keys = _code(worlds, as_number)
        assert codes == (1, 0, 1, 0)
        assert typed(values) == typed(first_of_each_key(map(as_number, worlds))) == [(int, 1), (F, 2)]
        assert keys == tuple(canonical_key(v) for v in values)

    def test_ranked_target_values(self):
        # the number of atoms of the world law, a Fraction when "a" is one
        size = MarginalFunctional("size", RandomVariableRef("world", lambda w: w),
                                  lambda law: F(len(law)) if law.items[0][0] == "a" else len(law))
        original = mixed_family({"p1": uniform("bc"), "p2": uniform("ab"), "p3": point_mass("a"), "p4": point_mass("c")})
        ignored = mixed_family({"q1": point_mass("b"), "q2": uniform("abc"), "q3": uniform("bc")})
        reprs, (ranks_a, ranks_b) = _ranks(original, ignored, size)
        seen = [size.fn(f.laws[p]) for f in (original, ignored) for p in f.points]
        assert typed(reprs) == typed(first_of_each_key(seen)) == [(F, 1), (int, 2), (F, 3)]
        assert dict(zip(original.points, ranks_a, strict=True)) == {"p1": 1, "p2": 1, "p3": 0, "p4": 0}
        assert dict(zip(ignored.points, ranks_b, strict=True)) == {"q1": 0, "q2": 2, "q3": 1}

    def test_interned_observations(self):
        # two observation functions; key 2 is first met at p2 through the
        # second one, though the first one reaches it later at p3
        as_int = {"a": 1, "b": 2, "c": 3}.__getitem__
        as_fraction = {"a": F(1), "b": F(2), "c": F(3)}.__getitem__
        obs = {"p1": as_int, "p2": as_fraction, "p3": as_int}
        fam = mixed_family({"p1": point_mass("a"), "p2": uniform("ab"), "p3": uniform("bc")}, obs)
        seen = [obs[p](w) for p in fam.points for w in fam.laws[p].support()]
        assert typed(fam.observation_support()) == typed(first_of_each_key(seen)) == [(int, 1), (F, 2), (int, 3)]
        assert fam.observation_codes() == {canonical_key(v): c for c, v in enumerate((1, 2, 3))}
        assert [fam.observation_tables()[fam.number[p]] for p in fam.points] == \
            [(1, {0: 1}), (2, {0: 1, 1: 1}), (2, {1: 1, 2: 1})]

    def test_estimator_numbering(self):
        # estimates 1 and Fraction(1) share a key; each family's laws show
        # the estimate of its lowest observation code with that key
        estimate = {1: F(1), 2: 1, 3: 2}.__getitem__
        as_int = {"a": 1, "b": 2, "c": 3}.__getitem__
        original = mixed_family({"p1": uniform("ab"), "p2": uniform("bc")}, as_int)
        ignored = mixed_family({"q1": uniform("bc")}, as_int)
        constant = MarginalFunctional("zero", RandomVariableRef("world", lambda w: w), lambda law: 0)
        res = sampling_dist_equivalent(original, ignored, estimate, constant)
        for side, fam in (("original", original), ("ignored", ignored)):
            kept = {canonical_key(e): e for e in first_of_each_key(map(estimate, fam.observation_support()))}
            shown = [e for law in dict(res.witnesses[0].detail)[side] for e, _w in law.items]
            assert typed(shown) == typed(kept[canonical_key(e)] for e in shown)
        sets = {side: [typed(law.support()) for law in laws] for side, laws in res.witnesses[0].detail[1:]}
        assert sets == {"original": [[(F, 1), (int, 2)], [(F, 1)]], "ignored": [[(int, 1), (int, 2)]]}
        families = [({p: dict(f.laws[p].items) for p in f.points}, dict(zip(f.points, f.obs)), dict.fromkeys(f.points, 0))
                    for f in (original, ignored)]
        assert res.equivalent is reference.sampling_dist_equivalent(*families, estimate)[0] is False


class TestPosteriorEquivalent:
    def test_same_family_single_prior(self):
        m = srs_model(U2, 1)
        fam = Family.from_survey_model(m, values_and_mapping())
        prior = uniform(fam.points)
        res = posterior_equivalent(
            fam, fam, [prior], [prior], e_y1_target(U2), ((1,), (2,))
        )
        assert res.equivalent

    def test_scott_condition_ignorable(self):
        report = classify(
            srs_model(U2, 1),
            (signal_rv(), selection_rv()),
            values_and_mapping(),
            BAYESIAN,
            e_y1_target(U2),
            x=((1,), (2,)),
        )
        assert report.verdict == IGNORABLE

    def test_select_max_informative_x(self):
        report = classify(
            select_max_model(),
            (signal_rv(), selection_rv()),
            values_and_mapping(),
            BAYESIAN,
            e_y1_target(U2),
            x=((0,), (1,)),
        )
        assert report.verdict == INFORMATIVE

    def test_zero_evidence(self):
        m = srs_model(U2, 1)
        fam = Family.from_survey_model(m, values_and_mapping())
        prior = uniform(fam.points)
        with pytest.raises(ZeroEvidence):
            posterior_equivalent(
                fam, fam, [prior], [prior], e_y1_target(U2), ((1, 0), (2, 1))
            )

    @staticmethod
    def mixed_predictand_sides() -> tuple:
        """A hand-built family on worlds (a, b), observed a, its Dirac-fixed
        ignored family, and the predictand b, an int where a is 0 and an
        equal Fraction where a is 1."""
        from ignorability_lab.ignorance import Predictand, dirac_fix, ignore_model

        worlds = [(a, b) for a in (0, 1) for b in (0, 1)]
        laws = {"p": uniform(worlds), "q": dist_new(zip(worlds, (F(1, 8), F(3, 8), F(3, 8), F(1, 8))))}
        fam = Family(list(laws), laws, dict.fromkeys(laws, lambda w: w[0]))
        split = make_split(fam, RandomVariableRef("a", lambda w: w[0]), RandomVariableRef("b", lambda w: w[1]))
        predictand = Predictand("b", lambda w: w[1] if w[0] == 0 else F(w[1]))
        return fam, ignore_model(fam, split, dirac_fix()), predictand

    def test_predictand_values_are_those_of_the_first_world(self):
        # a predictand is coded once per world, and a value shown is the one
        # at the first world of its code: the int, also where the posterior
        # puts mass only on worlds whose value is the Fraction
        fam, ignored, predictand = self.mixed_predictand_sides()
        priors = [uniform(fam.points)], [uniform(ignored.points)]
        res = posterior_equivalent(fam, ignored, *priors, predictand, 1)
        shown = [o for _side, laws in res.witnesses[0].detail[1:] for law in laws for o in law.support()]
        assert shown and all(type(o) is int for o in shown)

    def test_predictand_needs_one_numbering(self):
        # a predictand's codes are per world: two families on different
        # worlds cannot share them
        fam, _ignored, predictand = self.mixed_predictand_sides()
        other = Family(fam.points, fam.laws, dict(zip(fam.points, fam.obs)), space=[(2, 0)])
        prior = [uniform(fam.points)]
        with pytest.raises(EngineError, match="one numbering"):
            posterior_equivalent(fam, other, prior, prior, predictand, 0)


class TestClassify:
    def test_srs_ignorable_likelihood_and_frequentist(self):
        m = srs_model(U3, 2)
        split = (signal_rv(), composite_rv([selection_rv(), design_variable_rv()]))
        rep = classify(
            m, split, values_and_mapping(), LIKELIHOOD_BASED, e_y1_target(U3)
        )
        assert rep.verdict == IGNORABLE
        assert rep.alpha == 6
        rep2 = classify(
            m,
            split,
            values_and_mapping(),
            FREQUENTIST,
            e_y1_target(U3),
            estimator=default_estimator(values_and_mapping()),
        )
        assert rep2.verdict == IGNORABLE

    def test_with_replacement_values_only_informative(self):
        m = srs_model(U2, 2, wr=True)
        split = (signal_rv(), selection_rv())
        rep = classify(m, split, values_only(), LIKELIHOOD_BASED, e_y1_target(U2))
        assert rep.verdict == INFORMATIVE
        rep2 = classify(
            m,
            split,
            values_only(),
            FREQUENTIST,
            e_y1_target(U2),
            estimator=default_estimator(values_only()),
        )
        assert rep2.verdict == INFORMATIVE

    def test_bernoulli_mixture_ignorable_conditionals_yet_informative(self):
        m = bernoulli_mixture_model()
        # conditional drawn-values laws match the one-unit signal laws exactly
        from ignorability_lab.sampling import build_joint, drawn_values

        for t in m.thetas:
            j = build_joint(m, t, t)
            for i in (1, 2):
                got = pushforward(
                    condition(j, lambda w, i=i: w.r == (i,)),
                    lambda w: drawn_values(w, m.population),
                )
                want = pushforward(bernoulli(t), lambda v: (v,))
                assert dist_eq(got, want)
        rep = classify(
            m,
            (signal_rv(), selection_rv()),
            values_and_mapping(),
            LIKELIHOOD_BASED,
            signal_law_target(),
            x=((1,), (1,)),
        )
        assert rep.verdict == INFORMATIVE
        assert rep.flag("non_separated_grid")
        assert rep.flag("local_vs_uniform") == "local"

    def test_report_flags(self):
        rep = classify(
            select_max_model(),
            (signal_rv(), selection_rv()),
            values_only(),
            LIKELIHOOD_BASED,
            signal_law_target(),
        )
        assert rep.flag("z_contains_y")
        assert rep.flag("local_vs_uniform") == "uniform"
        assert rep.verdict == INFORMATIVE

    def test_deterministic_reports(self):
        make = lambda: classify(
            select_max_model(),
            (signal_rv(), selection_rv()),
            values_only(),
            LIKELIHOOD_BASED,
            signal_law_target(),
        )
        assert make() == make()

    def test_refused_tests_and_unknown_flag(self):
        prepared = prepare(srs_model(U2, 1), (signal_rv(), selection_rv()), values_only(), e_y1_target(U2), dirac_fix())
        for inference_type, message in ((FREQUENTIST, "frequentist classification needs an estimator"),
                                         (BAYESIAN, "Bayesian classification needs an observation"),
                                         ("bogus", "unknown inference type 'bogus'")):
            with pytest.raises(EngineError) as info:
                prepared.test(inference_type, None)
            assert str(info.value) == message
        with pytest.raises(KeyError, match="no_such_flag"):
            prepared.test(LIKELIHOOD_BASED, None).flag("no_such_flag")


class TestRubinAudit:
    def test_mar_and_oar_instance(self):
        m = rubin_model({"u": uniform_subsets})
        report = rubin_theorem_audit(m, ((1,), (1,)), values_and_mapping())
        assert report.mar and report.oar
        a61 = report.audit("6.1")
        assert a61.hypothesis_true and a61.conclusion_true
        with pytest.raises(KeyError, match="8.1"):
            report.audit("8.1")

    def test_census_degenerate(self):
        m = rubin_model({"c": lambda y: point_mass((1, 2))})
        report = rubin_theorem_audit(m, ((1, 0), (1, 2)), values_and_mapping())
        a63 = report.audit("6.3")
        assert a63.hypothesis_true and a63.conclusion_true

    def test_mar_distinct_likelihood_ratios(self):
        m = rubin_model({"u": uniform_subsets, "c": lambda y: point_mass((1, 2))})
        report = rubin_theorem_audit(m, ((1,), (1,)), values_and_mapping())
        assert report.distinct
        a71 = report.audit("7.1")
        assert a71.hypothesis_true and a71.conclusion_true

    def test_non_rubin_shape_rejected(self):
        m = srs_model(U2, 2, wr=True)
        with pytest.raises(NotRubinShape):
            rubin_theorem_audit(m, ((1, 1), (1, 1)), values_and_mapping())
        with pytest.raises(NotRubinShape):
            rubin_theorem_audit(m, (1,), values_only())

    def test_design_variable_not_a_function_of_the_signal(self):
        # one signal pairs with two z values: the check reports no Rubin
        # flags, and the audit refuses the model
        law = dist_new([(((0, 1), "a"), F(1, 2)), (((0, 1), "b"), F(1, 2))])
        design = Kernel.from_mapping({"a": srs_wor(1, U2), "b": srs_wor(2, U2)})
        m = SurveyModel.create(population=U2, thetas=(F(1, 2),), signal_law={F(1, 2): law}, design=design)
        scheme = values_and_mapping()
        observations = Family.from_survey_model(m, scheme).observation_support()
        assert _rubin_flags(m, scheme, observations, "uniform") == ()
        with pytest.raises(NotRubinShape, match="^design variable is not a function of the signal$"):
            rubin_theorem_audit(m, observations[0], scheme)

    def test_counterexample_helper(self):
        m = rubin_model({"k4": first_unit_or_both})
        report = rubin_theorem_audit(m, ((1,), (1,)), values_and_mapping())
        for audit in report.audits:
            assert audit.counterexample() == (
                audit.hypothesis_true and not audit.conclusion_true
            )


# ---------------------------------------------------------------------------
# The Rubin context kept on a model: its answers are those of a fresh
# context, and it lives exactly as long as the model.
# ---------------------------------------------------------------------------


def _kernels(labels):
    """The sweep's constant and value-dependent kernels, on any units."""
    census_ = point_mass(labels)
    first = point_mass(labels[:1])
    subsets = uniform(
        [tuple(k for k, bit in zip(labels, bits) if bit)
         for bits in itertools.product((0, 1), repeat=len(labels))]
    )
    return {
        "census": lambda y: census_,
        "first_only": lambda y: first,
        "uniform_subsets": lambda y: subsets,
        "uniform_singletons": lambda y: uniform([(k,) for k in labels]),
        "depends_on_first": lambda y: census_ if y[0] == 1 else first,
        "depends_on_last": lambda y: first if y[-1] == 1 else census_,
    }


@st.composite
def rubin_shape_models(draw):
    """1-3 units, an alphabet of 2-3 values, 1-2 thetas with random laws
    on the signals and z equal to the signal, 1-2 phis from `_kernels`, on
    a grid that need not be a product."""
    labels = tuple(range(1, draw(st.integers(1, 3)) + 1))
    alphabet = tuple(range(draw(st.integers(2, 3))))
    signals = list(itertools.product(alphabet, repeat=len(labels)))
    laws = {}
    for theta in range(draw(st.integers(1, 2))):
        loads = draw(st.lists(st.integers(0, 3), min_size=len(signals),
                              max_size=len(signals)).filter(any))
        laws[theta] = dist_new(
            [((y, y), F(k, sum(loads))) for y, k in zip(signals, loads) if k]
        )
    kernels = _kernels(labels)
    phis = draw(st.lists(st.sampled_from(sorted(kernels)), min_size=1, max_size=2, unique=True))
    model = SurveyModel.create(
        population=Population(labels),
        thetas=tuple(laws),
        signal_law=laws,
        phis=tuple(phis),
        design_law={p: Kernel.from_rule(lambda z, fn=kernels[p]: fn(tuple(z))) for p in phis},
        grid=draw(grids(tuple(laws), tuple(phis))),
        z_contains_y=True,
    )
    return model, labels, alphabet


@st.composite
def raising_row_models(draw):
    """2-3 units, the alphabet (0, 1), 1-2 thetas whose laws share a support
    that misses some signal, 1-2 phis from `_kernels`, so that the selection
    row of a signal of zero mass raises.  Either z is one of two values, a
    function of y, so such a signal has no z (NotRubinShape), or z contains
    y and each design is a table over the signals of positive mass with no
    rule (MissingKernelEntry)."""
    labels = tuple(range(1, draw(st.integers(2, 3)) + 1))
    signals = list(itertools.product((0, 1), repeat=len(labels)))
    support = draw(st.lists(st.sampled_from(signals), min_size=2, max_size=len(signals) - 1, unique=True)
                   .filter(lambda ys: {v for y in ys for v in y} == {0, 1}))
    no_z = draw(st.booleans())
    if no_z:
        zs = draw(st.lists(st.sampled_from("ab"), min_size=len(support), max_size=len(support))
                  .filter(lambda zs: len(set(zs)) == 2))
    else:
        zs = support
    laws = {}
    for theta in range(draw(st.integers(1, 2))):
        loads = draw(st.lists(st.integers(1, 3), min_size=len(support), max_size=len(support)))
        laws[theta] = dist_new([((y, z), F(k, sum(loads))) for y, z, k in zip(support, zs, loads)])
    kernels = _kernels(labels)
    phis = draw(st.lists(st.sampled_from(sorted(kernels)), min_size=1, max_size=2, unique=True))
    model = SurveyModel.create(
        population=Population(labels),
        thetas=tuple(laws),
        signal_law=laws,
        phis=tuple(phis),
        design_law={p: Kernel.from_mapping({z: kernels[p](y) for y, z in zip(support, zs)}) for p in phis},
        grid=draw(grids(tuple(laws), tuple(phis))),
        z_contains_y=not no_z,
    )
    return model, labels, (0, 1)


def _answer(query):
    """A query's report or flag, or the type and message of its error."""
    try:
        return query()
    except EngineError as error:
        return type(error), str(error)


def _queries(data, m, labels, alphabet) -> list:
    """2-8 (kind, observations, scheme) queries on the model m: mar, oar,
    possible or audit, under a scheme that may not expose the mapping."""
    support = Family.from_survey_model(m, values_and_mapping()).observation_support()
    # one or two mappings, each query asking at one of them with 2-3
    # value tuples: mappings the designs produce, and ones no design
    # produces, with repeated units, an unknown unit or a float label;
    # values from the alphabet or outside it
    units = st.sampled_from(labels + (len(labels) + 1, 1.5))
    mappings = data.draw(st.lists(
        st.one_of(st.sampled_from(list(dict.fromkeys(r for _v, r in support))),
                  st.lists(units, max_size=len(labels) + 1).map(tuple)),
        min_size=1, max_size=2,
    ))
    values = st.one_of(st.sampled_from(alphabet), st.just(len(alphabet)))

    def at(r):
        return st.lists(st.lists(values, min_size=len(r), max_size=len(r)),
                        min_size=2, max_size=3).map(lambda vs: [(tuple(v), r) for v in vs])

    observations = st.one_of(st.sampled_from(mappings).flatmap(at),
                             st.sampled_from(support).map(lambda x: [x]))
    schemes = st.sampled_from([values_and_mapping()] * 3 + [values_mapping_design(), values_only()])
    return data.draw(st.lists(
        st.tuples(st.sampled_from(["mar", "oar", "possible", "audit"]), observations, schemes),
        min_size=3, max_size=8,
    ))


def _assert_as_fresh(m, queries):
    """Each query's answer on the model's one context is a fresh context's
    answer to that query alone."""
    for kind, xs, scheme in queries:
        for x in xs:
            got = _answer(lambda: getattr(prepare_rubin(m, scheme), kind)(x))
            if scheme.kind == "values_only":
                want = (NotRubinShape, "the observation scheme must expose the selection mapping")
            else:
                want = _answer(lambda: getattr(RubinContext(m), kind)(x))
            assert got == want, (kind, x)


class TestSharedRubinContext:
    @settings(max_examples=150, deadline=None)
    @given(rubin_shape_models(), st.data())
    def test_answers_equal_a_fresh_context(self, case, data):
        m, labels, alphabet = case
        _assert_as_fresh(m, _queries(data, m, labels, alphabet))

    @settings(max_examples=300, deadline=None)
    @given(survey_models(), st.data())
    def test_random_models_audit_as_a_fresh_context(self, case, data):
        # every positive-mass observation, in a drawn order, on the model's
        # one context: each answer is a fresh context's at that observation
        # alone, and no theorem the audit claims has a counterexample
        m, _scheme, _policy = case
        scheme = values_and_mapping()
        rubin = prepare_rubin(m, scheme)
        support = Family.from_survey_model(m, scheme).observation_support()
        for x in data.draw(st.permutations(support)):
            got = _answer(lambda: rubin.audit(x))
            assert got == _answer(lambda: RubinContext(replace(m)).audit(x)), x
            if isinstance(got, RubinAuditReport):
                assert dict(got.audit("6.2").notes)["iff"] is True, x
                assert not any(a.counterexample() for a in got.audits if a.theorem != "6.2"), x

    @settings(max_examples=300, deadline=None)
    @given(survey_models())
    def test_possible_is_positive_mass_on_the_family(self, case):
        # every (values, mapping) the world space produces, with every z
        # its signals pair with under the design-observing scheme; possible
        # or not, the context agrees with the family's observation codes
        m, _scheme, _policy = case
        worlds = m.world_space()
        zs = {canonical_key(w.z): w.z for w in worlds}.values()
        for scheme in (values_and_mapping(), values_mapping_design()):
            family, rubin = Family.from_survey_model(m, scheme), prepare_rubin(m, scheme)
            xs = {(tuple(w.y[m.population.index(k)] for k in w.r), w.r) for w in worlds}
            if scheme.kind == "values_mapping_design":
                xs = {(v, r, z) for v, r in xs for z in zs}
            for x in xs:
                got = _answer(lambda: rubin.possible(x))
                if not isinstance(got, tuple):  # a model not in the Rubin shape raises
                    assert got == (family.observation_code(x) is not None), (scheme.kind, x)

    @settings(max_examples=200, deadline=None)
    @given(raising_row_models(), st.data())
    def test_rows_that_raise_answer_as_a_fresh_context(self, case, data):
        # a query that reaches a zero-mass signal's row raises what a fresh
        # context raises, however many queries came before it
        m, labels, alphabet = case
        _assert_as_fresh(m, _queries(data, m, labels, alphabet))

    @settings(max_examples=100, deadline=None)
    @given(raising_row_models())
    def test_mar_raises_where_a_zero_mass_signal_agrees(self, case):
        # every row at the first phi is built before comparing, so on one
        # shared context MAR raises exactly where a signal of zero mass
        # agrees with the observed values
        m, labels, alphabet = case
        rubin = prepare_rubin(m, values_and_mapping())
        positive = {y for law in m.signal_law.values() for (y, _z), _w in law.items}
        signals = list(itertools.product(alphabet, repeat=len(labels)))
        for r in dict.fromkeys(r for _v, r in Family.from_survey_model(m, values_and_mapping()).observation_support()):
            for values in itertools.product(alphabet, repeat=len(r)):
                agreeing = [y for y in signals if all(y[labels.index(k)] == v for v, k in zip(values, r))]
                raised = isinstance(_answer(lambda: rubin.mar((values, r))), tuple)
                assert raised == any(y not in positive for y in agreeing), (values, r)

    @pytest.mark.parametrize("x, want", [
        # a value or unit outside the model, or fewer values than units: the
        # command line's refusal, checked before anything else; a bool or
        # float is no value or unit, even where it equals one
        (((F(1, 2), 0), (1, 7)), (UnknownObservation, "value Fraction(1, 2) not in the signal alphabet")),
        (((0.5, 0), (1, 7)), (UnknownObservation, "value 0.5 not in the signal alphabet")),
        (((0, 1), (1, 1)), {"mar": True, "oar": True, "possible": False, "audit": "repeats"}),
        (((2,), (1,)), (UnknownObservation, "value 2 not in the signal alphabet")),
        (((0,), (1.0,)), (UnknownObservation, "unit 1.0 not in the population")),
        (((0,), (1, 2)), (UnknownObservation, "values and mapping lengths differ")),
        (((0,), (1, 7)), (UnknownObservation, "unit 7 not in the population")),
        (((True,), (1,)), (UnknownObservation, "value True not in the signal alphabet")),
        (((1.0,), (1,)), (UnknownObservation, "value 1.0 not in the signal alphabet")),
        (((0,), (True,)), (UnknownObservation, "unit True not in the population")),
    ], ids=["fraction-value-unknown-unit", "float-value-unknown-unit", "unit-drawn-twice",
            "value-outside-alphabet", "float-unit", "fewer-values-than-units", "unknown-unit-without-value",
            "bool-value", "float-value", "bool-unit"])
    def test_malformed_observations_answer_as_a_fresh_context(self, x, want):
        # each query at x on a context already asked at x's mapping (every
        # query at in-alphabet values) is a fresh context's answer: the
        # result, or the error's type and message; a refused x raises what
        # `validate_observation` raises for it
        m = rubin_model({"u": uniform_subsets, "k": first_unit_or_both, "d": drop_by_second})
        kinds = ("mar", "oar", "possible", "audit")
        used = RubinContext(m)
        for kind in kinds:
            _answer(lambda: getattr(used, kind)((tuple(0 for _ in x[1]), x[1])))
        refused = _answer(lambda: validate_observation(m, values_and_mapping(), x))
        assert refused == (want if isinstance(want, tuple) else None)
        for kind in kinds:
            fresh = _answer(lambda: getattr(RubinContext(m), kind)(x))
            assert _answer(lambda: getattr(used, kind)(x)) == fresh, kind
            if isinstance(want, tuple):
                assert fresh == want, kind
            elif isinstance(want.get(kind), str):
                assert isinstance(fresh, tuple) and want[kind] in fresh[1], kind
            elif kind in want:
                assert fresh is want[kind], kind

    def test_unit_of_a_type_with_no_canonical_order(self):
        # Decimal(1) equals unit 1 and hashes as it does, so the command
        # line's check passes it and a dict keyed by the mapping would find
        # the record of (1,); keying the mapping refuses it, on a context
        # already asked at (1,) as on a fresh one
        m = rubin_model({"u": uniform_subsets, "k": first_unit_or_both, "d": drop_by_second})
        x, kinds = ((0,), (Decimal(1),)), ("mar", "oar", "possible", "audit")
        used = RubinContext(m)
        for kind in kinds:
            getattr(used, kind)(((0,), (1,)))
        assert validate_observation(m, values_and_mapping(), x) is None
        for kind in kinds:
            fresh = _answer(lambda: getattr(RubinContext(m), kind)(x))
            assert fresh == (IncomparableOutcomes, "outcome Decimal('1') of type Decimal has no canonical order"), kind
            assert _answer(lambda: getattr(used, kind)(x)) == fresh, kind

    def test_kept_tables_still_check_the_support_cap(self, monkeypatch):
        # the second audit of a mapping reads only kept tables and flags;
        # a cap lowered in between still stops it
        rubin = prepare_rubin(rubin_model({"u": uniform_subsets}), values_and_mapping())
        x = ((1,), (1,))
        rubin.audit(x)
        monkeypatch.setenv("IGNORABILITY_LAB_MAX_SUPPORT", "15")
        with pytest.raises(ModelTooLarge, match="support of size 16 exceeds cap 15"):
            rubin.audit(x)

    def test_one_row_per_design_law_object(self):
        # a constant design gives every signal one law object, so one row is
        # built for all of them; select-the-max gives one law per unit that
        # can hold the maximum, each one object however many signals it serves
        for m, laws in ((srs_model(U3, 2), 1), (select_max_model(U3), 3)):
            rubin = prepare_rubin(m, values_and_mapping())
            for x in Family.from_survey_model(m, values_and_mapping()).observation_support():
                rubin.mar(x)
            assert len([row for row in rubin._at[0][1] if row is not None]) == laws

    def test_one_context_per_model_object(self):
        m = rubin_model({"u": uniform_subsets})
        rubin = prepare_rubin(m, values_and_mapping())
        assert prepare_rubin(m, values_mapping_design()) is rubin
        assert prepare_rubin(replace(m), values_and_mapping()) is not rubin

    def test_freed_with_its_model(self):
        m = rubin_model({"u": uniform_subsets, "k": first_unit_or_both})
        rubin = prepare_rubin(m, values_and_mapping())
        for x in Family.from_survey_model(m, values_and_mapping()).observation_support():
            rubin.audit(x)
        model_ref, rubin_ref = weakref.ref(m), weakref.ref(rubin)
        del rubin
        gc.disable()
        try:
            del m  # reference counting alone frees both: no cycle
            assert model_ref() is None and rubin_ref() is None
        finally:
            gc.enable()


class TestRubinObservations:
    """`RubinContext.observations` against the family's observation support,
    the same observations as the same objects in the same order, or the
    same refusal."""

    def _check(self, m):
        for scheme in (values_and_mapping(), values_mapping_design()):
            want = _answer(lambda: Family.from_survey_model(m, scheme).observation_support())
            got = _answer(lambda: prepare_rubin(m, scheme).observations(scheme))
            assert got == want and repr(got) == repr(want), scheme.kind

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog_models(self, name):
        self._check(parse_model(CATALOG[name]).build().model)

    @settings(max_examples=150, deadline=None)
    @given(rubin_shape_models())
    def test_rubin_shape_models(self, case):
        self._check(case[0])

    @settings(max_examples=200, deadline=None)
    @given(survey_models())
    def test_random_survey_models(self, case):
        self._check(case[0])

    def test_world_space_cap_checked_first(self, monkeypatch):
        # srs_wor_n3 under a cap of 47: its 8 signals and 6 mappings make 48
        # worlds, refused with the world space's message
        m = parse_model(CATALOG["srs_wor_n3"]).build().model
        monkeypatch.setenv("IGNORABILITY_LAB_MAX_SUPPORT", "47")
        with pytest.raises(ModelTooLarge, match="^world space of size 48 exceeds cap 47$"):
            prepare_rubin(m, values_and_mapping()).observations(values_and_mapping())


class TestColdRubinContext:
    def test_first_audit_finds_design_laws_by_z_key(self, monkeypatch):
        # correlated signals, 1/2 on (0, 0) and on (1, 1), under two designs
        # that each read one unit.  The first audit on a fresh context finds
        # the design law of each signal of positive mass by the key of its z,
        # so Kernel.get runs only for the two signals of zero mass at each
        # phi, whose laws the rule builds: 4 calls where one per (phi,
        # signal id) made 8.  The context keys each alphabet value, each z
        # (a signal tuple, whose key holds its values' keys), each of the
        # model's distinct mappings once (its own design laws come with the
        # ranks of their mappings), each mapping of a law the rule builds,
        # the observed mapping and the drawn value (keyed by the observation
        # check in `sampling`): 12 canonical_key calls, down from 14 and 18
        # before that.
        from ignorability_lab import inference, sampling

        m = rubin_model({"first": first_unit_or_both, "second": drop_by_second},
                        {"c": dist_new([((y, y), F(1, 2)) for y in ((0, 0), (1, 1))])})
        gets, keys = [], []
        real_get, real_key = Kernel.get, inference.canonical_key
        monkeypatch.setattr(Kernel, "get", lambda self, *args: gets.append(args) or real_get(self, *args))
        for module in (inference, sampling):
            monkeypatch.setattr(module, "canonical_key", lambda value: keys.append(value) or real_key(value))
        report = RubinContext(m).audit(((1,), (1,)))
        assert sorted(gets) == [((0, 1),), ((0, 1),), ((1, 0),), ((1, 0),)]
        assert len(keys) == 12
        monkeypatch.undo()
        assert report == RubinContext(m).audit(((1,), (1,)))
        assert not any(a.counterexample() for a in report.audits if a.theorem != "6.2")


# ---------------------------------------------------------------------------
# The Rubin audit against the reference one, which enumerates every signal
# and reads each theorem off its definition with Fractions.
# ---------------------------------------------------------------------------


def _audit_outcome(m, x) -> tuple | str:
    """The engine's audit at x in the reference's form, or the name of the
    error it raised."""
    try:
        report = rubin_theorem_audit(m, x, values_and_mapping())
    except NotRubinShape as error:
        return type(error).__name__
    audits = ((a.theorem, a.hypothesis_true, a.conclusion_true, a.notes) for a in report.audits)
    return (report.mar, report.oar, report.distinct, *audits)


class TestRubinAuditAgainstReference:
    def _check_every_support_point(self, m):
        for x in Family.from_survey_model(m, values_and_mapping()).observation_support():
            assert _audit_outcome(m, x) == rubin_audit(m, x), x

    @settings(max_examples=150, deadline=None)
    @given(rubin_shape_models())
    def test_rubin_shape_models(self, case):
        self._check_every_support_point(case[0])

    @settings(max_examples=200, deadline=None)
    @given(survey_models())
    def test_random_survey_models(self, case):
        self._check_every_support_point(case[0])

    @pytest.mark.parametrize("m", [
        bernoulli_mixture_model(),
        rubin_model({"u": uniform_subsets, "k": first_unit_or_both, "d": drop_by_second},
                    grid=((F(1, 3), "u"), (F(1, 3), "k"), (F(1, 2), "k"), (F(1, 2), "d"))),
    ], ids=["diagonal", "staircase"])
    def test_grids_that_are_not_products(self, m):
        self._check_every_support_point(m)

    def test_masses_of_a_mapping_over_different_denominators(self):
        # the mass of (1,) is 1/2 or 1/3 by the observed value
        halves_or_thirds = lambda y: uniform([(1,), (1, 2)]) if y[0] == 0 else uniform([(), (1,), (1, 2)])
        self._check_every_support_point(rubin_model({"m": halves_or_thirds, "u": uniform_subsets}))

    def test_three_selection_rows_across_the_completions(self):
        # three rows by the value of unit 2, the first two giving (1,) the
        # same mass: only the third row breaks missing at random
        rows = (uniform([(1,), (2,)]), uniform([(1,), (1, 2)]), point_mass((1, 2)))
        signals = {F(1, 3): iid_signal_dist(U2, uniform([0, 1, 2]), z_of=lambda y: y)}
        self._check_every_support_point(rubin_model({"r": lambda y: rows[y[1]]}, signals))
