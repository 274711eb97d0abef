"""The engine's ignore transformation and equivalence tests against the
naive ones in reference.py: the same ignored laws, points and failures on
random hand-built families and on random survey models, the same verdict
and alpha of the likelihood test, and the same verdicts and witness sets of
the frequentist and Bayes tests."""

from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import reference
from test_axes import splits, survey_models

from ignorability_lab.catalog import CATALOG
from ignorability_lab.exactprob import FiniteDist, dist_new
from ignorability_lab.ignorance import (
    Family,
    MarginalFunctional,
    NotAComplement,
    Predictand,
    RandomVariableRef,
    ValueNotInImage,
    ZeroMassPhiSet,
    dirac_fix,
    ignore_model,
    make_split,
    marginal_family,
    selection_rv,
    signal_rv,
    single_arbitrary,
)
from ignorability_lab.inference import (
    EmptyTables,
    ZeroEvidence,
    likelihood_equivalent,
    posterior_equivalent,
    prepare,
    sampling_dist_equivalent,
)
from ignorability_lab.modelfile import parse_model
from ignorability_lab.sampling import observe

first = RandomVariableRef("first", lambda w: w[0])
second = RandomVariableRef("second", lambda w: w[1])
identity = RandomVariableRef("identity", lambda w: w)
parity = RandomVariableRef("parity", lambda w: (w[0] + w[1]) % 2)
SPLITS = ((first, second), (second, first), (identity, second), (first, parity))
POLICIES = {"dirac_fix": dirac_fix, "single_arbitrary": single_arbitrary, "marginal_family": marginal_family}


def engine_outcome(family, v, v_bar, policy):
    """{(point, index): {world: mass}} of the ignored family, or the name of
    the engine error ignoring raised."""
    try:
        ignored = ignore_model(family, make_split(family, v, v_bar), policy)
    except (NotAComplement, ZeroMassPhiSet, ValueNotInImage) as err:
        return type(err).__name__
    assert len(set(ignored.points)) == len(ignored.points)
    return {q: dict(ignored.laws[q].items) for q in ignored.points}


@st.composite
def hand_built_cases(draw):
    """A support of 2-9 pairs, two laws with random rational weights on
    parts of it, the support passed as the space or not, a split, a policy
    and, for single_arbitrary, a nuisance law or None."""
    support = sorted(draw(st.sets(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=2, max_size=9)))
    laws = {}
    for p in ("p", "q"):
        loads = draw(st.lists(st.integers(0, 9), min_size=len(support), max_size=len(support)).filter(any))
        laws[p] = {w: F(n, sum(loads)) for w, n in zip(support, loads) if n}
    space = support if draw(st.booleans()) else None
    v, v_bar = draw(st.sampled_from(SPLITS))
    policy = draw(st.sampled_from(sorted(POLICIES)))
    dist = None
    if policy == "single_arbitrary" and draw(st.booleans()):
        values = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True))
        weights = draw(st.lists(st.integers(1, 3), min_size=len(values), max_size=len(values)))
        dist = {b: F(w, sum(weights)) for b, w in zip(values, weights)}
    return support, laws, space, v, v_bar, policy, dist


def check_hand_built(case):
    support, laws, space, v, v_bar, policy, dist = case
    points = tuple(laws)
    family = Family(points, {p: dist_new(list(law.items())) for p, law in laws.items()},
                    dict.fromkeys(points, first), space=space)
    make_policy = POLICIES[policy]
    engine_policy = make_policy(dist_new(list(dist.items()))) if dist else make_policy()
    used = space if space is not None else [w for law in laws.values() for w in law]
    want = reference.ignore(used, points, laws, v, v_bar, policy, dist)
    assert engine_outcome(family, v, v_bar, engine_policy) == want


@settings(max_examples=300, deadline=None)
@given(hand_built_cases())
def test_hand_built_families(case):
    check_hand_built(case)


@settings(max_examples=100, deadline=None)
@given(survey_models(), st.data())
def test_survey_models(case, data):
    m, scheme, policy = case
    v, v_bar = data.draw(st.sampled_from(splits(m.population)))
    space, laws = reference.survey_family(m)
    want = reference.ignore(space, m.grid, laws, v, v_bar, policy().kind)
    assert engine_outcome(Family.from_survey_model(m, scheme), v, v_bar, policy()) == want


def reference_side(m, scheme, laws, var, grid_point):
    """(laws, obs, values) of one family for reference.likelihood_equivalent:
    each point's observation is the scheme applied to one world under the
    design at the phi of its `grid_point`, and its target value the law of
    `var`, as a set of (value, mass) pairs."""
    obs, values = {}, {}
    for point, law in laws.items():
        design = m.design_for(grid_point(point)[1])
        obs[point] = lambda w, design=design: observe(w, scheme, m.population, design)
        marginal = {}
        for w, mass in law.items():
            marginal[var(w)] = marginal.get(var(w), F(0)) + mass
        values[point] = frozenset(marginal.items())
    return laws, obs, values


def ignored_sides(case, data):
    """A random split and marginal-functional target on a survey model, and
    both families twice: as (laws, obs, values) for the reference and as
    engine families, with the target and the split; None when ignoring
    fails (the ignore failures are compared above)."""
    m, scheme, policy = case
    v, v_bar = data.draw(st.sampled_from(splits(m.population)))
    var = data.draw(st.sampled_from((signal_rv(), selection_rv())))
    space, laws = reference.survey_family(m)
    ignored_laws = reference.ignore(space, m.grid, laws, v, v_bar, policy().kind)
    if isinstance(ignored_laws, str):
        return None
    original = reference_side(m, scheme, laws, var, lambda p: p)
    ignored = reference_side(m, scheme, ignored_laws, var, lambda q: q[0])
    family = Family.from_survey_model(m, scheme)
    ignored_family = ignore_model(family, make_split(family, v, v_bar), policy())
    target = MarginalFunctional("law", var, lambda d: d)
    return original, ignored, family, ignored_family, target, (v, v_bar)


def observations(side) -> list:
    """Every observation of positive mass under one reference family."""
    laws, obs, _values = side
    return sorted({obs[p](w) for p in laws for w in laws[p]}, key=repr)


@settings(max_examples=100, deadline=None)
@given(survey_models(), st.data())
def test_likelihood_test_on_survey_models(case, data):
    sides = ignored_sides(case, data)
    if sides is None:
        return
    original, ignored, family, ignored_family, target, _split = sides
    x = data.draw(st.sampled_from([None, *observations(original)]))
    want = reference.likelihood_equivalent(original, ignored, x)
    try:
        result = likelihood_equivalent(family, ignored_family, x, target)
        got = (result.equivalent, result.alpha)
    except EmptyTables as err:
        got = type(err).__name__
    assert got == want


def as_set(dist) -> frozenset:
    """A law of the engine as the reference writes it: a frozenset of
    (outcome, mass) pairs, an outcome that is a law written the same way."""
    return frozenset((as_set(o) if isinstance(o, FiniteDist) else o, w) for o, w in dist.items)


def values_part(scheme, x) -> tuple:
    if scheme.kind == "values_only":
        return x
    if scheme.kind == "values_and_sampled_weights":
        return tuple(v for v, _pi in x)
    return x[0]


# estimators of any alphabet: the first drawn value, and the number of
# distinct drawn values; both merge observations
ESTIMATORS = (
    lambda scheme: lambda x: values_part(scheme, x)[:1],
    lambda scheme: lambda x: len(set(values_part(scheme, x))),
)


@settings(max_examples=60, deadline=None)
@given(survey_models(), st.data())
def test_frequentist_test_on_survey_models(case, data):
    sides = ignored_sides(case, data)
    if sides is None:
        return
    original, ignored, family, ignored_family, target, _split = sides
    estimator = data.draw(st.sampled_from(ESTIMATORS))(case[1])
    equivalent, sets = reference.sampling_dist_equivalent(original, ignored, estimator)
    result = sampling_dist_equivalent(family, ignored_family, estimator, target)
    assert result.equivalent == equivalent
    got = {}
    for witness in result.witnesses:
        detail = dict(witness.detail)
        pair = ({as_set(d) for d in detail["original"]}, {as_set(d) for d in detail["ignored"]})
        assert witness.equal == (pair[0] == pair[1])
        got[as_set(detail["target_value"])] = pair
    assert got == sets


@st.composite
def priors_on(draw, points):
    """1-2 priors on the points, each uniform or with random loads, as
    {point: mass} dicts."""
    priors = []
    for _ in range(draw(st.integers(1, 2))):
        loads = [1] * len(points)
        if draw(st.booleans()):
            loads = draw(st.lists(st.integers(0, 3), min_size=len(points), max_size=len(points)).filter(any))
        priors.append({p: F(n, sum(loads)) for p, n in zip(points, loads)})
    return priors


def product_prior(prior, points) -> dict:
    """The prior of each ignored point (p, index): the prior of p times a
    uniform law on the nuisance indices, renormalised on the points."""
    indices = {index for _p, index in points}
    weights = {q: prior[q[0]] / len(indices) for q in points}
    total = sum(weights.values())
    return {q: w / total for q, w in weights.items()}


# a world function as the target: the value of the first unit
FIRST_UNIT = Predictand("first_unit", lambda w: w.y[0])


@settings(max_examples=60, deadline=None)
@given(survey_models(), st.data())
def test_bayes_test_on_survey_models(case, data):
    sides = ignored_sides(case, data)
    if sides is None:
        return
    original, ignored, family, ignored_family, target, split = sides
    predictand = data.draw(st.sampled_from((None, FIRST_UNIT)))
    target = predictand or target
    priors = data.draw(priors_on(family.points))
    priors_star = [product_prior(q, ignored_family.points) for q in priors]
    engine_priors = [[dist_new(list(q.items())) for q in side] for side in (priors, priors_star)]
    for x in observations(original):
        want = reference.posterior_equivalent(original, ignored, priors, priors_star, x, predictand and predictand.fn)
        try:
            result = posterior_equivalent(family, ignored_family, *engine_priors, target, x)
        except ZeroEvidence as err:
            assert want == type(err).__name__
            continue
        (witness,) = result.witnesses
        detail = dict(witness.detail)
        got = ({as_set(d) for d in detail["original"]}, {as_set(d) for d in detail["ignored"]})
        assert (result.equivalent, *got) == want
        assert witness.equal == result.equivalent and detail["observation"] == x

    # every observation at once, under the default uniform priors
    m, scheme, policy = case
    prepared = prepare(m, split, scheme, target, policy())
    uniform = [{p: F(1, len(points)) for p in points} for points in (family.points, ignored_family.points)]
    want = [reference.posterior_equivalent(original, ignored, *([q] for q in uniform), x, predictand and predictand.fn)[0]
            for x in family.observation_support()]
    assert prepared.posterior_verdicts() == want


POPULATION_MEAN_MODELS = {
    # (model text, number of observations)
    "srs_wor_n3": (CATALOG["srs_wor_n3"].replace("kind = unit_expectation\nunit = 1\n", "kind = population_mean\n"),
                   24),
    # one observation function per phi, their observations merged in one coding
    "bernoulli_mixture_sampled_weights": (
        CATALOG["bernoulli_mixture"].replace("scheme = values_and_mapping", "scheme = values_and_sampled_weights")
        + "\n[target]\nkind = population_mean\n", 12),
}


@pytest.mark.parametrize("name", sorted(POPULATION_MEAN_MODELS))
def test_population_mean_from_a_model_file(name):
    # the population_mean target a model file builds, a world function, in
    # an all-observation Bayes check under the default uniform priors:
    # every verdict, and the headline's posterior sets
    text, n_observations = POPULATION_MEAN_MODELS[name]
    build = parse_model(text).build()
    m, target = build.model, build.target
    assert isinstance(target, Predictand)
    space, laws = reference.survey_family(m)
    ignored_laws = reference.ignore(space, m.grid, laws, build.v, build.v_bar, "dirac_fix")
    original = reference_side(m, build.scheme, laws, signal_rv(), lambda p: p)
    ignored = reference_side(m, build.scheme, ignored_laws, signal_rv(), lambda q: q[0])
    prepared = prepare(m, (build.v, build.v_bar), build.scheme, target, dirac_fix())
    uniform = [{p: F(1, len(side[0])) for p in side[0]} for side in (original, ignored)]
    xs = prepared.family.observation_support()
    want = [reference.posterior_equivalent(original, ignored, *([q] for q in uniform), x, target.fn) for x in xs]
    verdicts = prepared.posterior_verdicts()
    assert verdicts == [w[0] for w in want]
    assert len(xs) == n_observations and all(verdicts)  # both are ignorable under dirac_fix
    (witness,) = prepared.test("bayes", xs[0]).witnesses
    detail = dict(witness.detail)
    got = ({as_set(d) for d in detail["original"]}, {as_set(d) for d in detail["ignored"]})
    assert (witness.equal, *got) == want[0]
