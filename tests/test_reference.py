"""The engine's ignore transformation and likelihood test against the naive
ones in reference.py: the same ignored laws, points and failures on random
hand-built families and on random survey models, and the same verdict and
alpha of the likelihood test."""

from fractions import Fraction as F

import hypothesis.strategies as st
from hypothesis import given, settings

import reference
from test_axes import splits, survey_models

from ignorability_lab.exactprob import dist_new
from ignorability_lab.ignorance import (
    Family,
    MarginalFunctional,
    NotAComplement,
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
from ignorability_lab.inference import EmptyTables, likelihood_equivalent
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


@settings(max_examples=100, deadline=None)
@given(survey_models(), st.data())
def test_likelihood_test_on_survey_models(case, data):
    m, scheme, policy = case
    v, v_bar = data.draw(st.sampled_from(splits(m.population)))
    var = data.draw(st.sampled_from((signal_rv(), selection_rv())))
    space, laws = reference.survey_family(m)
    ignored_laws = reference.ignore(space, m.grid, laws, v, v_bar, policy().kind)
    if isinstance(ignored_laws, str):  # the ignore failures are compared above
        return
    original = reference_side(m, scheme, laws, var, lambda p: p)
    ignored = reference_side(m, scheme, ignored_laws, var, lambda q: q[0])
    xs = sorted({obs(w) for p, obs in original[1].items() for w in original[0][p]}, key=repr)
    x = data.draw(st.sampled_from([None, *xs]))
    want = reference.likelihood_equivalent(original, ignored, x)

    family = Family.from_survey_model(m, scheme)
    ignored_family = ignore_model(family, make_split(family, v, v_bar), policy())
    target = MarginalFunctional("law", var, lambda d: d)
    try:
        result = likelihood_equivalent(family, ignored_family, x, target)
        got = (result.equivalent, result.alpha)
    except EmptyTables as err:
        got = type(err).__name__
    assert got == want
