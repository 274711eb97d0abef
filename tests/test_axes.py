"""Axis coding: a variable that declares what it reads of a world (y, z, r)
is coded from the two axes of the world ids, and must give exactly what
the same function gives keyed world by world."""

import importlib.util
from fractions import Fraction as F
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from ignorability_lab import designs
from ignorability_lab.catalog import CATALOG
from ignorability_lab.exactprob import EngineError, Kernel, dist_new, key_sums, pushforward
from ignorability_lab.ignorance import (
    Family,
    MarginalFunctional,
    RandomVariableRef,
    _code,
    composite_rv,
    design_variable_rv,
    dirac_fix,
    ignore_model,
    make_split,
    marginal_family,
    selection_rv,
    signal_rv,
    single_arbitrary,
    point_values,
    values_on_sample_rv,
)
from ignorability_lab.modelfile import parse_model
from ignorability_lab.sampling import (
    Population,
    SurveyModel,
    iid_signal_dist,
    observation_fn,
    signal_dist_from_table,
    values_and_mapping,
    values_and_sampled_weights,
    values_mapping_design,
    values_only,
)

POLICIES = (dirac_fix, single_arbitrary, marginal_family)


def plain(var):
    """The same function as a variable that declares nothing."""
    return RandomVariableRef(var.name, var.fn)


def variables(population):
    return (
        signal_rv(),
        design_variable_rv(),
        selection_rv(),
        values_on_sample_rv(population),
        composite_rv([selection_rv(), design_variable_rv()]),
        composite_rv([values_on_sample_rv(population), selection_rv()]),
        composite_rv([signal_rv(), selection_rv(), design_variable_rv()]),
    )


def splits(population):
    return (
        (signal_rv(), composite_rv([selection_rv(), design_variable_rv()])),
        (signal_rv(), selection_rv()),
        (selection_rv(), signal_rv()),
        (values_on_sample_rv(population), selection_rv()),
    )


def same_code(got, want):
    (codes, values, keys), (want_codes, want_values, want_keys) = got, want
    assert codes == want_codes and keys == want_keys
    assert repr(values) == repr(want_values)


def outcome(call):
    """A call's result, or the class and text of the engine error it raised."""
    try:
        return call()
    except EngineError as err:
        return (type(err).__name__, str(err))


def check_declared_equals_plain(m, scheme, policy):
    fam = Family.from_survey_model(m, scheme)
    assert fam.axes is not None
    population = m.population
    # every scheme's observation is declared, one variable per phi (the
    # sampled weights read the design at phi), and codes as
    # `observation_fn` keyed world by world
    declared_obs = {id(fn): (fn, phi) for (_theta, phi), fn in zip(fam.points, fam.obs)}
    for fn, phi in declared_obs.values():
        assert isinstance(fn, RandomVariableRef) and fn.reads is not None
        same_code(fam.coded(fn), _code(fam.worlds, observation_fn(m, phi, scheme)))
    for var in (*variables(population), *(fn for fn, _phi in declared_obs.values())):
        same_code(_code(fam.worlds, var, fam.axes), _code(fam.worlds, plain(var), fam.axes))

    # observation support and tables, with the observations undeclared
    reference = Family.from_survey_model(m, scheme)
    reference.obs = [plain(fn) if isinstance(fn, RandomVariableRef) else fn for fn in reference.obs]
    assert repr(fam.observation_support()) == repr(reference.observation_support())
    tables, reference_tables = fam.observation_tables(), reference.observation_tables()
    assert all(tables[fam.number[p]] == reference_tables[reference.number[p]] for p in fam.points)

    target = MarginalFunctional("signal_law", signal_rv(), lambda d: d)
    for v, v_bar in splits(population):
        split = make_split(fam, v, v_bar)
        ref_split = make_split(fam, plain(v), plain(v_bar))
        assert split.status == ref_split.status
        assert split.worlds is ref_split.worlds
        assert (split.v_code, split.v_bar_of, split.compatible) == (ref_split.v_code, ref_split.v_bar_of, ref_split.compatible)
        assert repr(split.v_bar_values) == repr(ref_split.v_bar_values)
        assert split.v_bar_codes == ref_split.v_bar_codes and split.worlds_of == ref_split.worlds_of
        if not split.is_complement():
            continue
        ignored = outcome(lambda: ignore_model(fam, split, policy()))
        ref_ignored = outcome(lambda: ignore_model(fam, ref_split, policy()))
        if isinstance(ignored, tuple):
            assert ignored == ref_ignored
            continue
        assert ignored.points == ref_ignored.points
        # each point's table summed from its restrictions is the sum of its
        # built vector
        codes = [ignored.coded(fn)[0] for fn in ignored.obs]
        assert ignored._sums(codes) == [(d, key_sums(zip(map(code.__getitem__, ids), numerators)))
                                        for (ids, numerators, d), code in zip(ignored.vectors, codes)]
        assert all(ignored.laws[p].items == ref_ignored.laws[p].items for p in ignored.points)
        # ignored target marginals: declared, plain, and one pushforward per law
        values = point_values(target, ignored)
        plain_values = point_values(MarginalFunctional("signal_law", plain(target.var), target.fn), ref_ignored)
        for p, value, plain_value in zip(ignored.points, values, plain_values, strict=True):
            law = pushforward(ignored.laws[p], target.var)
            assert value.items == plain_value.items == law.items


def _ladder():
    path = Path(__file__).parent.parent / "scripts" / "srs_ladder.py"
    spec = importlib.util.spec_from_file_location("srs_ladder", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MODELS = sorted(CATALOG.items()) + [
    (f"srs_N{N}_n{n}", _ladder().rung_text(N, n)) for N, n in ((4, 3), (5, 2), (5, 3))
]


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.__name__)
@pytest.mark.parametrize("name, text", MODELS, ids=[name for name, _ in MODELS])
def test_catalog_and_ladder(name, text, policy):
    build = parse_model(text).build()
    check_declared_equals_plain(build.model, build.scheme, policy)


ALPHABETS = (0, 1, 2, F(1, 2), "a")
SCHEMES = (
    values_only(),
    values_only(unordered=True),
    values_and_mapping(),
    values_mapping_design(),
    values_and_sampled_weights(),
)


def first_unit_decides(population, alphabet):
    """A value-dependent kernel: one draw when unit 1 holds the lowest
    value, every unit otherwise."""
    one = designs.srs_wor(1, population)
    every = designs.census(population)
    return Kernel.from_rule(lambda z: one if z[0] == alphabet[0] else every)


def value_poisson(population, alphabet):
    """A stochastic value-dependent kernel: each unit is drawn on its own,
    with probability 1/2 when it holds the lowest value and 1/3 otherwise,
    so the columns of different z have different denominators."""
    return Kernel.from_rule(lambda z: designs.poisson([F(1, 2) if v == alphabet[0] else F(1, 3) for v in z], population))


DESIGNS = ("srs_wor", "srs_wr", "poisson", "census", "select_max", "first_unit", "value_poisson", "mixture")


@st.composite
def grids(draw, thetas, phis):
    """Each theta paired with a nonempty set of the phis: the grid is a
    product only when every theta has the same set."""
    chosen = {theta: draw(st.sets(st.sampled_from(phis), min_size=1)) for theta in thetas}
    return tuple((theta, phi) for theta in thetas for phi in phis if phi in chosen[theta])


@st.composite
def survey_models(draw):
    """Small random models: 1-3 units, 2-3 values, 1-3 iid or table laws,
    constant, value-dependent or per-phi designs, the last on a grid that
    need not be a product.  Schemes that expose the mapping, uniform
    designs and the Dirac policy are drawn more often, so that ignoring
    often rescales every likelihood by one alpha other than 1."""
    population = Population(tuple(range(1, draw(st.sampled_from((1, 2, 2, 3))) + 1)))
    N = population.size
    alphabet = draw(st.lists(st.sampled_from(ALPHABETS), min_size=2, max_size=3, unique=True))
    design = draw(st.sampled_from(("srs_wor", "srs_wr") * 2 + DESIGNS))
    z_contains_y = design in ("select_max", "first_unit", "value_poisson")
    z_of = (lambda y: y) if z_contains_y else None
    loads = st.integers(0, 3)
    laws = {}
    for theta in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            weights = draw(st.lists(loads, min_size=len(alphabet), max_size=len(alphabet)).filter(any))
            unit = dist_new([(a, F(w, sum(weights))) for a, w in zip(alphabet, weights)])
            laws[theta] = iid_signal_dist(population, unit, z_of)
        else:
            ys = draw(st.lists(st.tuples(*[st.sampled_from(alphabet)] * N), min_size=1, max_size=4, unique=True))
            weights = draw(st.lists(st.integers(1, 3), min_size=len(ys), max_size=len(ys)))
            laws[theta] = signal_dist_from_table([(y, F(w, sum(weights))) for y, w in zip(ys, weights)], z_of)
    kwargs = {}
    if design == "srs_wor":
        kwargs["design"] = designs.constant(designs.srs_wor(draw(st.integers(1, N) | st.integers(0, N)), population))
    elif design == "srs_wr":
        kwargs["design"] = designs.constant(designs.srs_wr(draw(st.integers(1, 2) | st.integers(0, 2)), population))
    elif design == "poisson":
        p = draw(st.lists(st.sampled_from((0, F(1, 3), F(1, 2), 1)), min_size=N, max_size=N))
        kwargs["design"] = designs.constant(designs.poisson(p, population))
    elif design == "census":
        kwargs["design"] = designs.constant(designs.census(population))
    elif design == "select_max":
        kwargs["design"] = designs.select_max(population)
    elif design == "first_unit":
        kwargs["design"] = first_unit_decides(population, sorted(alphabet, key=str))
    elif design == "value_poisson":
        kwargs["design"] = value_poisson(population, sorted(alphabet, key=str))
    else:
        components = [designs.fixed_design(population.labels[:k]) for k in range(1, N + 1)]
        phis = ("a", "b")
        weights = {phi: [F(1 + i + j, 1) for j in range(len(components))] for i, phi in enumerate(phis)}
        weights = {phi: [w / sum(ws) for w in ws] for phi, ws in weights.items()}
        kwargs["phis"] = phis
        kwargs["design_law"] = designs.mixture_design(weights, components)
        kwargs["grid"] = draw(grids(tuple(laws), phis))
    m = SurveyModel.create(population, tuple(laws), laws, z_contains_y=z_contains_y, **kwargs)
    scheme = draw(st.sampled_from((values_and_mapping(), values_mapping_design(), *SCHEMES)))
    return m, scheme, draw(st.sampled_from((dirac_fix, *POLICIES)))


@settings(max_examples=60, deadline=None)
@given(survey_models())
def test_random_models(case):
    check_declared_equals_plain(*case)
