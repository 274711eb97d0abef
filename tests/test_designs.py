"""Design constructors: exact weights, inclusion probabilities, and the
worked selection mechanisms."""

import itertools
from fractions import Fraction as F

import pytest

from reference import dist_eq
from ignorability_lab.exactprob import (
    EngineError,
    dist_new,
    point_mass,
    pushforward,
    uniform,
)
from ignorability_lab.designs import (
    InfeasibleAllocation,
    NonUnitMixture,
    ProbabilityOutOfRange,
    SampleLargerThanPopulation,
    census,
    fixed_design,
    mixture_design,
    poisson,
    select_max,
    srs_wor,
    srs_wr,
    stratified,
    stratified_dist,
)
from ignorability_lab.sampling import (
    Population,
    expected_distinct_size,
    expected_size,
    inclusion_probabilities,
    indicator_vector,
    selection_expectations,
)

U2 = Population((1, 2))
U3 = Population((1, 2, 3))
U4 = Population((1, 2, 3, 4))


class TestSrsWor:
    def test_single_draw_from_two(self):
        assert dist_eq(srs_wor(1, U2), uniform([(1,), (2,)]))

    def test_full_draw_image_is_census(self):
        d = pushforward(srs_wor(3, U3), lambda r: tuple(sorted(r)))
        assert dist_eq(d, point_mass((1, 2, 3)))

    def test_six_ordered_pairs(self):
        d = srs_wor(2, U3)
        assert len(d) == 6
        assert set(d.weights()) == {F(1, 6)}

    def test_too_large(self):
        with pytest.raises(SampleLargerThanPopulation):
            srs_wor(4, U3)

    def test_pi_is_n_over_N(self):
        for N in range(1, 6):
            pop = Population(tuple(range(1, N + 1)))
            for n in range(N + 1):
                pi = inclusion_probabilities(srs_wor(n, pop), pop)
                assert pi == tuple([F(n, N)] * N)


class TestSrsWr:
    def test_four_mappings(self):
        d = srs_wr(2, U2)
        assert len(d) == 4
        assert set(d.weights()) == {F(1, 4)}

    def test_zero_draws(self):
        assert dist_eq(srs_wr(0, U3), point_mass(()))

    def test_single_draw_equals_wor(self):
        assert dist_eq(srs_wr(1, U3), srs_wor(1, U3))

    def test_exact_formulas(self):
        # upsilon_k = n/N and pi_k = 1 - ((N-1)/N)^n
        for N in range(1, 6):
            pop = Population(tuple(range(1, N + 1)))
            for n in range(5):
                d = srs_wr(n, pop)
                assert selection_expectations(d, pop) == tuple([F(n, N)] * N)
                want = 1 - F(N - 1, N) ** n
                assert inclusion_probabilities(d, pop) == tuple([want] * N)


class TestStratified:
    def test_one_one_allocation(self):
        strata = (1, 1, 2, 2)
        kernel = stratified(strata, {1: 1, 2: 1}, U4)
        delta = kernel.get(strata)
        assert len(delta) == 8
        assert inclusion_probabilities(delta, U4) == (
            F(1, 2),
            F(1, 2),
            F(1, 2),
            F(1, 2),
        )

    def test_single_stratum_reduces_to_srs_wor(self):
        delta = stratified_dist((1, 1, 1), {1: 2}, U3)
        assert dist_eq(delta, srs_wor(2, U3))

    def test_full_allocation_is_census(self):
        delta = stratified_dist((1, 2), {1: 1, 2: 1}, U2)
        images = pushforward(delta, lambda r: tuple(sorted(r)))
        assert dist_eq(images, point_mass((1, 2)))

    def test_infeasible(self):
        with pytest.raises(InfeasibleAllocation):
            stratified_dist((1, 1, 2), {1: 3, 2: 1}, U3)

    def test_within_stratum_pi(self):
        strata = (1, 1, 1, 2)
        delta = stratified_dist(strata, {1: 2, 2: 1}, U4)
        assert inclusion_probabilities(delta, U4) == (
            F(2, 3),
            F(2, 3),
            F(2, 3),
            F(1),
        )

    def test_mappings_respect_allocation(self):
        strata = (1, 1, 2, 2)
        delta = stratified_dist(strata, {1: 1, 2: 1}, U4)
        for r, _w in delta.items:
            per = {}
            for k in r:
                per[strata[U4.index(k)]] = per.get(strata[U4.index(k)], 0) + 1
            assert per == {1: 1, 2: 1}


class TestPoisson:
    def test_all_ones_census(self):
        assert dist_eq(poisson([1, 1, 1], U3), census(U3))

    def test_all_zero_empty(self):
        assert dist_eq(poisson([0, 0], U2), point_mass(()))

    def test_half_half(self):
        d = poisson([F(1, 2), F(1, 2)], U2)
        assert len(d) == 4
        assert set(d.weights()) == {F(1, 4)}
        assert inclusion_probabilities(d, U2) == (F(1, 2), F(1, 2))
        assert expected_distinct_size(d) == 1

    def test_pi_equals_p(self):
        p = (F(1, 3), F(2, 5), F(1))
        assert inclusion_probabilities(poisson(p, U3), U3) == p

    def test_out_of_range(self):
        with pytest.raises(ProbabilityOutOfRange):
            poisson([F(3, 2), 0], U2)

    def test_indicator_independence(self):
        # the joint indicator law factorizes into per-unit Bernoulli laws
        p = (F(1, 3), F(3, 4), F(1, 2))
        d = pushforward(poisson(p, U3), lambda r: indicator_vector(r, U3))
        for flags in itertools.product((0, 1), repeat=3):
            want = F(1)
            for flag, q in zip(flags, p):
                want *= q if flag else 1 - q
            assert d.mass(flags) == want


class TestSelectMax:
    def test_strict_max(self):
        assert dist_eq(select_max(U2).get((1, 2)), point_mass((2,)))

    def test_tie_breaks_to_lowest_label(self):
        assert dist_eq(select_max(U2).get((2, 2)), point_mass((1,)))
        assert dist_eq(select_max(U3).get((1, 3, 3)), point_mass((2,)))

    def test_one_law_object_per_argmax(self):
        # the rule returns one of its N prebuilt laws, not a new one per z
        kernel = select_max(U3)
        assert kernel.get((1, 3, 2)) is kernel.get((2, 3, 3)) is not kernel.get((3, 1, 3))

    def test_first_order_dominance_over_marginal(self):
        # observing the max of iid draws stochastically dominates one draw
        alphabet = (1, 2, 3)
        unit = dist_new([(1, F(1, 2)), (2, F(1, 3)), (3, F(1, 6))])
        for N in (2, 3):
            pop = Population(tuple(range(1, N + 1)))
            kernel = select_max(pop)
            pairs = []
            for combo in itertools.product(unit.items, repeat=N):
                y = tuple(v for v, _ in combo)
                w = F(1)
                for _v, wv in combo:
                    w *= wv
                (chosen,) = kernel.get(y).support()
                pairs.append((y[pop.index(chosen[0])], w))
            max_dist = dist_new(pairs)
            for t in alphabet:
                cdf_max = max_dist.event_mass(lambda v: v <= t)
                cdf_unit = unit.event_mass(lambda v: v <= t)
                assert cdf_max <= cdf_unit


class TestMixture:
    def test_bernoulli_example_weights(self):
        # one-unit projections vs identity, with signal-dependent weights
        components = [fixed_design((1,)), fixed_design((2,)), fixed_design((1, 2))]
        law = mixture_design(
            {F(1, 2): (F(1, 4), F(1, 4), F(1, 2))}, components
        )
        delta = law[F(1, 2)].get(None)
        assert delta.mass((1,)) == F(1, 4)
        assert delta.mass((2,)) == F(1, 4)
        assert delta.mass((1, 2)) == F(1, 2)

    def test_single_component(self):
        law = mixture_design({"t": (1,)}, [fixed_design((2, 1))])
        assert dist_eq(law["t"].get(None), point_mass((2, 1)))

    def test_degenerate_weights(self):
        comps = [fixed_design((1,)), fixed_design((2,)), fixed_design((1, 2))]
        law = mixture_design({"t": (0, 0, 1)}, comps)
        assert dist_eq(law["t"].get(None), point_mass((1, 2)))

    def test_non_unit_weights(self):
        with pytest.raises(NonUnitMixture):
            mixture_design({"t": (F(1, 2), F(1, 3))}, [fixed_design((1,)), fixed_design((2,))])


class TestSizeIdentities:
    def test_sum_pi_and_upsilon_across_catalog(self):
        # every built-in design satisfies the two size identities exactly
        deltas = []
        for N in range(1, 5):
            pop = Population(tuple(range(1, N + 1)))
            for n in range(N + 1):
                deltas.append((pop, srs_wor(n, pop)))
                deltas.append((pop, srs_wr(n, pop)))
            deltas.append((pop, poisson([F(1, 3)] * N, pop)))
        for pop, delta in deltas:
            assert sum(inclusion_probabilities(delta, pop), F(0)) == (
                expected_distinct_size(delta)
            )
            assert sum(selection_expectations(delta, pop), F(0)) == (
                expected_size(delta)
            )


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: srs_wr(-1, U2), EngineError, "sample size must be nonnegative"),
        (lambda: stratified_dist((1,), {1: 1}, U2), EngineError, "stratum map must cover the population exactly"),
        (lambda: stratified_dist((1, 2), {1: 1}, U2), InfeasibleAllocation, "strata without allocation: [2]"),
        (lambda: poisson([F(1, 2)], U2), EngineError, "one inclusion probability per unit required"),
        (lambda: select_max(U2).get((1,)), EngineError, "select_max expects z to be the full signal"),
        (lambda: mixture_design({1: (1,)}, [census(U2), census(U2)]), NonUnitMixture,
         "one weight per component required"),
    ],
    ids=["srs-wr-negative-n", "strata-cover", "strata-without-allocation", "poisson-cover", "select-max-z",
         "mixture-arity"],
)
def test_malformed_design_arguments(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message
