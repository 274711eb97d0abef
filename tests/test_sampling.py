"""Survey model layer: indicators, inclusion probabilities, joints,
observation schemes."""

import itertools
import re
from fractions import Fraction as F

import pytest

import reference
from reference import dist_eq
from ignorability_lab import sampling
from ignorability_lab.catalog import CATALOG
from ignorability_lab.ignorance import Family
from ignorability_lab.modelfile import parse_model

from ignorability_lab.exactprob import (
    EngineError,
    Kernel,
    bernoulli,
    canonical_key,
    condition,
    dist_new,
    fields,
    integer_masses,
    point_mass,
    pushforward,
    replace,
)
from ignorability_lab.designs import census, constant, srs_wor, srs_wr, select_max
from ignorability_lab.sampling import (
    GridMiss,
    Population,
    SurveyModel,
    UnknownObservation,
    WorldState,
    build_joint,
    count_vector,
    expected_distinct_size,
    expected_size,
    iid_signal_dist,
    inclusion_probabilities,
    indicator_vector,
    observation_distribution,
    observe,
    selection_expectations,
    validate_observation,
    values_and_mapping,
    values_only,
    values_and_sampled_weights,
    values_mapping_design,
)

U8 = Population(tuple(range(1, 9)))
U2 = Population((1, 2))
U3 = Population((1, 2, 3))


class TestIndicatorsAndCounts:
    def test_worked_example_n8(self):
        # with-replacement draw of size 5 from 8 units: draws 3,1,5,3,2
        r = (3, 1, 5, 3, 2)
        assert indicator_vector(r, U8) == (1, 1, 1, 0, 1, 0, 0, 0)
        assert count_vector(r, U8) == (1, 1, 2, 0, 1, 0, 0, 0)

    def test_empty_sample(self):
        assert indicator_vector((), U3) == (0, 0, 0)
        assert count_vector((), U3) == (0, 0, 0)

    def test_unknown_unit(self):
        assert U3.index(3) == 2
        with pytest.raises(EngineError, match="^unknown unit label 7$"):
            U3.index(7)

    def test_full_census(self):
        r = tuple(U3.labels)
        assert indicator_vector(r, U3) == (1, 1, 1)

    def test_constant_mapping(self):
        r = (2, 2, 2, 2)
        assert count_vector(r, U3) == (0, 4, 0)
        assert sum(count_vector(r, U3)) == len(r)

    def test_wor_counts_equal_indicators(self):
        for r, _w in srs_wor(2, U3).items:
            assert count_vector(r, U3) == indicator_vector(r, U3)


class TestInclusionProbabilities:
    def test_srs_wor_symmetry(self):
        pi = inclusion_probabilities(srs_wor(2, U3), U3)
        assert pi == (F(2, 3), F(2, 3), F(2, 3))

    def test_census_point_mass(self):
        pi = inclusion_probabilities(census(U3), U3)
        assert pi == (1, 1, 1)

    def test_srs_wr_enumerated(self):
        # 4 ordered draws of size 2 from {1,2}: unit 1 missing only in (2,2)
        delta = srs_wr(2, U2)
        assert inclusion_probabilities(delta, U2) == (F(3, 4), F(3, 4))
        assert selection_expectations(delta, U2) == (1, 1)
        assert expected_distinct_size(delta) == F(3, 2)
        assert expected_size(delta) == 2

    def test_wor_selection_expectations_equal_pi(self):
        delta = srs_wor(2, U3)
        assert selection_expectations(delta, U3) == inclusion_probabilities(
            delta, U3
        )

    def test_empty_design(self):
        delta = point_mass(())
        assert selection_expectations(delta, U3) == (0, 0, 0)
        assert expected_size(delta) == 0

    def test_sums_match_expected_sizes(self):
        for delta in (srs_wor(2, U3), srs_wr(3, U2), census(U3)):
            units = sorted({k for r, _ in delta.items for k in r})
            pop = Population(tuple(units))
            assert sum(inclusion_probabilities(delta, pop), F(0)) == (
                expected_distinct_size(delta)
            )
            assert sum(selection_expectations(delta, pop), F(0)) == expected_size(
                delta
            )

    def test_broken_identity_raises_engine_error(self, monkeypatch):
        # a plain check, so the identities still hold under python -O
        import ignorability_lab.sampling as sampling
        from ignorability_lab.exactprob import EngineError

        delta = srs_wr(2, U2)
        zeros = lambda _delta, pop: (F(0),) * pop.size
        monkeypatch.setattr(sampling, "inclusion_probabilities", zeros)
        monkeypatch.setattr(sampling, "selection_expectations", zeros)
        with pytest.raises(EngineError):
            expected_distinct_size(delta)
        with pytest.raises(EngineError):
            expected_size(delta)


def iid_model(population, p, design_dist, thetas=None):
    thetas = thetas or (p,)
    return SurveyModel.create(
        population=population,
        thetas=thetas,
        signal_law={t: iid_signal_dist(population, bernoulli(t)) for t in thetas},
        design=constant(design_dist),
    )


class TestBuildJoint:
    def test_point_model(self):
        m = SurveyModel.create(
            population=U2,
            thetas=("only",),
            signal_law={"only": point_mass(((1, 0), None))},
            design=constant(point_mass((2,))),
        )
        j = build_joint(m, "only")
        assert dist_eq(j, point_mass(WorldState((1, 0), None, (2,))))

    def test_eight_equal_worlds(self):
        m = iid_model(U2, F(1, 2), srs_wor(1, U2))
        j = build_joint(m, F(1, 2))
        assert len(j) == 8
        assert set(j.weights()) == {F(1, 8)}

    def test_grid_miss(self):
        m = iid_model(U2, F(1, 2), srs_wor(1, U2))
        with pytest.raises(GridMiss):
            build_joint(m, F(1, 3))

    def test_malformed_cap_reported_before_grid_miss(self, monkeypatch):
        # the cap is read once per call, before the first point is tested
        m = iid_model(U2, F(1, 2), srs_wor(1, U2))
        with pytest.raises(GridMiss, match=r"grid point \(Fraction\(1, 3\), None\) not in model grid"):
            sampling.joint_masses(m, [(F(1, 2), None), (F(1, 3), None)])
        monkeypatch.setenv("IGNORABILITY_LAB_MAX_SUPPORT", "abc")
        for build in (lambda: build_joint(m, F(1, 3)), lambda: sampling.joint_masses(m, [(F(1, 3), None)])):
            with pytest.raises(EngineError, match="IGNORABILITY_LAB_MAX_SUPPORT must be an integer") as caught:
                build()
            assert not isinstance(caught.value, GridMiss)

    def test_conditional_selection_law_reads_only_z(self):
        # two z values route to different designs; conditioning the joint
        # on (y, z) must return the kernel at z for every y
        pop = U2
        kernel = Kernel.from_mapping(
            {"a": srs_wor(1, pop), "b": point_mass((1, 2))}
        )
        law = dist_new(
            [
                (((0, 0), "a"), F(1, 4)),
                (((0, 1), "a"), F(1, 4)),
                (((0, 0), "b"), F(1, 4)),
                (((1, 1), "b"), F(1, 4)),
            ]
        )
        m = SurveyModel.create(
            population=pop, thetas=("t",), signal_law={"t": law}, design=kernel
        )
        j = build_joint(m, "t")
        for (y, z), _w in law.items:
            got = pushforward(
                condition(j, lambda w, y=y, z=z: w.y == y and w.z == z),
                lambda w: w.r,
            )
            assert dist_eq(got, kernel.get(z))


class TestObserve:
    world = WorldState((5, 7, 9, 5, 11, 0, 0, 0), None, (3, 1, 5, 3, 2))

    def test_values_and_mapping(self):
        got = observe(self.world, values_and_mapping(), U8)
        assert got == ((9, 5, 11, 9, 7), (3, 1, 5, 3, 2))

    def test_values_only_erases_mapping(self):
        got = observe(self.world, values_only(), U8)
        assert got == (9, 5, 11, 9, 7)

    def test_unordered_sorts(self):
        got = observe(self.world, values_only(unordered=True), U8)
        assert got == (5, 7, 9, 9, 11)

    def test_census_recovers_signal(self):
        w = WorldState((4, 6), None, (1, 2))
        got = observe(w, values_and_mapping(), U2)
        assert got == ((4, 6), (1, 2))

    def test_mapping_design_includes_z(self):
        w = WorldState((4, 6), "stratum-map", (2,))
        got = observe(w, values_mapping_design(), U2)
        assert got == ((6,), (2,), "stratum-map")

    def test_sampled_weights(self):
        design = constant(srs_wor(1, U2))
        w = WorldState((4, 6), None, (2,))
        got = observe(w, values_and_sampled_weights(), U2, design=design)
        assert got == ((6, F(1, 2)),)
        with pytest.raises(EngineError, match="^sampled-weights scheme needs the design kernel$"):
            observe(w, values_and_sampled_weights(), U2)


class TestObservationDistribution:
    def test_select_max_vs_marginal(self):
        pop = U2
        unit = dist_new([(1, F(1, 2)), (2, F(1, 2))])
        m = SurveyModel.create(
            population=pop,
            thetas=("u",),
            signal_law={"u": iid_signal_dist(pop, unit, z_of=lambda y: y)},
            design=select_max(pop),
            z_contains_y=True,
        )
        d = observation_distribution(m, "u", scheme=values_only())
        assert dist_eq(d, dist_new([((1,), F(1, 4)), ((2,), F(3, 4))]))

    def test_srs_single_draw_is_marginal(self):
        pop = U2
        unit = dist_new([(1, F(1, 2)), (2, F(1, 2))])
        m = SurveyModel.create(
            population=pop,
            thetas=("u",),
            signal_law={"u": iid_signal_dist(pop, unit)},
            design=constant(srs_wor(1, pop)),
        )
        d = observation_distribution(m, "u", scheme=values_only())
        assert dist_eq(d, dist_new([((1,), F(1, 2)), ((2,), F(1, 2))]))

    def test_point_signal_point_observation(self):
        m = SurveyModel.create(
            population=U2,
            thetas=("t",),
            signal_law={"t": point_mass(((3, 3), None))},
            design=constant(srs_wor(1, U2)),
        )
        d = observation_distribution(m, "t", scheme=values_only())
        assert dist_eq(d, point_mass((3,)))

    def test_exchangeable_label_permutation_invariance(self):
        # iid signals are exchangeable: permuting population labels leaves
        # the values-only observation distribution unchanged
        pop = U3
        perm = {1: 3, 2: 1, 3: 2}
        permuted_pop = Population(tuple(perm[k] for k in pop.labels))
        for scheme in (values_only(), values_only(unordered=True)):
            m = iid_model(pop, F(1, 3), srs_wor(2, pop))
            m2 = iid_model(permuted_pop, F(1, 3), srs_wor(2, permuted_pop))
            a = observation_distribution(m, F(1, 3), scheme=scheme)
            b = observation_distribution(m2, F(1, 3), scheme=scheme)
            assert dist_eq(a, b)


class TestValidateObservation:
    def setup_method(self):
        self.m = iid_model(U2, F(1, 2), srs_wor(1, U2))

    def test_accepts_wellformed(self):
        validate_observation(self.m, values_only(), (1,))
        validate_observation(self.m, values_and_mapping(), ((1,), (2,)))

    def test_rejects_alien_value(self):
        with pytest.raises(UnknownObservation):
            validate_observation(self.m, values_only(), (9,))

    def test_rejects_alien_unit(self):
        with pytest.raises(UnknownObservation):
            validate_observation(self.m, values_and_mapping(), ((1,), (7,)))

    def test_rejects_length_mismatch(self):
        with pytest.raises(UnknownObservation):
            validate_observation(self.m, values_and_mapping(), ((1, 0), (2,)))

    @pytest.mark.parametrize("scheme, x, message", [
        (values_only(), (True,), "value True not in the signal alphabet"),
        (values_only(), (1.0,), "value 1.0 not in the signal alphabet"),
        (values_and_mapping(), ((True,), (2,)), "value True not in the signal alphabet"),
        (values_and_mapping(), ((0.0,), (2,)), "value 0.0 not in the signal alphabet"),
        (values_and_mapping(), ((1,), (True,)), "unit True not in the population"),
        (values_and_mapping(), ((1,), (2.0,)), "unit 2.0 not in the population"),
    ], ids=["bool-value", "float-value", "bool-value-with-mapping", "float-value-with-mapping",
            "bool-unit", "float-unit"])
    def test_rejects_bool_and_float_equal_to_a_value_or_unit(self, scheme, x, message):
        # 1 and 0 are alphabet values and 1 and 2 units: an equal bool or
        # float is still refused
        with pytest.raises(UnknownObservation, match=f"^{re.escape(message)}$"):
            validate_observation(self.m, scheme, x)


def test_sampled_weights_pi_once_per_z(monkeypatch):
    # the sampled-weights observation computes the inclusion probabilities
    # of each z of the design once, not once per world
    build = parse_model(CATALOG["sampled_weights"]).build()
    m = build.model
    calls = []
    real = sampling.inclusion_probabilities

    def counting(delta, population):
        calls.append(delta)
        return real(delta, population)

    monkeypatch.setattr(sampling, "inclusion_probabilities", counting)
    family = Family.from_survey_model(m, build.scheme)
    assert family.observation_support()
    assert len(calls) == sum(len(m.design_for(phi).entries) for phi in m.designs)
    assert len(calls) < len(m.world_space())


LAW = point_mass(((1, 0), None))
DESIGN = constant(point_mass((2,)))


def per_phi_model():
    return SurveyModel.create(population=U2, thetas=("t",), signal_law={"t": LAW}, phis=("p",), design_law={"p": DESIGN})


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Population(()), EngineError, "population must have at least one unit"),
        (lambda: Population((1, 1)), EngineError, "population labels must be distinct"),
        (lambda: sampling.ObservationScheme("everything"), EngineError, "unknown observation scheme 'everything'"),
        (lambda: SurveyModel.create(U2, (), {}, design=DESIGN), GridMiss, "theta grid is empty"),
        (lambda: SurveyModel.create(U2, ("t",), {"t": LAW}), EngineError,
         "model needs a design kernel or a per-phi design law"),
        (lambda: SurveyModel.create(U2, ("t",), {"t": LAW}, design_law={"p": DESIGN}), EngineError,
         "model needs a design kernel or a per-phi design law"),
        (lambda: SurveyModel.create(U2, ("t",), {"t": LAW}, design=DESIGN, phis=("p",)), EngineError,
         "phi grid given without a design law"),
        (lambda: SurveyModel.create(U2, ("t",), {"t": "law"}, design=DESIGN), EngineError,
         "signal law for 't' is not a FiniteDist"),
        (lambda: SurveyModel.create(U2, ("t",), {"t": point_mass(((1,), None))}, design=DESIGN), EngineError,
         "signal (1,) does not cover the population exactly"),
        (lambda: SurveyModel.create(U2, ("t",), {"t": LAW}, design=DESIGN, grid=(("u", None),)), GridMiss,
         "grid theta 'u' not in theta grid"),
        (lambda: SurveyModel.create(U2, ("t",), {"t": LAW}, phis=("p",), design_law={"p": DESIGN},
                                    grid=(("t", "q"),)), GridMiss, "grid phi 'q' not in phi grid"),
        (lambda: SurveyModel.create(U2, ("t",), {"t": LAW}, design=DESIGN, grid=(("t", None), ("t", None))), GridMiss,
         "grid point ('t', None) repeated"),
        (lambda: SurveyModel.create(U2, ("t", "t"), {"t": LAW}, design=DESIGN), GridMiss,
         "grid point ('t', None) repeated"),
        (lambda: SurveyModel.create(U2, ("t", "t"), {"t": LAW}, design=DESIGN, grid=(("t", None),)), GridMiss,
         "theta 't' repeated in the theta grid"),
        (lambda: SurveyModel.create(U2, ("t",), {"t": LAW}, phis=("p", "p"), design_law={"p": DESIGN}), GridMiss,
         "phi 'p' repeated in the phi grid"),
        (lambda: per_phi_model().design_for(), GridMiss, "model has per-phi designs; phi required"),
        (lambda: per_phi_model().design_for("q"), GridMiss, "phi 'q' not in design law"),
    ],
    ids=["empty-population", "repeated-unit", "unknown-scheme", "empty-theta-grid", "no-design", "law-without-phi-grid",
         "phi-without-law",
         "law-not-a-dist", "signal-short", "grid-theta", "grid-phi", "grid-point-repeated", "product-theta-repeated",
         "theta-repeated", "phi-repeated",
         "phi-required", "phi-unknown"],
)
def test_malformed_model_parts(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_one_design_table():
    # a model with no phi grid is the one-point grid: its table's only key
    # is None; a per-phi model's keys are its phi grid; no second field
    single, per_phi = SurveyModel.create(U2, ("t",), {"t": LAW}, design=DESIGN), per_phi_model()
    assert tuple(single.designs) == (None,) and single.design_for() is single.designs[None]
    assert tuple(per_phi.designs) == ("p",) and per_phi.design_for("p") is per_phi.designs["p"]
    for m in (single, per_phi):
        assert not any(hasattr(m, name) for name in ("design", "design_law", "phis"))


def _rubin_sweep_models():
    """The 210 two-unit models of the Rubin sweep (acceptance criterion 6)."""
    from test_acceptance import RUBIN_KERNELS, RUBIN_SIGNALS, _rubin_model

    def grids(names):
        return [(n,) for n in sorted(names)] + list(itertools.combinations(sorted(names), 2))

    return [_rubin_model(thetas, phis) for thetas in grids(RUBIN_SIGNALS) for phis in grids(RUBIN_KERNELS)]


def test_one_law_object_per_distinct_design_law():
    # the sweep's rules build a fresh law for every z; the model keeps the
    # first law of each content for every later z and phi, so its atoms
    # hold one design column per distinct law: 420 over the 210 models,
    # where one per (phi, z) made 1,368
    columns = 0
    for m in _rubin_sweep_models():
        laws = {id(law): law for kernel in m.designs.values() for _z, law in kernel.entries}
        assert len(set(laws.values())) == len(laws)
        columns += len({id(column) for cs in m.atoms.designs.values() for column in cs})
    assert columns == 420


class TestKeptRanks:
    """The joint read through the ranks `SurveyModel.create` keeps, with no
    key made, against the reference's enumeration of every (y, z) and
    mapping, each law built from Fractions."""

    @staticmethod
    def check(m):
        space, laws = reference.survey_family(m)
        worlds = m.world_space()
        assert set(worlds) == set(space) and len(worlds) == len(space)
        for (theta, phi), (ids, numerators, denominator) in zip(m.grid, sampling.joint_masses(m, m.grid)):
            assert {worlds[i]: F(n, denominator) for i, n in zip(ids, numerators)} == laws[theta, phi]
        # the atoms hold each law as integers on ranks: (atom ranks, masses, denominator)
        def ranked(law, rank):
            return tuple(rank[canonical_key(a)] for a, _w in law.items), *integer_masses(law.weights())

        yz_rank = {canonical_key(yz): k for k, yz in enumerate(m.atoms.yzs)}
        mapping_rank = {canonical_key(r): k for k, r in enumerate(m.atoms.mappings)}
        assert (m.atoms.signals, m.atoms.designs) == (
            tuple(ranked(m.signal_law[theta], yz_rank) for theta in m.thetas),
            {phi: tuple(ranked(kernel.get(z), mapping_rank) for _y, z in m.atoms.yzs) for phi, kernel in m.designs.items()},
        )

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog_models(self, name):
        self.check(parse_model(CATALOG[name]).build().model)

    def test_rubin_sweep_models(self):
        models = _rubin_sweep_models()
        assert len(models) == 210
        for m in models:
            self.check(m)

    def test_atoms_follow_the_fields(self):
        # `atoms` is worked out from the model's fields: a model built field
        # by field works out what `create` seeds, and a copy given other
        # designs works out its own, never the original's ranks
        thetas = (F(1, 3), F(2, 3))
        m = iid_model(U3, None, srs_wor(2, U3), thetas)
        census_model = iid_model(U3, None, census(U3), thetas)
        direct = SurveyModel(**{f.name: getattr(m, f.name) for f in fields(m)})
        assert "atoms" not in vars(direct) and direct.atoms == m.atoms
        swapped = replace(m, designs=census_model.designs)
        assert "atoms" not in vars(swapped) and swapped.atoms == census_model.atoms != m.atoms
        for model in (direct, swapped):
            self.check(model)
