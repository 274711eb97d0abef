"""Complement machinery, compatibility sets, and the ignore transformation."""

import importlib.util
import random
from fractions import Fraction as F
from math import lcm
from pathlib import Path

import pytest

import reference
from reference import dist_eq, split_on
from ignorability_lab.catalog import CATALOG
from ignorability_lab.exactprob import (
    EngineError,
    ModelTooLarge,
    bernoulli,
    canonical_key,
    dist_new,
    key_sums,
    point_mass,
    product,
    pushforward,
    replace,
    sorted_distinct,
    summed,
    uniform,
)
from ignorability_lab.designs import constant, srs_wor
from ignorability_lab.ignorance import (
    COMPLEMENT,
    DISTINCT_COMPLEMENT,
    NOT_COMPLEMENT,
    Family,
    MarginalFunctional,
    NuisancePolicy,
    ParameterFunction,
    Predictand,
    RandomVariableRef,
    TargetNotTransformable,
    ValueNotInImage,
    WorldNotInSupport,
    ZeroMassPhiSet,
    atrandomize,
    dirac_fix,
    ignore_model,
    make_split,
    marginal_family,
    phi_set,
    selection_rv,
    single_arbitrary,
    point_values,
    transform_target,
)
from ignorability_lab.modelfile import parse_model
from ignorability_lab.sampling import (
    Population,
    SurveyModel,
    WorldState,
    build_joint,
    iid_signal_dist,
    values_and_mapping,
)

first = RandomVariableRef("first", lambda w: w[0])
second = RandomVariableRef("second", lambda w: w[1])

THREE_POINT = ((0, 0), (0, 1), (1, 0))
SQUARE = ((0, 0), (0, 1), (1, 0), (1, 1))
MADE_ELSEWHERE = r"not made on this family; split it with make_split\(family, v, v_bar\)"


class TestClassifySplit:
    def test_three_point_is_plain_complement(self):
        split = split_on(THREE_POINT, first, second)
        assert split.status == COMPLEMENT

    def test_square_is_distinct(self):
        split = split_on(SQUARE, first, second)
        assert split.status == DISTINCT_COMPLEMENT

    def test_identity_with_constant(self):
        ident = RandomVariableRef("identity", lambda w: w)
        const = RandomVariableRef("constant", lambda w: "c")
        split = split_on(THREE_POINT, ident, const)
        assert split.status == DISTINCT_COMPLEMENT

    def test_not_complement(self):
        # both variables read the same coordinate: pairs cannot separate
        split = split_on(SQUARE, first, first)
        assert split.status == NOT_COMPLEMENT


class TestPhiSet:
    def test_distinct_split_gives_whole_support(self):
        split = split_on(SQUARE, first, second)
        for value in (0, 1):
            assert set(phi_set(value, split)) == set(SQUARE)

    def test_identity_v_unwinds_to_preimage(self):
        ident = RandomVariableRef("identity", lambda w: w)
        split = split_on(SQUARE, ident, second)
        assert set(phi_set(1, split)) == {(0, 1), (1, 1)}

    def test_three_point_chain(self):
        # worlds with second=1 have first=0; first=0 also occurs at (0,0)
        split = split_on(THREE_POINT, first, second)
        assert set(phi_set(1, split)) == {(0, 0), (0, 1)}
        assert set(phi_set(0, split)) == set(THREE_POINT)

    def test_value_not_in_image(self):
        split = split_on(THREE_POINT, first, second)
        with pytest.raises(ValueNotInImage):
            phi_set(7, split)


class TestAtrandomize:
    def test_product_measure_is_fixed_point(self):
        P = product(bernoulli(F(1, 3)), bernoulli(F(1, 4)))
        split = split_on(P.support(), first, second)
        assert dist_eq(atrandomize(P, split), P)

    def test_point_mass(self):
        P = point_mass((1, 0))
        split = split_on(P.support(), first, second)
        assert dist_eq(atrandomize(P, split), P)

    def test_three_point_redistribution(self):
        # hand enumeration: Phi(0) is the whole support, Phi(1)={(0,0),(0,1)};
        # mixing the conditioned first-coordinate laws against the second
        # marginal (2/3, 1/3) gives 4/9, 1/3, 2/9
        P = uniform(THREE_POINT)
        split = split_on(THREE_POINT, first, second)
        got = atrandomize(P, split)
        want = dist_new([((0, 0), F(4, 9)), ((0, 1), F(1, 3)), ((1, 0), F(2, 9))])
        assert dist_eq(got, want)

    def test_distinct_split_idempotent_and_product(self):
        P = dist_new(
            [((0, 0), F(1, 8)), ((0, 1), F(3, 8)), ((1, 0), F(1, 4)), ((1, 1), F(1, 4))]
        )
        split = split_on(P.support(), first, second)
        once = atrandomize(P, split)
        margins = product(pushforward(P, first), pushforward(P, second))
        assert dist_eq(once, margins)
        assert dist_eq(atrandomize(once, split), once)

    def test_zero_mass_phi(self):
        # support has (1, 1) but this law never reaches first=1
        split = split_on(((0, 0), (1, 1)), first, second)
        P = dist_new([((0, 0), F(1))])
        with pytest.raises(ZeroMassPhiSet):
            atrandomize(P, split, nuisance=uniform([0, 1]))

    def test_nuisance_law_off_a_zero_mass_phi_set(self):
        # Phi(2) = {(2, 2)} has zero mass, but a nuisance law with no weight
        # on 2 never conditions on it: the law is conditioned on the sets it
        # weights.  Phi(0) = {(0, 0), (1, 0), (1, 1)}, Phi(1) = {(1, 1)}
        split = split_on(((0, 0), (1, 0), (1, 1), (2, 2)), first, second)
        P = dist_new([((0, 0), F(1, 2)), ((1, 1), F(1, 2))])
        fixed = atrandomize(P, split, nuisance=point_mass(0))
        assert dist_eq(fixed, dist_new([((0, 0), F(1, 2)), ((1, 0), F(1, 2))]))
        mixed = atrandomize(P, split, nuisance=uniform([0, 1]))
        assert dist_eq(mixed, dist_new([((0, 0), F(1, 4)), ((1, 0), F(1, 4)), ((1, 1), F(1, 2))]))
        with pytest.raises(ZeroMassPhiSet):
            atrandomize(P, split, nuisance=uniform([0, 2]))

    def test_atom_off_the_split_raises(self):
        # (1, 0) is not a world of the split's support: its mass has no
        # compatibility set to go to, so it must not silently vanish
        split = split_on(((0, 0), (0, 1)), first, second)
        P = dist_new([((0, 0), F(1, 4)), ((0, 1), F(1, 4)), ((1, 0), F(1, 2))])
        with pytest.raises(WorldNotInSupport, match=r"\(1, 0\)"):
            atrandomize(P, split)


def two_by_two_family():
    """Two correlated laws on the square and their projections."""
    laws = {
        "p": dist_new(
            [((0, 0), F(1, 2)), ((0, 1), F(1, 6)), ((1, 0), F(1, 6)), ((1, 1), F(1, 6))]
        ),
        "q": dist_new(
            [((0, 0), F(1, 4)), ((0, 1), F(1, 4)), ((1, 0), F(1, 4)), ((1, 1), F(1, 4))]
        ),
    }
    obs = {k: (lambda w: w[0]) for k in laws}
    return Family(("p", "q"), laws, obs)


class TestIgnoreModel:
    def test_dirac_fix_grid_and_laws(self):
        fam = two_by_two_family()
        split = make_split(fam, first, second)
        ignored = ignore_model(fam, split, dirac_fix())
        assert ignored.points == (("p", 0), ("p", 1), ("q", 0), ("q", 1))
        # fixing the nuisance at 1: first-law conditioned on Phi(1)=support,
        # second pinned at 1
        law = ignored.laws[("p", 1)]
        assert dist_eq(
            pushforward(law, second), point_mass(1)
        )
        assert dist_eq(
            pushforward(law, first), pushforward(fam.laws["p"], first)
        )

    def test_marginal_family_keeps_margins_and_independence(self):
        fam = two_by_two_family()
        split = make_split(fam, first, second)
        ignored = ignore_model(fam, split, marginal_family())
        for label in ("p", "q"):
            law = ignored.laws[(label, label)]
            pv = pushforward(fam.laws[label], first)
            pvb = pushforward(fam.laws[label], second)
            assert dist_eq(pushforward(law, first), pv)
            assert dist_eq(pushforward(law, second), pvb)
            assert dist_eq(law, product(pv, pvb))

    def test_independent_family_is_unchanged_by_marginal_policy(self):
        laws = {
            "p": product(bernoulli(F(1, 3)), bernoulli(F(1, 2))),
            "q": product(bernoulli(F(2, 3)), bernoulli(F(1, 2))),
        }
        fam = Family(("p", "q"), laws, {k: (lambda w: w[0]) for k in laws})
        split = make_split(fam, first, second)
        ignored = ignore_model(fam, split, marginal_family())
        for label in ("p", "q"):
            assert dist_eq(ignored.laws[(label, label)], laws[label])

    @pytest.mark.parametrize("policy", [dirac_fix, single_arbitrary, marginal_family])
    def test_split_made_elsewhere(self, policy):
        # a split made on another family object is refused even on equal
        # worlds; the family's own split is accepted, and it also serves
        # the ignored family, which shares the family's worlds
        fam, twin = two_by_two_family(), two_by_two_family()
        assert twin.worlds == fam.worlds and twin.worlds is not fam.worlds
        with pytest.raises(EngineError, match=MADE_ELSEWHERE):
            ignore_model(fam, make_split(twin, first, second), policy())
        split = make_split(fam, first, second)
        ignored = ignore_model(fam, split, policy())
        assert ignored.worlds is fam.worlds
        assert ignore_model(ignored, split, policy()).worlds is fam.worlds

    @pytest.mark.parametrize("policy", [dirac_fix, single_arbitrary, marginal_family])
    def test_reignoring_builds_no_vectors(self, policy):
        # ignoring an ignored family reads its restrictions' sums and its
        # points, never its mass vectors
        fam = two_by_two_family()
        split = make_split(fam, first, second)
        ignored = ignore_model(fam, split, policy())
        twice = ignore_model(ignored, split, policy())
        assert "vectors" not in vars(ignored) and "vectors" not in vars(twice)
        assert len(twice.points) == len(ignored.points) * (len(split.v_bar_values) if policy is dirac_fix else 1)

    @pytest.mark.parametrize("policy", [dirac_fix, single_arbitrary, marginal_family])
    def test_split_missing_a_world_of_the_laws(self, policy):
        # (1, 1) carries mass but is not a world of the split
        fam = two_by_two_family()
        with pytest.raises(EngineError, match=MADE_ELSEWHERE):
            ignore_model(fam, split_on(THREE_POINT, first, second), policy())

    @pytest.mark.parametrize("split_space, space", [
        # the split has a world the family lacks
        ((*SQUARE, (2, 0)), None),
        # the family's space has a zero-mass world the split lacks
        (SQUARE, (*SQUARE, (0, 2))),
    ], ids=["split_only", "family_only"])
    def test_split_on_other_worlds_is_refused(self, split_space, space):
        fam = two_by_two_family()
        obs = dict(zip(fam.points, fam.obs))
        fam = Family(fam.points, fam.laws, obs, space=space)
        other = Family(fam.points, fam.laws, obs, space=split_space)
        with pytest.raises(EngineError, match=MADE_ELSEWHERE):
            ignore_model(fam, make_split(other, first, second), dirac_fix())
        assert ignore_model(fam, make_split(fam, first, second), dirac_fix()).worlds is fam.worlds

    def test_space_and_make_split_match_the_reference(self):
        # 400 random families on 2-9 pair supports under each policy: a
        # support passed as the space and split by make_split ignores as the
        # naive reference does on that support
        rng = random.Random(20261018)
        pairs = [(a, b) for a in range(3) for b in range(3)]
        outcomes = set()
        for _ in range(400):
            support = sorted(rng.sample(pairs, rng.randint(2, 9)))
            laws = {}
            for p in ("p", "q"):
                loads = [rng.randint(0, 9) for _ in support]
                loads[rng.randrange(len(support))] += 1
                laws[p] = {w: F(n, sum(loads)) for w, n in zip(support, loads) if n}
            fam = Family(("p", "q"), {p: dist_new(list(law.items())) for p, law in laws.items()},
                         {"p": first, "q": first}, space=support)
            for policy in (dirac_fix, single_arbitrary, marginal_family):
                want = reference.ignore(support, ("p", "q"), laws, first, second, policy().kind)
                try:
                    ignored = ignore_model(fam, make_split(fam, first, second), policy())
                    got = {q: dict(ignored.laws[q].items) for q in ignored.points}
                except ZeroMassPhiSet as err:
                    got = type(err).__name__
                assert got == want
                outcomes.add(got if isinstance(got, str) else policy().kind)
        assert outcomes == {"ZeroMassPhiSet", "dirac_fix", "single_arbitrary", "marginal_family"}

    def test_single_arbitrary_default_uniform(self):
        fam = two_by_two_family()
        split = make_split(fam, first, second)
        ignored = ignore_model(fam, split, single_arbitrary())
        law = ignored.laws[("p", "arbitrary")]
        assert dist_eq(pushforward(law, second), uniform([0, 1]))

    def test_fixed_population_ignore(self):
        # ignoring (signal, design variable) with a fixed nuisance yields
        # the design-based families: point-mass signal laws, design law kept
        pop = Population((1, 2))
        m = SurveyModel.create(
            population=pop,
            thetas=(F(1, 3),),
            signal_law={F(1, 3): iid_signal_dist(pop, bernoulli(F(1, 3)))},
            design=constant(srs_wor(1, pop)),
        )
        fam = Family.from_survey_model(m, values_and_mapping())
        y_and_z = RandomVariableRef("signal_and_z", lambda w: (w.y, w.z))
        split = make_split(fam, selection_rv(), y_and_z)
        ignored = ignore_model(fam, split, dirac_fix())
        for (point, (y, z)) in ignored.points:
            law = ignored.laws[(point, (y, z))]
            assert dist_eq(pushforward(law, lambda w: w.y), point_mass(y))
            assert dist_eq(
                pushforward(law, lambda w: w.r), srs_wor(1, pop)
            )


class TestFamily:
    def test_observation_support_built_once(self):
        fam = two_by_two_family()
        first_call = fam.observation_support()
        assert first_call == (0, 1)
        tables = {p: fam.observation_tables()[fam.number[p]] for p in fam.points}

        def no_rebuild(w):
            raise AssertionError("observation function called again")

        # the support and every table come from one pass over the laws: no
        # later lookup evaluates an observation function again
        fam.obs = [no_rebuild] * len(fam.points)
        assert fam.observation_support() is first_call
        assert fam.observation_code(1) == 1
        assert all(fam.observation_tables()[fam.number[p]] is tables[p] for p in fam.points)

    def test_inclusion_probabilities_once_per_design_law(self, monkeypatch):
        # the sampled-weights observation function and its axis coding read
        # one inclusion table per phi: one `inclusion_probabilities` call per
        # design law of the build, and the family still codes as before
        from ignorability_lab import ignorance, sampling

        build = parse_model(CATALOG["sampled_weights"]).build()
        reference_family = Family.from_survey_model(build.model, build.scheme)
        calls = []
        original = sampling.inclusion_probabilities

        def counted(delta, population):
            calls.append(delta)
            return original(delta, population)

        for module in (sampling, ignorance):
            monkeypatch.setattr(module, "inclusion_probabilities", counted, raising=False)
        fam = Family.from_survey_model(build.model, build.scheme)
        laws = [law for kernel in build.model.designs.values() for _z, law in kernel.entries]
        assert len(laws) == len(build.model.designs) == 1
        assert calls == laws
        assert fam.observation_support() == reference_family.observation_support()
        assert fam.observation_tables() == reference_family.observation_tables()

    def test_ignored_laws_read_their_restrictions(self):
        # a Dirac likelihood check of srs_wor_n3 builds no ignored mass
        # vector: its observation tables and target marginals are summed
        # from each origin's restrictions, and the target is evaluated once
        # per distinct marginal of both families; the vectors read
        # afterwards are the laws that atrandomize gives each original law
        # at its fixed nuisance value
        from ignorability_lab.inference import IGNORABLE, LIKELIHOOD_BASED, prepare

        build = parse_model(CATALOG["srs_wor_n3"]).build()
        calls = []
        target = MarginalFunctional(build.target.name, build.target.var,
                                    lambda law: calls.append(law) or build.target.fn(law))
        prepared = prepare(build.model, (build.v, build.v_bar), build.scheme, target, dirac_fix())
        assert prepared.test(LIKELIHOOD_BASED, None).verdict == IGNORABLE
        assert "vectors" not in vars(prepared.ignored)
        keys = [canonical_key(law) for law in calls]
        assert len(keys) == len(set(keys)) == 2

        fam, ignored, split = prepared.family, prepared.ignored, prepared.split
        assert ignored.mix[0] is split
        assert len(ignored.vectors) == len(ignored.points) == 12
        for q, (i, b) in zip(ignored.points, ignored.origins, strict=True):
            want = atrandomize(fam.laws[fam.points[i]], split, nuisance=point_mass(split.v_bar_values[b]))
            assert ignored.laws[q].items == want.items
        marginals = {canonical_key(pushforward(f.laws[p], target.var)) for f in (fam, ignored) for p in f.points}
        assert len(marginals) == len(calls)

    @pytest.mark.parametrize("policy", [
        dirac_fix(), single_arbitrary(dist_new([(0, F(3, 4)), (1, F(1, 4))])), marginal_family(),
    ], ids=["dirac", "arbitrary_3_1", "marginal"])
    def test_restriction_sums_are_the_vectors_sums(self, policy):
        # on THREE_POINT the two nuisance values have different compatibility
        # sets, so the uniform law's restrictions have totals 3 and 1; the
        # weights 3/4 and 1/4 then scale both by 3, a factor the tables and
        # marginals summed from the restrictions divide out as the reduced
        # vectors do
        fam = Family(("p",), {"p": uniform(THREE_POINT)}, {"p": first})
        ignored = ignore_model(fam, make_split(fam, first, second), policy)
        for var in (first, second):  # a function of the v-code, and not
            code = fam.coded(var)[0]
            sums = [(d, key_sums(zip(map(code.__getitem__, ids), numerators))) for ids, numerators, d in ignored.vectors]
            assert ignored._sums([code] * len(ignored.points)) == sums
            assert ignored.marginals(code) == [summed(s.items(), d) for d, s in sums]

    @pytest.mark.parametrize("policy, dist", [
        (dirac_fix(), None),
        (single_arbitrary(dist_new([(0, F(3, 4)), (1, F(1, 4))])), {0: F(3, 4), 1: F(1, 4)}),
        (marginal_family(), None),
    ], ids=["dirac", "arbitrary_3_1", "marginal"])
    def test_ignored_laws_match_the_reference(self, policy, dist):
        # on THREE_POINT the uniform law's restrictions have totals 3 and 1,
        # which the 3/4-1/4 law scales by 3 each: every ignored law is the
        # naive reference's, and its sums by world id, by v and by v_bar are
        # those of the reference law over its least denominator
        laws = {"p": dict.fromkeys(THREE_POINT, F(1, 3)), "q": dict(zip(THREE_POINT, (F(1, 6), F(1, 3), F(1, 2))))}
        fam = Family(tuple(laws), {p: dist_new(list(law.items())) for p, law in laws.items()}, dict.fromkeys(laws, first))
        ignored = ignore_model(fam, make_split(fam, first, second), policy)
        want = reference.ignore(THREE_POINT, tuple(laws), laws, first, second, policy.kind, dist)
        assert set(want) == set(ignored.points)
        assert all(dict(ignored.laws[q].items) == want[q] for q in ignored.points)
        for code in (range(len(fam.worlds)), fam.coded(first)[0], fam.coded(second)[0]):
            sums = []
            for q in ignored.points:
                denominator = lcm(*(m.denominator for m in want[q].values()))
                sums.append((denominator, key_sums((code[fam.worlds.index(w)], m * denominator) for w, m in want[q].items())))
            assert ignored._sums([code] * len(ignored.points)) == sums

    @pytest.mark.parametrize("policy, want", [
        (dirac_fix, [(0, 0), (0, 1), (1, 0), (1, 1)]),
        (single_arbitrary, [(0, None), (1, None)]),
        (marginal_family, [(0, None), (1, None)]),
    ])
    def test_ignored_points_lead_to_their_origins(self, policy, want):
        # each ignored point's number leads to its original point's number
        # and the nuisance code it fixes, None when it fixes none
        fam = two_by_two_family()
        ignored = ignore_model(fam, make_split(fam, first, second), policy())
        assert ignored.origins == tuple(want) and fam.origins is None
        for q, (i, b) in zip(ignored.points, ignored.origins, strict=True):
            assert q[0] == fam.points[i] and ignored.obs[ignored.number[q]] is fam.obs[i]
            assert b is None or q[1] == (0, 1)[b]  # the value of `second` at code b


def _catalog_and_rungs():
    """(name, model text) of every catalog model and two small SRS rungs."""
    path = Path(__file__).parent.parent / "scripts" / "srs_ladder.py"
    spec = importlib.util.spec_from_file_location("srs_ladder", path)
    srs_ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(srs_ladder)
    rungs = [(f"srs_N{N}_n{n}", srs_ladder.rung_text(N, n)) for N, n in ((4, 3), (5, 2))]
    return sorted(CATALOG.items()) + rungs


MODELS = _catalog_and_rungs()


class TestWorldNumbering:
    @pytest.mark.parametrize("name, text", MODELS, ids=[name for name, _ in MODELS])
    def test_world_ids_from_the_space(self, name, text):
        build = parse_model(text).build()
        m = build.model
        space = m.world_space()
        yzs = sorted_distinct(yz for t in m.thetas for yz, _w in m.signal_law[t].items)
        mappings = sorted_distinct(
            r for k in m.designs.values() for _z, delta in k.entries for r, _w in delta.items
        )
        assert space == tuple(WorldState(y, z, r) for y, z in yzs for r in mappings)
        assert space == tuple(sorted(space, key=canonical_key))
        for i, (y, z) in enumerate(yzs):
            for j, r in enumerate(mappings):
                assert space[i * len(mappings) + j] == WorldState(y, z, r)
        fam = Family.from_survey_model(m, build.scheme)
        assert fam.worlds == space
        assert make_split(fam, build.v, build.v_bar).worlds is fam.worlds
        for theta, phi in m.grid:
            law = fam.laws[theta, phi]
            want = build_joint(m, theta, phi)
            assert dist_eq(law, want)
            assert law.items == want.items
            assert tuple(space[i] for i in fam.vectors[fam.number[theta, phi]][0]) == law.support()

    @pytest.mark.parametrize("policy", [dirac_fix, single_arbitrary, marginal_family])
    @pytest.mark.parametrize("name, text", MODELS, ids=[name for name, _ in MODELS])
    def test_tables_match_pushforward(self, name, text, policy):
        # observation and target tables read from the shared per-world codes
        # equal the pushforwards of each family's own laws
        build = parse_model(text).build()
        fam = Family.from_survey_model(build.model, build.scheme)
        ignored = ignore_model(fam, make_split(fam, build.v, build.v_bar), policy())
        for family in (fam, ignored):
            observed = {
                p: pushforward(family.laws[p], family.obs[family.number[p]]) for p in family.points
            }
            want = sorted_distinct(x for d in observed.values() for x in d.support())
            assert family.observation_support() == want
            for p, d in observed.items():
                denominator, table = family.observation_tables()[family.number[p]]
                assert sorted(table) == [family.observation_code(x) for x in d.support()]
                assert [F(table[c], denominator) for c in sorted(table)] == list(d.weights())
            if isinstance(build.target, MarginalFunctional):
                values = dict(zip(family.points, point_values(build.target, family)))
                for p in family.points:
                    law = pushforward(family.laws[p], build.target.var)
                    assert values[p] == build.target.fn(law)


class TestDistinctSplitAlgebra:
    def test_pair_reconstruction_is_bijective(self):
        # on a distinct split the value pair determines the world and every
        # pair of values is realized
        support = SQUARE
        split = split_on(support, first, second)
        assert split.status == DISTINCT_COMPLEMENT
        pairs = {(split.v(w), split.v_bar(w)) for w in support}
        assert len(pairs) == len(support)
        assert pairs == {(a, b) for a in (0, 1) for b in (0, 1)}

    def test_marginal_policy_set_equality_for_independent_family(self):
        # distinct margins per law: pairing each law with its own nuisance
        # marginal returns exactly the original family
        laws = {
            "p": product(bernoulli(F(1, 3)), bernoulli(F(1, 4))),
            "q": product(bernoulli(F(2, 3)), bernoulli(F(3, 4))),
        }
        fam = Family(("p", "q"), laws, {k: (lambda w: w[0]) for k in laws})
        split = make_split(fam, first, second)
        ignored = ignore_model(fam, split, marginal_family())
        assert ignored.points == (("p", "p"), ("q", "q"))
        got = {canonical_key_of(d) for d in ignored.laws.values()}
        want = {canonical_key_of(d) for d in laws.values()}
        assert got == want


def canonical_key_of(dist):
    from ignorability_lab.exactprob import canonical_key

    return canonical_key(dist)


from hypothesis import example, given
import hypothesis.strategies as st


class TestAtrandomizeProperties:
    @given(st.lists(st.integers(1, 9), min_size=4, max_size=4))
    def test_distinct_split_idempotence(self, loads):
        total = sum(loads)
        P = dist_new([(w, F(n, total)) for w, n in zip(SQUARE, loads)])
        split = split_on(SQUARE, first, second)
        once = atrandomize(P, split)
        assert dist_eq(atrandomize(once, split), once)

    @given(st.lists(st.integers(1, 9), min_size=3, max_size=3))
    def test_three_point_mass_conservation(self, loads):
        total = sum(loads)
        P = dist_new([(w, F(n, total)) for w, n in zip(THREE_POINT, loads)])
        split = split_on(THREE_POINT, first, second)
        out = atrandomize(P, split)
        assert sum(out.weights(), F(0)) == 1
        # the law of the process of interest within each nuisance class is
        # preserved up to the compatibility conditioning; total first-
        # marginal support never grows
        assert set(pushforward(out, first).support()) <= set(
            pushforward(P, first).support()
        )


def _oracle_atrandomize(support, table):
    """The ignore construction transcribed on dict weights: mix the
    Phi-conditioned first-coordinate laws against the law's own
    second-coordinate marginal; `support` is the space the split is
    classified on, `table` the positive weights."""
    marginal = {}
    for (_a, b), w in table.items():
        marginal[b] = marginal.get(b, F(0)) + w
    out = {}
    for b0, outer in marginal.items():
        compatible = {a for (a, b) in support if b == b0}
        phi = [(a, b) for (a, b) in support if a in compatible]
        mass = sum((table.get(p, F(0)) for p in phi), F(0))
        for (a, b) in phi:
            if table.get((a, b)):
                out[(a, b0)] = out.get((a, b0), F(0)) + outer * table[(a, b)] / mass
    return out


pair_supports = st.sets(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=2, max_size=9
).map(sorted)


@st.composite
def supported_laws(draw):
    """A support of 2-9 pairs and a law with random rational weights on a
    nonempty part of it."""
    support = draw(pair_supports)
    loads = draw(
        st.lists(st.integers(0, 9), min_size=len(support), max_size=len(support))
        .filter(any)
    )
    total = sum(loads)
    table = {w: F(n, total) for w, n in zip(support, loads) if n}
    return support, table


class TestIgnoreProperties:
    @given(supported_laws())
    def test_atrandomize_matches_phi_construction(self, case):
        support, table = case
        split = split_on(support, first, second)
        assert split.is_complement()
        got = atrandomize(dist_new(list(table.items())), split)
        want = dist_new(list(_oracle_atrandomize(support, table).items()))
        # same atoms, same weights, same canonical item order
        assert got.items == want.items

    @given(pair_supports)
    def test_phi_set_is_its_definition(self, support):
        split = split_on(support, first, second)
        for b in {w[1] for w in support}:
            compatible = {w[0] for w in support if w[1] == b}
            want = tuple(w for w in support if w[0] in compatible)
            assert phi_set(b, split) == want

    @given(
        st.integers(1, 3),
        st.integers(1, 3),
        st.lists(st.integers(1, 9), min_size=9, max_size=9),
    )
    def test_idempotent_on_distinct_complements(self, n_first, n_second, loads):
        support = [(a, b) for a in range(n_first) for b in range(n_second)]
        total = sum(loads[: len(support)])
        P = dist_new([(w, F(n, total)) for w, n in zip(support, loads)])
        split = split_on(support, first, second)
        assert split.status == DISTINCT_COMPLEMENT
        once = atrandomize(P, split)
        assert dist_eq(atrandomize(once, split), once)

    @given(st.data())
    def test_marginal_policy_returns_independent_laws_unchanged(self, data):
        # 1-4 points, each law the product of its own margins on the full
        # product space, no two points with the same pair of margins; the
        # nuisance margins put mass on every value, so every compatibility
        # set has mass
        n_first, n_second = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))

        def margin(size, low):
            return st.lists(st.integers(low, 4), min_size=size, max_size=size).filter(any).map(
                lambda loads: tuple(F(n, sum(loads)) for n in loads))

        margins = data.draw(st.lists(st.tuples(margin(n_first, 0), margin(n_second, 1)),
                                     min_size=1, max_size=4, unique=True))
        laws = {p: product(dist_new(enumerate(mv)), dist_new(enumerate(mb))) for p, (mv, mb) in enumerate(margins)}
        space = [(a, b) for a in range(n_first) for b in range(n_second)]
        fam = Family(tuple(laws), laws, {p: (lambda w: w[0]) for p in laws}, space=space)
        ignored = ignore_model(fam, make_split(fam, first, second), marginal_family())
        for p in fam.points:
            assert ignored.vectors[ignored.number[p, p]] == fam.vectors[fam.number[p]]


@st.composite
def split_supports(draw):
    """A support of (a, b, c) triples to split by (a, b): 2-9 distinct
    pairs with c = 0, and up to two of them again with c = 1, which makes
    two worlds share a pair."""
    pairs = draw(pair_supports)
    doubled = draw(st.sets(st.sampled_from(pairs), max_size=2))
    return sorted([(a, b, 0) for a, b in pairs] + [(a, b, 1) for a, b in doubled])


class TestSplitLayout:
    """`make_split`'s status and the split's per-nuisance layout against
    their definitions."""

    @given(split_supports())
    @example([(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)])  # a distinct complement
    @example([(0, 0, 0), (0, 1, 0), (1, 0, 0)])  # a plain complement
    @example([(0, 0, 0), (0, 0, 1), (1, 1, 0)])  # two worlds share a pair
    def test_status_and_worlds_of_are_their_definitions(self, support):
        split = split_on(support, first, second)
        pairs = {(a, b) for a, b, _c in support}
        if len(pairs) < len(support):
            status = NOT_COMPLEMENT
        elif len(pairs) == len({a for a, _b in pairs}) * len({b for _a, b in pairs}):
            status = DISTINCT_COMPLEMENT
        else:
            status = COMPLEMENT
        assert split.status == status
        # worlds of nuisance value b: their ids ascending, with the rank of
        # each one's first value among the distinct first values
        firsts = sorted({a for a, _b, _c in support})
        assert split.worlds == tuple(support)
        assert split.v_bar_values == tuple(sorted({b for _a, b, _c in support}))
        for code, b in enumerate(split.v_bar_values):
            ids = tuple(i for i, w in enumerate(support) if w[1] == b)
            assert split.worlds_of[code] == (ids, tuple(firsts.index(support[i][0]) for i in ids))
        assert len(split.worlds_of) == len(split.v_bar_values)


class TestCompatibilityPass:
    """Each law's restriction to each distinct compatibility set is built by
    one scan of that set, shared by every nuisance value that has it."""

    @staticmethod
    def counted(split):
        """The split with each compatibility set a tuple that counts the
        scans of all of them in `scans`."""
        scans = []

        class Counted(tuple):
            def __iter__(self):
                scans.append(self)
                return super().__iter__()

        return replace(split, compatible=tuple(Counted(c) for c in split.compatible)), scans

    @pytest.mark.parametrize("policy", [dirac_fix, single_arbitrary, marginal_family])
    def test_one_scan_per_law_on_a_distinct_complement(self, policy):
        # three nuisance values share the one compatibility set
        support = [(a, b) for a in range(2) for b in range(3)]
        laws = {p: dist_new([(w, F(n, sum(loads))) for w, n in zip(support, loads)])
                for p, loads in (("p", (1, 2, 3, 4, 5, 6)), ("q", (6, 1, 1, 1, 1, 2)))}
        fam = Family(("p", "q"), laws, {p: first for p in laws})
        split = make_split(fam, first, second)
        assert split.status == DISTINCT_COMPLEMENT and len(split.v_bar_values) == 3
        counted, scans = self.counted(split)
        ignored = ignore_model(fam, counted, policy())
        assert len(scans) == 2
        uncounted = ignore_model(fam, split, policy())
        assert {q: ignored.vectors[i] for q, i in ignored.number.items()} == \
            {q: uncounted.vectors[i] for q, i in uncounted.number.items()}

    def test_one_scan_per_distinct_set(self):
        # Phi(0) = Phi(1) over first values {0, 1}, Phi(2) over {2}: two
        # distinct sets, scanned once each by atrandomize
        split = split_on(((0, 0), (0, 1), (1, 0), (1, 1), (2, 2)), first, second)
        P = dist_new([((0, 0), F(1, 4)), ((1, 1), F(1, 4)), ((2, 2), F(1, 2))])
        counted, scans = self.counted(split)
        assert dist_eq(atrandomize(P, counted, nuisance=point_mass(1)), atrandomize(P, split, nuisance=point_mass(1)))
        assert len(scans) == 2


class TestIgnoreSizeCap:
    @pytest.mark.parametrize(
        "policy, cap, message",
        [
            # the restriction to Phi(0), whose v-codes are both first values
            (dirac_fix, 1, "support of size 2 exceeds cap 1"),
            # the mixed law: two worlds from Phi(0), one from Phi(1)
            (single_arbitrary, 2, "support of size 3 exceeds cap 2"),
            # the law's own nuisance marginal, over its three atoms, is built
            # before the mixed law of 2 + 1 worlds
            (marginal_family, 2, "support of size 3 exceeds cap 2"),
        ],
    )
    def test_cap_below_ignored_law(self, monkeypatch, policy, cap, message):
        fam = Family(("p",), {"p": uniform(THREE_POINT)}, {"p": lambda w: w[0]})
        split = make_split(fam, first, second)
        monkeypatch.setenv("IGNORABILITY_LAB_MAX_SUPPORT", str(cap))
        with pytest.raises(ModelTooLarge) as info:
            ignore_model(fam, split, policy())
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "cap, message",
        [
            # the restriction to Phi(0), whose v-codes are both first values
            (1, "support of size 2 exceeds cap 1"),
            # the law mixed against its own nuisance marginal: two worlds
            # from Phi(0), one from Phi(1)
            (2, "support of size 3 exceeds cap 2"),
        ],
    )
    def test_cap_below_atrandomize(self, monkeypatch, cap, message):
        P = uniform(THREE_POINT)
        split = split_on(THREE_POINT, first, second)
        monkeypatch.setenv("IGNORABILITY_LAB_MAX_SUPPORT", str(cap))
        with pytest.raises(ModelTooLarge) as info:
            atrandomize(P, split)
        assert str(info.value) == message

    def test_atrandomize_zero_mass_before_cap(self, monkeypatch):
        # the zero-mass set is found before the mixed law of two worlds
        # meets a cap of 1, each restriction being within it
        split = split_on(((0, 0), (1, 1), (2, 2)), first, second)
        P = dist_new([((0, 0), F(1, 2)), ((1, 1), F(1, 2))])
        all_three, first_two = uniform([0, 1, 2]), uniform([0, 1])  # built under the default cap
        monkeypatch.setenv("IGNORABILITY_LAB_MAX_SUPPORT", "1")
        with pytest.raises(ZeroMassPhiSet, match=r"^compatibility set of second=2 has zero mass$"):
            atrandomize(P, split, nuisance=all_three)
        with pytest.raises(ModelTooLarge, match="^support of size 2 exceeds cap 1$"):
            atrandomize(P, split, nuisance=first_two)


class TestTargets:
    def test_predictand_passes_through(self):
        fam = two_by_two_family()
        split = make_split(fam, first, second)
        ignored = ignore_model(fam, split, dirac_fix())
        t = Predictand("first_coord", lambda w: w[0])
        assert transform_target(t, fam, ignored) is t

    def test_marginal_functional_same_formula(self):
        fam = two_by_two_family()
        split = make_split(fam, first, second)
        ignored = ignore_model(fam, split, marginal_family())
        t = MarginalFunctional("first_law", first, lambda d: d)
        values = dict(zip(fam.points, point_values(t, fam)))
        starred = dict(zip(ignored.points, point_values(transform_target(t, fam, ignored), ignored)))
        for label in ("p", "q"):
            assert dist_eq(values[label], starred[(label, label)])

    def test_parameter_function_restriction_fails_off_family(self):
        fam = two_by_two_family()
        split = make_split(fam, first, second)
        ignored = ignore_model(fam, split, dirac_fix())
        t = ParameterFunction("index", lambda p: p)
        with pytest.raises(TargetNotTransformable):
            transform_target(t, fam, ignored)

    def test_unsupported_target(self):
        fam = two_by_two_family()
        ignored = ignore_model(fam, make_split(fam, first, second), dirac_fix())
        with pytest.raises(TargetNotTransformable, match="^unsupported target 'mean'$"):
            transform_target("mean", fam, ignored)

    def test_parameter_function_restriction_succeeds_on_subset(self):
        laws = {
            "p": product(bernoulli(F(1, 3)), bernoulli(F(1, 2))),
            "q": product(bernoulli(F(2, 3)), bernoulli(F(1, 2))),
        }
        fam = Family(("p", "q"), laws, {k: (lambda w: w[0]) for k in laws})
        split = make_split(fam, first, second)
        ignored = ignore_model(fam, split, marginal_family())
        t = ParameterFunction("index", lambda p: p)
        t_star = transform_target(t, fam, ignored)
        assert t_star.fn(("p", "p")) == "p"
        assert t_star.fn(("q", "q")) == "q"

    @pytest.mark.parametrize("raises", ["on_the_second_law", "on_the_first_call"])
    def test_raising_target_leaves_no_values(self, raises):
        # a target that raises part way through leaves nothing behind: the
        # next query evaluates every law afresh, and raises again or gives
        # the value of every point
        fam = two_by_two_family()
        q_law = pushforward(fam.laws["q"], first)
        calls = []

        def fn(d):
            calls.append(d)
            if dist_eq(d, q_law) if raises == "on_the_second_law" else len(calls) == 1:
                raise ValueError("no value")
            return d

        t = MarginalFunctional("first_law", first, fn)
        with pytest.raises(ValueError):
            point_values(t, fam)
        if raises == "on_the_second_law":
            with pytest.raises(ValueError):
                point_values(t, fam)
            assert len(calls) == 2 + 2
        else:
            values = dict(zip(fam.points, point_values(t, fam)))
            assert sorted(values) == ["p", "q"]
            for p in fam.points:
                assert dist_eq(values[p], pushforward(fam.laws[p], first))

    def test_predictand_has_no_point_value(self):
        fam = two_by_two_family()
        with pytest.raises(TargetNotTransformable):
            point_values(Predictand("w0", lambda w: w[0]), fam)


def test_unknown_nuisance_policy():
    with pytest.raises(EngineError, match="^unknown nuisance policy 'bogus'$"):
        NuisancePolicy("bogus")
