"""Exact-probability kernel: frozen examples and algebraic properties."""

from collections import namedtuple
from enum import IntEnum
from fractions import Fraction as F

import pytest
from hypothesis import given
import hypothesis.strategies as st

from reference import dist_eq
from ignorability_lab.exactprob import (
    IncomparableOutcomes,
    Kernel,
    MissingKernelEntry,
    ModelTooLarge,
    NegativeWeight,
    NonUnitMass,
    ZeroProbabilityEvent,
    as_rational,
    bernoulli,
    canonical_key,
    condition,
    dist_new,
    expectation,
    point_mass,
    product,
    pushforward,
    uniform,
)


def weights_strategy(max_atoms=6):
    """Positive integer loads normalized to exact rational weights."""
    return st.lists(st.integers(1, 9), min_size=1, max_size=max_atoms)


def dist_from_loads(loads, outcomes=None):
    total = sum(loads)
    if outcomes is None:
        outcomes = range(len(loads))
    return dist_new([(o, F(w, total)) for o, w in zip(outcomes, loads)])


class TestDistNew:
    def test_uniform_coin(self):
        d = dist_new([("H", F(1, 2)), ("T", F(1, 2))])
        assert d.mass("H") == F(1, 2)
        assert d.mass("T") == F(1, 2)

    def test_duplicates_merge(self):
        d = dist_new([("a", F(1, 3)), ("a", F(1, 3)), ("b", F(1, 3))])
        assert d.mass("a") == F(2, 3)
        assert d.mass("b") == F(1, 3)
        assert len(d) == 2

    def test_mass_deficit(self):
        with pytest.raises(NonUnitMass):
            dist_new([("a", F(1, 2))])

    def test_mass_excess(self):
        with pytest.raises(NonUnitMass):
            dist_new([("a", F(1, 2)), ("b", F(2, 3))])

    def test_negative_weight(self):
        with pytest.raises(NegativeWeight):
            dist_new([("a", F(3, 2)), ("b", F(-1, 2))])

    def test_zero_atoms_dropped(self):
        d = dist_new([("a", F(1)), ("b", F(0))])
        assert d.support() == ("a",)

    def test_float_weight_rejected(self):
        with pytest.raises(IncomparableOutcomes):
            dist_new([("a", 0.5), ("b", 0.5)])

    def test_float_outcome_rejected(self):
        with pytest.raises(IncomparableOutcomes):
            dist_new([(0.5, F(1))])

    def test_support_cap(self, monkeypatch):
        monkeypatch.setenv("IGNORABILITY_LAB_MAX_SUPPORT", "3")
        with pytest.raises(ModelTooLarge):
            uniform(range(4))
        assert len(uniform(range(3))) == 3


class TestPushforward:
    def test_parity_of_uniform(self):
        d = uniform([1, 2, 3, 4])
        f = lambda n: "even" if n % 2 == 0 else "odd"
        assert dist_eq(
            pushforward(d, f), dist_new([("even", F(1, 2)), ("odd", F(1, 2))])
        )

    def test_identity(self):
        d = dist_from_loads([1, 2, 3])
        assert dist_eq(pushforward(d, lambda o: o), d)

    def test_max_of_two_uniform(self):
        # frozen by enumerating all 4 pairs: max=1 only for (1,1)
        d = uniform([(a, b) for a in (1, 2) for b in (1, 2)])
        pushed = pushforward(d, lambda p: max(p))
        assert dist_eq(pushed, dist_new([(1, F(1, 4)), (2, F(3, 4))]))

    @given(weights_strategy())
    def test_functoriality(self, loads):
        d = dist_from_loads(loads)
        f = lambda n: n % 3
        g = lambda n: n * 2
        assert dist_eq(
            pushforward(pushforward(d, f), g), pushforward(d, lambda n: g(f(n)))
        )


class TestCondition:
    def test_uniform_tail(self):
        d = uniform([1, 2, 3, 4])
        assert dist_eq(condition(d, lambda n: n > 2), uniform([3, 4]))

    def test_always_true(self):
        d = dist_from_loads([2, 5, 1])
        assert dist_eq(condition(d, lambda _: True), d)

    def test_zero_probability_event(self):
        d = dist_new([("a", F(1, 2)), ("b", F(1, 2))])
        with pytest.raises(ZeroProbabilityEvent):
            condition(d, lambda o: o == "c")

    @given(weights_strategy())
    def test_chain_rule(self, loads):
        # conditioning then scaling back by the event mass restores the
        # distribution on the event
        d = dist_from_loads(loads)
        event = lambda n: n % 2 == 0
        mass = d.event_mass(event)
        if mass == 0:
            return
        restricted = condition(d, event)
        for o in restricted.support():
            assert restricted.mass(o) * mass == d.mass(o)


class TestProduct:
    def test_two_fair_coins(self):
        d = product(bernoulli(F(1, 2)), bernoulli(F(1, 2)))
        assert dist_eq(d, uniform([(a, b) for a in (0, 1) for b in (0, 1)]))

    def test_point_mass_relabel(self):
        d = dist_from_loads([1, 3])
        paired = product(d, point_mass("z"))
        assert dist_eq(pushforward(paired, lambda p: p[0]), d)

    def test_weight_product(self):
        d = product(bernoulli(F(1, 3)), bernoulli(F(1, 4)))
        assert d.mass((1, 1)) == F(1, 12)

    @given(weights_strategy(4), weights_strategy(4))
    def test_marginals(self, la, lb):
        a = dist_from_loads(la)
        b = dist_from_loads(lb, outcomes=[f"b{i}" for i in range(len(lb))])
        p = product(a, b)
        assert dist_eq(pushforward(p, lambda q: q[0]), a)
        assert dist_eq(pushforward(p, lambda q: q[1]), b)


class TestExpectation:
    def test_uniform_binary(self):
        assert expectation(uniform([0, 1]), lambda n: n) == F(1, 2)

    def test_point(self):
        assert expectation(point_mass(7), lambda n: n) == 7

    def test_weighted(self):
        d = dist_new([(0, F(1, 4)), (2, F(3, 4))])
        assert expectation(d, lambda n: n) == F(3, 2)


class TestEqualityAndTV:
    def test_self_equal(self):
        d = dist_from_loads([1, 2, 3])
        assert dist_eq(d, d)

    def test_bernoullis(self):
        a, b = bernoulli(F(1, 2)), bernoulli(F(1, 3))
        assert not dist_eq(a, b)

    def test_permuted_supports(self):
        a = dist_new([("x", F(1, 3)), ("y", F(2, 3))])
        b = dist_new([("y", F(2, 3)), ("x", F(1, 3))])
        assert dist_eq(a, b)
        assert a == b  # canonical form makes structural equality hold too

    @given(weights_strategy())
    def test_mass_conservation(self, loads):
        d = dist_from_loads(loads)
        assert sum(d.weights(), F(0)) == 1


class TestCanonicalKey:
    def test_total_order_across_types(self):
        values = [None, 0, F(1, 2), 1, "a", (1, 2), ("a",)]
        keys = [canonical_key(v) for v in values]
        assert sorted(keys) == keys

    def test_nested(self):
        assert canonical_key((1, (2, "x"))) == canonical_key((1, (2, "x")))
        assert canonical_key((1,)) != canonical_key((1, 1))

    def test_dict_rejected(self):
        with pytest.raises(IncomparableOutcomes):
            canonical_key({"a": 1})

    def test_dist_as_outcome(self):
        outer = uniform([bernoulli(F(1, 2)), bernoulli(F(1, 3))])
        assert len(outer) == 2


def fraction_key(value):
    """Reference key: canonical_key with every bool, int and Fraction
    wrapped in a Fraction."""
    if value is None:
        return (0,)
    if isinstance(value, bool):
        return (1, F(int(value)))
    if isinstance(value, (int, F)):
        return (1, F(value))
    if isinstance(value, str):
        return (2, value)
    return (3, tuple(fraction_key(v) for v in value))


# small ranges, so that equal numbers of different types (True, 1, F(1))
# turn up often
canonical_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-2, 2),
        st.fractions(min_value=-2, max_value=2, max_denominator=3),
        st.text("ab", max_size=2),
    ),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=8,
)


def isinstance_chain_key(value):
    """Frozen reference: canonical_key as one isinstance chain, the form it
    had before any exact-type shortcut."""
    if value is None:
        return (0,)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, F)):
        return (1, value)
    if isinstance(value, str):
        return (2, value)
    if isinstance(value, (tuple, list)):
        return (3, tuple(isinstance_chain_key(v) for v in value))
    method = getattr(value, "canonical_key", None)
    if method is not None:
        return method()
    raise IncomparableOutcomes(f"no canonical order for {value!r}")


def same_key(a, b) -> bool:
    """Equal keys built from the same types all the way down (so an IntEnum
    member kept in a key does not pass for its plain int)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, tuple):
        return len(a) == len(b) and all(same_key(x, y) for x, y in zip(a, b))
    return a == b


class Level(IntEnum):
    LOW = 0
    HIGH = 1


class Half(F):
    """A Fraction subclass."""


Pair = namedtuple("Pair", "left right")

# bools, IntEnum members, Fraction subclasses, namedtuples and lists, nested
subclassed_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-2, 2),
        st.sampled_from(list(Level)),
        st.fractions(min_value=-2, max_value=2, max_denominator=3),
        st.fractions(min_value=-2, max_value=2, max_denominator=3).map(Half),
        st.text("ab", max_size=2),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.tuples(inner, inner).map(lambda t: Pair(*t)),
    ),
    max_leaves=8,
)


class TestPlainNumberKeys:
    @given(canonical_values, canonical_values)
    def test_same_equality_hash_and_order_as_fraction_keys(self, a, b):
        ka, kb = canonical_key(a), canonical_key(b)
        ra, rb = fraction_key(a), fraction_key(b)
        assert ka == ra and hash(ka) == hash(ra)
        assert (ka == kb) == (ra == rb)
        if ka == kb:
            assert hash(ka) == hash(kb)
        assert (ka < kb) == (ra < rb)

    @given(st.lists(canonical_values, max_size=8))
    def test_same_sort_and_merge_as_fraction_keys(self, values):
        positions = range(len(values))
        assert sorted(positions, key=lambda i: canonical_key(values[i])) == sorted(
            positions, key=lambda i: fraction_key(values[i])
        )
        assert len({canonical_key(v) for v in values}) == len({fraction_key(v) for v in values})

    @given(subclassed_values)
    def test_subclasses_keep_the_key_of_the_isinstance_chain(self, value):
        key, frozen = canonical_key(value), isinstance_chain_key(value)
        assert same_key(key, frozen) and hash(key) == hash(frozen)


class TestKernelIndex:
    @staticmethod
    def kernel(rule=None):
        return Kernel.from_mapping({"a": bernoulli(F(1, 3)), 1: point_mass("r")}, rule=rule)

    def test_lookup_leaves_equality_and_hash(self):
        k, twin = self.kernel(), self.kernel()
        assert dist_eq(k.get(F(1)), point_mass("r"))
        assert dist_eq(k.get(True), point_mass("r"))
        assert k == twin and hash(k) == hash(twin) and repr(k) == repr(twin)
        assert {twin: "found"}[k] == "found"

    def test_materialize_keeps_one_object_per_distinct_law(self):
        # a rule that builds a fresh law per call: equal laws become the
        # first one, also across calls that share `laws`; a law whose
        # outcomes cannot be hashed is kept as it is
        keyed = lambda values: {canonical_key(v): v for v in values}
        parity = Kernel.from_rule(lambda v: point_mass(v % 2))
        laws = {}
        table = parity.materialize(keyed([3, 2, 1, 0]), laws)
        assert table == Kernel.from_mapping({v: point_mass(v % 2) for v in range(4)})
        assert table.get(0) is table.get(2) is not table.get(1) is table.get(3)
        assert parity.materialize(keyed([5]), laws).get(5) is table.get(1)
        listed = Kernel.from_rule(lambda v: point_mass([v % 2])).materialize(keyed(range(3)))
        assert dist_eq(listed.get(0), listed.get(2)) and listed.get(0) is not listed.get(2)

    def test_rule_fallback_and_missing_entry(self):
        k = self.kernel(rule=lambda v: point_mass(("rule", v)))
        assert dist_eq(k.get("a"), bernoulli(F(1, 3)))
        assert dist_eq(k.get("b"), point_mass(("rule", "b")))
        with pytest.raises(MissingKernelEntry, match="kernel has no entry for 'b'"):
            self.kernel().get("b")
        bad = self.kernel(rule=lambda v: "not a dist")
        assert dist_eq(bad.get("a"), bernoulli(F(1, 3)))
        with pytest.raises(MissingKernelEntry, match="rule returned non-distribution for 'b'"):
            bad.get("b")


class TestRefusedAndOffSupport:
    def test_as_rational(self):
        assert as_rational("2/6") == F(1, 3)
        with pytest.raises(IncomparableOutcomes, match="^bool is not a probability value$"):
            as_rational(True)

    def test_str_subclass_keys_as_its_text(self):
        class Word(str):
            pass

        assert canonical_key(Word("hi")) == canonical_key("hi") == (2, "hi")

    def test_mass_off_the_support(self):
        assert bernoulli(F(1, 3)).mass(2) == 0
        assert bernoulli(F(1, 3)).mass(1) == F(1, 3)

    def test_uniform_on_nothing(self):
        with pytest.raises(NonUnitMass, match="^uniform distribution needs a nonempty support$"):
            uniform([])

    def test_from_mapping_refusals(self):
        with pytest.raises(IncomparableOutcomes, match="^duplicate kernel input 1$"):
            Kernel.from_mapping([(1, point_mass(0)), (1, point_mass(1))])
        with pytest.raises(MissingKernelEntry, match="^kernel value for 'a' is not a FiniteDist$"):
            Kernel.from_mapping({"a": 0})
