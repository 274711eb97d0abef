"""Canonical JSON: the one-pass writer `machine_json` against the standard
library's encoder over `to_jsonable`."""

import collections
import dataclasses
import enum
import json
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings

from ignorability_lab.exactprob import FiniteDist
from ignorability_lab.ignorance import NuisancePolicy, RandomVariableRef
from ignorability_lab.reports import machine_json, to_jsonable
from ignorability_lab.sampling import WorldState


def reference(value) -> str:
    """The canonical form as the standard library writes it."""
    return json.dumps(to_jsonable(value), sort_keys=True, separators=(",", ": "), indent=1)


texts = st.one_of(
    st.text(max_size=6),  # any code point: non-ASCII, controls, quotes, backslashes
    st.sampled_from(["", "\x00", "\n\t\"\\", "\x7f", "é", " ", "🎲", "1/2"]),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([True, 1, False, 0, -1]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.fractions(),
    texts,
)
# str(k) collides for 1 and "1", and sorts 10 before 9
keys = st.one_of(st.integers(-12, 12), st.integers(-12, 12).map(str), texts)


def containers(children):
    small = st.lists(children, max_size=4)
    return st.one_of(
        small,
        small.map(tuple),
        st.dictionaries(keys, children, max_size=5),
        # the writer does not read whether a law is normalised, so any
        # weights will do
        st.lists(st.tuples(children, st.fractions()), max_size=3).map(
            lambda items: FiniteDist(tuple(items))
        ),
        st.tuples(small.map(tuple), children, small.map(tuple)).map(
            lambda yzr: WorldState(*yzr)
        ),
    )


values = st.recursive(scalars, containers, max_leaves=25)


@settings(max_examples=200, deadline=None)
@given(values)
def test_machine_json_is_the_reference_encoding(value):
    assert machine_json(value) == reference(value)


def test_empty_and_colliding_containers():
    value = {1: [], "1": {}, 10: (), 9: [[], {}], "é": [Fraction(-1, 3), True, 1]}
    assert machine_json(value) == reference(value)
    assert machine_json(value) == (
        '{\n "1": {},\n "10": [],\n "9": [\n  [],\n  {}\n ],\n'
        ' "\\u00e9": [\n  "-1/3",\n  true,\n  1\n ]\n}'
    )


def test_engine_types():
    world = WorldState((1, 0), (1, 0), (2,))
    law = FiniteDist(((world, Fraction(1, 2)), ((0, 1), Fraction(1, 2))))
    assert machine_json(law) == reference(law)
    assert machine_json([float("nan"), float("-inf"), float("inf"), 0.5]) == (
        "[\n NaN,\n -Infinity,\n Infinity,\n 0.5\n]"
    )


@st.composite
def shared_engine_values(draw):
    """A payload in which one world and one law that holds it each appear
    several times, at different depths and so at different indents."""
    short = st.lists(scalars, max_size=3).map(tuple)
    world = WorldState(draw(short), draw(scalars), draw(short))
    law = FiniteDist(((world, Fraction(1, 3)), (draw(scalars), Fraction(2, 3))))
    leaves = st.one_of(scalars, st.just(law), st.just(world))
    rest = draw(st.recursive(leaves, containers, max_leaves=25))
    return [law, world, {"a": [law, (world,)], "b": {"c": [[law]]}}, rest, law]


@settings(max_examples=200, deadline=None)
@given(shared_engine_values())
def test_repeated_law_and_world_match_the_reference(value):
    assert machine_json(value) == reference(value)


def test_subclasses_take_the_general_path():
    class Colour(enum.IntEnum):
        RED = 3

    class Label(str):
        pass

    Pair = collections.namedtuple("Pair", "left right")
    value = collections.OrderedDict(
        [("z", Colour.RED), (Label("k"), Pair(Label("é"), True)), (2, [False, Colour.RED])]
    )
    assert machine_json(value) == reference(value)
    assert machine_json(value) == (
        '{\n "2": [\n  false,\n  3\n ],\n "k": [\n  "\\u00e9",\n  true\n ],\n "z": 3\n}'
    )


def test_two_calls_give_the_same_bytes():
    world = WorldState((1, 0), 2, (1,))
    law = FiniteDist(((world, Fraction(1, 2)), ((0, 1), Fraction(1, 2))))
    payload = {"rows": [[law, world]] * 3, "law": law, "deep": [[[law]]]}
    first = machine_json(payload)
    assert machine_json(payload) == first == reference(payload)


def test_to_jsonable_converts_a_nested_law_field_by_field():
    @dataclasses.dataclass(frozen=True)
    class Box:
        law: FiniteDist
        rule: object = len  # a callable field is left out

    law = FiniteDist((((0, 1), Fraction(1, 4)), ((1, 0), Fraction(3, 4))))
    assert to_jsonable(Box(law)) == {"law": to_jsonable(law)}
    assert machine_json(Box(law)) == machine_json({"law": law})


def test_to_jsonable_converts_an_engine_record_field_by_field():
    # an engine record is no dataclass: it takes its own branch
    law = FiniteDist((((0, 1), Fraction(1, 4)), ((1, 0), Fraction(3, 4))))
    policy = NuisancePolicy("single_arbitrary", law)
    assert to_jsonable(policy) == {"kind": "single_arbitrary", "dist": to_jsonable(law)}
    assert to_jsonable(RandomVariableRef("first", len)) == {"name": "first", "reads": None}
    assert machine_json(policy) == reference(policy)
