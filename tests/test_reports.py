"""Canonical JSON: the one-pass writer `machine_json` against the standard
library's encoder over `to_jsonable`."""

import json
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings

from ignorability_lab.exactprob import FiniteDist
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
    assert machine_json([float("nan"), float("-inf"), 0.5]) == "[\n NaN,\n -Infinity,\n 0.5\n]"
