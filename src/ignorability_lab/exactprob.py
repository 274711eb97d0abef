"""Exact finite probability kernel.

Distributions over explicit finite supports with rational weights that sum
to exactly 1.  Everything downstream (sampling designs, likelihoods, the
ignorable/informative classifier) is built on the operations here, and the
classifier's verdicts are equalities of distributions, so no floating point
is allowed anywhere in this module.  Weights are `fractions.Fraction`.

Outcomes can be any "canonical value": None, bool, int, Fraction, str,
tuples of canonical values, or objects exposing a ``canonical_key()``
method.  A canonical value has a total order (see `canonical_key`), which
gives every support a unique normal form and makes distribution equality
structural.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Callable, Iterable

DEFAULT_SUPPORT_CAP = 10**6
SUPPORT_CAP_ENV = "IGNORABILITY_LAB_MAX_SUPPORT"


class EngineError(Exception):
    """Base class for all engine errors."""


class NonUnitMass(EngineError):
    """Weights of a distribution do not sum to exactly 1."""


class NegativeWeight(EngineError):
    """A distribution weight is negative."""


class ZeroProbabilityEvent(EngineError):
    """Conditioning on an event of exactly zero mass."""


class MissingKernelEntry(EngineError):
    """A kernel was applied to a value it is not defined on."""


class IncomparableOutcomes(EngineError):
    """An outcome is not a canonical value (e.g. a float or a dict)."""


class ModelTooLarge(EngineError):
    """An operation would build a support larger than the configured cap."""


def support_cap() -> int:
    """Current support-size guardrail (env `IGNORABILITY_LAB_MAX_SUPPORT`)."""
    raw = os.environ.get(SUPPORT_CAP_ENV)
    if raw is None:
        return DEFAULT_SUPPORT_CAP
    try:
        return int(raw)
    except ValueError:
        raise EngineError(f"{SUPPORT_CAP_ENV} must be an integer, got {raw!r}") from None


def check_size(n: int, what: str = "support", cap: int | None = None) -> None:
    cap = support_cap() if cap is None else cap
    if n > cap:
        raise ModelTooLarge(f"{what} of size {n} exceeds cap {cap}")


def as_rational(value) -> Fraction:
    """Coerce to an exact Fraction.  Floats are rejected, never rounded."""
    if type(value) is Fraction:  # immutable: no copy needed
        return value
    if isinstance(value, bool):
        raise IncomparableOutcomes("bool is not a probability value")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise IncomparableOutcomes(
        f"exact rational required, got {type(value).__name__}: {value!r}"
    )


def canonical_key(value):
    """Total-order key for canonical values.

    Ranks: None < numbers < strings < tuples < keyed objects.  Tuples are
    compared elementwise by key, so nested structures order lexicographically
    over their structural encoding.

    A number keeps its type in the key (a bool becomes its int): no
    Fraction is built per key.  An int and a Fraction of equal value
    compare equal and hash equal, so their keys still merge in dicts and
    sets and sort as the numbers do.

    The four common exact types are tested first; every other value,
    subclasses of those included, takes the isinstance chain below and
    gets the key that chain gives.
    """
    cls = type(value)
    if cls is tuple:
        return (3, tuple([canonical_key(v) for v in value]))
    if cls is int or cls is Fraction:
        return (1, value)
    if cls is str:
        return (2, value)
    if value is None:
        return (0,)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, Fraction)):
        return (1, value)
    if isinstance(value, str):
        return (2, value)
    if isinstance(value, (tuple, list)):
        return (3, tuple(canonical_key(v) for v in value))
    method = getattr(value, "canonical_key", None)
    if method is not None:
        return method()
    raise IncomparableOutcomes(
        f"outcome {value!r} of type {type(value).__name__} has no canonical order"
    )


def item_keys(key) -> tuple:
    """The items' canonical keys held in the canonical key of a tuple."""
    return key[1]


def tuple_key(keys) -> tuple:
    """The canonical key of a tuple whose items' canonical keys are `keys`."""
    return (3, tuple(keys))


def sorted_distinct(values: Iterable) -> tuple:
    """The values with distinct canonical_keys, the first of each kept, in
    canonical_key order."""
    keyed = {}
    for v in values:
        keyed.setdefault(canonical_key(v), v)
    return tuple(keyed[k] for k in sorted(keyed))


def numbering(keys: list) -> tuple:
    """(codes, firsts): each key's code among the distinct keys, sorted,
    and by code the position where it first occurs; one hash per key."""
    first = {}
    positions = [first.setdefault(k, i) for i, k in enumerate(keys)]  # each key's first position
    firsts = sorted(first.values(), key=keys.__getitem__)
    code = {i: c for c, i in enumerate(firsts)}
    return [code[i] for i in positions], firsts


def integer_masses(weights) -> tuple:
    """(numerators, denominator): Fractions as integers over their lcm."""
    denominator = lcm(*(w.denominator for w in weights))
    return [w.numerator * (denominator // w.denominator) for w in weights], denominator


def reduced(ids, numerators, denominator) -> tuple:
    """The integer mass vector (ids, numerators, denominator) of a law over
    the gcd of its numerators, which sum to the denominator: equal laws on
    equal ids give equal vectors."""
    g = gcd(*numerators)
    return tuple(ids), tuple(n // g for n in numerators), denominator // g


def key_sums(pairs) -> dict:
    """{key: summed mass} of (key, mass) pairs, in first-seen key order."""
    sums = {}
    for k, n in pairs:
        sums[k] = sums.get(k, 0) + n
    return sums


def summed(pairs, denominator) -> tuple:
    """The reduced integer mass vector of (key, integer mass) pairs, summed
    by key in key order, over a denominator."""
    sums = key_sums(pairs)
    order = sorted(sums)
    return reduced(order, [sums[k] for k in order], denominator)


def vector_law(outcomes, vector) -> FiniteDist:
    """The law of an integer mass vector (ids, numerators, denominator) on
    the outcomes its ids index, `outcomes[i]` the outcome of id i."""
    ids, numerators, denominator = vector
    return FiniteDist(tuple((outcomes[i], Fraction(n, denominator)) for i, n in zip(ids, numerators)))


MISSING = object()  # the default of a field that has none


class FrozenRecordError(AttributeError):
    """An attempt to set or delete an attribute of a record."""


class Field:
    """A record field: its name, its default (`MISSING` for none) and
    whether == and hash (`compare`) and repr (`repr`) read it.  Given as a
    field's class attribute, it sets those options."""

    def __init__(self, default=MISSING, compare=True, repr=True):
        self.name, self.default, self.compare, self.repr = None, default, compare, repr


class Record:
    """Base of the engine's records: frozen dataclasses with no code generated.

    A subclass declares its fields as annotated class attributes, each with
    an optional default or `Field(...)`, and `eq=False` in its class
    statement keeps identity == and hash.  Construction, `__post_init__`,
    ==, hash, repr and the FrozenRecordError on setting or deleting an
    attribute follow a frozen dataclass.  A record built thousands of times
    a pass (a world, a law, a model-file token) writes its own `__init__`,
    one `object.__setattr__` per field.
    """

    def __init_subclass__(cls, eq=True, **kwargs):
        super().__init_subclass__(**kwargs)
        declared = []
        for name in vars(cls).get("__annotations__", {}):
            spec = vars(cls).get(name, MISSING)
            if isinstance(spec, Field):  # as in a dataclass, the default becomes the class attribute
                delattr(cls, name)
                if spec.default is not MISSING:
                    setattr(cls, name, spec.default)
            else:
                spec = Field(spec)
            spec.name = name
            declared.append(spec)
        cls._fields = tuple(declared)
        cls._names = tuple(f.name for f in declared)
        cls._compared = tuple(f.name for f in declared if f.compare)
        cls._shown = tuple(f.name for f in declared if f.repr)
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        names = self._names
        if kwargs or len(args) != len(names):
            args = self._arguments(args, kwargs)
        self.__dict__.update(zip(names, args))  # past the frozen __setattr__
        self.__post_init__()

    def _arguments(self, args, kwargs) -> list:
        """Each field's value: `args` in order, then by name or by default."""
        fields, values = self._fields, list(args)
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__}() takes {len(fields)} arguments but {len(args)} were given")
        for f in fields[len(args):]:
            values.append(kwargs.pop(f.name, f.default))
            if values[-1] is MISSING:
                raise TypeError(f"{type(self).__name__}() missing argument {f.name!r}")
        if kwargs:
            raise TypeError(f"{type(self).__name__}() got an unexpected or repeated argument {next(iter(kwargs))!r}")
        return values

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({body})"


def fields(record) -> tuple:
    """The `Field`s of a record or record class, in order."""
    return record._fields


def replace(record, **changes):
    """A record of `record`'s class with `changes` in place of its fields,
    built by its `__init__`, as `dataclasses.replace` builds one."""
    for f in record._fields:
        changes.setdefault(f.name, getattr(record, f.name))
    return type(record)(**changes)


class FiniteDist(Record):
    """Exact probability distribution on a finite support.

    `items` is the canonical form: pairs (outcome, weight) with distinct
    outcomes, strictly positive Fraction weights summing to 1, sorted by
    `canonical_key` of the outcome.  Use `dist_new` (or the helpers below)
    rather than the raw constructor.
    """

    items: tuple

    def __init__(self, items):
        object.__setattr__(self, "items", items)

    def support(self) -> tuple:
        return tuple(o for o, _ in self.items)

    def weights(self) -> tuple:
        return tuple(w for _, w in self.items)

    def mass(self, outcome) -> Fraction:
        key = canonical_key(outcome)
        for o, w in self.items:
            if canonical_key(o) == key:
                return w
        return Fraction(0)

    def event_mass(self, event: Callable) -> Fraction:
        return sum((w for o, w in self.items if event(o)), Fraction(0))

    def __len__(self) -> int:
        return len(self.items)

    def canonical_key(self):
        return (4, "FiniteDist", canonical_key(tuple(self.items)))

    def __repr__(self) -> str:
        body = ", ".join(f"{o!r}: {w}" for o, w in self.items)
        return f"FiniteDist({{{body}}})"


def dist_new(pairs: Iterable) -> FiniteDist:
    """Build a distribution from (outcome, weight) pairs.

    Duplicate outcomes are merged by summing weights; zero-weight atoms are
    dropped from the canonical form.  Raises NegativeWeight or NonUnitMass.
    """
    pairs = list(pairs)
    check_size(len(pairs))
    merged: dict = {}
    originals: dict = {}
    for outcome, weight in pairs:
        w = as_rational(weight)
        if w.numerator < 0:
            raise NegativeWeight(f"weight {w} of outcome {outcome!r}")
        key = canonical_key(outcome)
        if key in merged:
            merged[key] += w
        else:
            merged[key] = w
            originals[key] = outcome
    numerators, denominator = integer_masses(merged.values())  # the total, as integers
    if sum(numerators) != denominator:
        raise NonUnitMass(f"weights sum to {Fraction(sum(numerators), denominator)}, expected 1")
    items = tuple(
        (originals[key], merged[key]) for key in sorted(merged) if merged[key].numerator > 0
    )
    return FiniteDist(items)


def point_mass(outcome) -> FiniteDist:
    return dist_new([(outcome, Fraction(1))])


def uniform(outcomes: Iterable) -> FiniteDist:
    outcomes = list(outcomes)
    if not outcomes:
        raise NonUnitMass("uniform distribution needs a nonempty support")
    w = Fraction(1, len(outcomes))
    return dist_new([(o, w) for o in outcomes])


def bernoulli(p) -> FiniteDist:
    """Distribution on {0, 1} with mass p at 1."""
    p = as_rational(p)
    return dist_new([(0, 1 - p), (1, p)])


def pushforward(d: FiniteDist, f: Callable) -> FiniteDist:
    """Image distribution: weight of b is the mass of f-preimage of b."""
    return dist_new([(f(o), w) for o, w in d.items])


def condition(d: FiniteDist, event: Callable) -> FiniteDist:
    """Restrict to an event of positive mass and renormalize."""
    kept = [(o, w) for o, w in d.items if event(o)]
    total = sum((w for _, w in kept), Fraction(0))
    if total == 0:
        raise ZeroProbabilityEvent("conditioning event has zero mass")
    return dist_new([(o, w / total) for o, w in kept])


class Kernel(Record):
    """Finite association from input values to distributions.

    `entries` is the canonical table.  `rule` is an optional fallback used
    by design constructors whose input space is not known up front (e.g.
    value-dependent selection); models materialize rule-backed kernels into
    explicit tables over their actual input support.
    """

    entries: tuple  # ((input, FiniteDist), ...) sorted by input key
    rule: Callable | None = Field(default=None, compare=False)

    @staticmethod
    def from_mapping(mapping, rule: Callable | None = None) -> "Kernel":
        pairs = mapping.items() if hasattr(mapping, "items") else mapping
        keyed = sorted(((canonical_key(kv[0]), kv) for kv in pairs), key=lambda pair: pair[0])
        index = {}
        for key, (value, dist) in keyed:
            if key in index:
                raise IncomparableOutcomes(f"duplicate kernel input {value!r}")
            if not isinstance(dist, FiniteDist):
                raise MissingKernelEntry(f"kernel value for {value!r} is not a FiniteDist")
            index[key] = dist
        kernel = Kernel(tuple(kv for _key, kv in keyed), rule)
        vars(kernel)["index"] = index  # each input keyed once, kept as `index` keeps its value
        return kernel

    @staticmethod
    def from_rule(rule: Callable) -> "Kernel":
        return Kernel((), rule)

    @cached_property
    def index(self) -> dict:
        """{canonical_key(input): distribution}; not a field, so == and hash ignore it."""
        return {canonical_key(v): dist for v, dist in self.entries}

    def get(self, value, key=None) -> FiniteDist:
        """The distribution at `value`, whose canonical key is `key` when given."""
        dist = self.index.get(canonical_key(value) if key is None else key)
        if dist is not None:
            return dist
        if self.rule is not None:
            dist = self.rule(value)
            if not isinstance(dist, FiniteDist):
                raise MissingKernelEntry(f"kernel rule returned non-distribution for {value!r}")
            return dist
        raise MissingKernelEntry(f"kernel has no entry for {value!r}")

    def materialize(self, inputs: dict, laws: dict | None = None) -> "Kernel":
        """Explicit finite table over `inputs`, {canonical_key(value): value},
        whose keys it keeps, with each distinct law one object: a law equal
        to one in `laws` ({law: law}, filled in as met; calls may share it)
        is that one unless its outcomes cannot be hashed, and is hashed once.

        The rule is kept as a fallback so structural probes (signal
        completions outside the realized support) stay answerable."""
        laws, met = {} if laws is None else laws, {}  # met: id(law) -> (law, its shared law); holding the law holds its id

        def shared(dist):
            if id(dist) not in met:
                try:
                    met[id(dist)] = (dist, laws.setdefault(dist, dist))
                except TypeError:  # an outcome that cannot be hashed
                    return dist
            return met[id(dist)][1]

        index = {key: shared(self.get(inputs[key], key)) for key in sorted(inputs)}
        kernel = Kernel(tuple((inputs[key], dist) for key, dist in index.items()), self.rule)
        vars(kernel)["index"] = index  # as `from_mapping` keeps it
        return kernel

    def canonical_key(self):
        return (4, "Kernel", canonical_key(tuple(self.entries)))


def product(a: FiniteDist, b: FiniteDist) -> FiniteDist:
    """Independent product on pairs; both marginals recover the factors."""
    check_size(len(a.items) * len(b.items), "product support")
    return dist_new(
        [((oa, ob), wa * wb) for oa, wa in a.items for ob, wb in b.items]
    )


def expectation(d: FiniteDist, f: Callable) -> Fraction:
    return sum((as_rational(f(o)) * w for o, w in d.items), Fraction(0))
