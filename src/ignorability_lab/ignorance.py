"""Splitting a model into a process of interest and a nuisance process,
and transforming the model to ignore the nuisance.

A split is a pair of random variables (v, v_bar) on the model's world
support.  v_bar complements v when the value pair (v(w), v_bar(w))
identifies w; the complement is distinct when every combination of a
v-value and a v_bar-value is realized, i.e. the joint image is the full
product of the images.

Ignoring v_bar rebuilds each model distribution so that all stochastic
dependence between v and v_bar is severed: for each nuisance value, the
law of v is conditioned on the compatibility set Phi(v_bar-value), paired
with that value, mapped back to a world, and mixed against a nuisance
distribution chosen by policy (fix it, pick one arbitrary law, or reuse
each model's own marginal).  On a distinct complement this reduces to the
product of the two marginals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable

from .exactprob import (
    EngineError,
    FiniteDist,
    NonUnitMass,
    canonical_key,
    check_size,
    dist_eq,
    point_mass,
    pushforward,
    sorted_distinct,
    uniform,
)
from .sampling import (
    ObservationScheme,
    SurveyModel,
    drawn_values,
    numbered_joints,
    observation_fn,
)

COMPLEMENT = "complement"
DISTINCT_COMPLEMENT = "distinct_complement"
NOT_COMPLEMENT = "not_complement"


class NotAComplement(EngineError):
    """The split does not jointly separate the world support."""


class ZeroMassPhiSet(EngineError):
    """Some model law puts zero mass on a compatibility set."""


class ValueNotInImage(EngineError):
    """A nuisance value outside the image of the nuisance variable."""


class WorldNotInSupport(EngineError):
    """A law puts mass on a world outside the support a split was
    classified on."""


class TargetNotTransformable(EngineError):
    """No natural counterpart of the target exists in the ignored model."""


@dataclass(frozen=True)
class RandomVariableRef:
    """Named evaluator on world states."""

    name: str
    fn: Callable = field(compare=False)

    def __call__(self, world):
        return self.fn(world)

    def canonical_key(self):
        return (4, "RandomVariableRef", canonical_key(self.name))


def signal_rv() -> RandomVariableRef:
    return RandomVariableRef("signal", lambda w: w.y)


def design_variable_rv() -> RandomVariableRef:
    return RandomVariableRef("design_variable", lambda w: w.z)


def selection_rv() -> RandomVariableRef:
    return RandomVariableRef("selection", lambda w: w.r)


def values_on_sample_rv(population) -> RandomVariableRef:
    return RandomVariableRef(
        "values_on_sample", lambda w: drawn_values(w, population)
    )


def composite_rv(refs: Iterable[RandomVariableRef]) -> RandomVariableRef:
    refs = tuple(refs)
    if len(refs) == 1:
        return refs[0]
    name = "(" + ",".join(r.name for r in refs) + ")"
    return RandomVariableRef(name, lambda w: tuple(r(w) for r in refs))


@dataclass(frozen=True)
class SplitIndex:
    """A split's worlds numbered once, so the ignore path works on ints.

    `worlds` are distinct and in canonical_key order; a world's id is its
    position there.  v_bar-codes follow the canonical_key order of the
    nuisance values, so `v_bar_values` is the sorted image of v_bar.  The
    compatibility set of v_bar-code c is the worlds whose v-codes are in
    `compatible[c]`, and `world_of` inverts w -> (v-code, v_bar-code).
    """

    worlds: tuple  # world id -> world
    v_code: tuple  # world id -> v-code
    v_bar_code: tuple  # world id -> v_bar-code
    v_bar_values: tuple  # v_bar-code -> nuisance value
    v_bar_codes: dict  # canonical_key(nuisance value) -> v_bar-code
    compatible: tuple  # v_bar-code -> ascending v-codes
    world_of: dict  # (v-code, v_bar-code) -> world id

    @staticmethod
    def build(worlds: tuple, v: Callable, v_bar: Callable) -> "SplitIndex":
        """Key each world's v- and v_bar-value; `worlds` distinct and sorted."""
        v_codes, v_bar_values, v_code, v_bar_keys = {}, {}, [], []
        for w in worlds:
            v_code.append(v_codes.setdefault(canonical_key(v(w)), len(v_codes)))
            value = v_bar(w)
            v_bar_keys.append(canonical_key(value))
            v_bar_values.setdefault(v_bar_keys[-1], value)
        ordered = sorted(v_bar_values)
        v_bar_codes = {k: c for c, k in enumerate(ordered)}
        v_bar_code = tuple(v_bar_codes[k] for k in v_bar_keys)
        world_of: dict = {}
        compatible = [set() for _ in ordered]
        for i, pair in enumerate(zip(v_code, v_bar_code)):
            world_of.setdefault(pair, i)
            compatible[pair[1]].add(pair[0])
        return SplitIndex(
            worlds=worlds,
            v_code=tuple(v_code),
            v_bar_code=v_bar_code,
            v_bar_values=tuple(v_bar_values[k] for k in ordered),
            v_bar_codes=v_bar_codes,
            compatible=tuple(tuple(sorted(codes)) for codes in compatible),
            world_of=world_of,
        )

    def ids_of(self, law: FiniteDist) -> tuple:
        """The id of each atom of a law; an atom off the worlds would lose
        its mass, so it raises."""
        ids = {canonical_key(w): i for i, w in enumerate(self.worlds)}
        out = []
        for w, _m in law.items:
            i = ids.get(canonical_key(w))
            if i is None:
                raise WorldNotInSupport(f"law puts mass on {w!r}, which is not a world of the split's support")
            out.append(i)
        return tuple(out)


@dataclass(frozen=True)
class ProcessSplit:
    """A (v, v_bar) pair with its computed complement status, the world
    support it was classified on and that support's index."""

    v: RandomVariableRef
    v_bar: RandomVariableRef
    status: str
    support: tuple = field(compare=False)
    index: SplitIndex = field(compare=False, repr=False)

    def is_complement(self) -> bool:
        return self.status in (COMPLEMENT, DISTINCT_COMPLEMENT)

    def v_bar_code(self, value) -> int:
        code = self.index.v_bar_codes.get(canonical_key(value))
        if code is None:
            raise ValueNotInImage(f"{value!r} not in the image of {self.v_bar.name}")
        return code


def variation_independent(h: Callable, h_prime: Callable, support: Iterable) -> bool:
    """Literal image-product test: image(h, h') == image(h) x image(h')."""
    support = list(support)
    pairs = {(canonical_key(h(w)), canonical_key(h_prime(w))) for w in support}
    left = {k for k, _ in pairs}
    right = {k for _, k in pairs}
    return len(pairs) == len(left) * len(right)


def classify_split(
    support: Iterable, v: RandomVariableRef, v_bar: RandomVariableRef
) -> ProcessSplit:
    """Compute the complement status of (v, v_bar) on a world support.

    The index numbers the distinct worlds in canonical_key order and decides
    the status: the split is a complement when distinct worlds give distinct
    (v, v_bar) pairs, and a distinct one when the pairs also fill the
    product of the two images."""
    support = tuple(support)
    return _classify(support, sorted_distinct(support), v, v_bar)


def _classify(support: tuple, worlds: tuple, v, v_bar) -> ProcessSplit:
    index = SplitIndex.build(worlds, v, v_bar)
    pairs = len(index.world_of)
    if pairs < len(index.worlds):
        status = NOT_COMPLEMENT
    elif pairs == len(set(index.v_code)) * len(index.v_bar_values):
        status = DISTINCT_COMPLEMENT
    else:
        status = COMPLEMENT
    return ProcessSplit(v=v, v_bar=v_bar, status=status, support=support, index=index)


def phi_set(v_bar_value, split: ProcessSplit) -> tuple:
    """Compatibility set for a nuisance value: all worlds whose v-value
    co-occurs (somewhere on the support) with that nuisance value, in
    canonical_key order."""
    index = split.index
    codes = set(index.compatible[split.v_bar_code(v_bar_value)])
    return tuple(w for w, a in zip(index.worlds, index.v_code) if a in codes)


def _require_complement(split: ProcessSplit) -> None:
    if not split.is_complement():
        raise NotAComplement(
            f"({split.v.name}, {split.v_bar.name}) does not separate the support"
        )


def atrandomize(
    P: FiniteDist, split: ProcessSplit, nuisance: FiniteDist | None = None
) -> FiniteDist:
    """Sever the dependence between v and v_bar in one distribution.

    The nuisance marginal defaults to P's own.  On a distinct complement
    the result is the product of the marginals mapped back to worlds, and
    the operator is idempotent there.
    """
    _require_complement(split)
    if nuisance is None:
        nuisance = pushforward(P, split.v_bar)
    _d, sums = _integer_sums(split.index.ids_of(P), P, split.index.v_code)
    return _atrandomize_ids(sums, split, nuisance)[1]


def _integer_sums(ids: tuple, law: FiniteDist, code: tuple) -> tuple:
    """(denominator, {code: [integer mass, atoms]}): a law's masses times
    their common denominator, summed by the per-world `code` of their ids."""
    denominator = 1
    for _w, mass in law.items:
        denominator = lcm(denominator, mass.denominator)
    out: dict = {}
    for i, (_w, mass) in zip(ids, law.items):
        sums = out.setdefault(code[i], [0, 0])
        sums[0] += mass.numerator * (denominator // mass.denominator)
        sums[1] += 1
    return denominator, out


def _atrandomize_ids(sums: dict, split: ProcessSplit, nuisance: FiniteDist) -> tuple:
    """(world ids, law): atrandomize on a law given by its `_integer_sums`
    over v-codes.

    For each nuisance value b the law is conditioned on Phi(b); the mass of
    each v-code a there, times the weight of b, goes to the world (a, b),
    which no other b reaches: its mass is one fraction of integer sums."""
    index = split.index
    out = {}
    pairs = 0
    for value, outer in nuisance.items:
        code = split.v_bar_code(value)
        present = [a for a in index.compatible[code] if a in sums]
        if not present:
            raise ZeroMassPhiSet(
                f"compatibility set of {split.v_bar.name}={value!r} has zero mass"
            )
        kept = sum(sums[a][1] for a in present)
        check_size(kept)
        pairs += kept
        numerator, denominator = outer.numerator, outer.denominator * sum(sums[a][0] for a in present)
        for a in present:
            out[index.world_of[a, code]] = Fraction(numerator * sums[a][0], denominator)
    check_size(pairs)
    total = sum((w for _, w in nuisance.items), Fraction(0))
    if total != 1:
        raise NonUnitMass(f"weights sum to {total}, expected 1")
    ids = tuple(sorted(out))
    return ids, FiniteDist(tuple((index.worlds[i], out[i]) for i in ids))


DIRAC_FIX = "dirac_fix"
SINGLE_ARBITRARY = "single_arbitrary"
MARGINAL_FAMILY = "marginal_family"


@dataclass(frozen=True)
class NuisancePolicy:
    """How the ignored model re-randomizes the nuisance process.

    dirac_fix treats the nuisance as fixed (one Dirac law per nuisance
    value); single_arbitrary uses one distribution on the nuisance image
    (uniform unless given); marginal_family reuses each model law's own
    nuisance marginal.
    """

    kind: str
    dist: FiniteDist | None = None

    def __post_init__(self):
        if self.kind not in (DIRAC_FIX, SINGLE_ARBITRARY, MARGINAL_FAMILY):
            raise EngineError(f"unknown nuisance policy {self.kind!r}")


def dirac_fix() -> NuisancePolicy:
    return NuisancePolicy(DIRAC_FIX)


def single_arbitrary(dist: FiniteDist | None = None) -> NuisancePolicy:
    return NuisancePolicy(SINGLE_ARBITRARY, dist)


def marginal_family() -> NuisancePolicy:
    return NuisancePolicy(MARGINAL_FAMILY)


class Family:
    """A finite labeled family of exact world distributions.

    This is the general object the equivalence tests operate on: the
    original survey model induces one (labels are (theta, phi) grid
    points), and ignoring a process produces another over the same world
    support (labels are (original label, nuisance index) pairs).

    Worlds are numbered once: `worlds` lists them in canonical_key order,
    `ids[p]` numbers the atoms of `laws[p]`.  An ignored family shares its
    original's numbering and per-world codes of observations and targets.
    """

    def __init__(self, points, laws, obs_fns, support=None, space=None, flags=None, numbering=None):
        self.points = tuple(points)
        self.laws = dict(laws)
        self.obs_fns = dict(obs_fns)
        if numbering is None:  # a hand-built family: number its worlds here
            worlds = sorted_distinct([*(space or ()), *(w for p in self.points for w, _m in self.laws[p].items)])
            ids = {canonical_key(w): i for i, w in enumerate(worlds)}
            numbering = (worlds, {p: tuple(ids[canonical_key(w)] for w, _m in self.laws[p].items) for p in self.points}, {})
        self.worlds, self.ids, self._coded = numbering
        if support is None:
            used = sorted({i for p in self.points for i in self.ids[p]})
            support = self.worlds if len(used) == len(self.worlds) else [self.worlds[i] for i in used]
        self.support = tuple(support)
        # the measurable space may be larger than the union of supports:
        # zero-probability worlds still shape complements and Phi-sets
        self.space = tuple(space) if space is not None else self.support
        self.flags = dict(flags or {})

    @staticmethod
    def from_survey_model(m: SurveyModel, scheme: ObservationScheme) -> "Family":
        ids, laws = numbered_joints(m, m.grid)
        fns = {phi: observation_fn(m, phi, scheme) for phi in {phi for _theta, phi in m.grid}}
        obs_fns = {point: fns[point[1]] for point in m.grid}
        space = m.world_space()
        flags = {"z_contains_y": m.z_contains_y}
        return Family(m.grid, laws, obs_fns, space=space, flags=flags, numbering=(space, ids, {}))

    def coded(self, fn: Callable) -> tuple:
        """(world id -> code, code -> value, code -> canonical_key): fn on
        every numbered world, its values coded in canonical_key order; once
        per function, shared by the families on this numbering."""
        if fn not in self._coded:
            keyed, per_world = {}, []
            for w in self.worlds:
                value = fn(w)
                per_world.append(canonical_key(value))
                keyed.setdefault(per_world[-1], value)
            keys = sorted(keyed)
            codes = {k: c for c, k in enumerate(keys)}
            self._coded[fn] = (tuple(codes[k] for k in per_world), tuple(keyed[k] for k in keys), tuple(keys))
        return self._coded[fn]

    def code_sums(self, p, code: tuple) -> dict:
        """{code: mass} of the law at p, summed by the per-world `code`."""
        denominator, sums = _integer_sums(self.ids[p], self.laws[p], code)
        return {c: Fraction(n, denominator) for c, (n, _atoms) in sums.items()}

    def marginal(self, p, code: tuple, values: tuple) -> FiniteDist:
        """The law at p pushed through a per-world `code` ordered as `values`."""
        check_size(len(self.ids[p]))
        sums = self.code_sums(p, code)
        return FiniteDist(tuple((values[c], sums[c]) for c in sorted(sums)))

    @cached_property
    def _interned(self) -> tuple:
        """(observations, {key: code}, {point: {code: mass}}): every
        observation of positive mass numbered once, in canonical_key order,
        and each point's table summed by per-world codes; built on first use."""
        keyed = {}  # canonical_key(x) -> x
        raw = []  # per point: (code -> key, {code: mass}) in its function's codes
        for p in self.points:
            code, values, keys = self.coded(self.obs_fns[p])
            masses = self.code_sums(p, code)
            for c in masses:
                keyed.setdefault(keys[c], values[c])
            raw.append((keys, masses))
        codes = {k: c for c, k in enumerate(sorted(keyed))}
        tables = {p: {codes[keys[c]]: m for c, m in masses.items()} for p, (keys, masses) in zip(self.points, raw)}
        return tuple(keyed[k] for k in codes), codes, tables

    def observation_support(self) -> tuple:
        """Every observation with positive mass at some point, in
        canonical_key order; the observation of code c is at position c."""
        return self._interned[0]

    def observation_code(self, x) -> int | None:
        """Code of observation x; None when it has zero mass at every point."""
        return self._interned[1].get(canonical_key(x))

    def observation_table(self, point) -> dict:
        """{code: mass} of the observation distribution at one point."""
        return self._interned[2][point]


def make_split(
    family: Family, v: RandomVariableRef, v_bar: RandomVariableRef
) -> ProcessSplit:
    """Classify (v, v_bar) on the family's world space.

    The space is model-global (never per parameter point) and structural:
    it includes zero-probability worlds, so an almost-sure coupling such
    as a deterministic selection does not change the complement status.
    A space that is the family's numbering is indexed by its world ids."""
    if family.space is family.worlds:
        return _classify(family.space, family.worlds, v, v_bar)
    return classify_split(family.space, v, v_bar)


def ignore_model(
    family: Family, split: ProcessSplit, policy: NuisancePolicy
) -> Family:
    """The family obtained after ignoring the nuisance process.

    New labels are (original label, nuisance index) pairs; the nuisance
    index is the fixed value under dirac_fix, the marker "arbitrary" under
    single_arbitrary, and the donor label under marginal_family.  Requires
    every original law to put positive mass on every compatibility set.
    """
    _require_complement(split)
    index = split.index
    # a split on the family's numbering reads its ids, another one keys
    shared = index.worlds is family.worlds
    ids = family.ids if shared else {p: index.ids_of(family.laws[p]) for p in family.points}
    sums = {p: _integer_sums(ids[p], family.laws[p], index.v_code)[1] for p in family.points}
    for point in family.points:
        for code, value in enumerate(index.v_bar_values):
            if not any(a in sums[point] for a in index.compatible[code]):
                raise ZeroMassPhiSet(
                    f"law at {point!r} has zero mass on the compatibility set "
                    f"of {split.v_bar.name}={value!r}"
                )

    # (original point, nuisance index, nuisance law) triples; the grid of
    # the ignored family is the set of (point, index) pairs
    if policy.kind == DIRAC_FIX:
        triples = [(p, value, point_mass(value)) for p in family.points for value in index.v_bar_values]
    elif policy.kind == SINGLE_ARBITRARY:
        dist = policy.dist if policy.dist is not None else uniform(index.v_bar_values)
        for value, _w in dist.items:
            if canonical_key(value) not in index.v_bar_codes:
                raise ValueNotInImage(
                    f"arbitrary nuisance law puts mass outside the image of "
                    f"{split.v_bar.name}"
                )
        triples = [(point, "arbitrary", dist) for point in family.points]
    else:
        # each law re-randomized against its own nuisance marginal; under a
        # distinct complement this is the product of the two marginals, so
        # an already-independent family is returned unchanged
        triples = [
            (point, point, family.marginal(point, index.v_bar_code, index.v_bar_values)
             if shared else pushforward(family.laws[point], split.v_bar))
            for point in family.points
        ]

    points, laws, new_ids, obs_fns = [], {}, {}, {}
    for point, nuisance_index, nuisance in triples:
        new_point = (point, nuisance_index)
        points.append(new_point)
        new_ids[new_point], laws[new_point] = _atrandomize_ids(sums[point], split, nuisance)
        obs_fns[new_point] = family.obs_fns[point]
    flags = dict(family.flags)
    flags["ignored"] = {
        "nuisance": split.v_bar.name,
        "policy": policy.kind,
        "split_status": split.status,
    }
    if policy.kind == SINGLE_ARBITRARY and policy.dist is None:
        flags["ignored"]["arbitrary_default"] = "uniform over the nuisance image"
    numbering = (index.worlds, new_ids, family._coded if shared else {})
    return Family(points, laws, obs_fns, support=family.support, flags=flags, numbering=numbering)


@dataclass(frozen=True)
class Predictand:
    """Target that is a function of the world only (prediction)."""

    name: str
    fn: Callable = field(compare=False)


@dataclass(frozen=True)
class MarginalFunctional:
    """Target that is a function of the law of one random variable
    (estimation of a feature of the signal model, typically)."""

    name: str
    var: RandomVariableRef
    fn: Callable = field(compare=False)


@dataclass(frozen=True)
class ParameterFunction:
    """Target that is a function of the family point label itself."""

    name: str
    fn: Callable = field(compare=False)


def target_values(target, family: Family) -> dict:
    """Evaluate a point-indexed target on every family point.

    A marginal functional reads each law's marginal from the per-world
    codes of its variable, in code order.  Predictands are world functions,
    not point functions; they have no per-point value and cannot index
    likelihood or estimator tables.
    """
    if isinstance(target, MarginalFunctional):
        code, values, _keys = family.coded(target.var.fn)
        return {p: target.fn(family.marginal(p, code, values)) for p in family.points}
    if isinstance(target, ParameterFunction):
        return {p: target.fn(p) for p in family.points}
    raise TargetNotTransformable(
        f"target {getattr(target, 'name', target)!r} has no per-point value"
    )


def transform_target(target, family: Family, ignored: Family):
    """Natural counterpart of the target in the ignored family.

    A predictand transfers unchanged; a marginal functional is the same
    formula applied to the ignored laws; a function of the label only
    survives when every ignored law coincides with some original law (the
    restriction case), and raises otherwise.
    """
    if isinstance(target, (Predictand, MarginalFunctional)):
        return target
    if isinstance(target, ParameterFunction):
        mapping = {}

        def same(p, q) -> bool:  # on one numbering, equal ids and weights
            if ignored.worlds is family.worlds:
                return family.ids[p] == ignored.ids[q] and family.laws[p].weights() == ignored.laws[q].weights()
            return dist_eq(family.laws[p], ignored.laws[q])

        for q in ignored.points:
            matches = [p for p in family.points if same(p, q)]
            if not matches:
                raise TargetNotTransformable(
                    f"ignored law at {q!r} equals no original law; the label "
                    f"target does not restrict"
                )
            values = {canonical_key(target.fn(p)): target.fn(p) for p in matches}
            if len(values) > 1:
                raise TargetNotTransformable(
                    f"ignored law at {q!r} matches originals with conflicting "
                    f"target values"
                )
            mapping[q] = next(iter(values.values()))
        return ParameterFunction(
            name=target.name + "_restricted", fn=lambda q: mapping[q]
        )
    raise TargetNotTransformable(f"unsupported target {target!r}")
