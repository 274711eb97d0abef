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
    build_joint,
    drawn_values,
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
    """A split's support numbered once, so the ignore path works on ints.

    World ids follow the canonical_key order of the worlds, which is the
    order of a FiniteDist's items; v_bar-codes follow the canonical_key
    order of the nuisance values, so `v_bar_values` is the sorted image of
    v_bar.  `phi[c]` is the compatibility set of v_bar-code c as world ids
    in id order, and `world_of` inverts w -> (v-code, v_bar-code).
    """

    worlds: tuple  # world id -> world
    ids: dict  # canonical_key(world) -> world id
    v_code: tuple  # world id -> v-code
    v_bar_code: tuple  # world id -> v_bar-code
    v_bar_values: tuple  # v_bar-code -> nuisance value
    v_bar_codes: dict  # canonical_key(nuisance value) -> v_bar-code
    phi: tuple  # v_bar-code -> tuple of world ids
    world_of: dict  # (v-code, v_bar-code) -> world id

    @staticmethod
    def build(keyed: dict, v_bar_values: dict) -> "SplitIndex":
        """`keyed` maps canonical_key(w) to (w, v key, v_bar key) and
        `v_bar_values` maps a v_bar key to its value."""
        order = sorted(keyed)
        v_bar_keys = sorted(v_bar_values)
        v_bar_codes = {k: c for c, k in enumerate(v_bar_keys)}
        v_codes: dict = {}
        v_code = []
        v_bar_code = []
        for k in order:
            _w, v_key, v_bar_key = keyed[k]
            v_code.append(v_codes.setdefault(v_key, len(v_codes)))
            v_bar_code.append(v_bar_codes[v_bar_key])
        world_of: dict = {}
        members = [[] for _ in v_codes]  # v-code -> world ids, ascending
        compatible = [set() for _ in v_bar_keys]  # v_bar-code -> v-codes
        for i, pair in enumerate(zip(v_code, v_bar_code)):
            world_of.setdefault(pair, i)
            members[pair[0]].append(i)
            compatible[pair[1]].add(pair[0])
        # splits often share one compatibility set across nuisance values
        # (a distinct complement has the whole support for every value)
        shared: dict = {}
        phi = []
        for codes in compatible:
            codes = tuple(sorted(codes))
            if codes not in shared:
                shared[codes] = tuple(sorted(i for a in codes for i in members[a]))
            phi.append(shared[codes])
        return SplitIndex(
            worlds=tuple(keyed[k][0] for k in order),
            ids={k: i for i, k in enumerate(order)},
            v_code=tuple(v_code),
            v_bar_code=tuple(v_bar_code),
            v_bar_values=tuple(v_bar_values[k] for k in v_bar_keys),
            v_bar_codes=v_bar_codes,
            phi=tuple(phi),
            world_of=world_of,
        )

    def integer_masses(self, law: FiniteDist) -> dict:
        """{world id: integer} proportional to a law's masses: each mass
        times their common denominator.  Atoms off the support are left
        out, as no compatibility set contains them."""
        denominator = 1
        for _w, mass in law.items:
            denominator = lcm(denominator, mass.denominator)
        ids = self.ids
        out = {}
        for w, mass in law.items:
            i = ids.get(canonical_key(w))
            if i is not None:
                out[i] = mass.numerator * (denominator // mass.denominator)
        return out


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

    One pass keys every world, its v-value and its v_bar-value; the index
    built from it decides the status: the split is a complement when
    distinct worlds give distinct (v, v_bar) pairs, and a distinct one when
    the pairs also fill the product of the two images."""
    support = tuple(support)
    keyed: dict = {}
    v_bar_values: dict = {}
    for w in support:
        value = v_bar(w)
        v_bar_key = canonical_key(value)
        v_bar_values.setdefault(v_bar_key, value)
        keyed[canonical_key(w)] = (w, canonical_key(v(w)), v_bar_key)
    index = SplitIndex.build(keyed, v_bar_values)
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
    return tuple(index.worlds[i] for i in index.phi[split.v_bar_code(v_bar_value)])


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
    return _atrandomize_ids(split.index.integer_masses(P), split, nuisance)


def _atrandomize_ids(
    masses: dict, split: ProcessSplit, nuisance: FiniteDist
) -> FiniteDist:
    """atrandomize on a law given as `SplitIndex.integer_masses` gives it.

    For each nuisance value b the law is conditioned on Phi(b), and each
    world w of Phi(b) sends its conditioned mass, times the weight of b, to
    the world with v-value v(w) and nuisance value b.  Those targets carry
    the code of b, so every target is reached from one b only: its mass is
    one fraction of integer sums (the common denominator cancels)."""
    index = split.index
    v_code = index.v_code
    world_of = index.world_of
    out = [0] * len(index.worlds)
    pairs = 0
    for value, outer in nuisance.items:
        code = split.v_bar_code(value)
        sums: dict = {}
        total = kept = 0
        for i in index.phi[code]:
            n = masses.get(i)
            if n is not None:
                kept += 1
                total += n
                target = world_of[(v_code[i], code)]
                sums[target] = sums.get(target, 0) + n
        if total == 0:
            raise ZeroMassPhiSet(
                f"compatibility set of {split.v_bar.name}={value!r} has zero mass"
            )
        check_size(kept)
        pairs += kept
        numerator, denominator = outer.numerator, outer.denominator * total
        for target, n in sums.items():
            out[target] += Fraction(numerator * n, denominator)
    check_size(pairs)
    total = sum((w for _, w in nuisance.items), Fraction(0))
    if total != 1:
        raise NonUnitMass(f"weights sum to {total}, expected 1")
    worlds = index.worlds
    return FiniteDist(tuple((worlds[i], mass) for i, mass in enumerate(out) if mass))


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
    """

    def __init__(self, points, laws, obs_fns, support=None, space=None, flags=None):
        self.points = tuple(points)
        self.laws = dict(laws)
        self.obs_fns = dict(obs_fns)
        if support is None:
            support = sorted_distinct(w for p in self.points for w, _m in self.laws[p].items)
        self.support = tuple(support)
        # the measurable space may be larger than the union of supports:
        # zero-probability worlds still shape complements and Phi-sets
        self.space = tuple(space) if space is not None else self.support
        self.flags = dict(flags or {})

    @staticmethod
    def from_survey_model(m: SurveyModel, scheme: ObservationScheme) -> "Family":
        laws = {}
        obs_fns = {}
        for theta, phi in m.grid:
            point = (theta, phi)
            laws[point] = build_joint(m, theta, phi)
            obs_fns[point] = observation_fn(m, phi, scheme)
        flags = {"z_contains_y": m.z_contains_y}
        return Family(m.grid, laws, obs_fns, space=m.world_space(), flags=flags)

    @cached_property
    def _interned(self) -> tuple:
        """(observations, {key: code}, {point: {code: mass}}): every
        observation numbered once, in canonical_key order, and each point's
        table filled in one pass over its law; built on first use."""
        keyed = {}  # canonical_key(x) -> x, first seen
        raw = []  # per point: {canonical_key(x): mass}
        for p in self.points:
            fn, masses = self.obs_fns[p], {}
            for w, mass in self.laws[p].items:
                x = fn(w)
                key = canonical_key(x)
                keyed.setdefault(key, x)
                masses[key] = masses.get(key, 0) + mass
            raw.append(masses)
        codes = {k: c for c, k in enumerate(sorted(keyed))}
        tables = {p: {codes[k]: m for k, m in masses.items()} for p, masses in zip(self.points, raw)}
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
    as a deterministic selection does not change the complement status."""
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
    phi = split.index.phi
    image = split.index.v_bar_values
    masses = {p: split.index.integer_masses(family.laws[p]) for p in family.points}
    for point in family.points:
        law = masses[point]
        for code, value in enumerate(image):
            if not any(i in law for i in phi[code]):
                raise ZeroMassPhiSet(
                    f"law at {point!r} has zero mass on the compatibility set "
                    f"of {split.v_bar.name}={value!r}"
                )

    # (original point, nuisance index, nuisance law) triples; the grid of
    # the ignored family is the set of (point, index) pairs
    if policy.kind == DIRAC_FIX:
        triples = [
            (point, value, point_mass(value))
            for point in family.points
            for value in image
        ]
    elif policy.kind == SINGLE_ARBITRARY:
        dist = policy.dist if policy.dist is not None else uniform(image)
        for value, _w in dist.items:
            if canonical_key(value) not in split.index.v_bar_codes:
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
            (point, point, pushforward(family.laws[point], split.v_bar))
            for point in family.points
        ]

    points = []
    laws = {}
    obs_fns = {}
    for point, index, nuisance in triples:
        new_point = (point, index)
        points.append(new_point)
        laws[new_point] = _atrandomize_ids(masses[point], split, nuisance)
        obs_fns[new_point] = family.obs_fns[point]
    flags = dict(family.flags)
    flags["ignored"] = {
        "nuisance": split.v_bar.name,
        "policy": policy.kind,
        "split_status": split.status,
    }
    if policy.kind == SINGLE_ARBITRARY and policy.dist is None:
        flags["ignored"]["arbitrary_default"] = "uniform over the nuisance image"
    return Family(points, laws, obs_fns, support=family.support, flags=flags)


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

    Predictands are world functions, not point functions; they have no
    per-point value and cannot index likelihood or estimator tables.
    """
    if isinstance(target, MarginalFunctional):
        return {
            p: target.fn(pushforward(family.laws[p], target.var)) for p in family.points
        }
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
        originals = [(p, family.laws[p]) for p in family.points]
        for q in ignored.points:
            law = ignored.laws[q]
            matches = [p for p, orig in originals if dist_eq(orig, law)]
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
