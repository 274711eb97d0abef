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

from functools import cached_property
from fractions import Fraction
from itertools import chain, islice, repeat
from math import gcd, lcm
from operator import itemgetter
from typing import Callable, Iterable

from .exactprob import (
    EngineError,
    Field,
    FiniteDist,
    NonUnitMass,
    Record,
    canonical_key,
    check_size,
    integer_masses,
    key_sums,
    numbering,
    reduced,
    sorted_distinct,
    summed,
    support_cap,
    tuple_key,
    vector_law,
)
from .sampling import (
    VALUES_AND_MAPPING,
    VALUES_AND_SAMPLED_WEIGHTS,
    VALUES_MAPPING_DESIGN,
    VALUES_ONLY,
    ObservationScheme,
    Population,
    SurveyModel,
    drawn_values,
    inclusion_table,
    joint_masses,
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


class RandomVariableRef(Record):
    """Named evaluator on world states.

    `reads` declares what of a world (y, z, r) the value depends on, so
    that a family numbered on the two axes of its world ids codes the
    variable once per axis value instead of once per world: "yz" (only y
    and z), "r" (only the mapping), a `Drawn` (the values y takes at the
    units r draws) or a tuple of declared variables (the tuple of their
    values).  None declares nothing: every world is keyed."""

    name: str
    fn: Callable = Field(compare=False)
    reads: object = Field(default=None, compare=False)

    def __call__(self, world):
        return self.fn(world)


class Drawn(Record):
    """What a variable of the drawn units reads: the values y takes at the
    units r draws, in draw order, or sorted by canonical_key when
    `unordered`, or each paired with its unit's inclusion probability
    `pis[canonical_key(z)][unit index]` when `pis` is given."""

    population: Population
    unordered: bool = False
    pis: dict | None = Field(default=None, compare=False)


# the three axis variables, one object each, so that every family codes
# each of them once (see `Family.coded`)
_SIGNAL = RandomVariableRef("signal", lambda w: w.y, "yz")
_DESIGN_VARIABLE = RandomVariableRef("design_variable", lambda w: w.z, "yz")
_SELECTION = RandomVariableRef("selection", lambda w: w.r, "r")


def signal_rv() -> RandomVariableRef:
    return _SIGNAL


def design_variable_rv() -> RandomVariableRef:
    return _DESIGN_VARIABLE


def selection_rv() -> RandomVariableRef:
    return _SELECTION


def values_on_sample_rv(population) -> RandomVariableRef:
    return RandomVariableRef(
        "values_on_sample", lambda w: drawn_values(w, population), Drawn(population)
    )


def composite_rv(refs: Iterable[RandomVariableRef]) -> RandomVariableRef:
    refs = tuple(refs)
    if len(refs) == 1:
        return refs[0]
    name = "(" + ",".join(r.name for r in refs) + ")"
    reads = refs if all(r.reads is not None for r in refs) else None
    return RandomVariableRef(name, lambda w: tuple(r(w) for r in refs), reads)


def _observation_rv(m: SurveyModel, scheme: ObservationScheme, phi=None) -> RandomVariableRef:
    """The observation under a scheme as a declared variable (see `Drawn`):
    the values in draw order or sorted, with the mapping, or with the
    mapping and the design variable, one variable for every phi; or the
    values with their units' inclusion probabilities under the design at
    phi.  Keyed world by world, `observation_fn` is the reference."""
    population = m.population
    if scheme.kind == VALUES_ONLY:
        if not scheme.unordered:
            return values_on_sample_rv(population)
        return RandomVariableRef("unordered_values", observation_fn(m, None, scheme), Drawn(population, unordered=True))
    if scheme.kind == VALUES_AND_MAPPING:
        return composite_rv([values_on_sample_rv(population), selection_rv()])
    if scheme.kind == VALUES_MAPPING_DESIGN:
        return composite_rv([values_on_sample_rv(population), selection_rv(), design_variable_rv()])
    pis = inclusion_table(m, phi)  # one table, for the function and the axis coding
    return RandomVariableRef("sampled_weights", observation_fn(m, phi, scheme, pis), Drawn(population, pis=pis))


def _ranks(values) -> tuple:
    """(ranks, firsts, keys): the rank of each value's canonical_key among
    the distinct ones, and by rank the position where it first occurs and
    its key."""
    keys = [canonical_key(v) for v in values]
    ranks, firsts = numbering(keys)
    return ranks, firsts, [keys[i] for i in firsts]


def _picker(positions) -> Callable:
    """Function of a tuple giving its items at `positions` as a tuple."""
    if len(positions) > 1:
        return itemgetter(*positions)
    return lambda t: tuple(t[p] for p in positions)


def _axis_keys(worlds: tuple, fn: Callable, reads, axes: tuple) -> tuple | None:
    """(one sort key per world, the canonical_key of the value of a sort
    key, by code the first world or None): sort keys equal where the
    canonical_keys of the values of `fn` are equal and ordered as they are,
    read off the two axes (|(y, z) pairs|, |mappings|) of world ids
    rank(y, z) * |mappings| + rank(r); a "yz" or "r" variable's sort keys
    are its ranks, already codes, so their first worlds come with them.
    None when `reads` declares nothing."""
    n_yz, n_r = axes
    if reads == "yz":  # one rank per (y, z) pair, repeated over its mappings
        ranks, firsts, keys = _ranks(fn(w) for w in worlds[::n_r])
        return list(chain.from_iterable(repeat(k, n_r) for k in ranks)), keys.__getitem__, [i * n_r for i in firsts]
    if reads == "r":  # one rank per mapping, the same for every (y, z) pair
        ranks, firsts, keys = _ranks(fn(w) for w in worlds[:n_r])
        return ranks * n_yz, keys.__getitem__, firsts
    if isinstance(reads, Drawn):  # unit value ranks picked along each mapping
        heads, index = worlds[::n_r], reads.population.index
        ranks, _firsts, keys = _ranks(v for w in heads for v in w.y)
        ranks = iter(ranks)
        ys = [tuple(islice(ranks, len(w.y))) for w in heads]
        units = [[index(k) for k in w.r] for w in worlds[:n_r]]
        key_of = lambda t: tuple_key(map(keys.__getitem__, t))
        if reads.pis is not None:  # each value rank followed by the rank of its unit's pi at z
            pi_ranks, _firsts, pi_keys = _ranks(p for pi in reads.pis.values() for p in pi)
            pi_ranks = iter(pi_ranks)
            by_z = {z: tuple(islice(pi_ranks, len(pi))) for z, pi in reads.pis.items()}
            ys = [tuple(chain.from_iterable(zip(y, by_z[canonical_key(w.z)]))) for y, w in zip(ys, heads)]
            units = [[j for u in us for j in (2 * u, 2 * u + 1)] for us in units]
            key_of = lambda t: tuple_key([tuple_key([keys[t[j]], pi_keys[t[j + 1]]]) for j in range(0, len(t), 2)])
        picks = list(map(_picker, units))
        if reads.unordered:
            return [tuple(sorted(pick(y))) for y in ys for pick in picks], key_of, None
        return [pick(y) for y in ys for pick in picks], key_of, None
    if isinstance(reads, tuple):  # a tuple orders by its parts in turn
        parts = [_axis_keys(worlds, r.fn, r.reads, axes) for r in reads]
        if None not in parts:
            return list(zip(*(p[0] for p in parts))), lambda t: tuple_key([p[1](k) for p, k in zip(parts, t)]), None
    return None


def _code(worlds: tuple, var, axes: tuple | None = None) -> tuple:
    """(world id -> code, code -> value, code -> canonical_key): `var` (a
    RandomVariableRef or a world function) on every world, its values coded
    in canonical_key order, a code's value the one at its first world.  A
    declared variable on worlds numbered by `axes` is coded from the axes
    (see `_axis_keys`): only the value at each code's first world is made,
    and each key is built from the keys of the ranks, with no value keyed
    twice; any other is keyed world by world, which is the reference."""
    fn, reads = (var.fn, var.reads) if isinstance(var, RandomVariableRef) else (var, None)
    coded = _axis_keys(worlds, fn, reads, axes) if axes is not None else None
    sort_keys, key_of, firsts = coded or ([canonical_key(fn(w)) for w in worlds], None, None)  # or world by world
    codes, firsts = (sort_keys, firsts) if firsts is not None else numbering(sort_keys)  # "yz", "r": ranks are codes
    keys = [sort_keys[i] for i in firsts]
    return tuple(codes), tuple(fn(worlds[i]) for i in firsts), tuple(map(key_of, keys) if key_of else keys)


class ProcessSplit(Record, eq=False):
    """A (v, v_bar) pair with its complement status, classified on a
    family's worlds, which it numbers once so that the ignore path works on
    ints; built by `make_split`.

    `worlds` are distinct and in canonical_key order; a world's id is its
    position there.  v- and v_bar-codes follow the canonical_key order of
    the values, so `v_bar_values` is the sorted image of v_bar.  The
    compatibility set of v_bar-code c is the worlds whose v-codes are in
    `compatible[c]`, and `worlds_of[c]` lists the worlds of v_bar-code c
    as their ids, ascending, and their v-codes.
    """

    v: RandomVariableRef
    v_bar: RandomVariableRef
    status: str
    worlds: tuple = Field(repr=False)  # world id -> world
    v_code: tuple = Field(repr=False)  # world id -> v-code
    v_bar_of: tuple = Field(repr=False)  # world id -> v_bar-code
    v_bar_values: tuple = Field(repr=False)  # v_bar-code -> nuisance value
    v_bar_codes: dict = Field(repr=False)  # canonical_key(nuisance value) -> v_bar-code
    compatible: tuple = Field(repr=False)  # v_bar-code -> ascending v-codes
    worlds_of: tuple = Field(repr=False)  # v_bar-code -> (ascending world ids, their v-codes)

    def is_complement(self) -> bool:
        return self.status in (COMPLEMENT, DISTINCT_COMPLEMENT)

    def v_bar_code(self, value) -> int:
        code = self.v_bar_codes.get(canonical_key(value))
        if code is None:
            raise ValueNotInImage(f"{value!r} not in the image of {self.v_bar.name}")
        return code

    @cached_property
    def _ids(self) -> dict:  # {canonical_key(world): id}, built on first use
        return {canonical_key(w): i for i, w in enumerate(self.worlds)}

    def ids_of(self, law: FiniteDist) -> tuple:
        """The id of each atom of a law; an atom off the worlds would lose
        its mass, so it raises."""
        ids = tuple(self._ids.get(canonical_key(w)) for w, _m in law.items)
        if None in ids:
            w = law.items[ids.index(None)][0]
            raise WorldNotInSupport(f"law puts mass on {w!r}, which is not a world of the split's support")
        return ids


def phi_set(v_bar_value, split: ProcessSplit) -> tuple:
    """Compatibility set for a nuisance value: all worlds whose v-value
    co-occurs (somewhere on the support) with that nuisance value, in
    canonical_key order."""
    codes = set(split.compatible[split.v_bar_code(v_bar_value)])
    return tuple(w for w, a in zip(split.worlds, split.v_code) if a in codes)


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
    ids, (numerators, denominator) = split.ids_of(P), integer_masses(P.weights())
    law = summed(zip(map(split.v_bar_of.__getitem__, ids), numerators), denominator) if nuisance is None else _nuisance_law(nuisance, split)
    parts = _restrictions(key_sums(zip(map(split.v_code.__getitem__, ids), numerators)), split)
    for b in law[0]:
        if not parts[b][1]:
            raise ZeroMassPhiSet(f"compatibility set of {split.v_bar.name}={split.v_bar_values[b]!r} has zero mass")
    check_size(sum(len(parts[b][1]) for b in law[0]))
    mixed_denominator, sums = _mixed(parts, split, law, range(len(split.worlds)))
    return vector_law(split.worlds, summed(sums.items(), mixed_denominator))


def _nuisance_law(dist: FiniteDist, split: ProcessSplit) -> tuple:
    """A nuisance law given as a distribution, as integer weights on
    v_bar-codes (codes, weights, denominator); raises ValueNotInImage for a
    value off the image and NonUnitMass when the weights do not sum to 1."""
    codes = [split.v_bar_code(value) for value in dist.support()]
    weights, denominator = integer_masses(dist.weights())
    if sum(weights) != denominator:
        raise NonUnitMass(f"weights sum to {Fraction(sum(weights), denominator)}, expected 1")
    return codes, weights, denominator


def _restrictions(sums: dict, split: ProcessSplit, cap: int | None = None) -> list:
    """Per v_bar-code b: (total, {v-code a: integer mass}), a law's
    numerators `sums` per v-code kept on the compatibility set Phi(b),
    divided by their gcd, the v-codes ascending; empty where the law puts no
    mass on Phi(b).  Each distinct compatibility set is scanned and reduced
    once, and the codes that share it share its restriction."""
    scanned, out = {}, []
    for codes in split.compatible:
        part = scanned.get(codes)
        if part is None:
            kept = {a: sums[a] for a in codes if a in sums}
            check_size(len(kept), cap=cap)
            g = gcd(*kept.values()) or 1
            part = scanned[codes] = (sum(kept.values()) // g, {a: n // g for a, n in kept.items()})
        out.append(part)
    return out


def _mixed(parts: list, split: ProcessSplit, nuisance: tuple, code) -> tuple:
    """(denominator, {code: integer mass}): the ignored law of a law given
    by its `_restrictions` against a nuisance law of integer weights on
    v_bar-codes (codes, weights, denominator), summed by the per-world
    `code`; the one builder of an ignored law.

    For each nuisance code b the law is conditioned on Phi(b): the mass of
    each v-code a there, times the weight of b over the restriction's
    total, goes to the world (a, b), which no other b reaches.  The gcd of
    those scales is divided out; by world id it is the masses' own, each
    restriction's gcd being 1.  The Dirac-fixed law at b, `((b,), (1,), 1)`,
    is the restriction to Phi(b) over its total."""
    codes, weights, weights_denominator = nuisance
    denominator = lcm(*(parts[b][0] for b in codes))
    scales = [w * (denominator // parts[b][0]) for b, w in zip(codes, weights)]
    g = gcd(*scales)
    sums = {}
    for b, scale in zip(codes, scales):
        kept, scale = parts[b][1].get, scale // g
        for w, a in zip(*split.worlds_of[b]):
            n = kept(a)
            if n:  # None off the restriction
                c = code[w]
                sums[c] = sums.get(c, 0) + scale * n
    return weights_denominator * denominator // g, sums


DIRAC_FIX = "dirac_fix"
SINGLE_ARBITRARY = "single_arbitrary"
MARGINAL_FAMILY = "marginal_family"


class NuisancePolicy(Record):
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

    Points are numbered once, in the order of `points`, and every
    per-point table is a list indexed by that number: `vectors[i]` is the
    reduced integer mass vector (ids, numerators, denominator) of the law
    at point i, `obs[i]` its observation function and, on an ignored
    family, `origins[i]` the number of the original point it came from and
    its nuisance code (None unless the nuisance value is fixed).  An
    ignored family keeps each point's law as its `mix`: the split, the
    origins' `_restrictions` and the nuisance laws, from which `_mixed`
    sums its tables, and its `vectors` by world id on first read.  A label
    is keyed only where a caller names one: `number` maps each label to its
    number, which indexes `vectors`, `obs` and `observation_tables()`, and
    `laws` is the one view by label.

    Worlds are numbered once too: `worlds` lists them in canonical_key
    order (for a hand-built family, those of `space` and of its `laws`'
    atoms; a family given its numbering takes laws None), and the ids of
    a mass vector index them.  A survey model's family keeps the `axes` of
    its numbering, (|(y, z) pairs|, |mappings|), so that declared
    variables are coded per axis (see `_code`).  An ignored family shares
    its original's numbering and per-world codes of observations and
    targets.
    """

    def __init__(self, points, laws, obs_fns, space=None, numbering=None, origins=None, mix=None):
        self.points = tuple(points)
        if numbering is None:  # a hand-built family: number its worlds here
            self.laws = dict(laws)
            # the measurable space may be larger than the union of supports:
            # zero-probability worlds still shape complements and Phi-sets
            worlds = sorted_distinct([*(space or ()), *(w for p in self.points for w, _m in self.laws[p].items)])
            ids = {canonical_key(w): i for i, w in enumerate(worlds)}
            vectors = [reduced([ids[canonical_key(w)] for w, _m in self.laws[p].items], *integer_masses(self.laws[p].weights()))
                       for p in self.points]
            numbering = (worlds, vectors, [obs_fns[p] for p in self.points], {}, None)
        self.worlds, vectors, self.obs, self._coded, self.axes = numbering
        if vectors is not None:
            self.vectors = vectors
        self.origins, self.mix, self._by_code = origins, mix, {}

    @cached_property
    def vectors(self) -> list:
        """An ignored family's mass vectors, mixed by world id on first read."""
        return [summed(sums.items(), d) for d, sums in self._sums([range(len(self.worlds))] * len(self.points))]

    @cached_property
    def number(self) -> dict:
        return {p: i for i, p in enumerate(self.points)}

    @cached_property
    def laws(self) -> dict:
        return {p: vector_law(self.worlds, vector) for p, vector in zip(self.points, self.vectors)}

    @staticmethod
    def from_survey_model(m: SurveyModel, scheme: ObservationScheme) -> "Family":
        phis = dict.fromkeys(phi for _theta, phi in m.grid)
        if scheme.kind == VALUES_AND_SAMPLED_WEIGHTS:  # reads the design at phi
            fns = {phi: _observation_rv(m, scheme, phi) for phi in phis}
        else:
            fns = dict.fromkeys(phis, _observation_rv(m, scheme))
        numbering = (m.world_space(), joint_masses(m, m.grid), [fns[phi] for _theta, phi in m.grid], {},
                     (len(m.atoms.yzs), len(m.atoms.mappings)))
        return Family(m.grid, None, None, numbering=numbering)

    def coded(self, var) -> tuple:
        """(world id -> code, code -> value, code -> canonical_key): `var`
        (a RandomVariableRef or a world function) on every numbered world,
        its values coded in canonical_key order (see `_code`); once per
        function, shared by the families on this numbering."""
        fn = var.fn if isinstance(var, RandomVariableRef) else var
        if fn not in self._coded:
            self._coded[fn] = _code(self.worlds, var, self.axes)
        return self._coded[fn]

    @cached_property
    def _interned(self) -> tuple:
        """(observations, {key: code}, [(denominator, {code: integer mass})],
        [{per-world code: code}]): every observation of positive mass
        numbered once, in canonical_key order, each key's value that of the
        first point with mass on it, and per point number its table summed
        by per-world codes over its law's denominator, then re-coded through
        its map; built on first use, keys merged once per observation
        function."""
        codings = [self.coded(fn) for fn in self.obs]
        sums = self._sums([coding[0] for coding in codings])
        if len(set(map(id, codings))) == 1:  # one coding, whose codes are in canonical_key order
            coding, order = codings[0], sorted(set().union(*(s for _d, s in sums)))
            recode = {c: code for code, c in enumerate(order)}
            return (tuple(coding[1][c] for c in order), {coding[2][c]: code for code, c in enumerate(order)},
                    [(d, {recode[c]: n for c, n in s.items()}) for d, s in sums], [recode] * len(codings))
        seen = {id(coding): set() for coding in codings}  # per coding: its codes met so far
        found = []  # (coding, code) of positive mass, in the order of their first point
        for coding, (_d, s) in zip(codings, sums):
            found.extend((coding, c) for c in s.keys() - seen[id(coding)])  # one coding's codes have distinct keys
            seen[id(coding)].update(s)
        merged, firsts = numbering([coding[2][c] for coding, c in found])
        recode = {i: {} for i in seen}  # per coding: its codes -> merged codes
        for (coding, c), code in zip(found, merged):
            recode[id(coding)][c] = code
        tables = [(d, {recode[id(coding)][c]: n for c, n in s.items()}) for coding, (d, s) in zip(codings, sums)]
        kept = [found[j] for j in firsts]  # the first (coding, code) of each merged code
        return (tuple(coding[1][c] for coding, c in kept),
                {coding[2][c]: code for code, (coding, c) in enumerate(kept)}, tables,
                [recode[id(coding)] for coding in codings])

    def observation_support(self) -> tuple:
        """Every observation with positive mass at some point, in
        canonical_key order; the observation of code c is at position c."""
        return self._interned[0]

    def observation_codes(self) -> dict:
        """{canonical_key(observation): code} of every observation with
        positive mass at some point, in code order."""
        return self._interned[1]

    def observation_code(self, x) -> int | None:
        """Code of observation x; None when it has zero mass at every point."""
        return self._interned[1].get(canonical_key(x))

    def observation_tables(self) -> list:
        """Per point number: (denominator, {code: integer mass}), the
        observation distribution there, each code's mass over the
        denominator."""
        return self._interned[2]

    def joint_sums(self, code: tuple) -> list:
        """Per point number: (denominator, {(observation code, code):
        integer mass}), its observation table split by a per-world `code`."""
        pairs = {}  # per observation coding: each world's (observation code, code)
        for fn, recode in zip(self.obs, self._interned[3]):
            if id(recode) not in pairs:
                pairs[id(recode)] = tuple(zip(map(recode.get, self.coded(fn)[0]), code))
        return self._sums([pairs[id(recode)] for recode in self._interned[3]])

    def _sums(self, codes: list) -> list:
        """Per point number i: (denominator, {code: integer mass}), its law
        summed by the per-world code `codes[i]`: its reduced mass vector's
        numerators summed by the code of their ids, or an ignored point's
        law mixed from its `mix` (see `_mixed`), with no vector built."""
        if self.mix is None:
            return [(d, key_sums(zip(map(code.__getitem__, ids), numerators)))
                    for (ids, numerators, d), code in zip(self.vectors, codes)]
        split, parts, laws = self.mix
        return [_mixed(parts[i], split, law, code) for (i, _b), law, code in zip(self.origins, laws, codes)]

    def _sums_by(self, code: tuple) -> list:
        """`_sums` with one per-world `code` at every point, kept per code
        on a family of mass vectors: an ignored family's restrictions and a
        target's marginals may read the same sums."""
        if self.mix is not None:
            return self._sums([code] * len(self.points))
        if id(code) not in self._by_code:  # the code is kept with its sums, so its id stays its own
            self._by_code[id(code)] = (code, self._sums([code] * len(self.points)))
        return self._by_code[id(code)][1]

    def marginals(self, code: tuple) -> list:
        """Per point number: the reduced integer mass vector on codes of its
        law pushed through a per-world `code`.  On an ignored family whose
        `code` is a function of the split's v-code, a point's marginal is
        its restrictions' pushforwards weighted by the nuisance law, each
        (origin, distinct compatibility set) pushed once, and a point whose
        nuisance law weights one restriction has that one's marginal
        object; any other is its law's sums by `code` (see `_sums_by`)."""
        if self.mix is not None:
            split, parts, laws = self.mix
            of_v = dict(zip(split.v_code, code))
            if code is split.v_code or list(map(of_v.__getitem__, split.v_code)) == list(code):
                pushed, out = {}, []  # per (origin, id of a restriction): its marginal
                for (i, _b), (nuisance, weights, weights_denominator) in zip(self.origins, laws):
                    mass = {}  # per restriction the nuisance law weighs: its weight
                    for b, w in zip(nuisance, weights):
                        key = (i, id(parts[i][b]))
                        if key not in pushed:
                            pushed[key] = summed(((of_v[a], n) for a, n in parts[i][b][1].items()), parts[i][b][0])
                        mass[key] = mass.get(key, 0) + w
                    denominator = lcm(*(pushed[k][2] for k in mass))
                    out.append(pushed[key] if len(mass) == 1 else summed(
                        ((c, w * (denominator // pushed[k][2]) * n) for k, w in mass.items() for c, n in zip(*pushed[k][:2])),
                        weights_denominator * denominator))
                return out
        return [summed(sums.items(), denominator) for denominator, sums in self._sums_by(code)]


def make_split(
    family: Family, v: RandomVariableRef, v_bar: RandomVariableRef
) -> ProcessSplit:
    """Classify (v, v_bar) on the family's worlds, coding both on the
    world ids (see `ProcessSplit`); the one way to split.  A bare support
    is split as `make_split(Family((), {}, {}, space=support), v, v_bar)`.

    The worlds are model-global (never per parameter point) and structural:
    they include zero-probability worlds, so an almost-sure coupling such
    as a deterministic selection does not change the complement status.
    The split is a complement when distinct worlds give distinct (v, v_bar)
    pairs, and a distinct one when the pairs also fill the product of the
    two images."""
    worlds, v_code = family.worlds, family.coded(v)[0]
    v_bar_of, v_bar_values, v_bar_keys = family.coded(v_bar)
    runs = [[] for _b in v_bar_values]  # per code its world ids, ascending
    for i, b in enumerate(v_bar_of):
        runs[b].append(i)
    worlds_of = tuple((tuple(ids), tuple(map(v_code.__getitem__, ids))) for ids in runs)
    compatible = tuple(tuple(sorted(set(codes))) for _ids, codes in worlds_of)
    pairs = sum(map(len, compatible))  # distinct (v, v_bar) pairs
    if pairs < len(worlds):
        status = NOT_COMPLEMENT
    elif pairs == len(set(v_code)) * len(v_bar_values):
        status = DISTINCT_COMPLEMENT
    else:
        status = COMPLEMENT
    return ProcessSplit(v, v_bar, status, worlds, v_code, v_bar_of, v_bar_values,
                        {k: c for c, k in enumerate(v_bar_keys)}, compatible, worlds_of)


def ignore_model(
    family: Family, split: ProcessSplit, policy: NuisancePolicy
) -> Family:
    """The family obtained after ignoring the nuisance process.

    New labels are (original label, nuisance index) pairs; the nuisance
    index is the fixed value under dirac_fix, the marker "arbitrary" under
    single_arbitrary, and the donor label under marginal_family.  Requires
    every original law to put positive mass on every compatibility set,
    and the split to be made by `make_split` on this family's worlds tuple,
    which an ignored family shares with its original.
    """
    _require_complement(split)
    if split.worlds is not family.worlds:
        raise EngineError("the split was not made on this family; split it with make_split(family, v, v_bar)")
    cap = support_cap()  # read once per call
    parts = [_restrictions(sums, split, cap) for _d, sums in family._sums_by(split.v_code)]
    for point, restrictions in zip(family.points, parts):
        empty = next((code for code, (_total, kept) in enumerate(restrictions) if not kept), None)
        if empty is not None:
            raise ZeroMassPhiSet(f"law at {point!r} has zero mass on the compatibility set "
                                 f"of {split.v_bar.name}={split.v_bar_values[empty]!r}")

    # each original point gives its (nuisance index, nuisance code, nuisance
    # law) triples, a nuisance law being integer weights on v_bar-codes
    if policy.kind == DIRAC_FIX:
        laws = repeat([(value, b, ((b,), (1,), 1)) for b, value in enumerate(split.v_bar_values)])
    elif policy.kind == SINGLE_ARBITRARY:
        k = len(split.v_bar_values)
        law = (range(k), (1,) * k, k) if policy.dist is None else _nuisance_law(policy.dist, split)
        laws = repeat([("arbitrary", None, law)])
    else:
        # each law re-randomized against its own nuisance marginal; under a
        # distinct complement this is the product of the two marginals, so
        # an already-independent family is returned unchanged
        laws = ([(p, None, summed(sums.items(), d))] for p, (d, sums) in zip(family.points, family._sums_by(split.v_bar_of)))
    points, nuisances, origins = [], [], []
    for i, (p, restrictions, triples) in enumerate(zip(family.points, parts, laws)):
        for label, b, law in triples:
            check_size(sum(len(restrictions[c][1]) for c in law[0]), cap=cap)  # the atoms of the ignored law
            points.append((p, label))
            nuisances.append(law)
            origins.append((i, b))
    obs = [family.obs[i] for i, _b in origins]
    return Family(points, None, None, numbering=(family.worlds, None, obs, family._coded, family.axes),
                  origins=tuple(origins), mix=(split, parts, nuisances))


class Predictand(Record):
    """Target that is a function of the world only (prediction)."""

    name: str
    fn: Callable = Field(compare=False)


class MarginalFunctional(Record):
    """Target that is a function of the law of one random variable
    (estimation of a feature of the signal model, typically)."""

    name: str
    var: RandomVariableRef
    fn: Callable = Field(compare=False)


class ParameterFunction(Record):
    """Target that is a function of the family point label itself."""

    name: str
    fn: Callable = Field(compare=False)


def point_values(target, family: Family, memo: dict | None = None) -> list:
    """The value of a point-indexed target at each point number.

    A marginal functional reads each law's marginal from the per-world
    codes of its variable, in code order (see `Family.marginals`), and is
    evaluated once per distinct marginal in `memo`, which families on one
    numbering may share.  Predictands are world functions, not point
    functions; they have no per-point value and cannot index likelihood or
    estimator tables.
    """
    if isinstance(target, MarginalFunctional):
        code, values, _keys = family.coded(target.var)
        memo, out = {} if memo is None else memo, []
        for marginal in family.marginals(code):
            if marginal not in memo:
                memo[marginal] = target.fn(vector_law(values, marginal))
            out.append(memo[marginal])
        return out
    if isinstance(target, ParameterFunction):
        return [target.fn(p) for p in family.points]
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
        for q, vector in zip(ignored.points, ignored.vectors):
            # on the one numbering of both families, equal laws have equal
            # reduced mass vectors
            matches = [p for p, v in zip(family.points, family.vectors) if v == vector]
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
