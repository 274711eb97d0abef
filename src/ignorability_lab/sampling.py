"""Finite survey-sampling models: populations, signals, selections, designs.

A world is a triple (y, z, r): the signal y (one value per population unit,
stored as a tuple in population order), the design-variable value z, and the
realized selection mapping r (a tuple of unit labels, one per draw; r may
repeat labels when selection is with replacement).

The model family is indexed by a finite grid of (theta, phi) pairs.  For
each theta the signal law is a joint distribution over (y, z); for each phi
the design is a kernel mapping z to a distribution over selection mappings.
The defining structural constraint is that the selection kernel reads only
z, never y directly.  Value-dependent selections (select-the-max and other
informative mechanisms) are expressed by making z contain y, recorded in
the `z_contains_y` flag.
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from itertools import accumulate, product
from math import lcm, prod
from typing import Callable, Iterable, NamedTuple

from .exactprob import (
    EngineError,
    FiniteDist,
    Kernel,
    Record,
    canonical_key,
    check_size,
    dist_new,
    integer_masses,
    item_keys,
    pushforward,
    reduced,
    sorted_distinct,
    support_cap,
)


class GridMiss(EngineError):
    """A (theta, phi) pair outside the model grid."""


class UnknownObservation(EngineError):
    """An observation literal malformed for the scheme or alphabet."""


class Population(Record):
    """Finite ordered set of unit labels."""

    labels: tuple

    def __post_init__(self):
        if len(self.labels) < 1:
            raise EngineError("population must have at least one unit")
        if len(set(self.labels)) != len(self.labels):
            raise EngineError("population labels must be distinct")

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise EngineError(f"unknown unit label {label!r}") from None


class WorldState(Record):
    """One elementary outcome: signal, design-variable value, selection."""

    y: tuple
    z: object
    r: tuple

    def __init__(self, y, z, r):
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "r", r)

    def canonical_key(self):
        return (4, "WorldState", canonical_key((self.y, self.z, self.r)))


def drawn_values(world: WorldState, population: Population) -> tuple:
    """T[Y]: the signal evaluated along the selection, in draw order."""
    return tuple(world.y[population.index(k)] for k in world.r)


def indicator_vector(r: tuple, population: Population) -> tuple:
    """Per-unit membership indicator I: 1 iff the unit was drawn at all."""
    image = set(r)
    return tuple(1 if k in image else 0 for k in population.labels)


def count_vector(r: tuple, population: Population) -> tuple:
    """Per-unit draw count J; sums to the number of draws."""
    return tuple(sum(1 for drawn in r if drawn == k) for k in population.labels)


def inclusion_probabilities(delta: FiniteDist, population: Population) -> tuple:
    """pi_k = P(unit k in the sample) under the realized design delta."""
    out = []
    for k in population.labels:
        out.append(sum((w for r, w in delta.items if k in r), Fraction(0)))
    return tuple(out)


def selection_expectations(delta: FiniteDist, population: Population) -> tuple:
    """upsilon_k = expected number of times unit k is drawn under delta."""
    out = []
    for k in population.labels:
        out.append(
            sum((w * sum(1 for d in r if d == k) for r, w in delta.items), Fraction(0))
        )
    return tuple(out)


def _drawn_units(delta: FiniteDist) -> tuple:
    return tuple(sorted({k for r, _ in delta.items for k in r}, key=canonical_key))


def expected_distinct_size(delta: FiniteDist) -> Fraction:
    """Expected number of distinct sampled units; equals sum of pi_k."""
    value = sum((w * len(set(r)) for r, w in delta.items), Fraction(0))
    units = _drawn_units(delta)
    if units:
        pi = inclusion_probabilities(delta, Population(units))
        if value != sum(pi, Fraction(0)):
            raise EngineError("expected distinct size differs from the sum of pi_k")
    return value


def expected_size(delta: FiniteDist) -> Fraction:
    """Expected number of draws; equals sum of upsilon_k."""
    value = sum((w * len(r) for r, w in delta.items), Fraction(0))
    units = _drawn_units(delta)
    if units:
        ups = selection_expectations(delta, Population(units))
        if value != sum(ups, Fraction(0)):
            raise EngineError("expected size differs from the sum of upsilon_k")
    return value


VALUES_ONLY = "values_only"
VALUES_AND_MAPPING = "values_and_mapping"
VALUES_MAPPING_DESIGN = "values_mapping_design"
VALUES_AND_SAMPLED_WEIGHTS = "values_and_sampled_weights"

SCHEME_KINDS = (
    VALUES_ONLY,
    VALUES_AND_MAPPING,
    VALUES_MAPPING_DESIGN,
    VALUES_AND_SAMPLED_WEIGHTS,
)


class ObservationScheme(Record):
    """What the statistician sees: a deterministic function of (T[Y], T, Z).

    `unordered` sorts the drawn-values tuple (labels and draw order both
    unidentifiable); it applies to the values-only scheme.
    """

    kind: str
    unordered: bool = False

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise EngineError(f"unknown observation scheme {self.kind!r}")


def values_only(unordered: bool = False) -> ObservationScheme:
    return ObservationScheme(VALUES_ONLY, unordered=unordered)


def values_and_mapping() -> ObservationScheme:
    return ObservationScheme(VALUES_AND_MAPPING)


def values_mapping_design() -> ObservationScheme:
    return ObservationScheme(VALUES_MAPPING_DESIGN)


def values_and_sampled_weights() -> ObservationScheme:
    return ObservationScheme(VALUES_AND_SAMPLED_WEIGHTS)


def observe(
    world: WorldState,
    scheme: ObservationScheme,
    population: Population,
    design: Kernel | None = None,
) -> object:
    """Apply the observation scheme to one world.

    The sampled-weights scheme pairs each drawn value with the inclusion
    probability of the drawn unit computed from the realized design
    delta = design(z); it therefore needs the design kernel.
    """
    values = drawn_values(world, population)
    if scheme.kind == VALUES_ONLY:
        if scheme.unordered:
            return tuple(sorted(values, key=canonical_key))
        return values
    if scheme.kind == VALUES_AND_MAPPING:
        return (values, world.r)
    if scheme.kind == VALUES_MAPPING_DESIGN:
        return (values, world.r, world.z)
    # values and sampled weights, the one kind left: `ObservationScheme` refuses any other
    if design is None:
        raise EngineError("sampled-weights scheme needs the design kernel")
    pi = inclusion_probabilities(design.get(world.z), population)
    return tuple((v, pi[population.index(k)]) for v, k in zip(values, world.r))


def iid_signal_dist(
    population: Population, unit_dist: FiniteDist, z_of: Callable | None = None
) -> FiniteDist:
    """Joint (y, z) law for independent identically distributed unit values.

    `z_of` maps the signal tuple to the design-variable value it carries
    (identity for value-dependent designs, a constant for the rest)."""
    z_of = z_of or (lambda y: None)
    check_size(len(unit_dist.items) ** population.size, "signal support")
    masses, denominator = integer_masses(unit_dist.weights())
    denominator **= population.size
    pairs = []
    for combo in product(range(len(masses)), repeat=population.size):
        y = tuple(unit_dist.items[i][0] for i in combo)
        pairs.append(((y, z_of(y)), Fraction(prod(masses[i] for i in combo), denominator)))
    return dist_new(pairs)


def signal_dist_from_table(
    table, z_of: Callable | None = None
) -> FiniteDist:
    """Joint (y, z) law from explicit (signal tuple, weight) pairs."""
    z_of = z_of or (lambda y: None)
    return dist_new([((tuple(y), z_of(tuple(y))), w) for y, w in table])


def _normalize_grid(thetas, phis, grid):
    """The live (theta, phi) pairs: `grid`, each pair checked against the
    theta grid and the phi grid and met once, or else their product."""
    if grid is None:
        grid = [(t, p) for t in thetas for p in phis]
    out = {}
    for theta, phi in grid:
        if theta not in thetas:
            raise GridMiss(f"grid theta {theta!r} not in theta grid")
        if phi not in phis:
            raise GridMiss(f"grid phi {phi!r} not in phi grid")
        if (theta, phi) in out:
            raise GridMiss(f"grid point {(theta, phi)!r} repeated")
        out[theta, phi] = None
    return tuple(out)


class Atoms(NamedTuple):
    """The two axes of a model's world space and every signal law and design
    law as integers on the ranks of its atoms, worked out in one pass that
    keys each atom once (see `SurveyModel.atoms`); ranks and integer masses
    are kept, not keys and not Fractions."""

    yzs: tuple  # the (y, z) pairs, sorted
    mappings: tuple  # the mappings, sorted
    signals: tuple  # per theta position: (ranks of its (y, z) atoms, integer masses, denominator)
    designs: dict  # phi -> per (y, z) rank: the design law at its z, as (mapping ranks, integer masses, denominator)
    grid: tuple  # per grid point: (its theta's position, its phi's position in the design table)


class SurveyModel(Record):
    """Parameter-indexed family of world distributions.

    Fields are normalized by `SurveyModel.create`: grids are tuples, and
    `designs` is the one design table, each phi's kernel materialized over
    the z values the signal laws can produce, in phi-grid order.  A model
    with no phi grid has one known design, the one-point grid: the table's
    only key is None, and so is the phi of every grid point.  The grid is
    the explicit list of live (theta, phi) pairs.  `atoms` keeps the
    signal and design laws as integers on numbered atoms (see `Atoms`).
    """

    population: Population
    thetas: tuple
    signal_law: dict  # theta -> FiniteDist over (y, z) pairs
    designs: dict  # phi -> Kernel
    grid: tuple = ()
    z_contains_y: bool = False
    alphabet: tuple = ()

    @staticmethod
    def create(
        population: Population,
        thetas: Iterable,
        signal_law,
        design: Kernel | None = None,
        phis: Iterable = (),
        design_law=None,
        grid=None,
        z_contains_y: bool = False,
    ) -> "SurveyModel":
        thetas = tuple(thetas)
        phis = tuple(phis)
        if not thetas:
            raise GridMiss("theta grid is empty")
        if design is None and (design_law is None or not phis):
            raise EngineError("model needs a design kernel or a per-phi design law")
        if phis and design_law is None:
            raise EngineError("phi grid given without a design law")
        laws = {}
        firsts, keys = {}, []  # see `_key_atoms`; per theta (its law, its atoms' keys)
        n = population.size
        for theta in thetas:
            law = signal_law[theta] if not callable(signal_law) else signal_law(theta)
            if not isinstance(law, FiniteDist):
                raise EngineError(f"signal law for {theta!r} is not a FiniteDist")
            for (y, _z), _w in law.items:
                if len(y) != n:
                    raise EngineError(
                        f"signal {y!r} does not cover the population exactly"
                    )
            keys.append((law, _key_atoms(law, firsts)))
            laws[theta] = law
        z_values = {}  # canonical_key(z) -> z, in order of first sight
        for k, (_y, z) in firsts.items():
            z_values.setdefault(item_keys(k)[1], z)
        alphabet = sorted_distinct(v for law in laws.values() for (y, _z), _w in law.items for v in y)
        shared = {}  # each distinct design law, one object for every phi
        designs = {phi: (design_law[phi] if phis else design).materialize(z_values, shared) for phi in phis or [None]}
        grid = _normalize_grid(thetas, tuple(designs), grid)
        for kind, labels in (("theta", thetas), ("phi", phis)):  # as the model file's distinct-grid rule
            seen = set()
            for label in labels:
                if label in seen:
                    raise GridMiss(f"{kind} {label!r} repeated in the {kind} grid")
                seen.add(label)
        m = SurveyModel(
            population=population,
            thetas=thetas,
            signal_law=laws,
            designs=designs,
            grid=grid,
            z_contains_y=z_contains_y,
            alphabet=alphabet,
        )
        vars(m)["atoms"] = _atoms(firsts, keys, m)  # from the keys made above, as `atoms` would make them
        return m

    def design_for(self, phi=None) -> Kernel:
        if phi not in self.designs:
            raise GridMiss("model has per-phi designs; phi required" if phi is None else f"phi {phi!r} not in design law")
        return self.designs[phi]

    def check_point(self, theta, phi=None) -> tuple:
        point = (theta, phi)
        if point not in self.grid:
            raise GridMiss(f"grid point {point!r} not in model grid")
        return point

    @cached_property
    def atoms(self) -> Atoms:
        """The `Atoms` of the model, worked out from its fields on first use
        and kept in its instance dict; not a field, so == and hash ignore
        it, and a copy made by `exactprob.replace` works out its own."""
        firsts = {}
        keys = [(law, _key_atoms(law, firsts)) for law in (self.signal_law[theta] for theta in self.thetas)]
        return _atoms(firsts, keys, self)

    def world_space(self) -> tuple:
        """The structural world space: every (y, z) the signal laws can
        produce combined with every selection mapping any design can
        produce, including zero-probability combinations.

        Splits are classified here rather than on the positive-mass
        support: a deterministic selection (take-the-max) couples y and r
        almost surely, but the underlying space still varies them freely,
        which is what makes the signal/selection pair a distinct
        complement and gives the ignored model its plain marginals.

        The product of the sorted (y, z) pairs and sorted mappings is in
        canonical_key order: (y, z, r) has id rank(y, z) * |R| + rank(r).
        """
        yzs, mappings = self.atoms.yzs, self.atoms.mappings
        check_size(len(yzs) * len(mappings), "world space")
        return tuple(WorldState(y, z, r) for y, z in yzs for r in mappings)


def _key_atoms(law: FiniteDist, firsts: dict) -> list:
    """The canonical keys of a signal law's (y, z) atoms, each keyed once;
    `firsts` keeps the first (y, z) met under each key."""
    keys = [canonical_key(yz) for yz, _w in law.items]
    for (yz, _w), k in zip(law.items, keys):
        firsts.setdefault(k, yz)
    return keys


def _atoms(firsts: dict, keys: list, m: SurveyModel) -> Atoms:
    """The `Atoms` of model m from its (y, z) pairs, first of each key, and
    the law of each theta with its atoms' keys (see `_key_atoms`); each
    mapping of each design law object is keyed once, each law is scaled to
    integers once, one column per law object (equal laws are one object,
    see `Kernel.materialize`), and grid labels are compared, not hashed."""
    designs, phis = m.designs, tuple(m.designs)
    order = sorted(firsts)
    rank = {k: i for i, k in enumerate(order)}
    laws = {id(delta): delta for kernel in designs.values() for _z, delta in kernel.entries}  # each law object once
    law_keys, mapping_firsts = {i: [canonical_key(r) for r, _w in delta.items] for i, delta in laws.items()}, {}
    for i, ks in law_keys.items():
        for (r, _w), k in zip(laws[i].items, ks):
            mapping_firsts.setdefault(k, r)
    mapping_rank = {k: i for i, k in enumerate(sorted(mapping_firsts))}
    columns = {i: (tuple(map(mapping_rank.__getitem__, ks)), *integer_masses(laws[i].weights()))
               for i, ks in law_keys.items()}  # one per law object
    return Atoms(
        yzs=tuple(firsts[k] for k in order),
        mappings=tuple(mapping_firsts[k] for k in mapping_rank),
        signals=tuple((tuple(map(rank.__getitem__, ks)), *integer_masses(law.weights())) for law, ks in keys),
        designs={phi: tuple(columns[id(kernel.index[item_keys(k)[1]])] for k in order) for phi, kernel in designs.items()},
        grid=tuple((m.thetas.index(theta), phis.index(phi)) for theta, phi in m.grid),
    )


def build_joint(m: SurveyModel, theta, phi=None) -> FiniteDist:
    """Exact joint law of the world under one grid point: its
    `joint_masses` with each id made a world and each mass a Fraction."""
    yzs, mappings = m.atoms.yzs, m.atoms.mappings
    ids, numerators, denominator = joint_masses(m, [(theta, phi)])[0]
    worlds = (WorldState(*yzs[i // len(mappings)], mappings[i % len(mappings)]) for i in ids)
    return FiniteDist(tuple((w, Fraction(n, denominator)) for w, n in zip(worlds, numerators)))


def joint_masses(m: SurveyModel, points) -> list:
    """[(world ids, numerators, denominator)]: the exact joint law of the
    world under each of `points`, grid points of m, in their order, p(y, z)
    p(r | z), as a reduced integer mass vector (see `reduced`) on the ids
    of `m.world_space()`.  Each point is tested against the grid, after
    the support cap is read, unless `points` is `m.grid` itself.

    Each law is read from `m.atoms`, already integers on atom ranks: no key
    is made and no Fraction scaled.  The design columns of a point are
    brought over the lcm of their denominators, so each mass is an integer
    product.  The law of r given (y, z) is the design kernel at z, so
    'selection reads only z' holds for every model built without the
    z-contains-y opt-in.  (y, z) and r come in canonical_key order, so the
    ids are distinct and ascending."""
    atoms = m.atoms
    n_r = len(atoms.mappings)
    out, cap = [], support_cap()
    for theta, phi in points:
        if points is not m.grid:  # the grid itself needs no test
            m.check_point(theta, phi)
        m.design_for(phi)  # a phi off the design table raises GridMiss here
        ranks, masses, signal_denominator = atoms.signals[m.thetas.index(theta)]  # compared, not hashed
        columns = [atoms.designs[phi][k] for k in ranks]
        for size in accumulate(len(column[0]) for column in columns):  # the running support size
            check_size(size, "world support", cap)
        denominator = lcm(*(column[2] for column in columns))
        ids, numerators = [], []
        for k, a, (mapping_ranks, column_masses, column_denominator) in zip(ranks, masses, columns):
            base, factor = k * n_r, a * (denominator // column_denominator)
            ids.extend([base + j for j in mapping_ranks])
            numerators.extend([factor * b for b in column_masses])
        out.append(reduced(ids, numerators, signal_denominator * denominator))
    return out


def inclusion_table(m: SurveyModel, phi) -> dict:
    """{canonical_key(z): inclusion probabilities} of the design at phi."""
    return {canonical_key(z): inclusion_probabilities(d, m.population) for z, d in m.design_for(phi).entries}


def observation_fn(m: SurveyModel, phi, scheme: ObservationScheme, pis: dict | None = None) -> Callable:
    """The scheme as a function of one world under nuisance point phi; the
    sampled-weights scheme reads the design at phi, with the inclusion
    probabilities of each of its z computed once, or read from `pis`, its
    `inclusion_table`, when given."""
    if scheme.kind != VALUES_AND_SAMPLED_WEIGHTS:
        return lambda w: observe(w, scheme, m.population)
    population = m.population
    pis = inclusion_table(m, phi) if pis is None else pis

    def observe_world(w):
        pi = pis[canonical_key(w.z)]
        return tuple((v, pi[population.index(k)]) for v, k in zip(drawn_values(w, population), w.r))

    return observe_world


def observation_distribution(
    m: SurveyModel, theta, phi=None, scheme: ObservationScheme = None
) -> FiniteDist:
    """Pushforward of the joint world law through the observation scheme."""
    observe_world = observation_fn(m, phi, scheme or values_only())
    return pushforward(build_joint(m, theta, phi), observe_world)


def _value_ranks(ranks: dict, values) -> list:
    """The rank of each observed value, `ranks` mapping an alphabet value's
    canonical key to its rank, once the values part is a tuple of alphabet
    values; else UnknownObservation.  A bool or float is no alphabet value,
    even where it equals one."""
    if not isinstance(values, tuple):
        raise UnknownObservation(f"values part must be a tuple, got {values!r}")
    out = []
    for v in values:
        r = None if isinstance(v, (bool, float)) else ranks.get(canonical_key(v))
        if r is None:
            raise UnknownObservation(f"value {v!r} not in the signal alphabet")
        out.append(r)
    return out


def observed_ranks(ranks: dict, labels: tuple, values, mapping) -> list:
    """`_value_ranks` of the values part, once the mapping part is also a
    tuple of units among `labels` (a bool or float is none, even where it
    equals one), as long as the values part; else UnknownObservation.
    `validate_observation` and the Rubin queries check a (values, mapping)
    observation here."""
    out = _value_ranks(ranks, values)
    if not isinstance(mapping, tuple):
        raise UnknownObservation(f"mapping part must be a tuple, got {mapping!r}")
    for k in mapping:
        if isinstance(k, (bool, float)) or k not in labels:
            raise UnknownObservation(f"unit {k!r} not in the population")
    if len(values) != len(mapping):
        raise UnknownObservation("values and mapping lengths differ")
    return out


def validate_observation(m: SurveyModel, scheme: ObservationScheme, x) -> None:
    """Structural sanity check of an observation literal.

    Accepts any observation shaped for the scheme with values from the
    signal alphabet and units from the population (`observed_ranks`), also
    an impossible one (zero mass everywhere), which `check` then rejects as
    an input error.
    """
    ranks = {canonical_key(v): i for i, v in enumerate(m.alphabet)}
    if scheme.kind == VALUES_ONLY:
        _value_ranks(ranks, x)
    elif scheme.kind in (VALUES_AND_MAPPING, VALUES_MAPPING_DESIGN):
        shape, parts = ("(values, mapping)", 2) if scheme.kind == VALUES_AND_MAPPING else ("(values, mapping, z)", 3)
        if not isinstance(x, tuple) or len(x) != parts:
            raise UnknownObservation(f"expected {shape}")
        observed_ranks(ranks, m.population.labels, x[0], x[1])
    elif scheme.kind == VALUES_AND_SAMPLED_WEIGHTS:
        if not isinstance(x, tuple):
            raise UnknownObservation("expected tuple of (value, weight) pairs")
        for pair in x:
            if not isinstance(pair, tuple) or len(pair) != 2:
                raise UnknownObservation("expected (value, weight) pairs")
            _value_ranks(ranks, (pair[0],))
