"""Canonical sampling designs.

Each constructor returns either a realized design (a FiniteDist over
selection mappings, i.e. tuples of unit labels in draw order) or a design
kernel mapping a design-variable value z to such a distribution.

Conventions fixed here:
  - sample index is always 1..n, encoded by the mapping tuple's positions;
  - subset-style designs (poisson) order the realized subset by increasing
    unit label to produce a mapping;
  - select_max breaks ties by lowest population label and is declared with
    z equal to the full signal, the canonical value-dependent selection.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable

from .exactprob import (
    EngineError,
    FiniteDist,
    Kernel,
    as_rational,
    canonical_key,
    check_size,
    dist_new,
    point_mass,
    uniform,
)
from .sampling import Population


class SampleLargerThanPopulation(EngineError):
    """Without-replacement sample size exceeds the population size."""


class InfeasibleAllocation(EngineError):
    """A stratified allocation asks for more units than a stratum has."""


class ProbabilityOutOfRange(EngineError):
    """A per-unit inclusion probability outside [0, 1]."""


class NonUnitMixture(EngineError):
    """Mixture weights that do not sum to exactly 1."""


def srs_wor(n: int, population: Population) -> FiniteDist:
    """Simple random sampling without replacement: uniform over all ordered
    injective mappings from 1..n to the population."""
    N = population.size
    if n > N:
        raise SampleLargerThanPopulation(f"n={n} > N={N}")
    count = math.perm(N, n)
    check_size(count, "srs_wor support")
    return uniform(itertools.permutations(population.labels, n))


def srs_wr(n: int, population: Population) -> FiniteDist:
    """Simple random sampling with replacement: uniform over all N^n mappings."""
    if n < 0:
        raise EngineError("sample size must be nonnegative")
    check_size(population.size**n, "srs_wr support")
    return uniform(itertools.product(population.labels, repeat=n))


def stratified_dist(strata: tuple, alloc: dict, population: Population) -> FiniteDist:
    """Realized stratified design for one stratum map.

    `strata` assigns a stratum id to each unit (population order); `alloc`
    gives the within-stratum sample size n_h.  Uniform over ordered
    injective mappings drawing exactly n_h units from each stratum h.
    """
    if len(strata) != population.size:
        raise EngineError("stratum map must cover the population exactly")
    units_by_stratum: dict = {}
    for k, h in zip(population.labels, strata):
        units_by_stratum.setdefault(h, []).append(k)
    chosen_per_stratum = []
    total_n = 0
    for h in sorted(alloc, key=canonical_key):
        n_h = alloc[h]
        units = units_by_stratum.get(h, [])
        if n_h > len(units):
            raise InfeasibleAllocation(
                f"stratum {h!r} has {len(units)} units, allocation asks {n_h}"
            )
        chosen_per_stratum.append(list(itertools.combinations(units, n_h)))
        total_n += n_h
    unknown = set(strata) - set(alloc)
    if unknown:
        raise InfeasibleAllocation(f"strata without allocation: {sorted(unknown, key=canonical_key)}")
    mappings = []
    for combo in itertools.product(*chosen_per_stratum):
        drawn = [k for part in combo for k in part]
        for perm in itertools.permutations(drawn, total_n):
            mappings.append(perm)
    check_size(len(mappings), "stratified support")
    return uniform(mappings)


def stratified(strata: Iterable, alloc: dict, population: Population) -> Kernel:
    """Design kernel for stratified sampling, keyed by the stratum map z.

    The returned kernel carries a rule, so a model whose design variable
    ranges over several stratum maps materializes one table entry per map.
    """
    strata = tuple(strata)
    alloc = dict(alloc)

    def rule(z):
        return stratified_dist(tuple(z), alloc, population)

    return Kernel.from_mapping({strata: rule(strata)}, rule=rule)


def poisson(p: Iterable, population: Population) -> FiniteDist:
    """Poisson sampling: independent unit inclusion with probabilities p_k.

    A realized subset is canonically ordered by increasing label to form a
    mapping, so pi_k equals p_k exactly and indicators are independent.
    """
    probs = [as_rational(v) for v in p]
    if len(probs) != population.size:
        raise EngineError("one inclusion probability per unit required")
    for v in probs:
        if v < 0 or v > 1:
            raise ProbabilityOutOfRange(f"inclusion probability {v} outside [0, 1]")
    check_size(2**population.size, "poisson support")
    pairs = []
    for included in itertools.product((0, 1), repeat=population.size):
        weight = Fraction(1)
        for flag, q in zip(included, probs):
            weight *= q if flag else 1 - q
        mapping = tuple(
            k for k, flag in zip(population.labels, included) if flag
        )
        pairs.append((mapping, weight))
    return dist_new(pairs)


def select_max(population: Population) -> Kernel:
    """Take-the-largest selection: a single draw of the unit with the
    maximal signal value, lowest label on ties.

    The kernel reads z and expects z to be the signal itself, so models
    using it must be declared with z_contains_y.  The rule returns one of
    N point-mass laws built here, one per unit.
    """
    laws = [point_mass((k,)) for k in population.labels]

    def rule(z):
        y = tuple(z)
        if len(y) != population.size:
            raise EngineError("select_max expects z to be the full signal")
        return laws[max(range(len(y)), key=lambda i: (canonical_key(y[i]), -i))]

    return Kernel.from_rule(rule)


def mixture_design(weights: dict, components: list) -> dict:
    """Parameter-dependent design: for each grid label, a constant kernel
    mixing the component designs with that label's weights.

    `weights` maps a grid label to one rational weight per component; the
    weights may depend on the label, which is how a non-separated parameter
    space (signal parameter leaking into the design) is expressed.
    """
    out = {}
    for label, ws in weights.items():
        ws = [as_rational(w) for w in ws]
        if len(ws) != len(components):
            raise NonUnitMixture("one weight per component required")
        total = sum(ws, Fraction(0))
        if total != 1:
            raise NonUnitMixture(f"mixture weights sum to {total}, expected 1")
        pairs = []
        for w, comp in zip(ws, components):
            pairs.extend((r, w * wr) for r, wr in comp.items)
        dist = dist_new(pairs)
        out[label] = Kernel.from_rule(lambda _z, _d=dist: _d)
    return out


def fixed_design(mapping: tuple) -> FiniteDist:
    """Point mass on one selection mapping."""
    return point_mass(tuple(mapping))


def census(population: Population) -> FiniteDist:
    """Every unit drawn exactly once, in label order."""
    return point_mass(tuple(population.labels))


def constant(dist: FiniteDist) -> Kernel:
    """Design kernel ignoring the design variable entirely."""
    return Kernel.from_rule(lambda _z: dist)
