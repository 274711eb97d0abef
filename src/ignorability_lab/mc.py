"""Seeded simulation cross-check against the exact engine.

The pseudo-random source is SplitMix64 used as a pure counter-based
generator: draw i of stream `seed` is

    u64(seed, i) = mix64((seed + (i + 1) * 0x9E3779B97F4A7C15) mod 2^64)
    u(seed, i)   = u64(seed, i) / 2^64

where mix64 is the standard SplitMix64 finalizer.  Worlds are drawn by
inverse CDF over the canonical support order, comparing the exact rational
cumulative weights against u as the exact rational u64/2^64, so streams
are bit-reproducible and independent of platform float behaviour.  Floats
appear only at the comparison boundary of the report.

Because draw i is a pure function of (seed, i), `compare_exact_vs_mc`
evaluates the stream BLOCK draws at a time (`u64_blocks`): each draw is a
128-bit slot of one Python int, and each slot computes mix64 exactly, so
its counts equal a tally of `sample_world(..., index=i)` over the draws.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import partial
from fractions import Fraction

from .exactprob import FiniteDist, canonical_key, pushforward
from .sampling import (
    ObservationScheme,
    SurveyModel,
    WorldState,
    build_joint,
    observation_fn,
)

GOLDEN_GAMMA = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1


def mix64(value: int) -> int:
    z = value & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def u64(seed: int, index: int) -> int:
    return mix64((seed + (index + 1) * GOLDEN_GAMMA) & MASK64)


BLOCK = 4096  # draws evaluated together by u64_blocks


def u64_blocks(seed: int, draws: int):
    """Yield u64(seed, i) for i = 0 .. draws - 1, in arrays of at most
    BLOCK draws.

    Draw k of a block is slot k (bits 128k .. 128k + 127) of one int, and
    each slot runs mix64 on its own state.  No sum or product overflows a
    slot: the state sums stay below 2^77, and every slot holds a value
    below 2^64 before each product by a 64-bit constant.  Masking with
    `lanes` reduces each slot mod 2^64 and drops the bits a right shift
    moves in from the slot above."""
    n = min(BLOCK, draws)
    ones = int.from_bytes((b"\x01" + bytes(15)) * n, "little")
    k = array("Q", bytes(16 * n))  # two 64-bit halves per slot
    k[::2] = array("Q", range(n))
    if sys.byteorder == "big":
        k.byteswap()
    # slot k: k * GOLDEN_GAMMA, reduced mod 2^64 with the block's first state
    steps = int.from_bytes(k.tobytes(), "little") * GOLDEN_GAMMA
    lanes = ones * MASK64
    for first in range(0, draws, BLOCK):
        n = min(BLOCK, draws - first)
        if n < BLOCK:
            cut = (1 << (128 * n)) - 1
            ones, steps, lanes = ones & cut, steps & cut, lanes & cut
        z = (steps + ones * ((seed + (first + 1) * GOLDEN_GAMMA) & MASK64)) & lanes
        z = ((z ^ ((z >> 30) & lanes)) * 0xBF58476D1CE4E5B9) & lanes
        z = ((z ^ ((z >> 27) & lanes)) * 0x94D049BB133111EB) & lanes
        z ^= (z >> 31) & lanes
        block = array("Q", z.to_bytes(16 * n, "little"))[::2]
        if sys.byteorder == "big":
            block.byteswap()
        yield block


def _thresholds(dist: FiniteDist):
    """Integer draw thresholds: atom i is selected iff u64 <= T_i and
    u64 > T_{i-1}.  T_i = ceil(cum_i * 2^64) - 1 makes the integer
    comparison exactly equivalent to cum_i > u64 / 2^64."""
    acc = Fraction(0)
    outcomes = []
    cutoffs = []
    for outcome, weight in dist.items:
        acc += weight
        outcomes.append(outcome)
        cutoffs.append(math.ceil(acc * (1 << 64)) - 1)
    return outcomes, cutoffs


def sample_world(
    m: SurveyModel, theta, phi=None, seed: int = 0, index: int = 0
) -> WorldState:
    """Deterministic world draw: inverse CDF of the exact joint at draw
    `index` of stream `seed`."""
    outcomes, cutoffs = _thresholds(build_joint(m, theta, phi))
    return outcomes[bisect_left(cutoffs, u64(seed, index))]


@dataclass(frozen=True)
class McCell:
    outcome: object
    exact: Fraction
    count: int
    draws: int

    @property
    def frequency(self) -> float:
        return self.count / self.draws

    @property
    def band(self) -> float:
        p = float(self.exact)
        return 3.0 * math.sqrt(p * (1.0 - p) / self.draws)

    @property
    def deviation(self) -> float:
        return abs(self.frequency - float(self.exact))

    @property
    def within(self) -> bool:
        return self.deviation <= self.band


@dataclass(frozen=True)
class McReport:
    draws: int
    seed: int
    cells: tuple
    max_abs_deviation: float
    three_sigma_bound: float

    @property
    def cells_outside(self) -> int:
        return sum(1 for c in self.cells if not c.within)


def compare_exact_vs_mc(
    m: SurveyModel,
    theta,
    phi=None,
    scheme: ObservationScheme | None = None,
    draws: int = 10_000,
    seed: int = 0,
) -> McReport:
    """Empirical observation frequencies of `draws` seeded worlds against
    the exact observation distribution, with a three-sigma binomial band
    per outcome."""
    if draws < 1:
        raise ValueError("draws must be at least 1")
    from .sampling import values_only

    observe_world = observation_fn(m, phi, scheme or values_only())
    joint = build_joint(m, theta, phi)
    exact = pushforward(joint, observe_world)
    outcomes, cutoffs = _thresholds(joint)
    # a draw only bumps its atom's count; hashing an observation key (a
    # nested tuple) is paid once per atom hit, not once per draw
    hits = Counter()
    atom_of = partial(bisect_left, cutoffs)
    for block in u64_blocks(seed, draws):
        hits.update(map(atom_of, block))
    counts: dict = {}
    for atom, n in hits.items():
        key = canonical_key(observe_world(outcomes[atom]))
        counts[key] = counts.get(key, 0) + n
    cells = []
    for outcome, weight in exact.items:
        key = canonical_key(outcome)
        cells.append(
            McCell(outcome=outcome, exact=weight, count=counts.get(key, 0), draws=draws)
        )
    max_dev = max((c.deviation for c in cells), default=0.0)
    bound = max((c.band for c in cells), default=0.0)
    return McReport(
        draws=draws,
        seed=seed,
        cells=tuple(cells),
        max_abs_deviation=max_dev,
        three_sigma_bound=bound,
    )
