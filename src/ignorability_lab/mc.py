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
evaluates the stream BLOCK draws at a time: each draw is the low half of a
128-bit slot of one Python int, whose upper half is never read, and each
block's states run on from the last block's.  Every atom of the joint gets
the number of its observation cell once, and `tally` counts the draws per
cell in buckets of their top byte.  A bucket whose atoms all lie in one
cell is pure: a cell of at least SCAN_MIN pure buckets has its draws
counted by one byte scan a block, and the draws of other pure buckets are
counted per top byte in a Counter.  Only the draws of split buckets are
read, at the ends of the gaps between them, each bisected between the
atoms of its bucket's least and greatest value.  The counts equal a tally
of the cells of `sample_world(..., index=i)` over the draws.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import accumulate, repeat
from operator import add, itemgetter
from fractions import Fraction

from .exactprob import FiniteDist, Record, canonical_key, pushforward
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


BLOCK = 4096  # draws evaluated together, one slot of one int each


def _slot_bytes(seed: int, draws: int):
    """Yield u64(seed, i) for i = 0 .. draws - 1 as the little-endian bytes
    of 128-bit slots, at most BLOCK slots at a time: draw k of a block is
    bytes 16k .. 16k + 7, its top byte byte 16k + 7.

    Each slot of one int runs mix64 on its own state.  The first block's
    states are worked out once; each later block adds BLOCK * GOLDEN_GAMMA
    to every state.  No sum or product overflows a slot: the state sums
    stay below 2^77, and every slot holds a value below 2^64 before each
    product by a 64-bit constant.  Masking with `lanes` reduces each slot
    mod 2^64 and drops the bits a right shift moves in from the slot above,
    but for the last shift's: they land in bits 97 .. 127 of a slot, which
    no reader looks at (`_draws_of` reads bits 0 .. 63, `tally` byte 7)."""
    n = min(BLOCK, draws)
    ones = int.from_bytes((b"\x01" + bytes(15)) * n, "little")
    k = array("Q", bytes(16 * n))  # two 64-bit halves per slot
    k[::2] = array("Q", range(n))
    if sys.byteorder == "big":
        k.byteswap()
    lanes = ones * MASK64
    state = (int.from_bytes(k.tobytes(), "little") * GOLDEN_GAMMA
             + ones * ((seed + GOLDEN_GAMMA) & MASK64)) & lanes
    step = ones * (BLOCK * GOLDEN_GAMMA & MASK64)
    for first in range(0, draws, BLOCK):
        n = min(BLOCK, draws - first)
        if n < BLOCK:
            cut = (1 << (128 * n)) - 1
            state, lanes = state & cut, lanes & cut
        z = ((state ^ ((state >> 30) & lanes)) * 0xBF58476D1CE4E5B9) & lanes
        z = ((z ^ ((z >> 27) & lanes)) * 0x94D049BB133111EB) & lanes
        yield (z ^ (z >> 31)).to_bytes(16 * n, "little")
        state = (state + step) & lanes


def _draws_of(raw: bytes):
    if sys.byteorder == "little":
        return memoryview(raw).cast("Q")[::2]
    block = array("Q", raw)[::2]
    block.byteswap()
    return block


# A draw costs the Counter about 50 ns and each scan's bytes.count about
# 0.75 ns, the count running over the draws of every scanned cell.  With at
# least SCAN_MIN of the 256 buckets, at most 64 cells are scanned: a draw
# then costs at most 64 compares, about one Counter update.
SCAN_MIN = 4


def tally(cutoffs: list, seed: int, draws: int, cells: list) -> Counter:
    """Hits per cell of draws 0 .. draws - 1 of stream `seed`: atom a is
    hit by a draw u with cutoffs[a - 1] < u <= cutoffs[a], that is by
    bisect_left(cutoffs, u) for non-decreasing `cutoffs`, and its hits go
    to cell cells[a].

    Top byte b of a draw puts it in bucket [b * 2^56, (b + 1) * 2^56 - 1],
    whose draws hit atoms first[b] .. last[b] only.  Where these lie in one
    cell the bucket is pure.  The draws of a cell with at least SCAN_MIN
    pure buckets are counted by one bytes.count a block; those of other
    pure buckets by a Counter of their top bytes.  The draws of split
    buckets are read in place from the gaps between them and bisected
    between first[b] and last[b]."""
    # the atoms of each bucket's least and greatest value: the counts of
    # the cutoffs below them; a pure bucket's cell, None for a split one
    first = [bisect_right(cutoffs, (b << 56) - 1) for b in range(256)]
    last = [bisect_right(cutoffs, ((b + 1) << 56) - 2) for b in range(256)]
    cell_of = [cells[a] if len(set(cells[a : z + 1])) == 1 else None for a, z in zip(first, last)]
    split = bytes(c is None for c in cell_of)  # 1 at each split top byte
    unsplit_tops = bytes(b for b in range(256) if not split[b])
    scanned = [c for c, k in Counter(cell_of).items() if c is not None and k >= SCAN_MIN]
    slot = {c: i for i, c in enumerate(scanned)}
    index = bytes(slot.get(c, 0) for c in cell_of)  # a scanned top byte's slot
    unscanned = bytes(b for b in range(256) if cell_of[b] not in slot)
    uncounted = bytes(b for b in range(256) if cell_of[b] in slot or split[b])
    scans, hits, per_top = [0] * len(scanned), Counter(), Counter()
    for raw in _slot_bytes(seed, draws):
        tops = raw[7::16]
        if scanned:
            kept = tops.translate(index, unscanned)
            scans = list(map(add, scans, map(kept.count, range(len(scans)))))
        if len(uncounted) < 256:
            per_top.update(tops.translate(None, uncounted))
        split_draw_tops = tops.translate(None, unsplit_tops)
        if not split_draw_tops:
            continue
        # the pieces before each split draw, each after the first led by
        # one added byte, run up to the split draws' positions; the
        # trailing 0 keeps a single draw a tuple, and map stops before it
        gaps = tops.translate(split).replace(b"\x01", b"\x01\x02").split(b"\x01")
        del gaps[-1]
        values = itemgetter(*accumulate(map(len, gaps)), 0)(_draws_of(raw))
        lo, hi = map(first.__getitem__, split_draw_tops), map(last.__getitem__, split_draw_tops)
        hits.update(map(cells.__getitem__, map(bisect_left, repeat(cutoffs), values, lo, hi)))
    for b, n in per_top.items():
        hits[cell_of[b]] += n
    hits.update({c: n for c, n in zip(scanned, scans) if n})
    return hits


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


class McCell(Record):
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


class McReport(Record):
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
    # each atom's observation cell, numbered once: a draw only bumps its
    # cell's count, and an observation key (a nested tuple) is hashed once
    # per atom, not once per draw
    ids = {}
    atom_cells = [ids.setdefault(canonical_key(observe_world(o)), len(ids)) for o in outcomes]
    hits = tally(cutoffs, seed, draws, atom_cells)
    cells = [
        McCell(outcome, weight, hits[ids[canonical_key(outcome)]], draws)
        for outcome, weight in exact.items
    ]
    max_dev = max((c.deviation for c in cells), default=0.0)
    bound = max((c.band for c in cells), default=0.0)
    return McReport(
        draws=draws,
        seed=seed,
        cells=tuple(cells),
        max_abs_deviation=max_dev,
        three_sigma_bound=bound,
    )
