"""Counter-based generator and the exact-vs-simulated cross check."""

from bisect import bisect_left
from collections import Counter
from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from ignorability_lab import mc
from ignorability_lab.catalog import CATALOG
from ignorability_lab.exactprob import bernoulli, canonical_key, point_mass
from ignorability_lab.designs import constant, select_max, srs_wor
from ignorability_lab.mc import (
    BLOCK,
    compare_exact_vs_mc,
    mix64,
    sample_world,
    tally,
    u64,
)
from ignorability_lab.modelfile import parse_model
from ignorability_lab.sampling import (
    Population,
    SurveyModel,
    iid_signal_dist,
    observation_fn,
    values_only,
)
from reference import u64_blocks

U2 = Population((1, 2))


def srs1_model():
    return SurveyModel.create(
        population=U2,
        thetas=(F(1, 2),),
        signal_law={F(1, 2): iid_signal_dist(U2, bernoulli(F(1, 2)))},
        design=constant(srs_wor(1, U2)),
    )


def point_model():
    return SurveyModel.create(
        population=U2,
        thetas=("t",),
        signal_law={"t": point_mass(((1, 0), None))},
        design=constant(point_mass((1,))),
    )


def select_max_model():
    unit = bernoulli(F(1, 2))
    return SurveyModel.create(
        population=U2,
        thetas=(F(1, 2),),
        signal_law={F(1, 2): iid_signal_dist(U2, unit, z_of=lambda y: y)},
        design=select_max(U2),
        z_contains_y=True,
    )


class TestGenerator:
    def test_mix64_is_pure(self):
        assert mix64(12345) == mix64(12345)
        assert 0 <= mix64(2**64 - 1) < 2**64

    def test_counter_streams_differ(self):
        outs = {u64(7, i) for i in range(100)}
        assert len(outs) == 100

    def test_seed_changes_stream(self):
        assert [u64(1, i) for i in range(5)] != [u64(2, i) for i in range(5)]

    def test_published_splitmix64_outputs_for_seed_zero(self):
        assert [u64(0, i) for i in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_seed_taken_modulo_two_to_the_64(self):
        assert [u64(-1, i) for i in range(5)] == [u64(2**64 - 1, i) for i in range(5)]


def past_the_second_block(test):
    """Explicit examples where the states of later blocks run on from the
    first block's, at seeds on both sides of the 64-bit range."""
    for draws in (2 * BLOCK, 2 * BLOCK + 1, 3 * BLOCK - 1):
        for seed in (0, 2**64 - 1, -1, 2**70):
            test = example(seed=seed, draws=draws)(test)
    return test


class TestBlocks:
    @settings(deadline=None)
    @given(st.integers(-(2**70), 2**70), st.integers(0, 3 * BLOCK + 5))
    @past_the_second_block
    def test_blocks_equal_per_draw_stream(self, seed, draws):
        blocks = list(u64_blocks(seed, draws))
        assert all(len(b) == BLOCK for b in blocks[:-1])
        assert [u for b in blocks for u in b] == [u64(seed, i) for i in range(draws)]

    def test_no_draws_yield_nothing(self):
        assert list(u64_blocks(5, 0)) == []


class TestSampleWorld:
    def test_point_model_constant(self):
        m = point_model()
        worlds = {sample_world(m, "t", seed=3, index=i) for i in range(20)}
        assert len(worlds) == 1

    def test_reproducible(self):
        m = srs1_model()
        a = sample_world(m, F(1, 2), seed=11, index=9)
        b = sample_world(m, F(1, 2), seed=11, index=9)
        assert a == b

    def test_marginal_frequency_within_band(self):
        m = srs1_model()
        draws = 10_000
        hits = sum(
            1
            for i in range(draws)
            if sample_world(m, F(1, 2), seed=5, index=i).r == (1,)
        )
        # binomial(10^4, 1/2): three sigma is 150
        assert abs(hits - draws / 2) <= 150


class TestCompareExactVsMc:
    def test_single_draw_within_band(self):
        report = compare_exact_vs_mc(m=srs1_model(), theta=F(1, 2), draws=1, seed=0)
        assert report.cells_outside == 0 or report.three_sigma_bound >= 0.5

    def test_select_max_three_quarters(self):
        report = compare_exact_vs_mc(
            m=select_max_model(), theta=F(1, 2), scheme=values_only(),
            draws=100_000, seed=42,
        )
        cell = next(c for c in report.cells if c.outcome == (1,))
        assert cell.exact == F(3, 4)
        assert report.cells_outside == 0

    def test_deterministic_model_zero_deviation(self):
        report = compare_exact_vs_mc(m=point_model(), theta="t", draws=500, seed=1)
        assert report.max_abs_deviation == 0.0

    def test_bit_identical_reports(self):
        a = compare_exact_vs_mc(m=srs1_model(), theta=F(1, 2), draws=2000, seed=9)
        b = compare_exact_vs_mc(m=srs1_model(), theta=F(1, 2), draws=2000, seed=9)
        assert a == b

    def test_draws_validation(self):
        with pytest.raises(ValueError):
            compare_exact_vs_mc(m=point_model(), theta="t", draws=0)

    @pytest.mark.parametrize("make_model", [srs1_model, select_max_model])
    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_counts_equal_tally_of_sample_world(self, make_model, seed, draws=500):
        m, scheme = make_model(), values_only()
        report = compare_exact_vs_mc(
            m=m, theta=F(1, 2), scheme=scheme, draws=draws, seed=seed
        )
        observe = observation_fn(m, None, scheme)
        expected = Counter(
            canonical_key(observe(sample_world(m, F(1, 2), seed=seed, index=i)))
            for i in range(draws)
        )
        counts = {canonical_key(c.outcome): c.count for c in report.cells if c.count}
        assert counts == dict(expected)

    @pytest.mark.parametrize("draws", [BLOCK - 1, BLOCK, BLOCK + 1])
    def test_counts_equal_tally_across_a_block_edge(self, draws):
        self.test_counts_equal_tally_of_sample_world(srs1_model, 2**64 - 1, draws)


TOP = 2**64 - 1


def bisected_tally(cutoffs, seed, draws, cells):
    return Counter(cells[bisect_left(cutoffs, u)] for block in u64_blocks(seed, draws) for u in block)


def identity(cutoffs):
    return range(len(cutoffs))


def bucket_atoms(cutoffs, b):
    """The atoms that bucket [b * 2^56, (b + 1) * 2^56 - 1] can hit."""
    return range(bisect_left(cutoffs, b << 56), bisect_left(cutoffs, ((b + 1) << 56) - 1) + 1)


def split_buckets(cutoffs, cells=None):
    """Top bytes whose bucket holds draws of two atoms, or of two cells."""
    cells = cells or identity(cutoffs)
    return {b for b in range(256) if len({cells[a] for a in bucket_atoms(cutoffs, b)}) > 1}


@st.composite
def cutoff_sets(draw):
    """Non-decreasing cutoffs ending at 2^64 - 1: bucket edges, runs of tiny
    atoms inside one bucket, and one random cutoff in each of up to 256
    buckets, so that from none to every bucket is split."""
    edges = draw(st.lists(st.integers(1, 256), max_size=6))
    cutoffs = [b << 56 for b in edges if b < 256] + [(b << 56) - 1 for b in edges]
    for _ in range(draw(st.integers(0, 2))):
        start = draw(st.integers(0, TOP - 64))
        cutoffs += [start + k for k in draw(st.lists(st.integers(0, 63), min_size=2, max_size=8))]
    for b in draw(st.sets(st.integers(0, 255), max_size=256)):
        cutoffs.append((b << 56) + draw(st.integers(0, (1 << 56) - 1)))
    return sorted(cutoffs) + [TOP]


@st.composite
def cell_maps(draw, cutoffs):
    """Atom -> cell maps from every atom in one cell to every atom in its
    own, scattered or in runs of neighbouring atoms."""
    k = draw(st.integers(1, len(cutoffs)))
    cells = draw(st.lists(st.integers(0, k - 1), min_size=len(cutoffs), max_size=len(cutoffs)))
    return sorted(cells) if draw(st.booleans()) else cells


class Recorder(Counter):
    """A Counter that keeps every bytes object it is updated with."""

    seen = []

    def update(self, items=(), **kwargs):
        if isinstance(items, bytes):
            Recorder.seen.append(items)
        super().update(items, **kwargs)


class TestTally:
    @settings(deadline=None, max_examples=150)
    @given(cutoff_sets(), st.integers(-(2**64), 2**64), st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1]))
    def test_equals_a_bisection_per_draw(self, cutoffs, seed, draws):
        cells = identity(cutoffs)
        assert tally(cutoffs, seed, draws, cells) == bisected_tally(cutoffs, seed, draws, cells)

    @settings(deadline=None, max_examples=150)
    @given(st.data(), cutoff_sets(), st.integers(-(2**64), 2**64), st.sampled_from([1, BLOCK - 1, BLOCK + 1]))
    def test_cells_equal_the_cells_of_a_bisection_per_draw(self, data, cutoffs, seed, draws):
        cells = data.draw(cell_maps(cutoffs))
        assert tally(cutoffs, seed, draws, cells) == bisected_tally(cutoffs, seed, draws, cells)

    @pytest.mark.parametrize(
        "cutoffs, split",
        [
            ([TOP], 0),
            ([(b << 56) - 1 for b in range(1, 257)], 0),
            ([b << 56 for b in range(1, 256)] + [TOP], 255),
            ([(5 << 56) + k for k in range(6)] + [TOP], 1),
            ([(b << 56) - 2 for b in range(1, 201)] + [TOP], 200),
            ([(b << 56) + 1 for b in range(256)] + [TOP], 256),
            ([(b << 56) + (k << 52) for b in range(256) for k in range(16)] + [TOP], 256),
        ],
        ids=["one-atom", "bucket-tops", "bucket-bottoms", "tiny-atoms", "split-200", "split-all", "many-per-bucket"],
    )
    @pytest.mark.parametrize("draws", [BLOCK - 1, BLOCK, BLOCK + 1])
    def test_shapes(self, cutoffs, split, draws):
        cells = identity(cutoffs)
        assert len(split_buckets(cutoffs)) == split
        assert tally(cutoffs, 11, draws, cells) == bisected_tally(cutoffs, 11, draws, cells)

    @pytest.mark.parametrize("buckets", [mc.SCAN_MIN - 1, mc.SCAN_MIN])
    @pytest.mark.parametrize("draws", [BLOCK, BLOCK + 1])
    def test_cells_on_both_sides_of_scan_min(self, monkeypatch, buckets, draws):
        # atom b fills bucket b, but bucket 255 is split; cell 0 holds
        # `buckets` scattered pure buckets, every other atom a cell of its own
        cutoffs = [(b << 56) - 1 for b in range(1, 256)] + [(255 << 56) + 5, TOP]
        tops = [10, 50, 100, 200, 240][:buckets]
        cells = [0 if a in tops else a + 1 for a in range(len(cutoffs))]
        assert split_buckets(cutoffs, cells) == {255}
        monkeypatch.setattr(mc, "Counter", Recorder)
        monkeypatch.setattr(Recorder, "seen", [])
        assert tally(cutoffs, 11, draws, cells) == bisected_tally(cutoffs, 11, draws, cells)
        # the Counter sees cell 0's top bytes only below SCAN_MIN
        counted = set().union(*Recorder.seen)
        assert set(tops) & counted == (set(tops) if buckets < mc.SCAN_MIN else set())
        assert 11 in counted and 255 not in counted


def bisections(monkeypatch, name, draws, by_cell=False):
    """Draws bisected by `compare_exact_vs_mc` on a catalog model at its
    first grid point, and that joint's buckets split between two atoms or,
    `by_cell`, between two observation cells."""
    build = parse_model(CATALOG[name]).build()
    theta, phi = build.model.grid[0]
    calls = []
    monkeypatch.setattr(mc, "bisect_left", lambda a, x, *bounds: calls.append(x) or bisect_left(a, x, *bounds))
    compare_exact_vs_mc(build.model, theta, phi, scheme=build.scheme, draws=draws, seed=20260810)
    outcomes, cutoffs = mc._thresholds(mc.build_joint(build.model, theta, phi))
    observe = observation_fn(build.model, phi, build.scheme)
    cells = [canonical_key(observe(o)) for o in outcomes] if by_cell else None
    return len(calls), len(split_buckets(cutoffs, cells))


class TestTallyWork:
    def test_no_bisection_without_split_buckets(self, monkeypatch):
        assert bisections(monkeypatch, "select_max", 100_000) == (0, 0)

    def test_split_bucket_draws_only(self, monkeypatch):
        # 47 of 256 buckets split: 18,359 draws expected, 122 the binomial
        # standard deviation; the slack is eight of them
        calls, split = bisections(monkeypatch, "srs_wor_n3", 100_000)
        assert split == 47
        assert 0 < calls <= 100_000 * split // 256 + 1_000

    def test_split_cell_draws_only(self, monkeypatch):
        # 71 of 256 buckets straddle two atoms, 35 two observation cells;
        # only the draws of those 35 are bisected
        assert bisections(monkeypatch, "unordered_values", 100_000)[1] == 71
        calls, split = bisections(monkeypatch, "unordered_values", 100_000, by_cell=True)
        assert split == 35
        assert 0 < calls <= 100_000 * split // 256 + 1_000

    @pytest.mark.parametrize("name, buckets", [("srs_wor_n3", 13), ("sampled_weights", 32), ("stratified", 0)])
    def test_counter_buckets_on_the_catalog(self, monkeypatch, name, buckets):
        # the benchmark's ops reach both sides of SCAN_MIN: the pure buckets
        # of cells with fewer go to the Counter, 13 and 32 of them here
        build = parse_model(CATALOG[name]).build()
        theta, phi = build.model.grid[0]
        monkeypatch.setattr(mc, "Counter", Recorder)
        monkeypatch.setattr(Recorder, "seen", [])
        compare_exact_vs_mc(build.model, theta, phi, scheme=build.scheme, draws=BLOCK, seed=20260810)
        assert len(set().union(*Recorder.seen)) == buckets
