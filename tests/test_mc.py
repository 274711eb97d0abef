"""Counter-based generator and the exact-vs-simulated cross check."""

from collections import Counter
from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from ignorability_lab.exactprob import bernoulli, canonical_key, point_mass
from ignorability_lab.designs import constant, select_max, srs_wor
from ignorability_lab.mc import (
    BLOCK,
    compare_exact_vs_mc,
    mix64,
    sample_world,
    u64,
    u64_blocks,
)
from ignorability_lab.sampling import (
    Population,
    SurveyModel,
    iid_signal_dist,
    observation_fn,
    values_only,
)

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


class TestBlocks:
    @settings(deadline=None)
    @given(st.integers(-(2**70), 2**70), st.integers(0, 3 * BLOCK + 5))
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
