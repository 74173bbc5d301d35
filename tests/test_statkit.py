import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import special, stats

from discodet.statkit import (SeedStream, binomial_ci, empirical_quantile,
                              sample_cgauss, sample_gamma)


class TestSeedStream:
    def test_same_address_same_stream(self):
        a = SeedStream(123).child("foo", 4).standard_normal(16)
        b = SeedStream(123).child("foo", 4).standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_distinct_labels_distinct_streams(self):
        s = SeedStream(123)
        a = s.child("foo").standard_normal(16)
        b = s.child("bar").standard_normal(16)
        c = s.child("foo", 1).standard_normal(16)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_creation_order_irrelevant(self):
        s = SeedStream(9)
        first = s.child("x", 2)
        _ = s.child("y")          # interleaved creation must not matter
        again = SeedStream(9).child("x", 2)
        np.testing.assert_array_equal(first.random(8), again.random(8))

    def test_derive_is_deterministic(self):
        assert SeedStream(5).derive("sub").root_seed == SeedStream(5).derive("sub").root_seed
        assert SeedStream(5).derive("sub").root_seed != SeedStream(5).derive("other").root_seed

    def test_root_seed_range(self):
        with pytest.raises(ValueError):
            SeedStream(-1)
        with pytest.raises(ValueError):
            SeedStream(2**64)
        SeedStream(2**64 - 1)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            SeedStream(0).child("a", -1)


class TestSampleCgauss:
    def test_moments(self):
        gen = SeedStream(1).child("c2")
        x = sample_cgauss(gen, 3.0, size=200_000)
        assert abs(x.mean()) < 0.02
        assert abs(np.mean(np.abs(x) ** 2) - 3.0) < 0.05
        # circular symmetry: E[x^2] = 0
        assert abs(np.mean(x ** 2)) < 0.02

    def test_negative_variance(self):
        with pytest.raises(ValueError):
            sample_cgauss(SeedStream(1).child("c"), -1.0, size=1)

    def test_stream_layout_real_then_imaginary(self):
        # every real part is drawn before any imaginary part; the channel
        # streams depend on this order
        x = sample_cgauss(SeedStream(3).child("l"), 3.0, size=(4, 5))
        gen = SeedStream(3).child("l")
        re = gen.standard_normal((4, 5))
        im = gen.standard_normal((4, 5))
        np.testing.assert_array_equal(x.real, math.sqrt(1.5) * re)
        np.testing.assert_array_equal(x.imag, math.sqrt(1.5) * im)


class TestSampleGamma:
    def test_distribution(self):
        gen = SeedStream(2).child("g")
        x = sample_gamma(gen, 5, 2.0, size=100_000)
        stat, p = stats.kstest(x, stats.gamma(a=5, scale=2.0).cdf)
        assert p > 0.01

    def test_invalid_shape_scale(self):
        gen = SeedStream(2).child("g")
        with pytest.raises(ValueError):
            sample_gamma(gen, 0, 1.0, size=1)
        with pytest.raises(ValueError):
            sample_gamma(gen, 2.5, 1.0, size=1)
        with pytest.raises(ValueError):
            sample_gamma(gen, 2, 0.0, size=1)

    # unchecked, a NaN scale draws NaN and an infinite one inf
    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf])
    def test_non_finite_scale(self, scale):
        message = f"scale must be positive and finite, got {scale}"
        with pytest.raises(ValueError, match=re.escape(message)):
            sample_gamma(SeedStream(2).child("g"), 5, scale, size=3)


class TestEmpiricalQuantile:
    def test_lower_order_statistic(self):
        vals = list(range(1, 11))          # 1..10
        assert empirical_quantile(vals, 0.5) == 5.0
        assert empirical_quantile(vals, 0.0) == 1.0
        assert empirical_quantile(vals, 1.0) == 10.0
        assert empirical_quantile(vals, 0.95) == 10.0
        assert empirical_quantile(vals, 0.91) == 10.0
        assert empirical_quantile(vals, 0.90) == 9.0

    def test_hundred_points(self):
        vals = np.arange(100.0)
        # index ceil(0.95*100)-1 = 94
        assert empirical_quantile(vals, 0.95) == 94.0

    def test_ties_deterministic(self):
        assert empirical_quantile([3.0] * 7, 0.5) == 3.0

    def test_errors(self):
        with pytest.raises(ValueError):
            empirical_quantile([], 0.5)
        with pytest.raises(ValueError):
            empirical_quantile([1.0], 1.5)

    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
    def test_nan_rejected(self, q):
        # unchecked, the sort puts the NaN last and q = 0.5 returns 2.0
        with pytest.raises(ValueError, match="NaN"):
            empirical_quantile([1.0, math.nan, 2.0], q)


class TestBinomialCI:
    def test_frozen_wilson_values(self):
        lo, hi = binomial_ci(10, 100, 0.95)
        assert lo == pytest.approx(0.05522913706067510, rel=1e-12)
        assert hi == pytest.approx(0.17436566150491345, rel=1e-12)

    @pytest.mark.parametrize("level", [0.9, 0.95, 0.99])
    @pytest.mark.parametrize("k,n", [(10, 100), (30, 200), (500, 1000)])
    def test_matches_wilson_with_ndtri_z(self, k, n, level):
        # the interval written out with scipy's normal quantile as z
        z = float(special.ndtri(0.5 + level / 2.0))
        p = k / n
        denom = 1.0 + z * z / n
        center = (p + z * z / (2 * n)) / denom
        half = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
        lo, hi = binomial_ci(k, n, level)
        assert lo == pytest.approx(center - half, rel=1e-15, abs=0)
        assert hi == pytest.approx(center + half, rel=1e-15, abs=0)

    def test_boundary_counts(self):
        lo, hi = binomial_ci(0, 50)
        assert lo == 0.0 and hi > 0.0
        lo, hi = binomial_ci(50, 50)
        assert hi == 1.0 and lo < 1.0

    @given(st.integers(1, 10_000), st.data(),
           st.floats(0.5, 0.999, allow_nan=False))
    def test_interval_contains_point_estimate(self, n, data, level):
        k = data.draw(st.integers(0, n))
        lo, hi = binomial_ci(k, n, level)
        p = k / n
        # 1e-12 slack: lo/hi are computed in floating point and may miss
        # the exact point estimate by rounding at k = 0 or k = n
        assert 0.0 <= lo <= p + 1e-12 and p - 1e-12 <= hi <= 1.0

    def test_wider_at_higher_level(self):
        lo95, hi95 = binomial_ci(30, 200, 0.95)
        lo99, hi99 = binomial_ci(30, 200, 0.99)
        assert lo99 < lo95 and hi99 > hi95

    def test_errors(self):
        with pytest.raises(ValueError):
            binomial_ci(1, 0)
        with pytest.raises(ValueError):
            binomial_ci(5, 4)
        with pytest.raises(ValueError):
            binomial_ci(1, 10, 1.0)
