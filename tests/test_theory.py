import math
import re

import numpy as np
import pytest
from scipy import special, stats

from discodet.channel import DrisProfile, dbm_to_watts
from discodet.theory import (GammaNull, alpha_bar, gamma_cdf, gamma_h0_logpdf,
                             gamma_sf, prop_variance, radiometer_threshold,
                             sjnr_empirical, sjnr_theory)

NOISE = dbm_to_watts(-170.0 + 10.0 * math.log10(180e3))


def default_profile():
    return DrisProfile((math.pi / 9, 7 * math.pi / 6), (0.8, 1.0), (0.5, 0.5))


class TestAlphaBar:
    def test_default_profile_exact(self):
        assert abs(alpha_bar(default_profile()) - 0.82) < 1e-12

    def test_general_formula(self):
        prof = DrisProfile((0.0, 1.0, 2.0, 3.0), (0.5, 0.6, 0.7, 0.8),
                           (0.1, 0.2, 0.3, 0.4))
        expected = 0.1 * 0.25 + 0.2 * 0.36 + 0.3 * 0.49 + 0.4 * 0.64
        assert alpha_bar(prof) == pytest.approx(expected, rel=1e-14)


class TestPropVariance:
    def test_reference_geometry_anchor(self):
        # independent hand evaluation: LOS hops at d = 1.5 m (transmitter to
        # surface) and d = sqrt(1.5^2 + 100^2 + 25) m (surface to warden)
        d_g = 1.5
        d_i = math.sqrt(1.5**2 + 100.0**2 + 5.0**2)
        loss_g = 10 ** ((35.6 + 22.0 * math.log10(d_g)) / 10)
        loss_i = 10 ** ((35.6 + 22.0 * math.log10(d_i)) / 10)
        expected = 2048 * 0.82 / (loss_g * loss_i)
        got = prop_variance(2048, 0.82, loss_g, loss_i)
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(2.0722540998523485e-09, rel=1e-12)

    def test_scaling(self):
        base = prop_variance(256, 0.82, 1e4, 1e8)
        assert prop_variance(512, 0.82, 1e4, 1e8) == pytest.approx(2 * base)
        assert prop_variance(256, 0.41, 1e4, 1e8) == pytest.approx(base / 2)

    def test_errors(self):
        with pytest.raises(ValueError):
            prop_variance(10, 0.82, 0.0, 1.0)
        with pytest.raises(ValueError):
            prop_variance(-1, 0.82, 1.0, 1.0)

    @pytest.mark.parametrize("args", [(10, math.nan, 1.0, 1.0), (10, 0.82, math.nan, 1.0),
                                      (10, 0.82, 1.0, math.nan)])
    def test_nan_rejected(self, args):
        with pytest.raises(ValueError):
            prop_variance(*args)


class TestGammaH0Logpdf:
    @pytest.mark.parametrize("shape,scale", [(1, 1.0), (5, NOISE), (20, 0.3), (25, 2.0)])
    def test_matches_scipy(self, shape, scale):
        null = GammaNull(shape, scale)
        y = np.linspace(scale * 0.01, scale * shape * 5, 200)
        expected = stats.gamma(a=shape, scale=scale).logpdf(y)
        np.testing.assert_allclose(gamma_h0_logpdf(null, y), expected, rtol=1e-12)

    def test_zero_limits(self):
        zero = np.array([0.0])
        assert gamma_h0_logpdf(GammaNull(1, 2.0), zero)[0] == pytest.approx(-math.log(2.0))
        assert gamma_h0_logpdf(GammaNull(5, 2.0), zero)[0] == -math.inf

    def test_scalar_and_negative(self):
        with pytest.raises(ValueError):
            gamma_h0_logpdf(GammaNull(5, 1.0), np.array([-0.1]))

    @pytest.mark.parametrize("helper", [gamma_h0_logpdf, gamma_sf, gamma_cdf])
    def test_nan_rejected(self, helper):
        with pytest.raises(ValueError, match="requires y >= 0"):
            helper(GammaNull(5, 1.0), np.array([1.0, math.nan]))

    @pytest.mark.parametrize("shape", [1, 5])
    def test_infinite_limit(self, shape):
        got = gamma_h0_logpdf(GammaNull(shape, 2.0), np.array([1.0, np.inf]))
        assert np.isfinite(got[0]) and got[1] == -math.inf

    def test_null_validation(self):
        with pytest.raises(ValueError):
            GammaNull(0, 1.0)
        with pytest.raises(ValueError):
            GammaNull(5, 0.0)
        with pytest.raises(ValueError):
            GammaNull(5, math.nan)

    # unchecked, an infinite scale builds, its radiometer threshold is inf
    # and its log-density -inf everywhere
    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf])
    def test_non_finite_scale(self, scale):
        message = f"scale must be positive and finite, got {scale}"
        with pytest.raises(ValueError, match=re.escape(message)):
            GammaNull(5, scale)


# 0 to past 2N, then past 745, where e^{-x} alone underflows to 0
SHAPES = [1, 2, 5, 20, 200]


def _grid(shape):
    return np.concatenate([np.linspace(0.0, 3.0 * shape + 60.0, 2001),
                           np.linspace(700.0, 2000.0, 400)])


class TestGammaTail:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_cdf_and_sf_match_scipy(self, shape):
        x = _grid(shape)
        null = GammaNull(shape, 1.0)
        np.testing.assert_allclose(gamma_cdf(null, x), special.gammainc(shape, x),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(gamma_sf(null, x), special.gammaincc(shape, x),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_sf_relative_in_upper_tail(self, shape):
        x = _grid(shape)
        x = x[x > shape]
        expected = special.gammaincc(shape, x)
        keep = expected > 1e-300     # a normal float: relative error is defined
        got = gamma_sf(GammaNull(shape, 1.0), x)
        np.testing.assert_allclose(got[keep], expected[keep], rtol=1e-11)
        assert np.all(got[~keep] < 1e-300)
        # for the larger shapes the grid checks normal tail values past 745
        assert np.any(keep & (x > 745)) == (shape >= 20)

    def test_scale_and_limits(self):
        null = GammaNull(5, 2.5)
        y = np.array([0.0, 1.0, 10.0, 40.0])
        np.testing.assert_allclose(gamma_sf(null, y), special.gammaincc(5, y / 2.5),
                                   rtol=1e-14)
        assert gamma_sf(null, 0.0) == 1.0 and gamma_cdf(null, 0.0) == 0.0
        assert gamma_sf(null, np.inf) == 0.0 and gamma_cdf(null, np.inf) == 1.0
        # a finite y past the largest float times the scale is infinitely far out
        tiny = GammaNull(5, 1e-300)
        assert gamma_sf(tiny, 1e10) == 0.0 and gamma_cdf(tiny, 1e10) == 1.0
        with pytest.raises(ValueError):
            gamma_sf(null, np.array([-1.0]))


class TestRadiometerThreshold:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("alpha", [1e-6, 0.01, 0.05, 0.5])
    def test_matches_scipy_quantile(self, shape, alpha):
        scale = 2.5
        got = radiometer_threshold(GammaNull(shape, scale), alpha)
        # gammaincinv sees 1 - alpha rounded, worth 1e-10 relative at alpha = 1e-6
        assert got == pytest.approx(special.gammaincinv(shape, 1 - alpha) * scale,
                                    rel=1e-10)
        assert special.gammaincc(shape, got / scale) == pytest.approx(alpha, rel=1e-12)

    def test_physical_scale(self):
        null = GammaNull(5, NOISE)
        got = radiometer_threshold(null, 0.05)
        assert got == pytest.approx(stats.gamma(a=5, scale=NOISE).ppf(0.95), rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5, math.nan])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError):
            radiometer_threshold(GammaNull(5, 1.0), alpha)


class TestSjnr:
    # reference geometry: direct NLOS link at 140 m, surface hops at 1.5 m
    # and the surface-to-receiver-center distance
    D_DIRECT = 140.0
    D_G = 1.5
    D_I = math.sqrt(1.5**2 + 140.0**2 + 5.0**2)

    def _losses(self):
        loss_d = 10 ** ((32.6 + 36.7 * math.log10(self.D_DIRECT)) / 10)
        loss_g = 10 ** ((35.6 + 22.0 * math.log10(self.D_G)) / 10)
        loss_i = 10 ** ((35.6 + 22.0 * math.log10(self.D_I)) / 10)
        return loss_d, loss_g, loss_i

    def test_with_surface_anchor(self):
        loss_d, loss_g, loss_i = self._losses()
        lin = sjnr_theory(dbm_to_watts(5.0), 2048, 0.82, loss_d, loss_g, loss_i, NOISE)
        assert 10 * math.log10(lin) == pytest.approx(-21.33, abs=0.01)

    def test_without_surface_anchor(self):
        loss_d, loss_g, loss_i = self._losses()
        lin = sjnr_theory(dbm_to_watts(5.0), 0, 0.82, loss_d, loss_g, loss_i, NOISE)
        assert 10 * math.log10(lin) == pytest.approx(11.084, abs=0.01)

    def test_monotone_decreasing_in_elements(self):
        loss_d, loss_g, loss_i = self._losses()
        vals = [sjnr_theory(dbm_to_watts(5.0), n, 0.82, loss_d, loss_g, loss_i, NOISE)
                for n in (0, 256, 1024, 2048, 8192)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_empirical_ratio_of_means(self):
        sig = np.array([2.0, 4.0])
        jam = np.array([1.0, 1.0])
        assert sjnr_empirical(sig, jam, 0.5) == pytest.approx(3.0 / 1.5)
        with pytest.raises(ValueError):
            sjnr_empirical([], [], 1.0)

    def test_theory_validation(self):
        with pytest.raises(ValueError):
            sjnr_theory(0.0, 10, 0.82, 1.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("position", range(5))
    def test_nan_rejected(self, position):
        args = [1.0, 1.0, 1.0, 1.0, 1.0]
        args[position] = math.nan
        p0, loss_d, loss_g, loss_i, noise = args
        with pytest.raises(ValueError):
            sjnr_theory(p0, 10, 0.82, loss_d, loss_g, loss_i, noise)
