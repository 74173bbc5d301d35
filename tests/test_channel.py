import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from discodet import channel
from discodet.channel import (DrisProfile, Geometry, LinkFading,
                              cascaded_mc, dbm_to_watts, gen_bob_signals,
                              gen_willie_statistics, path_loss_linear,
                              sample_bob_position, sample_rician_g)
from discodet.config import DEFAULT_CONFIG, parse_config_text
from discodet.statkit import SeedStream
from discodet.theory import alpha_bar, prop_variance


def small_geometry(n_elements=256):
    return Geometry(alice=(0.0, 0.0, 5.0), willie=(0.0, 100.0, 0.0),
                    dris_center=(-1.5, 0.0, 5.0), bob_center=(0.0, 140.0, 0.0),
                    bob_inner=10.0, bob_outer=20.0, n_elements=n_elements)


class TestUnits:
    def test_dbm_to_watts(self):
        assert dbm_to_watts(0.0) == pytest.approx(1e-3)
        assert dbm_to_watts(30.0) == pytest.approx(1.0)
        assert dbm_to_watts(5.0) == pytest.approx(10 ** (-2.5))

    def test_path_loss_linear(self):
        assert path_loss_linear(channel.LOS_3GPP, 100.0) == pytest.approx(10 ** 7.96)
        assert path_loss_linear(channel.NLOS_3GPP, 100.0) == pytest.approx(10 ** 10.6)
        with pytest.raises(ValueError):
            path_loss_linear(channel.LOS_3GPP, 0.0)


class TestGeometry:
    def test_distance(self):
        geo = small_geometry()
        assert geo.distance(geo.alice, geo.dris_center) == pytest.approx(1.5)
        assert geo.distance(geo.dris_center, geo.willie) == pytest.approx(
            math.sqrt(1.5**2 + 100.0**2 + 5.0**2))

    @pytest.mark.parametrize("a,b", [("alice", "willie"), ("alice", "dris_center"),
                                     ("dris_center", "willie"), ("alice", "bob_center"),
                                     ("dris_center", "bob_center")])
    def test_coincident_positions_rejected(self, a, b):
        geo = small_geometry()
        with pytest.raises(ValueError, match=f"{a} and {b} positions coincide"):
            dataclasses.replace(geo, **{b: getattr(geo, a)})

    def test_bad_annulus(self):
        with pytest.raises(ValueError):
            Geometry((0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 2, 0),
                     bob_inner=5.0, bob_outer=4.0)


class TestLinkFading:
    @pytest.mark.parametrize("field,value", [("rician_g", -1.0), ("rician_g", math.nan),
                                             ("noise_w", 0.0), ("noise_b", math.nan)])
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            LinkFading(**{field: value})


class TestDrisProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            DrisProfile((0.0, 1.0, 2.0), (1, 1, 1), (1 / 3, 1 / 3, 1 / 3))  # not 2^b
        with pytest.raises(ValueError):
            DrisProfile((0.0, 1.0), (1.0, 1.1), (0.5, 0.5))
        with pytest.raises(ValueError):
            DrisProfile((0.0, 1.0), (1.0, 1.0), (0.6, 0.6))
        with pytest.raises(ValueError):
            DrisProfile((0.0, 1.0), (1.0, math.nan), (0.5, 0.5))
        with pytest.raises(ValueError):
            DrisProfile((0.0, 1.0), (1.0, 1.0), (math.nan, 0.5))

    def test_bits_and_table(self):
        prof = DrisProfile((0.0, math.pi), (0.5, 1.0), (0.25, 0.75))
        table = prof.coeff_table()
        np.testing.assert_allclose(np.abs(table), [0.5, 1.0])


class TestSampling:
    def test_bob_annulus(self):
        geo = small_geometry()
        gen = SeedStream(3).child("bob")
        pos = sample_bob_position(gen, geo, size=50_000)
        r = np.linalg.norm(pos[:, :2] - np.asarray(geo.bob_center[:2]), axis=1)
        assert np.all((r >= geo.bob_inner) & (r <= geo.bob_outer))
        # area-uniform: E[r^2] = (r1^2 + r2^2)/2
        assert np.mean(r**2) == pytest.approx((100 + 400) / 2, rel=0.01)
        assert np.all(pos[:, 2] == geo.bob_center[2])

    def test_rician_moments(self):
        gen = SeedStream(3).child("ric")
        g = sample_rician_g(gen, 16, kappa=4.0, size=40_000)
        # per-entry unit second moment; the mean is the real LOS term
        np.testing.assert_allclose(np.mean(np.abs(g) ** 2, axis=0), 1.0, atol=0.02)
        expected_mean = np.full(16, math.sqrt(4 / 5))
        np.testing.assert_allclose(g.mean(axis=0), expected_mean, atol=0.02)

    def test_rician_zero_kappa_is_rayleigh(self):
        g = sample_rician_g(SeedStream(3).child("ray"), 16, kappa=0.0, size=40_000)
        assert abs(g.mean()) < 0.02


DEFAULT_PROFILE = DEFAULT_CONFIG.profile()
QUARTER_PROFILE = DrisProfile((0.0, 1.0, 2.0, 3.0), (1.0, 0.9, 0.8, 0.7),
                              (0.25, 0.25, 0.25, 0.25))
NON_DYADIC_PROFILE = DrisProfile((0.1, 2.0), (0.8, 1.0), (0.3, 0.7))
# the cumulative probabilities end at 1 - 1e-13, just below 1
SHORT_SUM_PROFILE = DrisProfile((0.0, 1.0, 2.0, 3.0), (1.0,) * 4,
                                (0.25, 0.25, 0.25, 0.25 - 1e-13))


class FixedUniforms:
    """Stands in for a generator whose ``random`` returns given values."""

    def __init__(self, values):
        self.values = values

    def random(self, shape):
        return self.values.reshape(shape)


class TestCascadeKernel:
    @pytest.mark.parametrize("prof", [
        DEFAULT_PROFILE,                 # one random bit per element
        QUARTER_PROFILE,                 # the inverse-CDF fallback
        NON_DYADIC_PROFILE,
    ])
    def test_phase_frequencies(self, prof):
        idx = channel._phase_indices(SeedStream(8).child("idx"), prof, (100, 3, 512))
        assert idx.shape == (100, 3, 512)
        freq = np.bincount(idx.ravel(), minlength=len(prof.phases)) / idx.size
        # 153 600 draws: the binomial standard error is at most 0.0013
        np.testing.assert_allclose(freq, prof.probabilities, atol=0.006)

    @pytest.mark.parametrize("prof", [QUARTER_PROFILE, NON_DYADIC_PROFILE, SHORT_SUM_PROFILE],
                             ids=["quarter", "non-dyadic", "short-sum"])
    def test_inverse_cdf_is_clipped_searchsorted(self, prof):
        cum = np.cumsum(prof.probabilities)
        # the profile's own draws, then every cut, the float below it and
        # the largest uniform below 1
        u = SeedStream(8).child("u").random((50, 40))
        idx = channel._phase_indices(SeedStream(8).child("u"), prof, (50, 40))
        edges = np.concatenate([cum, np.nextafter(cum, 0.0), [0.0, np.nextafter(1.0, 0.0)]])
        idx_edges = channel._phase_indices(FixedUniforms(edges), prof, edges.shape)
        for got, uniforms in ((idx, u), (idx_edges, edges)):
            assert got.dtype == np.uint8
            ref = np.minimum(np.searchsorted(cum, uniforms, side="right"), len(cum) - 1)
            np.testing.assert_array_equal(got, ref)
        assert idx_edges[-1] == len(cum) - 1
        if prof is SHORT_SUM_PROFILE:
            assert cum[-1] < 1.0

    def test_default_profile_reads_bits(self):
        idx = channel._phase_indices(SeedStream(8).child("bits"), DEFAULT_PROFILE, (3, 5))
        raw = SeedStream(8).child("bits").integers(0, 256, size=2, dtype=np.uint8)
        np.testing.assert_array_equal(idx, np.unpackbits(raw, count=15).reshape(3, 5))

    @pytest.mark.parametrize("prof", [DEFAULT_PROFILE, QUARTER_PROFILE,
                                      NON_DYADIC_PROFILE])
    def test_matches_einsum(self, prof):
        geo = small_geometry(64)
        kappa = LinkFading().rician_g
        got = channel._element_cascade(SeedStream(9).child("k"), geo, kappa, prof, 30, 5)
        # the same draws, in the same order, contracted the direct way
        gen = SeedStream(9).child("k")
        g = sample_rician_g(gen, geo.n_elements, kappa, size=30)
        h = channel.sample_cgauss(gen, 1.0, size=(30, 64))
        idx = channel._phase_indices(gen, prof, (30, 5, 64))
        ref = np.einsum("ik,imk->im", g * h, prof.coeff_table()[idx])
        assert got.shape == (30, 5)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n_elements,kernel", [
        (8 * channel._PATTERN_MARGIN, channel._pattern_cascade),
        (8 * channel._PATTERN_MARGIN - 1, channel._element_cascade),
    ])
    def test_dispatch(self, n_elements, kernel):
        """Three two-phase symbols make 8 patterns: the pattern kernel runs
        exactly when 8 * _PATTERN_MARGIN <= N_D."""
        geo = small_geometry(n_elements)
        fad = LinkFading()
        loss_i = np.linspace(1e7, 1e8, 7)
        got = channel._cascade(SeedStream(2).child("d"), geo, fad, DEFAULT_PROFILE,
                               loss_i, 7, 3)
        loss_g = path_loss_linear(fad.alice_dris, geo.distance(geo.alice, geo.dris_center))
        ref = kernel(SeedStream(2).child("d"), geo, fad.rician_g, DEFAULT_PROFILE, 7, 3) \
            / np.sqrt(loss_g * loss_i)[:, None]
        np.testing.assert_array_equal(got, ref)


FOUR_PHASE_PROFILE = DrisProfile((0.0, 1.0, 2.5, 4.0), (1.0, 0.9, 0.6, 0.3),
                                 (0.1, 0.2, 0.3, 0.4))


def warden_draws(kernel, seed, geo, prof, n_symbols, n_intervals):
    """The cascade (scaled by the hop losses) and the warden's statistic Y
    under H1 at -7 dBm, with the cascade drawn by ``kernel``."""
    fad = LinkFading()
    p0 = dbm_to_watts(-7.0)
    gen = SeedStream(seed).child("kernel-equivalence")
    loss_g = path_loss_linear(fad.alice_dris, geo.distance(geo.alice, geo.dris_center))
    loss_i = path_loss_linear(fad.dris_willie, geo.distance(geo.dris_center, geo.willie))
    loss_d = path_loss_linear(fad.alice_willie, geo.distance(geo.alice, geo.willie))
    h = channel._chunked(n_intervals, n_symbols * geo.n_elements,
                         lambda k: kernel(gen, geo, fad.rician_g, prof, k, n_symbols))
    h /= math.sqrt(loss_g * loss_i)
    h_d = channel.sample_cgauss(gen, 1.0 / loss_d, size=(n_intervals, 1))
    s = channel.sample_cgauss(gen, p0, size=h.shape)
    noise = channel.sample_cgauss(gen, fad.noise_w, size=h.shape)
    y = np.sum(np.abs((h_d + h) * s + noise) ** 2, axis=1)
    var_c = prop_variance(geo.n_elements, alpha_bar(prof), loss_g, loss_i)
    mean_y = n_symbols * (p0 * (1 / loss_d + var_c) + fad.noise_w)
    return h, y, var_c, mean_y


class TestPatternKernel:
    """The pattern kernel draws the per-element kernel's cascade in
    distribution, so the warden's statistic is the same either way."""

    @pytest.mark.parametrize("prof", [DEFAULT_PROFILE, FOUR_PHASE_PROFILE],
                             ids=["default", "four-phase"])
    @pytest.mark.parametrize("n_elements", [256, 2048], ids=["256", "2048"])
    @pytest.mark.parametrize("n_symbols", [1, 5])
    def test_matches_element_kernel(self, prof, n_elements, n_symbols):
        geo = small_geometry(n_elements)
        n = min(4000, 8_000_000 // (n_symbols * geo.n_elements))   # ~1 s per case
        ys = []
        for seed, kernel in ((11, channel._element_cascade), (12, channel._pattern_cascade)):
            h, y, var_c, mean_y = warden_draws(kernel, seed, geo, prof, n_symbols, n)
            # per-interval means are independent; symbols of one interval are not
            power = np.mean(np.abs(h) ** 2, axis=1)
            assert abs(power.mean() - var_c) < 4.5 * power.std() / math.sqrt(n), kernel
            assert abs(y.mean() - mean_y) < 4.5 * y.std() / math.sqrt(n), kernel
            ys.append(y)
        assert stats.ks_2samp(*ys).pvalue > 1e-3


def near_field_los(geo, grid_h=16, grid_v=16, wavelength=0.0857):
    """Unit-modulus near-field LOS vector exp(-j 2pi/lambda (d_k - d_0)) of
    a planar grid_h x grid_v panel at half-wavelength spacing, centered at
    the surface and facing the transmitter along x; d_k is element k's
    distance to the transmitter and d_0 the panel center's."""
    spacing = wavelength / 2
    iy = np.arange(grid_h) - (grid_h - 1) / 2.0
    iz = np.arange(grid_v) - (grid_v - 1) / 2.0
    yy, zz = np.meshgrid(iy, iz, indexing="ij")
    pos = np.empty((grid_h * grid_v, 3))
    pos[:, 0] = geo.dris_center[0]
    pos[:, 1] = geo.dris_center[1] + yy.ravel() * spacing
    pos[:, 2] = geo.dris_center[2] + zz.ravel() * spacing
    d_k = np.linalg.norm(pos - np.asarray(geo.alice), axis=1)
    d_0 = geo.distance(geo.alice, geo.dris_center)
    return np.exp(-1j * (2 * np.pi / wavelength) * (d_k - d_0))


def near_field_cascade(gen, los, kappa, profile, n_intervals, n_symbols):
    """The per-element cascade with g's LOS term sqrt(kappa / (1 + kappa))
    times the phases ``los``, in place of the real constant."""
    g = channel.sample_cgauss(gen, 1.0, size=(n_intervals, los.size))
    g *= math.sqrt(1 / (1 + kappa))
    g += math.sqrt(kappa / (1 + kappa)) * los
    g *= channel.sample_cgauss(gen, 1.0, size=g.shape)
    idx = channel._phase_indices(gen, profile, (n_intervals, n_symbols, los.size))
    return channel._contract(g, idx, profile.coeff_table())


class TestNearFieldReference:
    """h_I is circular and independent of g, so it absorbs the phase of
    g's LOS term: a near-field panel's cascade has the law of the element
    kernel's, which draws that term as a real constant."""

    def test_element_kernel_matches_near_field_panel(self):
        geo = small_geometry(256)
        los = near_field_los(geo)
        assert np.ptp(np.angle(los)) > 3     # the reference phases do vary
        kappa = LinkFading().rician_g
        n_intervals, n_symbols = 3000, 20
        draws = []
        for seed, kernel in (
                (13, lambda gen, k: near_field_cascade(gen, los, kappa, DEFAULT_PROFILE,
                                                       k, n_symbols)),
                (14, lambda gen, k: channel._element_cascade(gen, geo, kappa, DEFAULT_PROFILE,
                                                             k, n_symbols))):
            gen = SeedStream(seed).child("near-field")
            draws.append(channel._chunked(n_intervals, n_symbols * geo.n_elements,
                                          lambda k: kernel(gen, k)))
        for name, stat in (("|h(1)|^2", lambda h: np.abs(h[:, 0]) ** 2),
                           ("sum |h(m)|^2", lambda h: np.sum(np.abs(h) ** 2, axis=1)),
                           ("Re h(1)", lambda h: h[:, 0].real),
                           ("|h(1) + h(2)|^2", lambda h: np.abs(h[:, 0] + h[:, 1]) ** 2)):
            assert stats.ks_2samp(*map(stat, draws)).pvalue > 1e-3, name


class TestCascadedChannel:
    def test_gaussian_limit_variance(self):
        geo = small_geometry()           # 256 elements
        fad = LinkFading()
        prof = DEFAULT_CONFIG.profile()
        draws = cascaded_mc(SeedStream(4).child("mc"), geo, fad, prof, 40_000)
        loss_g = path_loss_linear(fad.alice_dris, geo.distance(geo.alice, geo.dris_center))
        loss_i = path_loss_linear(fad.dris_willie,
                                  geo.distance(geo.dris_center, geo.willie))
        var_th = prop_variance(256, alpha_bar(prof), loss_g, loss_i)
        var_mc = np.mean(np.abs(draws) ** 2)
        assert var_mc == pytest.approx(var_th, rel=0.05)
        # circular complex Gaussian: E|h|^4 / (E|h|^2)^2 = 2
        assert np.mean(np.abs(draws) ** 4) / var_mc**2 == pytest.approx(2.0, abs=0.15)
        assert abs(draws.mean()) < 6 * math.sqrt(var_th / draws.size)

    def test_zero_elements(self):
        geo = small_geometry(0)
        draws = cascaded_mc(SeedStream(4).child("mc0"), geo, LinkFading(),
                            DEFAULT_CONFIG.profile(), 100)
        assert np.all(draws == 0)


class TestWillieStatistics:
    def test_h0_is_exact_gamma(self):
        scen = DEFAULT_CONFIG.scenario(5.0)
        y = gen_willie_statistics(SeedStream(5).child("h0"), scen, "H0", 50_000, 5)
        stat, p = stats.kstest(y, stats.gamma(a=5, scale=scen.fading.noise_w).cdf)
        assert p > 0.01

    def test_h1_no_surface_mean(self):
        scen = DEFAULT_CONFIG.scenario(5.0, n_elements=0)
        y = gen_willie_statistics(SeedStream(5).child("h1z"), scen, "H1", 40_000, 5)
        geo, fad = scen.geometry, scen.fading
        loss_d = path_loss_linear(fad.alice_willie, geo.distance(geo.alice, geo.willie))
        expected = 5 * (fad.noise_w + scen.p0_watts / loss_d)
        assert y.mean() == pytest.approx(expected, rel=0.05)

    def test_h1_with_surface_mean(self):
        scen = DEFAULT_CONFIG.scenario(5.0, n_elements=256)
        y = gen_willie_statistics(SeedStream(5).child("h1s"), scen, "H1", 20_000, 5)
        geo, fad = scen.geometry, scen.fading
        loss_d = path_loss_linear(fad.alice_willie, geo.distance(geo.alice, geo.willie))
        loss_g = path_loss_linear(fad.alice_dris, geo.distance(geo.alice, geo.dris_center))
        loss_i = path_loss_linear(fad.dris_willie,
                                  geo.distance(geo.dris_center, geo.willie))
        var_c = prop_variance(256, alpha_bar(scen.profile), loss_g, loss_i)
        expected = 5 * (fad.noise_w + scen.p0_watts * (1 / loss_d + var_c))
        assert y.mean() == pytest.approx(expected, rel=0.1)

    def test_determinism(self):
        scen = DEFAULT_CONFIG.scenario(-7.0, n_elements=64)
        a = gen_willie_statistics(SeedStream(6).child("d"), scen, "H1", 500, 5)
        b = gen_willie_statistics(SeedStream(6).child("d"), scen, "H1", 500, 5)
        np.testing.assert_array_equal(a, b)

    def test_zero_intervals_empty_batch(self):
        scen = DEFAULT_CONFIG.scenario(-7.0, n_elements=64)
        y = gen_willie_statistics(SeedStream(6).child("z"), scen, "H1", 0, 5)
        assert len(y) == 0 and y.dtype == float

    def test_errors(self):
        scen = DEFAULT_CONFIG.scenario(5.0)
        gen = SeedStream(5).child("e")
        with pytest.raises(ValueError):
            gen_willie_statistics(gen, scen, "H2", 10, 5)
        with pytest.raises(ValueError):
            gen_willie_statistics(gen, scen, "H1", 10, 21)   # N > M
        with pytest.raises(ValueError):
            gen_willie_statistics(gen, scen, "H1", 10, 0)


# Receiver positions from 1 to 130 m around the annulus center: the
# surface-to-receiver loss then spans ~30 dB, so the one loss an interval's
# symbols share dominates the interval's mean jamming power.
WIDE_ANNULUS_CONFIG = parse_config_text("geometry.bob_inner = 1\n"
                                        "geometry.bob_outer = 130\n")


def element_kernel_jamming(seed, scen, n_intervals):
    """Reference jamming powers |h_D s|^2, shape (n_intervals, M): every
    symbol's cascade is a one-symbol draw of ``_element_cascade`` called
    directly, scaled by the loss at the interval's receiver position."""
    geo, fad = scen.geometry, scen.fading
    m = scen.m_symbols
    gen = SeedStream(seed).child("bob-reference")
    if scen.bob_position is None:
        pos = sample_bob_position(gen, geo, size=n_intervals)
    else:
        pos = np.broadcast_to(np.asarray(scen.bob_position, float), (n_intervals, 3))
    loss_g = path_loss_linear(fad.alice_dris, geo.distance(geo.alice, geo.dris_center))
    loss_i = path_loss_linear(fad.dris_bob,
                              np.linalg.norm(pos - np.asarray(geo.dris_center), axis=1))
    h = channel._chunked(n_intervals * m, geo.n_elements,
                         lambda k: channel._element_cascade(gen, geo, fad.rician_g,
                                                            scen.profile, k, 1)[:, 0])
    h = h.reshape(n_intervals, m) / np.sqrt(loss_g * loss_i)[:, None]
    s = channel.sample_cgauss(gen, scen.p0_watts, size=h.shape)
    return np.abs(h * s) ** 2


class TestBobSignals:
    @pytest.mark.parametrize("prof", [DEFAULT_PROFILE, FOUR_PHASE_PROFILE],
                             ids=["default", "four-phase"])
    @pytest.mark.parametrize("mode", ["center", "annulus"])
    def test_jamming_law_matches_element_kernel(self, mode, prof):
        """Each symbol's jamming power has the law of the per-element
        kernel's one-symbol cascade, and an interval's symbols share one
        receiver position (one path loss in annulus mode)."""
        cfg = WIDE_ANNULUS_CONFIG
        bob = tuple(cfg["geometry.bob_center"]) if mode == "center" else None
        scen = dataclasses.replace(cfg.scenario(5.0, n_elements=256, bob_position=bob),
                                   profile=prof)
        m, n = scen.m_symbols, 1500
        _, jam, _ = gen_bob_signals(SeedStream(21).child("bob-law"), scen, n * m)
        jam = jam.reshape(n, m)
        ref = element_kernel_jamming(22, scen, n)
        # one symbol per interval: in annulus mode an interval's symbols are
        # dependent through their shared loss
        assert stats.ks_2samp(jam[:, 0], ref[:, 0]).pvalue > 1e-3
        assert stats.ks_2samp(jam[:, -1], ref[:, -1]).pvalue > 1e-3
        assert stats.ks_2samp(jam.mean(axis=1), ref.mean(axis=1)).pvalue > 1e-3
        # E[jam] = p0 N_D abar / (L_g L_I), averaged over the receiver's
        # position in annulus mode (by 10^6 reference positions)
        geo, fad = scen.geometry, scen.fading
        pos = (np.asarray([bob]) if bob is not None else
               sample_bob_position(SeedStream(23).child("bob-positions"), geo, 1_000_000))
        loss_g = path_loss_linear(fad.alice_dris, geo.distance(geo.alice, geo.dris_center))
        loss_i = path_loss_linear(fad.dris_bob,
                                  np.linalg.norm(pos - np.asarray(geo.dris_center), axis=1))
        expected = scen.p0_watts * prop_variance(256, alpha_bar(prof), loss_g, 1.0) \
            * np.mean(1.0 / loss_i)
        per_interval = jam.mean(axis=1)     # intervals are independent
        assert abs(per_interval.mean() - expected) < 4.5 * per_interval.std() / math.sqrt(n)

    def test_symbol_count_not_a_multiple_of_interval(self):
        scen = DEFAULT_CONFIG.scenario(5.0, n_elements=256)
        n_symbols = 7 * scen.m_symbols + 3
        sig, jam, _ = gen_bob_signals(SeedStream(7).child("bob-odd"), scen, n_symbols)
        assert sig.shape == jam.shape == (n_symbols,)
        assert np.all(np.isfinite(sig)) and np.all(np.isfinite(jam))

    @pytest.mark.parametrize("n_elements", [1, 2, 3])
    def test_tiny_surface_takes_element_kernel(self, n_elements, monkeypatch):
        """0 < N_D < 2K: the one-symbol cascades run the per-element kernel."""
        def no_patterns(*args):
            raise AssertionError("pattern kernel ran on a surface below 2K elements")

        monkeypatch.setattr(channel, "_pattern_cascade", no_patterns)
        scen = DEFAULT_CONFIG.scenario(5.0, n_elements=n_elements)
        _, jam, _ = gen_bob_signals(SeedStream(7).child("bob-tiny"), scen, 2000)
        assert jam.shape == (2000,)
        assert np.all(np.isfinite(jam)) and np.all(jam >= 0) and np.any(jam > 0)

    def test_fixed_position_means(self):
        cfg = DEFAULT_CONFIG
        scen = cfg.scenario(5.0, n_elements=256,
                            bob_position=tuple(cfg["geometry.bob_center"]))
        sig, jam, noise = gen_bob_signals(SeedStream(7).child("bob"), scen, 100_000)
        assert sig.size == jam.size == 100_000
        geo, fad = scen.geometry, scen.fading
        loss_d = path_loss_linear(fad.alice_bob, geo.distance(geo.alice, geo.bob_center))
        loss_g = path_loss_linear(fad.alice_dris, geo.distance(geo.alice, geo.dris_center))
        loss_i = path_loss_linear(fad.dris_bob, geo.distance(geo.dris_center, geo.bob_center))
        assert sig.mean() == pytest.approx(scen.p0_watts / loss_d, rel=0.1)
        var_c = prop_variance(256, alpha_bar(scen.profile), loss_g, loss_i)
        assert jam.mean() == pytest.approx(scen.p0_watts * var_c, rel=0.1)
        assert noise == fad.noise_b

    def test_no_surface_no_jamming(self):
        scen = DEFAULT_CONFIG.scenario(5.0, n_elements=0)
        sig, jam, _ = gen_bob_signals(SeedStream(7).child("bob0"), scen, 1000)
        assert np.all(jam == 0)
        assert np.all(sig > 0)
