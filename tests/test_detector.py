import math

import numpy as np
import pytest
from scipy import stats

from discodet import detector
from discodet.detector import (FittedDetector, ObservationBatch, calibrate,
                               calibrate_threshold, classify, evaluate, llr, prefilter)
from discodet.flow import FlowModel, TrainConfig, train
from discodet.statkit import SeedStream, sample_gamma
from discodet.theory import GammaNull

NOISE = 1.8e-15


def surrogate_halves(stream, n):
    """H0 and H1 halves of an even two-Gamma mixture (tractable stand-in
    for the simulated channel)."""
    gen = stream.child("data")
    n1 = n // 2
    h1 = sample_gamma(gen, 5, 2 * NOISE, size=n1)
    h0 = sample_gamma(gen, 5, NOISE, size=n - n1)
    return h0, h1


def surrogate_mix(stream, n):
    """The unlabeled, shuffled mixture a warden would record."""
    h0, h1 = surrogate_halves(stream, n)
    mix = np.concatenate([h1, h0])
    return mix[stream.child("shuffle").permutation(mix.size)]


# negative power, and the NaN a broken channel setting would produce
BAD_STATISTICS = [np.array([1.0, -2.0]), np.array([1.0, np.nan]), np.array([1.0, np.inf])]


class TestObservationBatch:
    def test_validation(self):
        for bad in BAD_STATISTICS:
            with pytest.raises(ValueError, match="non-negative"):
                ObservationBatch(bad, np.array([1.0]))
            with pytest.raises(ValueError, match="non-negative"):
                ObservationBatch(np.array([1.0]), bad)

    def test_len_counts_both_hypotheses(self):
        assert len(ObservationBatch(np.array([1.0, 2.0]), np.array([3.0]))) == 3


class TestPrefilter:
    def test_retains_exact_count(self):
        # monotone-decreasing null density: larger y is always less likely,
        # so rho = 0.2 on ten distinct values keeps the eight largest
        null = GammaNull(1, 1.0)
        kept = prefilter(np.arange(1.0, 11.0), null, 0.2)
        assert len(kept) == 8
        np.testing.assert_array_equal(np.sort(kept), np.arange(3.0, 11.0))

    def test_half(self):
        null = GammaNull(1, 1.0)
        kept = prefilter(np.arange(1.0, 11.0), null, 0.5)
        assert len(kept) == 5

    def test_all_equal_degenerate(self):
        null = GammaNull(1, 1.0)
        with pytest.raises(ValueError, match="degenerate"):
            prefilter(np.full(10, 2.0), null, 0.2)

    def test_bad_rho(self):
        null = GammaNull(1, 1.0)
        with pytest.raises(ValueError):
            prefilter(np.arange(1.0, 5.0), null, 1.0)

    @pytest.mark.parametrize("bad", BAD_STATISTICS, ids=["negative", "nan", "inf"])
    def test_bad_statistics_rejected(self, bad):
        with pytest.raises(ValueError, match="non-negative"):
            prefilter(bad, GammaNull(1, 1.0), 0.5)

    def test_underflowing_likelihoods_ranked(self):
        # eight of ten statistics lie so far in the tail that their null
        # density underflows to 0; rho = 0.5 must still keep the five least
        # null-likely ones
        y = np.concatenate([np.array([3.0, 6.0]), np.linspace(2000.0, 3000.0, 8)]) * NOISE
        null = GammaNull(5, NOISE)
        assert np.all(stats.gamma(a=5, scale=NOISE).pdf(y[2:]) == 0.0)
        kept = prefilter(y, null, 0.5)
        assert len(kept) == math.ceil((1 - 0.5) * 10)
        least_likely = np.argsort(stats.gamma(a=5, scale=NOISE).logpdf(y))[:5]
        np.testing.assert_array_equal(np.sort(kept), np.sort(y[least_likely]))


class TestThresholdAndClassify:
    def test_always_h1_detector(self):
        null = GammaNull(5, NOISE)
        model = FlowModel(5)
        det = FittedDetector(model, null, -math.inf)
        y = sample_gamma(SeedStream(2).child("y"), 5, NOISE, size=100)
        assert np.all(classify(det, y))       # FAR = 1, MDR = 0

    def test_always_h0_detector(self):
        null = GammaNull(5, NOISE)
        det = FittedDetector(FlowModel(5), null, math.inf)
        y = sample_gamma(SeedStream(2).child("y"), 5, NOISE, size=100)
        assert not np.any(classify(det, y))

    def test_tie_decides_h0(self):
        null = GammaNull(5, NOISE)
        det = FittedDetector(FlowModel(5), null, 0.0)
        y = sample_gamma(SeedStream(2).child("y"), 5, NOISE, size=1)
        det.threshold = float(llr(det, y)[0])    # exact tie by construction
        assert not classify(det, y)[0]

    def test_calibration_quantile(self):
        null = GammaNull(5, NOISE)
        model = FlowModel(5)
        gen = SeedStream(3).child("cal")
        eta = calibrate_threshold(model, null, 0.05, 50_000, gen)
        # fresh null draws should exceed eta about 5% of the time
        y = sample_gamma(SeedStream(3).child("fresh"), 5, NOISE, size=50_000)
        frac = np.mean(llr(FittedDetector(model, null, eta), y) > eta)
        assert frac == pytest.approx(0.05, abs=0.01)

    def test_small_n_mc_warns(self):
        null = GammaNull(5, NOISE)
        model = FlowModel(5)
        with pytest.warns(UserWarning):
            calibrate_threshold(model, null, 0.05, 500, SeedStream(3).child("w"))

    def test_nan_ratio_rejected(self):
        # a flow whose log-density is NaN must not set a threshold
        null = GammaNull(5, NOISE)
        model = FlowModel(5)
        model.theta[0] = math.nan
        with pytest.raises(ValueError, match="NaN"):
            calibrate_threshold(model, null, 0.05, 20_000, SeedStream(3).child("nan"))

    def test_negative_input_rejected(self):
        null = GammaNull(5, NOISE)
        det = FittedDetector(FlowModel(5), null, 0.0)
        with pytest.raises(ValueError):
            llr(det, np.array([-1.0]))
        # a NaN or an infinite statistic has a NaN ratio, which classify reads as H0
        for bad in BAD_STATISTICS:
            with pytest.raises(ValueError, match="non-negative"):
                classify(det, bad)


class TestFitting:
    def _tcfg(self, seed=31):
        return TrainConfig(seed=seed, epochs=8, batch_size=256)

    def test_fit_determinism(self):
        stream = SeedStream(4)
        batch = surrogate_mix(stream, 4000)
        null = GammaNull(5, NOISE)
        d1, d2 = (calibrate(train(prefilter(batch, null, 0.5), self._tcfg()), null,
                            0.05, 20_000, stream.child("cal")) for _ in range(2))
        assert d1.threshold == d2.threshold


class TestEvaluate:
    def _trivial_detector(self, threshold):
        return FittedDetector(FlowModel(5),
                              GammaNull(5, NOISE), threshold)

    def test_always_h1_rates(self):
        stream = SeedStream(5)
        batch = ObservationBatch(*surrogate_halves(stream, 2000))
        rep = evaluate(self._trivial_detector(-math.inf), batch)
        assert rep.far == 1.0 and rep.mdr == 0.0

    def test_ci_ordering(self):
        stream = SeedStream(5)
        batch = ObservationBatch(*surrogate_halves(stream, 2000))
        rep = evaluate(self._trivial_detector(0.0), batch)
        assert rep.far_ci[0] <= rep.far <= rep.far_ci[1]
        assert rep.mdr_ci[0] <= rep.mdr <= rep.mdr_ci[1]
        assert rep.n_h0 + rep.n_h1 == 2000

    def test_single_hypothesis_batch(self):
        # every report has both rates, so a batch must carry both halves
        y = sample_gamma(SeedStream(5).child("h0"), 5, NOISE, size=100)
        with pytest.raises(ValueError, match="both H0 and H1"):
            ObservationBatch(y, np.empty(0))
        with pytest.raises(ValueError, match="both H0 and H1"):
            ObservationBatch(np.empty(0), y)
