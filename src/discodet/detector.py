"""Unsupervised Neyman-Pearson detection pipeline at the warden.

The null side is analytic (the accumulated-power statistic is exactly
Gamma distributed when the transmitter is silent); the alternative side
is learned by a masked autoregressive flow.  The unsupervised variant
first discards the fraction of observations most likely under the null,
then fits the flow on the remainder; the threshold on the log-likelihood
ratio is calibrated by Monte Carlo against the analytic null.  These
three stages, ``prefilter``, ``flow.train`` (or the lockstep
``flow.train_many``) and ``calibrate``, are the whole fitting API.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import flow as flowmod
from .statkit import binomial_ci, empirical_quantile, sample_gamma
from .theory import GammaNull, gamma_h0_logpdf

__all__ = [
    "ObservationBatch",
    "FittedDetector",
    "DetectionReport",
    "prefilter",
    "calibrate",
    "llr",
    "calibrate_threshold",
    "classify",
    "evaluate",
]


@dataclass
class ObservationBatch:
    """Labeled evaluation statistics: ``h0`` drawn while the transmitter is
    silent, ``h1`` while it transmits, neither half empty.  No fit ever
    takes labels."""

    h0: np.ndarray
    h1: np.ndarray

    def __post_init__(self):
        self.h0 = _statistics(self.h0)
        self.h1 = _statistics(self.h1)
        if self.h0.size == 0 or self.h1.size == 0:
            raise ValueError("an evaluation batch needs both H0 and H1 statistics")

    def __len__(self) -> int:
        return self.h0.size + self.h1.size


def _statistics(y) -> np.ndarray:
    """``y`` as a float array, rejected unless every entry is finite and >= 0."""
    arr = np.asarray(y, dtype=float)
    if not np.all((arr >= 0) & (arr < np.inf)):      # NaN fails both
        raise ValueError("power statistics must be finite and non-negative")
    return arr


@dataclass
class FittedDetector:
    """A trained alternative-density flow, the analytic null, and the
    calibrated log-likelihood-ratio threshold."""

    flow: flowmod.FlowModel
    null: GammaNull
    threshold: float


@dataclass
class DetectionReport:
    """Empirical error rates with Wilson confidence intervals."""

    far: float
    far_ci: tuple[float, float]
    mdr: float
    mdr_ci: tuple[float, float]
    n_h0: int
    n_h1: int


def prefilter(batch: np.ndarray, null: GammaNull, rho: float) -> np.ndarray:
    """Discard the statistics most likely under the null.

    The cut point is the smallest null log-density v with
    #{l_t >= v} <= rho * n; samples with l_t >= v are discarded, so ties
    at the cut are removed deterministically.  Log-densities stay distinct
    far in the tail, where the density itself underflows to 0.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    y = _statistics(batch)
    n = y.size
    if n == 0:
        raise ValueError("prefilter requires a non-empty batch")
    loglik = gamma_h0_logpdf(null, y)
    idx = min(int(np.ceil((1.0 - rho) * n)), n - 1)
    tau = np.sort(loglik)[idx]
    keep = loglik < tau
    if not np.any(keep):
        raise ValueError("prefilter discarded every observation (degenerate split)")
    return y[keep]


def calibrate_threshold(model: flowmod.FlowModel, null: GammaNull, alpha: float,
                        n_mc: int, gen: np.random.Generator) -> float:
    """Monte-Carlo threshold: the (1 - alpha) quantile of the LLR under the null."""
    if n_mc < 1:
        raise ValueError("n_mc must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if n_mc * min(alpha, 1.0 - alpha) < 100:
        warnings.warn(
            f"threshold calibration with n_mc={n_mc} resolves the alpha={alpha} "
            "tail with fewer than 100 samples; the threshold will be noisy",
            stacklevel=2)
    draws = sample_gamma(gen, null.shape, null.scale, size=n_mc)
    values = model.log_prob(draws) - gamma_h0_logpdf(null, draws)
    return empirical_quantile(values, 1.0 - alpha)


def calibrate(model: flowmod.FlowModel, null: GammaNull, alpha: float, n_mc: int,
              gen: np.random.Generator) -> FittedDetector:
    """The detector of a fitted flow: its null and its threshold at false-alarm
    rate ``alpha``, from ``n_mc`` null draws of ``gen``."""
    return FittedDetector(model, null, calibrate_threshold(model, null, alpha, n_mc, gen))


def llr(detector: FittedDetector, y: np.ndarray) -> np.ndarray:
    """Log-likelihood ratio of each statistic of the 1-D array ``y``: learned
    alternative log-density minus null log-pdf."""
    y = _statistics(y)
    return detector.flow.log_prob(y) - gamma_h0_logpdf(detector.null, y)


def classify(detector: FittedDetector, y: np.ndarray) -> np.ndarray:
    """True for H1 iff the LLR strictly exceeds the threshold (ties decide H0)."""
    return llr(detector, y) > detector.threshold


def evaluate(detector: FittedDetector, batch: ObservationBatch) -> DetectionReport:
    """Empirical FAR/MDR with 95% Wilson intervals on a labeled evaluation batch."""
    n_h0, n_h1 = batch.h0.size, batch.h1.size
    k_h0 = int(classify(detector, batch.h0).sum())
    k_h1 = int((~classify(detector, batch.h1)).sum())
    return DetectionReport(k_h0 / n_h0, binomial_ci(k_h0, n_h0),
                           k_h1 / n_h1, binomial_ci(k_h1, n_h1), n_h0, n_h1)
