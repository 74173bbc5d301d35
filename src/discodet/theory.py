"""Closed-form statistics used as oracles and as the analytic half of the test.

Covers the Gamma null distribution of the radiometer statistic (its
log-density, its Erlang tail and CDF, and the radiometer's level-alpha
threshold), the second moment of the cascaded disco-surface channel, and
the asymptotic signal-to-jamming-plus-noise ratio (SJNR) at the receiver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GammaNull",
    "alpha_bar",
    "prop_variance",
    "gamma_h0_logpdf",
    "gamma_sf",
    "gamma_cdf",
    "radiometer_threshold",
    "sjnr_theory",
    "sjnr_empirical",
]


@dataclass(frozen=True)
class GammaNull:
    """Null distribution of the accumulated power statistic: Gamma(N, noise_power)."""

    shape: int          # samples accumulated per statistic (N)
    scale: float        # per-sample noise power (delta_w^2), watts

    def __post_init__(self):
        if int(self.shape) != self.shape or self.shape < 1:
            raise ValueError(f"shape must be a positive integer, got {self.shape}")
        if not 0 < self.scale < math.inf:     # NaN fails too
            raise ValueError(f"scale must be positive and finite, got {self.scale}")


def _log_gamma_int(n: int) -> float:
    # N is small (5 in the default configuration); exact factorial below 21.
    if n <= 20:
        return math.log(math.factorial(n - 1))
    return math.lgamma(n)


def alpha_bar(profile) -> float:
    """Mean squared reflection amplitude: sum_i p_i * amp_i^2.

    ``profile`` is any object exposing ``probabilities`` and ``amplitudes``
    sequences of equal length (see :class:`discodet.channel.DrisProfile`).
    """
    p = np.asarray(profile.probabilities, dtype=float)
    a = np.asarray(profile.amplitudes, dtype=float)
    return float(np.sum(p * a * a))


def prop_variance(n_elements: int, abar: float, loss_g: float, loss_i: float) -> float:
    """Exact E|h|^2 of the cascaded surface channel, for every surface size.

    Equals n_elements * abar / (loss_g * loss_i) where the losses are the
    linear large-scale attenuations of the two hops: the element terms are
    independent and zero-mean, each with second moment abar / (loss_g * loss_i).
    """
    if not (loss_g > 0 and loss_i > 0):
        raise ValueError("large-scale losses must be positive")
    if not (abar >= 0 and n_elements >= 0):
        raise ValueError("n_elements and abar must be non-negative")
    return n_elements * abar / (loss_g * loss_i)


def gamma_h0_logpdf(null: GammaNull, y: np.ndarray) -> np.ndarray:
    """Log-density of the null Gamma distribution at each y >= 0 of a 1-D array.

    y = 0 is handled as the density limit: -inf for shape > 1 and
    -log(scale) for shape = 1; y = +inf gives the limit -inf.
    """
    arr = np.asarray(y, dtype=float)
    if not np.all(arr >= 0):       # NaN fails too
        raise ValueError("gamma_h0_logpdf requires y >= 0")
    n, s = null.shape, null.scale
    norm = _log_gamma_int(n) + n * math.log(s)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(arr == np.inf, -np.inf, (n - 1) * np.log(arr) - arr / s - norm)
    return np.where(arr == 0.0, -math.log(s) if n == 1 else -np.inf, out)


def _erlang_sf(n: int, x):
    """Q(n, x) = sum_{k<n} e^{-x} x^k / k!, the Gamma(n, 1) upper tail at x >= 0.

    Each term is exp(k log x - x - log k!): started from e^{-x}, the plain
    recurrence underflows to 0 for x > 745 while the tail itself does not.
    """
    with np.errstate(divide="ignore"):
        log_x = np.log(x)
    total = np.exp(-x)
    for k in range(1, n):
        total = total + np.exp(k * log_x - x - _log_gamma_int(k + 1))
    return total


def gamma_sf(null: GammaNull, y: np.ndarray) -> np.ndarray:
    """Upper tail P(Y > y) of the Gamma(shape, scale) law at each y >= 0;
    0 where y / scale is +inf."""
    arr = np.asarray(y, dtype=float)
    if not np.all(arr >= 0):       # NaN fails too
        raise ValueError("gamma_sf requires y >= 0")
    with np.errstate(over="ignore", invalid="ignore"):
        x = arr / null.scale
        return np.where(x == np.inf, 0.0, _erlang_sf(null.shape, x))


def gamma_cdf(null: GammaNull, y: np.ndarray) -> np.ndarray:
    """CDF P(Y <= y) of the Gamma(shape, scale) law at each y >= 0."""
    return 1.0 - gamma_sf(null, y)


def radiometer_threshold(null: GammaNull, alpha: float) -> float:
    """Level-alpha threshold of the radiometer test Y > y under the null.

    Returns the smallest y found where the tail Q(shape, y / scale) is at
    most alpha, by bisection on a doubling bracket.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    n = null.shape
    lo, hi = 0.0, float(n)
    while _erlang_sf(n, hi) > alpha:
        lo, hi = hi, 2.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _erlang_sf(n, mid) > alpha:
            lo = mid
        else:
            hi = mid
    return hi * null.scale


def sjnr_theory(p0: float, n_elements: int, abar: float, loss_direct: float,
                loss_g: float, loss_i: float, noise_power: float) -> float:
    """Asymptotic SJNR at the legitimate receiver (linear ratio).

    (p0 / loss_direct) / (p0 * n_elements * abar / (loss_g * loss_i) + noise_power)
    """
    if not all(v > 0 for v in (p0, loss_direct, loss_g, loss_i, noise_power)):
        raise ValueError("powers and losses must be positive")
    jam = p0 * n_elements * abar / (loss_g * loss_i)
    return (p0 / loss_direct) / (jam + noise_power)


def sjnr_empirical(signal_powers, jamming_powers, noise_power: float) -> float:
    """Ergodic SJNR as a ratio of sample means over per-symbol powers."""
    sig = np.asarray(signal_powers, dtype=float)
    jam = np.asarray(jamming_powers, dtype=float)
    if sig.size == 0:
        raise ValueError("sjnr_empirical requires at least one symbol")
    return float(sig.mean() / (jam.mean() + noise_power))
