"""Deterministic random sampling and small statistical utilities.

All Monte-Carlo code in this package draws randomness through a
:class:`SeedStream`, which derives independent child generators from a
single 64-bit root seed.  Children are addressed by a ``(label, index)``
pair, so per-trial substreams can be created in any order (or in
parallel) and still reproduce bit-identically.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import numpy.random  # numpy 2 loads it on first use; every command draws from it

__all__ = [
    "SeedStream",
    "sample_cgauss",
    "sample_gamma",
    "empirical_quantile",
    "binomial_ci",
]


def _label_words(label: str) -> tuple[int, ...]:
    """Stable 128-bit digest of a label, as four uint32 words."""
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=16).digest()
    return tuple(int.from_bytes(digest[4 * i : 4 * i + 4], "little") for i in range(4))


@dataclass(frozen=True)
class SeedStream:
    """Splittable seed hierarchy over numpy's counter-based Philox generator.

    Identical ``(root_seed, label, index)`` triples always produce an
    identical generator state; distinct labels give statistically
    independent streams with no shared state.
    """

    root_seed: int

    def __post_init__(self):
        if not 0 <= self.root_seed < 2**64:
            raise ValueError(f"root_seed must be a 64-bit unsigned integer, got {self.root_seed}")

    def child(self, label: str, index: int = 0) -> np.random.Generator:
        """Derive the independent substream addressed by (label, index)."""
        if index < 0:
            raise ValueError("substream index must be non-negative")
        key = _label_words(label) + (index & 0xFFFFFFFF, index >> 32)
        ss = np.random.SeedSequence(entropy=self.root_seed, spawn_key=key)
        return np.random.Generator(np.random.Philox(ss))

    def derive(self, label: str, index: int = 0) -> "SeedStream":
        """Derive a child SeedStream (for nested labeled hierarchies)."""
        gen = self.child(label, index)
        return SeedStream(int(gen.integers(0, 2**64, dtype=np.uint64)))


def sample_cgauss(gen: np.random.Generator, variance: float, size) -> np.ndarray:
    """Draw an array of zero-mean circularly-symmetric complex Gaussian samples.

    Real and imaginary parts are independent with variance ``variance/2``
    each, so E|x|^2 = variance.  Every real part is taken from the
    stream first, then every imaginary part.
    """
    if variance < 0:
        raise ValueError(f"variance must be non-negative, got {variance}")
    scale = math.sqrt(variance / 2.0)
    out = np.empty(size, dtype=complex)
    out.real = gen.standard_normal(size)
    out.imag = gen.standard_normal(size)
    out *= scale
    return out


def sample_gamma(gen: np.random.Generator, shape: int, scale: float, size: int) -> np.ndarray:
    """Draw ``size`` Gamma(shape, scale) variates as sums of ``shape`` exponentials.

    ``shape`` must be a positive integer (the detector's sample count N),
    which makes the sum-of-exponentials construction exact.
    """
    if int(shape) != shape or shape < 1:
        raise ValueError(f"shape must be a positive integer, got {shape}")
    if not 0 < scale < math.inf:     # NaN fails too
        raise ValueError(f"scale must be positive and finite, got {scale}")
    return gen.exponential(scale, size=(size, int(shape))).sum(axis=1)


def empirical_quantile(values: Sequence[float], q: float) -> float:
    """Lower order statistic at index ceil(q*n) - 1 of the ascending sort.

    No interpolation; deterministic for ties.  The index is clamped to
    [0, n-1] so q = 0 returns the minimum and q = 1 the maximum.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("empirical_quantile requires a non-empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    idx = min(max(math.ceil(q * arr.size) - 1, 0), arr.size - 1)
    ordered = np.sort(arr)
    if np.isnan(ordered[-1]):       # the sort puts any NaN last
        raise ValueError("empirical_quantile requires values without NaN")
    return float(ordered[idx])


def binomial_ci(successes: int, trials: int, level: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must lie in [0, trials], got {successes}/{trials}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must lie in (0, 1), got {level}")
    z = statistics.NormalDist().inv_cdf(0.5 + level / 2.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    # the interval always contains p; snap the boundary cases exactly so
    # rounding cannot push lo above 0 (k = 0) or hi below 1 (k = n)
    lo = 0.0 if successes == 0 else max(center - half, 0.0)
    hi = 1.0 if successes == trials else min(center + half, 1.0)
    return lo, hi
