"""Geometry, fading, disco-surface coefficients, and received-signal simulation.

The simulator follows a block-fading structure: direct small-scale
channels and the two cascaded-hop vectors are redrawn once per coherence
interval, while the surface's reflection coefficients and the transmit
symbols are redrawn every symbol.  That per-symbol redraw is what makes
the surface "disco": it deliberately ages the channel inside a single
coherence interval.  The warden's statistic accumulates the N samples of
one interval, so its generator keeps that structure.  The receiver's SJNR
is a ratio of per-symbol means, so its generator draws each symbol's
cascade as an interval of its own (see :func:`gen_bob_signals`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .statkit import sample_cgauss

__all__ = [
    "Geometry",
    "DrisProfile",
    "PathLoss",
    "LinkFading",
    "Scenario",
    "LOS_3GPP",
    "NLOS_3GPP",
    "dbm_to_watts",
    "path_loss_linear",
    "sample_bob_position",
    "los_steering",
    "sample_rician_g",
    "cascaded_mc",
    "gen_willie_statistics",
    "gen_bob_signals",
]


@dataclass(frozen=True)
class PathLoss:
    """Log-distance path loss: intercept + slope * log10(d) in dB."""

    intercept_db: float
    slope_db: float

    def loss_db(self, d) -> np.ndarray | float:
        return self.intercept_db + self.slope_db * np.log10(d)


# 3GPP-style large-scale models used throughout the simulations.
LOS_3GPP = PathLoss(35.6, 22.0)
NLOS_3GPP = PathLoss(32.6, 36.7)


@dataclass(frozen=True)
class Geometry:
    """Node positions, the receiver annulus, and the surface's element grid."""

    alice: tuple[float, float, float]
    willie: tuple[float, float, float]
    dris_center: tuple[float, float, float]
    bob_center: tuple[float, float, float]
    bob_inner: float
    bob_outer: float
    grid_h: int = 64
    grid_v: int = 32
    element_spacing: float = 0.0857 / 2
    wavelength: float = 0.0857

    def __post_init__(self):
        if self.grid_h < 0 or self.grid_v < 0:
            raise ValueError("element grid counts must be non-negative")
        if not 0 <= self.bob_inner <= self.bob_outer:
            raise ValueError("annulus radii must satisfy 0 <= inner <= outer")
        if not (self.wavelength > 0 and self.element_spacing > 0):
            raise ValueError("wavelength and element spacing must be positive")

    @property
    def n_elements(self) -> int:
        return self.grid_h * self.grid_v

    def element_positions(self) -> np.ndarray:
        """(N_D, 3) element coordinates on a planar grid centered at dris_center.

        The panel spans the y (horizontal) and z (vertical) axes, facing
        the transmitter along x.
        """
        c = np.asarray(self.dris_center, dtype=float)
        iy = np.arange(self.grid_h) - (self.grid_h - 1) / 2.0
        iz = np.arange(self.grid_v) - (self.grid_v - 1) / 2.0
        yy, zz = np.meshgrid(iy, iz, indexing="ij")
        pos = np.zeros((self.n_elements, 3))
        pos[:, 0] = c[0]
        pos[:, 1] = c[1] + yy.ravel() * self.element_spacing
        pos[:, 2] = c[2] + zz.ravel() * self.element_spacing
        return pos

    def distance(self, a, b) -> float:
        return float(np.linalg.norm(np.asarray(a, float) - np.asarray(b, float)))

    @functools.cached_property
    def steering(self) -> np.ndarray:
        """:func:`los_steering` of this geometry, computed once and read-only."""
        vec = los_steering(self)
        vec.flags.writeable = False
        return vec


@dataclass(frozen=True)
class DrisProfile:
    """Discrete reflection-coefficient profile of the disco surface.

    Each element independently draws phase ``phases[i]`` with probability
    ``probabilities[i]``; the amplitude is the hardware-coupled value
    ``amplitudes[i]`` for that phase.
    """

    phases: tuple[float, ...]
    amplitudes: tuple[float, ...]
    probabilities: tuple[float, ...]

    def __post_init__(self):
        k = len(self.phases)
        if len(self.amplitudes) != k or len(self.probabilities) != k:
            raise ValueError("phases, amplitudes, and probabilities must have equal length")
        if k == 0 or (k & (k - 1)) != 0:
            raise ValueError(f"profile size must be a power of two (b-bit quantization), got {k}")
        if not all(p >= 0 for p in self.probabilities):
            raise ValueError("probabilities must be non-negative")
        if not abs(sum(self.probabilities) - 1.0) <= 1e-12:
            raise ValueError("probabilities must sum to 1 within 1e-12")
        if not all(0 <= a <= 1 for a in self.amplitudes):
            raise ValueError("amplitudes must lie in [0, 1]")

    def coeff_table(self) -> np.ndarray:
        return np.asarray(self.amplitudes) * np.exp(1j * np.asarray(self.phases))


@dataclass(frozen=True)
class LinkFading:
    """Per-link path-loss assignment plus fading and noise parameters.

    The surface hops default to LOS (the surface is deployed with a clear
    view next to the transmitter); the two direct links default to NLOS.
    """

    alice_dris: PathLoss = LOS_3GPP
    dris_willie: PathLoss = LOS_3GPP
    dris_bob: PathLoss = LOS_3GPP
    alice_willie: PathLoss = NLOS_3GPP
    alice_bob: PathLoss = NLOS_3GPP
    rician_g: float = 4.0
    noise_w: float = 1.8e-15
    noise_b: float = 1.8e-15

    def __post_init__(self):
        if not self.rician_g >= 0:
            raise ValueError("Rician factor must be non-negative")
        if not (self.noise_w > 0 and self.noise_b > 0):
            raise ValueError("noise powers must be positive")


@dataclass(frozen=True)
class Scenario:
    """Everything the signal generators need for one experiment setting."""

    geometry: Geometry
    fading: LinkFading
    profile: DrisProfile
    p0_watts: float
    m_symbols: int = 20           # coherence-interval length (symbols), N <= M
    bob_position: Optional[tuple[float, float, float]] = None  # None: sample the annulus


def dbm_to_watts(p_dbm: float) -> float:
    """Convert dBm to watts: 10^((p - 30)/10)."""
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


def path_loss_linear(model: PathLoss, d) -> np.ndarray | float:
    """Linear large-scale attenuation 10^(PL_dB/10) at distance d (meters)."""
    arr = np.asarray(d, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("path loss requires a positive distance")
    out = 10.0 ** (model.loss_db(arr) / 10.0)
    return float(out) if np.ndim(d) == 0 else out


def sample_bob_position(gen: np.random.Generator, geometry: Geometry, size: int):
    """``(size, 3)`` area-uniform positions inside the receiver annulus.

    Radius = sqrt(u * (r2^2 - r1^2) + r1^2) with u uniform, angle uniform
    in [0, 2pi); height equals the annulus center height.
    """
    c = np.asarray(geometry.bob_center, dtype=float)
    r1, r2 = geometry.bob_inner, geometry.bob_outer
    u = gen.random(size)
    theta = gen.random(size) * 2 * np.pi
    r = np.sqrt(u * (r2 * r2 - r1 * r1) + r1 * r1)
    pos = np.empty((size, 3))
    pos[:, 0] = c[0] + r * np.cos(theta)
    pos[:, 1] = c[1] + r * np.sin(theta)
    pos[:, 2] = c[2]
    return pos


def los_steering(geometry: Geometry) -> np.ndarray:
    """Unit-modulus near-field LOS vector exp(-j 2pi/lambda (d_r - d_0))."""
    alice = np.asarray(geometry.alice, dtype=float)
    d_r = np.linalg.norm(geometry.element_positions() - alice, axis=1)
    d_0 = geometry.distance(alice, geometry.dris_center)
    return np.exp(-1j * (2 * np.pi / geometry.wavelength) * (d_r - d_0))


def sample_rician_g(gen: np.random.Generator, geometry: Geometry, kappa: float,
                    size: int) -> np.ndarray:
    """Transmitter-to-surface small-scale vectors with Rician factor kappa.

    Returns ``(size, N_D)`` independent interval realizations sharing the
    deterministic LOS component; the per-entry second moment is 1 for
    every kappa >= 0.
    """
    if kappa < 0:
        raise ValueError("Rician factor must be non-negative")
    g = sample_cgauss(gen, 1.0, size=(size, geometry.n_elements))
    g *= math.sqrt(1 / (1 + kappa))
    g += math.sqrt(kappa / (1 + kappa)) * geometry.steering
    return g


def _phase_indices(gen: np.random.Generator, profile: DrisProfile, shape) -> np.ndarray:
    """Independent phase indices with ``shape``, distributed as the profile.

    Two equally likely phases (the default profile) take one random bit
    per element; other profiles invert the CDF of a uniform draw u by
    counting the first K - 1 cumulative probabilities at or below u (so a
    sum that rounds below 1 still maps every u to a phase).
    """
    if tuple(profile.probabilities) == (0.5, 0.5):
        n = math.prod(shape)
        raw = gen.integers(0, 256, size=-(-n // 8), dtype=np.uint8)
        return np.unpackbits(raw, count=n).reshape(shape)
    cum = np.cumsum(profile.probabilities)
    u = gen.random(shape)
    idx = np.zeros(shape, dtype=np.min_scalar_type(len(cum) - 1))
    for c in cum[:-1]:
        idx += u >= c
    return idx


def _contract(a: np.ndarray, idx: np.ndarray, table: np.ndarray) -> np.ndarray:
    """sum_k a[i, k] * table[idx[i, m, k]] for every interval i and symbol m.

    Computed as t_0 sum_k a_k + sum_{j>=1} (t_j - t_0) (1[idx = j] . a):
    each term is a real batched matmul of the indicator against ``a``
    viewed as (..., N_D, 2) float64, so no complex coefficient array is
    ever formed.
    """
    a_ri = a.view(np.float64).reshape(*a.shape, 2)
    out = np.empty(idx.shape[:2], dtype=complex)
    out[:] = table[0] * a.sum(axis=-1, keepdims=True)
    for j in range(1, len(table)):
        # with two phases the index is itself the indicator of phase 1
        ind = idx if len(table) == 2 else idx == j
        out += (table[j] - table[0]) * np.matmul(ind, a_ri).view(complex)[..., 0]
    return out


# The pattern kernel runs when K^N * _PATTERN_MARGIN <= N_D (K phases, N
# symbols).  gen_willie_statistics under H1 at N_D = 2048 (one core of a
# 2-vCPU Xeon, one BLAS thread) takes, per-element over pattern kernel,
# 2.1x the time at K^N = N_D / 4, 1.1x at N_D / 2 and 0.65x at N_D with
# two phases, and 3.0x at N_D / 2 with four.
_PATTERN_MARGIN = 2


def _element_cascade(gen: np.random.Generator, geometry: Geometry, kappa: float,
                     profile: DrisProfile, n_intervals: int, n_symbols: int) -> np.ndarray:
    """sum_k g_k h_I,k c_k(m) from every element's own draws.

    Per interval it draws g (Rician) and h_I; per symbol it draws every
    element's phase index.  :func:`_cascade` runs it when the pattern
    kernel does not pay: for many symbols per interval (the warden's
    statistic at N = 20 on 2048 elements) and on surfaces with fewer than
    K^N * _PATTERN_MARGIN elements, such as the receiver's one-symbol
    draws when N_D < 2K.
    """
    a = sample_rician_g(gen, geometry, kappa, size=n_intervals)
    a *= sample_cgauss(gen, 1.0, size=a.shape)
    idx = _phase_indices(gen, profile, (n_intervals, n_symbols, a.shape[1]))
    return _contract(a, idx, profile.coeff_table())


@functools.lru_cache(maxsize=16)
def _pattern_table(profile: DrisProfile, n_symbols: int):
    """Coefficient rows t[p] (K^N, N) of every phase pattern p over N symbols,
    and each pattern's probability prod_n pi[p_n]; both read-only."""
    k = len(profile.phases)
    pat = np.indices((k,) * n_symbols).reshape(n_symbols, -1).T
    table = profile.coeff_table()[pat]
    prob = np.prod(np.asarray(profile.probabilities)[pat], axis=1)
    prob /= prob.sum()   # multinomial rejects a sum above 1 + 1e-12
    table.flags.writeable = prob.flags.writeable = False
    return table, prob


def _pattern_cascade(gen: np.random.Generator, geometry: Geometry, kappa: float,
                     profile: DrisProfile, n_intervals: int, n_symbols: int) -> np.ndarray:
    """sum_k g_k h_I,k c_k(m), drawn per phase pattern instead of per element.

    Equal in distribution to :func:`_element_cascade`: element k's pattern
    p_k over the N symbols is i.i.d. across elements, so the pattern counts
    m_p are Multinomial(N_D, pi_p).  Given g, the terms g_k h_I,k are
    independent CN(0, |g_k|^2), so the elements of pattern p add up to
    sqrt(W_p) z_p with z_p ~ CN(0, 1) and W_p their summed |g_k|^2.  Each
    |g_k|^2 is chi'^2(2, 2 kappa) / (2 (1 + kappa)) (the LOS term has unit
    modulus), and noncentral chi^2 variates add: W_p is
    chi'^2(2 m_p, 2 m_p kappa) / (2 (1 + kappa)).  Only patterns with
    m_p > 0 are drawn.
    """
    table, prob = _pattern_table(profile, n_symbols)
    counts = gen.multinomial(geometry.n_elements, prob, size=n_intervals)
    hit = counts > 0
    m = counts[hit]
    w = gen.noncentral_chisquare(2 * m, 2 * kappa * m) / (2 * (1 + kappa))
    amp = np.zeros(counts.shape, dtype=complex)
    amp[hit] = np.sqrt(w) * sample_cgauss(gen, 1.0, size=m.size)
    return amp @ table


def _cascade(gen: np.random.Generator, geometry: Geometry, fading: LinkFading,
             profile: DrisProfile, loss_i, n_intervals: int, n_symbols: int) -> np.ndarray:
    """Cascaded surface channel sum_k a_k c_k(m), shape (n_intervals, n_symbols).

    Per interval a = g * h_I / sqrt(L_g L_I), with g Rician and ``loss_i``
    a scalar or one value per interval; per symbol every element redraws
    its coefficient c_k(m).  Few symbols on a large surface take the
    pattern kernel, the rest the per-element kernel (see _PATTERN_MARGIN).
    """
    nd = geometry.n_elements
    if nd == 0:
        return np.zeros((n_intervals, n_symbols), dtype=complex)
    loss_g = path_loss_linear(fading.alice_dris,
                              geometry.distance(geometry.alice, geometry.dris_center))
    patterns = len(profile.phases) ** n_symbols
    kernel = _pattern_cascade if patterns * _PATTERN_MARGIN <= nd else _element_cascade
    # scaling the per-symbol sums rather than a saves a pass over (intervals, N_D)
    return kernel(gen, geometry, fading.rician_g, profile, n_intervals, n_symbols) \
        / np.sqrt(loss_g * np.reshape(loss_i, (-1, 1)))


def _chunked(total: int, per_item: int, draw) -> np.ndarray:
    """Concatenation of ``draw(k)`` over consecutive chunks of about
    4e6 / ``per_item`` of ``total`` items (a few hundred MB of scratch at
    N_D = 2048).  The chunk boundaries fix the order of the random draws,
    so they are part of every stream.  ``total = 0`` draws one empty chunk."""
    chunk = max(1, int(4e6 / max(per_item, 1)))
    return np.concatenate([draw(min(chunk, total - done))
                           for done in range(0, max(total, 1), chunk)])


def cascaded_mc(gen: np.random.Generator, geometry: Geometry, fading: LinkFading,
                profile: DrisProfile, n_draws: int) -> np.ndarray:
    """Independent Monte-Carlo draws of the cascaded channel at the warden
    (one per draw).

    Used to validate the exact variance N_D * abar / (L_g * L_I) and the
    circular symmetry of the channel.
    """
    loss_i = path_loss_linear(fading.dris_willie,
                              geometry.distance(geometry.dris_center, geometry.willie))
    return _chunked(n_draws, geometry.n_elements,
                    lambda k: _cascade(gen, geometry, fading, profile, loss_i, k, 1)[:, 0])


def gen_willie_statistics(gen: np.random.Generator, scenario: Scenario, hypothesis: str,
                          n_intervals: int, n_samples: int) -> np.ndarray:
    """Accumulated-power statistics Y = sum_{n=1..N} |y(n)|^2 at the warden,
    one per coherence interval.

    Under H0 each received sample is pure noise.  Under H1 a fresh channel
    realization is drawn per coherence interval, the surface coefficients
    and transmit symbol are redrawn per sample, and the direct channel is
    held fixed within the interval.
    """
    if hypothesis not in ("H0", "H1"):
        raise ValueError(f"hypothesis must be 'H0' or 'H1', got {hypothesis!r}")
    if n_samples < 1:
        raise ValueError("need at least one sample per statistic")
    if n_samples > scenario.m_symbols:
        raise ValueError(f"samples per statistic ({n_samples}) exceeds the "
                         f"coherence-interval length ({scenario.m_symbols})")
    noise_var = scenario.fading.noise_w

    if hypothesis == "H0":
        noise = sample_cgauss(gen, noise_var, size=(n_intervals, n_samples))
        return np.sum(np.abs(noise) ** 2, axis=1)

    geo, fad = scenario.geometry, scenario.fading
    loss_d_w = path_loss_linear(fad.alice_willie, geo.distance(geo.alice, geo.willie))
    loss_i_w = path_loss_linear(fad.dris_willie, geo.distance(geo.dris_center, geo.willie))

    def draw(k: int) -> np.ndarray:
        h_d = sample_cgauss(gen, 1.0, size=k) / math.sqrt(loss_d_w)
        h_tot = h_d[:, None] + _cascade(gen, geo, fad, scenario.profile, loss_i_w,
                                        k, n_samples)
        s = sample_cgauss(gen, scenario.p0_watts, size=(k, n_samples))
        noise = sample_cgauss(gen, noise_var, size=(k, n_samples))
        y = h_tot * s + noise
        return np.sum(np.abs(y) ** 2, axis=1)

    return _chunked(n_intervals, n_samples * max(geo.n_elements, 1), draw)


def gen_bob_signals(gen: np.random.Generator, scenario: Scenario, n_symbols: int):
    """Per-symbol covert-signal and jamming powers at the receiver.

    Returns ``(signal_powers, jamming_powers, noise_power)`` with
    |h_d s|^2 and |h_D(m) s|^2 per transmitted symbol.  Symbols are grouped
    into coherence intervals of ``scenario.m_symbols``: the receiver's
    position, the direct channel h_d and the drawing order of the transmit
    symbols are per interval.  Each symbol's cascade h_D(m) is its own
    one-symbol draw (see :func:`_cascade`), from a surface realization of
    its own: every symbol's law is exact, and so is the ergodic SJNR
    mean(signal) / (mean(jamming) + noise), but the cascades of one
    interval are independent instead of sharing g and h_I.  No output
    reads that correlation.
    """
    if n_symbols < 1:
        raise ValueError("need at least one symbol")
    geo, fad = scenario.geometry, scenario.fading
    m = scenario.m_symbols
    n_intervals = (n_symbols + m - 1) // m

    def draw(k: int) -> np.ndarray:
        if scenario.bob_position is None:
            bpos = sample_bob_position(gen, geo, size=k)
        else:
            bpos = np.broadcast_to(np.asarray(scenario.bob_position, float), (k, 3))
        d_ab = np.linalg.norm(bpos - np.asarray(geo.alice, float), axis=1)
        d_db = np.linalg.norm(bpos - np.asarray(geo.dris_center, float), axis=1)
        loss_d_b = path_loss_linear(fad.alice_bob, d_ab)
        loss_i_b = path_loss_linear(fad.dris_bob, d_db)
        h_d = sample_cgauss(gen, 1.0, size=k) / np.sqrt(loss_d_b)
        # one-symbol cascades take the pattern kernel on all but tiny surfaces
        h_jam = _cascade(gen, geo, fad, scenario.profile, np.repeat(loss_i_b, m),
                         k * m, 1).reshape(k, m)
        s = sample_cgauss(gen, scenario.p0_watts, size=(k, m))
        return np.stack([np.abs(h_d[:, None] * s) ** 2, np.abs(h_jam * s) ** 2],
                        axis=-1).reshape(-1, 2)

    # an interval's m one-symbol draws hold at most min(K, N_D) patterns each
    per_interval = m * min(len(scenario.profile.phases), max(geo.n_elements, 1))
    sig, jam = _chunked(n_intervals, per_interval, draw)[:n_symbols].T
    return sig, jam, fad.noise_b
