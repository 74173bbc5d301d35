"""Masked autoregressive flow density estimator, self-contained in numpy.

The flow stacks affine autoregressive blocks whose per-dimension shift and
log-scale are produced by degree-masked dense networks with one tanh
hidden layer; every second block sees its input in reversed order.
Log-densities are exact via the triangular change-of-variables, gradients
are hand-written reverse-mode, and training uses Adam on the average
negative log-likelihood.  All parameters of a model live in one flat
vector ``theta`` (their gradients in ``grad``); every weight, bias and
head array is a view into it.

For one-dimensional data the masked conditioner has no inputs, so a pure
affine stack would only span Gaussian shapes.  Each block of a 1-D flow,
and only of a 1-D flow, therefore composes the affine map with a
learnable monotone element-wise map g(u) = u + a*tanh(b*u), parameterized
so a*b is in (-1, 1) which keeps g' > 0.  With a = 0 the block reduces to
the plain affine transform.  Such a conditioner is the same for every
row, so a 1-D flow computes all blocks' conditioners once per call,
stacked over a leading block axis, and runs the per-row chain on their
scalars (``_forward_1d``).
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TrainConfig",
    "MadeNetwork",
    "FlowBlock",
    "FlowModel",
    "AdamState",
    "standardizer_fit",
    "build_flow",
    "nll",
    "grad_nll",
    "adam_step",
    "train",
    "save_flow",
    "load_flow",
]

LOG_SCALE_CLAMP = 7.0  # keeps exp(±s) finite on outliers


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and architecture knobs for flow training."""

    learning_rate: float = 2e-4
    epochs: int = 200
    batch_size: int = 256
    seed: int = 0
    n_blocks: int = 5
    hidden: int = 64        # width of each block's one hidden layer

    def __post_init__(self):
        if not self.learning_rate > 0:       # NaN fails too
            raise ValueError("learning rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.n_blocks < 1:
            raise ValueError("a flow needs at least one block")
        if self.hidden < 1:
            raise ValueError("the hidden width must be >= 1")


def standardizer_fit(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension empirical mean and (population) standard deviation."""
    arr = _as_2d(data)
    if arr.shape[0] < 2:
        raise ValueError("standardizer needs at least two samples")
    mu = arr.mean(axis=0)
    sigma = arr.std(axis=0)
    if np.any(sigma <= 0):
        raise ValueError("degenerate data: zero standard deviation in some dimension")
    return mu, sigma


def _as_2d(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"expected (n,) or (n, d) data, got shape {arr.shape}")
    return arr


def _views(buf: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive views along the last axis of ``buf``, one per shape; the
    leading axes are kept, so ``buf.reshape(n_blocks, -1)`` gives each
    parameter of every block with a leading block axis."""
    offsets = np.cumsum([math.prod(s) for s in shapes])[:-1]
    lead = buf.shape[:-1]
    return [part.reshape(*lead, *s)
            for part, s in zip(np.split(buf, offsets, axis=-1), shapes)]


class MadeNetwork:
    """Degree-masked dense network with one tanh hidden layer, emitting
    per-dimension (shift, log-scale).

    Output t depends only on inputs with index < t; with dim = 1 the
    outputs are input-independent learned constants, which the 1-D flow
    path computes without calling this class.
    """

    def __init__(self, dim: int, hidden: int, init_gen: np.random.Generator,
                 params: list[np.ndarray], grads: list[np.ndarray]):
        """``params``/``grads`` are zeroed views laid out by ``param_shapes``."""
        self.dim = dim
        self.hidden = hidden
        deg_in = np.arange(1, dim + 1)
        deg_hidden = np.arange(hidden) % max(1, dim - 1) + min(1, dim - 1)
        self.mask = (deg_in[:, None] <= deg_hidden[None, :]).astype(float)
        self.out_mask = (deg_hidden[:, None] < deg_in[None, :]).astype(float)
        # zero-initialized heads: the flow starts as the identity map
        self.w, self.b, self.w_mu, self.b_mu, self.w_s, self.b_s = params
        self.g_w, self.g_b, self.g_w_mu, self.g_b_mu, self.g_w_s, self.g_b_s = grads
        bound = math.sqrt(6.0 / sum(self.mask.shape))
        self.w[...] = init_gen.uniform(-bound, bound, size=self.mask.shape) * self.mask

    @staticmethod
    def param_shapes(dim: int, hidden: int) -> list[tuple[int, ...]]:
        """Shapes in declaration order: the hidden layer's (weight, bias),
        the shift head's (weight, bias), the log-scale head's (weight, bias)."""
        return [(dim, hidden), (hidden,), (hidden, dim), (dim,), (hidden, dim), (dim,)]

    def forward(self, y: np.ndarray, need_cache: bool = False):
        h = np.tanh(y @ (self.w * self.mask) + self.b)
        mu = h @ (self.w_mu * self.out_mask) + self.b_mu
        s = h @ (self.w_s * self.out_mask) + self.b_s
        if need_cache:
            return mu, s, h
        return mu, s

    def backward(self, y: np.ndarray, h: np.ndarray, dmu: np.ndarray,
                 ds: np.ndarray) -> np.ndarray:
        """Accumulates parameter gradients for input ``y`` with hidden
        activations ``h``; returns dLoss/dy."""
        self.g_w_mu += (h.T @ dmu) * self.out_mask
        self.g_b_mu += dmu.sum(axis=0)
        self.g_w_s += (h.T @ ds) * self.out_mask
        self.g_b_s += ds.sum(axis=0)
        dh = dmu @ (self.w_mu * self.out_mask).T + ds @ (self.w_s * self.out_mask).T
        dpre = dh * (1.0 - h ** 2)
        self.g_w += (y.T @ dpre) * self.mask
        self.g_b += dpre.sum(axis=0)
        return dpre @ (self.w * self.mask).T


def _softplus(x):
    return np.logaddexp(0.0, x)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class FlowBlock:
    """One autoregressive stage: optional input reversal, affine map with
    log-scale head, optional monotone element-wise enrichment."""

    def __init__(self, dim: int, hidden: int, reverse: bool, enrich: bool,
                 init_gen: np.random.Generator, params: list[np.ndarray],
                 grads: list[np.ndarray]):
        self.dim = dim
        self.reverse = reverse
        self.enrich = enrich
        self.made = MadeNetwork(dim, hidden, init_gen, params[:6], grads[:6])
        if enrich:
            # a = tanh(ea)/b starts at 0: identity enrichment; b = softplus(eb)
            self.ea_raw, self.eb_raw = params[6:]
            self.g_ea_raw, self.g_eb_raw = grads[6:]

    @staticmethod
    def param_shapes(dim: int, hidden: int, enrich: bool) -> list[tuple[int, ...]]:
        return MadeNetwork.param_shapes(dim, hidden) + [(dim,), (dim,)] * enrich

    def _enrich_ab(self):
        b = _softplus(self.eb_raw)
        a = np.tanh(self.ea_raw) / b
        return a, b

    def forward(self, x: np.ndarray):
        """Density-direction transform; returns (z, logdet, cache)."""
        x_in = x[:, ::-1] if self.reverse else x
        mu, s_raw, h = self.made.forward(x_in, need_cache=True)
        s = np.clip(s_raw, -LOG_SCALE_CLAMP, LOG_SCALE_CLAMP)
        u = (x_in - mu) * np.exp(-s)
        logdet = -s.sum(axis=1)
        if self.enrich:
            a, b = self._enrich_ab()
            t = np.tanh(b * u)
            z = u + a * t
            gp = 1.0 + (a * b) * (1.0 - t * t)
            logdet = logdet + np.log(gp).sum(axis=1)
        else:
            t = gp = None
            z = u
        return z, logdet, (x_in, mu, s_raw, s, u, t, gp, h)

    def backward(self, cache, dz: np.ndarray, c_logdet: float) -> np.ndarray:
        """Reverse-mode through the block.

        ``dz`` is dLoss/dz; ``c_logdet`` is the (scalar) coefficient of each
        sample's logdet in the loss.  Accumulates parameter gradients and
        returns dLoss/dx.
        """
        x_in, mu, s_raw, s, u, t, gp, h = cache
        if self.enrich:
            a, b = self._enrich_ab()
            one_mt2 = 1.0 - t * t
            dgp = c_logdet / gp
            du = dz * gp + dgp * (-2.0 * a * b * b) * t * one_mt2
            da = (dz * t).sum(axis=0) + (dgp * b * one_mt2).sum(axis=0)
            db = (dz * a * u * one_mt2).sum(axis=0) \
                + (dgp * a * one_mt2 * (1.0 - 2.0 * b * t * u)).sum(axis=0)
            ta = np.tanh(self.ea_raw)
            sig = _sigmoid(self.eb_raw)
            self.g_ea_raw += da * (1.0 - ta * ta) / b
            self.g_eb_raw += db * sig + da * (-ta / (b * b)) * sig
        else:
            du = dz
        exp_ms = np.exp(-s)
        ds = -du * u - c_logdet
        ds_raw = ds * (np.abs(s_raw) < LOG_SCALE_CLAMP)
        dmu = -du * exp_ms
        dx_in = du * exp_ms + self.made.backward(x_in, h, dmu, ds_raw)
        return dx_in[:, ::-1] if self.reverse else dx_in

    def inverse(self, z: np.ndarray) -> np.ndarray:
        if self.enrich:
            u = self._enrich_inverse(z)
        else:
            u = z
        x_in = np.zeros_like(u)
        for tdim in range(self.dim):
            mu, s_raw = self.made.forward(x_in)
            s = np.clip(s_raw, -LOG_SCALE_CLAMP, LOG_SCALE_CLAMP)
            x_in[:, tdim] = mu[:, tdim] + u[:, tdim] * np.exp(s[:, tdim])
        return x_in[:, ::-1] if self.reverse else x_in

    def _enrich_inverse(self, z: np.ndarray) -> np.ndarray:
        # g(u) = u + a*tanh(b*u) is strictly increasing; |g(u) - u| <= |a|
        # gives a guaranteed bracket, then bisection to ~1e-15 relative.
        a, b = self._enrich_ab()
        lo = z - np.abs(a) - 1e-12
        hi = z + np.abs(a) + 1e-12
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            val = mid + a * np.tanh(b * mid)
            too_low = val < z
            lo = np.where(too_low, mid, lo)
            hi = np.where(too_low, hi, mid)
        return 0.5 * (lo + hi)


class FlowModel:
    """Standardizer plus a stack of autoregressive blocks over a standard
    normal base; supports exact log-density, inversion, and gradients."""

    def __init__(self, dim: int, n_blocks: int, hidden: int, init_gen: np.random.Generator,
                 mu_std: np.ndarray, sigma_std: np.ndarray):
        self.dim = dim
        enrich = self.enriched(dim)
        shapes = FlowBlock.param_shapes(dim, hidden, enrich)
        self.theta = np.zeros(n_blocks * sum(math.prod(s) for s in shapes))
        self.grad = np.zeros_like(self.theta)
        self._params = _views(self.theta, shapes * n_blocks)
        self._grads = _views(self.grad, shapes * n_blocks)
        # the same storage, one view per parameter with a leading block axis
        self._stacked = _views(self.theta.reshape(n_blocks, -1), shapes)
        self._g_stacked = _views(self.grad.reshape(n_blocks, -1), shapes)
        k = len(shapes)
        self.blocks = [
            FlowBlock(dim, hidden, reverse=(i % 2 == 1), enrich=enrich, init_gen=init_gen,
                      params=self._params[i * k:(i + 1) * k],
                      grads=self._grads[i * k:(i + 1) * k])
            for i in range(n_blocks)
        ]
        self.mu_std = np.asarray(mu_std, dtype=float).reshape(dim)
        self.sigma_std = np.asarray(sigma_std, dtype=float).reshape(dim)

    @staticmethod
    def enriched(dim: int) -> bool:
        """Whether a ``dim``-dimensional flow's blocks carry the monotone
        enrichment: exactly when dim = 1, where the affine stack alone
        spans only Gaussian shapes."""
        return dim == 1

    def parameters(self) -> list[np.ndarray]:
        """Every parameter array in declaration order, as views into ``theta``."""
        return list(self._params)

    # -- evaluation ---------------------------------------------------------

    def _standardize(self, y):
        """Standardized data and the standardizer's per-sample logdet
        -sum(log sigma_std): the input of the first block."""
        arr = _as_2d(y)
        if arr.shape[1] != self.dim:
            raise ValueError(f"flow expects {self.dim}-dimensional data, got {arr.shape[1]}")
        logdet = np.full(arr.shape[0], -np.log(self.sigma_std).sum())
        return (arr - self.mu_std) / self.sigma_std, logdet

    def forward(self, y):
        """Map data to latent; returns (z, per-sample logdet).  No block
        cache outlives its block."""
        forward, _ = _path(self)
        return forward(self, y, keep=False)[:2]

    def log_prob(self, y) -> np.ndarray:
        z, logdet = self.forward(y)
        base = -0.5 * (z * z).sum(axis=1) - 0.5 * self.dim * math.log(2 * math.pi)
        return base + logdet

    def inverse(self, z) -> np.ndarray:
        x = _as_2d(z)
        for blk in reversed(self.blocks):
            x = blk.inverse(x)
        return x * self.sigma_std + self.mu_std


def build_flow(dim: int, config: TrainConfig, mu_std=None, sigma_std=None) -> FlowModel:
    """Construct a flow with the configured architecture and a seeded init."""
    init_gen = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(0x11AD, 0))))
    if mu_std is None:
        mu_std = np.zeros(dim)
    if sigma_std is None:
        sigma_std = np.ones(dim)
    return FlowModel(dim, config.n_blocks, config.hidden, init_gen, mu_std, sigma_std)


def nll(model: FlowModel, batch) -> float:
    """Average negative log-likelihood over the batch."""
    arr = _as_2d(batch)
    if arr.shape[0] == 0:
        raise ValueError("nll requires a non-empty batch")
    return float(-model.log_prob(arr).mean())


def grad_nll(model: FlowModel, batch) -> tuple[float, list[np.ndarray]]:
    """Exact reverse-mode gradient of the batch NLL for every parameter.

    The gradient is written to ``model.grad``; the returned list holds its
    views shaped like ``parameters()``, overwritten by the next call."""
    arr = _as_2d(batch)
    n = arr.shape[0]
    if n == 0:
        raise ValueError("grad_nll requires a non-empty batch")
    model.grad[:] = 0.0
    forward, backward = _path(model)
    z, logdet, cache = forward(model, arr, keep=True)
    base = -0.5 * (z * z).sum(axis=1) - 0.5 * model.dim * math.log(2 * math.pi)
    loss = float(-(base + logdet).mean())
    # d(-mean(base))/dz, and the coefficient of each sample's logdet
    backward(model, cache, z / n, -1.0 / n)
    return loss, list(model._grads)


def _path(model: FlowModel):
    """The (forward, backward) pair that runs ``model``'s blocks.

    A 1-D block's conditioner has no inputs: its (mu, s) is the same for
    every row, so a 1-D flow takes the stacked path.  This is the one
    place that decides it; the per-block path serves every dimension."""
    if model.dim == 1:
        return _forward_1d, _backward_1d
    return _forward_blocks, _backward_blocks


def _forward_blocks(model: FlowModel, y, keep: bool):
    """Standardize ``y`` and run every block in turn; returns (z, logdet,
    the blocks' caches if ``keep``)."""
    x, logdet = model._standardize(y)
    caches = []
    for blk in model.blocks:
        x, ld, cache = blk.forward(x)
        logdet = logdet + ld
        if keep:
            caches.append(cache)
        del cache   # scoring holds one block's cache at a time
    return x, logdet, caches


def _backward_blocks(model: FlowModel, caches, dz, c_logdet: float) -> None:
    for blk, cache in zip(reversed(model.blocks), reversed(caches)):
        dz = blk.backward(cache, dz, c_logdet)


def _conditioner_1d(model: FlowModel) -> dict:
    """Every block's conditioner output and enrichment pair for a 1-D flow.

    Arrays have a leading block axis; ``FlowBlock.forward``'s operations
    on them are kept, less the hidden layer's zero-masked product (its
    mask is all zero for dim = 1; the heads' masks are all one).  The row
    chain reads the per-block values as Python floats."""
    w, b, w_mu, b_mu, w_s, b_s, ea_raw, eb_raw = model._stacked
    h = np.tanh(b)
    mu = np.matmul(h[:, None], w_mu)[:, 0, 0] + b_mu[:, 0]
    s_raw = np.matmul(h[:, None], w_s)[:, 0, 0] + b_s[:, 0]
    s = np.clip(s_raw, -LOG_SCALE_CLAMP, LOG_SCALE_CLAMP)
    ta = np.tanh(ea_raw[:, 0])
    slope = _softplus(eb_raw[:, 0])
    a = ta / slope
    return {"h": h, "mu": mu.tolist(), "s_raw": s_raw.tolist(), "s": s.tolist(),
            "exp_ms": np.exp(-s).tolist(), "ta": ta, "b_arr": slope, "a": a.tolist(),
            "b": slope.tolist(), "ab": (a * slope).tolist(), "two_b": (2.0 * slope).tolist(),
            "dgp_coef": (-2.0 * a * slope * slope).tolist()}


def _forward_1d(model: FlowModel, y, keep: bool):
    """Standardize ``y`` and run every block of a 1-D flow on its scalar
    conditioner: the row operations of ``FlowBlock.forward``, in its order.
    Returns (z, logdet, cache); the cache holds each block's rows only if
    ``keep``."""
    x, logdet = model._standardize(y)
    x = x[:, 0]
    cond = _conditioner_1d(model)
    rows = []
    for k in range(len(model.blocks)):
        u = (x - cond["mu"][k]) * cond["exp_ms"][k]
        t = np.tanh(cond["b"][k] * u)
        x = u + cond["a"][k] * t
        one_mt2 = 1.0 - t * t
        gp = 1.0 + cond["ab"][k] * one_mt2
        logdet = logdet + (np.log(gp) - cond["s"][k])
        if keep:
            rows.append((u, t, gp, one_mt2))
        del u, t, gp, one_mt2   # scoring holds one block's rows at a time
    return x[:, None], logdet, (cond, rows)


def _backward_1d(model: FlowModel, cache, dz, c_logdet: float) -> None:
    """Reverse-mode through ``_forward_1d``: ``FlowBlock.backward``'s row
    sums per block, then the stacked conditioners' adjoint once."""
    cond, rows = cache
    n_blocks = len(model.blocks)
    dmu, ds, da, db = (np.zeros(n_blocks) for _ in range(4))
    dz = dz[:, 0]
    for k in reversed(range(n_blocks)):
        u, t, gp, one_mt2 = rows[k]
        a, slope = cond["a"][k], cond["b"][k]
        dgp = c_logdet / gp
        du = dz * gp + dgp * cond["dgp_coef"][k] * t * one_mt2
        da[k] = (dz * t).sum() + (dgp * slope * one_mt2).sum()
        db[k] = (dz * a * u * one_mt2).sum() \
            + (dgp * a * one_mt2 * (1.0 - cond["two_b"][k] * t * u)).sum()
        neg_du = -du
        exp_ms = cond["exp_ms"][k]
        if abs(cond["s_raw"][k]) < LOG_SCALE_CLAMP:   # else the clamp passes no gradient
            ds[k] = (neg_du * u - c_logdet).sum()
        dmu[k] = (neg_du * exp_ms).sum()
        dz = du * exp_ms

    w, b, w_mu, b_mu, w_s, b_s, ea_raw, eb_raw = model._stacked
    g_w, g_b, g_w_mu, g_b_mu, g_w_s, g_b_s, g_ea_raw, g_eb_raw = model._g_stacked
    g_b_mu[:, 0] += dmu
    g_b_s[:, 0] += ds
    h = cond["h"]
    g_w_mu[:, :, 0] += h * dmu[:, None]
    g_w_s[:, :, 0] += h * ds[:, None]
    dh = dmu[:, None] * w_mu[:, :, 0] + ds[:, None] * w_s[:, :, 0]
    g_b += dh * (1.0 - h * h)     # the hidden weights and the input are masked out
    ta, slope = cond["ta"], cond["b_arr"]
    sig = _sigmoid(eb_raw[:, 0])
    g_ea_raw[:, 0] += da * (1.0 - ta * ta) / slope
    g_eb_raw[:, 0] += db * sig + da * (-ta / (slope * slope)) * sig


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
CLIP_NORM = 5.0          # global gradient-norm clip
HOLDOUT_FRACTION = 0.1   # share of the training data scored for the best epoch


class AdamState:
    """First/second moment vectors plus the step counter."""

    def __init__(self, theta: np.ndarray):
        self.m = np.zeros_like(theta)
        self.v = np.zeros_like(theta)
        self.t = 0


def adam_step(theta: np.ndarray, grad: np.ndarray, state: AdamState,
              config: TrainConfig) -> None:
    """In-place Adam update of the flat parameter vector, with bias
    correction and global-norm clipping; ``grad`` is left unchanged."""
    if theta.shape != grad.shape or theta.shape != state.m.shape:
        raise RuntimeError("parameter/gradient/state shape mismatch")
    norm = math.sqrt(float((grad * grad).sum()))   # numpy's sum, not BLAS: thread-free
    if norm > CLIP_NORM:
        grad = grad * (CLIP_NORM / norm)
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    state.m *= ADAM_BETA1
    state.m += (1 - ADAM_BETA1) * grad
    state.v *= ADAM_BETA2
    state.v += (1 - ADAM_BETA2) * grad * grad
    theta -= config.learning_rate * (state.m / bc1) / (np.sqrt(state.v / bc2) + ADAM_EPS)


def train(data, config: TrainConfig) -> FlowModel:
    """Fit a flow by Adam on the average NLL; returns the model that scored
    the best NLL on a held-out split (deterministic for a fixed seed)."""
    arr = _as_2d(data)
    n, dim = arr.shape
    if n < max(2, config.batch_size // 8):
        raise ValueError(f"not enough training samples ({n})")
    mu_std, sigma_std = standardizer_fit(arr)
    model = build_flow(dim, config, mu_std, sigma_std)

    shuffle_gen = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(0x5417, 0))))
    perm = shuffle_gen.permutation(n)
    n_hold = max(1, int(round(HOLDOUT_FRACTION * n)))
    hold = arr[perm[:n_hold]]
    tr = arr[perm[n_hold:]]
    if tr.shape[0] == 0:
        raise ValueError("holdout split left no training data")

    state = AdamState(model.theta)
    best_nll = nll(model, hold)
    best_theta = model.theta.copy()
    bs = min(config.batch_size, tr.shape[0])
    for _ in range(config.epochs):
        order = shuffle_gen.permutation(tr.shape[0])
        for start in range(0, tr.shape[0], bs):
            grad_nll(model, tr[order[start : start + bs]])
            adam_step(model.theta, model.grad, state, config)
        hold_nll = nll(model, hold)
        if hold_nll < best_nll:
            best_nll = hold_nll
            best_theta = model.theta.copy()
    model.theta[:] = best_theta
    return model


# -- serialization ----------------------------------------------------------

_MAGIC = b"DSCFLOW1"


def save_flow(model: FlowModel, path) -> None:
    """Versioned flat binary layout: magic, architecture header (dim, block
    count, hidden-layer count 1, enrichment flag, hidden width), the
    standardizer, then ``theta`` (every parameter in declaration order) as
    little-endian float64.  Loading reproduces log-densities bit-identically."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        blk = model.blocks[0]
        fh.write(struct.pack("<IIIBI", model.dim, len(model.blocks), 1, blk.enrich,
                             blk.made.hidden))
        fh.write(model.mu_std.astype("<f8").tobytes())
        fh.write(model.sigma_std.astype("<f8").tobytes())
        fh.write(model.theta.astype("<f8").tobytes())


def load_flow(path) -> FlowModel:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        def read(n_bytes: int, what: str) -> bytes:   # sizes checked before allocating
            if n_bytes > size - fh.tell():
                raise ValueError(f"{path}: truncated {what}")
            return fh.read(n_bytes)
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise ValueError(f"{path}: not a serialized flow model")
        dim, n_blocks, n_hidden, enrich = struct.unpack("<IIIB", read(13, "header"))
        if dim == 0:
            raise ValueError(f"{path}: zero-dimensional flow")
        if n_hidden != 1:
            raise ValueError(f"{path}: a flow block has one hidden layer, got {n_hidden}")
        if enrich != FlowModel.enriched(dim):
            raise ValueError(f"{path}: enrichment flag must be {FlowModel.enriched(dim):d} "
                             f"for a {dim}-dimensional flow, got {enrich}")
        hidden, = struct.unpack("<I", read(4, "hidden width"))
        try:
            config = TrainConfig(n_blocks=n_blocks, hidden=hidden)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None
        mu_std = np.frombuffer(read(8 * dim, "standardizer"), dtype="<f8").copy()
        sigma_std = np.frombuffer(read(8 * dim, "standardizer"), dtype="<f8").copy()
        shapes = FlowBlock.param_shapes(dim, hidden, bool(enrich))
        raw = read(8 * n_blocks * sum(math.prod(s) for s in shapes), "parameter data")
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after parameters")
    model = build_flow(dim, config, mu_std, sigma_std)
    model.theta[:] = np.frombuffer(raw, dtype="<f8")
    return model
