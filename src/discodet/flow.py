"""Masked autoregressive flow density estimator, self-contained in numpy.

The flow stacks affine autoregressive blocks whose per-dimension shift and
log-scale are produced by degree-masked dense networks with one tanh
hidden layer; every second block sees its input in reversed order.
Log-densities are exact via the triangular change-of-variables, gradients
are hand-written reverse-mode, and training uses Adam on the average
negative log-likelihood.  All parameters of a model live in one flat
vector ``theta`` (their gradients in ``grad``); every weight, bias and
head array is a view into it.

For one-dimensional data the conditioner has no inputs, so a 1-D block
stores its shift and log-scale as constants, with no hidden layer, and a
pure affine stack would only span Gaussian shapes.  Each block of a 1-D
flow, and only of a 1-D flow, therefore composes the affine map with a
learnable monotone element-wise map g(u) = u + a*tanh(b*u), parameterized
so a*b is in (-1, 1) which keeps g' > 0.  With a = 0 the block reduces to
the plain affine transform.  A 1-D block is thus four values (shift,
log-scale, ea, eb), and a 1-D flow computes all blocks' conditioners once
per call on a (models, blocks, 4) view of ``theta`` and runs the per-row
chain on their scalars (``_forward_1d``).  Only the chain's recurrences run block
by block: a training pass keeps each block's u and t in one (2, blocks,
rows) buffer, and its backward pass computes every other row term once
for all blocks.  Scoring holds one block's temporaries at a time.  Each
elementwise operation keeps its operands and their association, so the
results are bit-identical to running ``FlowBlock``'s formulas block by
block.  ``train_many`` uses the model axis to train many 1-D flows in
lockstep, one Adam step each per round, with results bit-identical to
training each alone.
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
    "train_many",
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
    hidden: int = 64        # width of each block's one hidden layer (dim > 1)

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

    Output t depends only on inputs with index < t.  It is built only for
    dim > 1: with one input its outputs would be constants, which a 1-D
    block stores directly.
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

    def forward(self, y: np.ndarray):
        """(mu, s, hidden activations) for the rows ``y``."""
        h = np.tanh(y @ (self.w * self.mask) + self.b)
        mu = h @ (self.w_mu * self.out_mask) + self.b_mu
        s = h @ (self.w_s * self.out_mask) + self.b_s
        return mu, s, h

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


def _softplus(x, out=None):
    return np.logaddexp(0.0, x, out=out)


def _clamp(s_raw, out=None):
    """The log-scale clamped to +-LOG_SCALE_CLAMP: ``np.clip``'s values
    (NaN passes through), without its Python-level dispatch."""
    out = np.maximum(s_raw, -LOG_SCALE_CLAMP, out=out)
    return np.minimum(out, LOG_SCALE_CLAMP, out=out)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class FlowBlock:
    """One autoregressive stage: optional input reversal, affine map with
    log-scale head, optional monotone element-wise enrichment.  Its
    conditioner is a ``MadeNetwork`` for dim > 1 and two constants for dim 1."""

    def __init__(self, dim: int, hidden: int, reverse: bool, enrich: bool,
                 init_gen: np.random.Generator, params: list[np.ndarray],
                 grads: list[np.ndarray]):
        self.dim = dim
        self.reverse = reverse
        self.enrich = enrich
        if dim > 1:
            self.made = MadeNetwork(dim, hidden, init_gen, params[:6], grads[:6])
        else:   # zero-initialized: the block starts as the identity map
            self.shift, self.log_scale = params[:2]
            self.g_shift, self.g_log_scale = grads[:2]
        if enrich:
            # a = tanh(ea)/b starts at 0: identity enrichment; b = softplus(eb)
            self.ea_raw, self.eb_raw = params[-2:]
            self.g_ea_raw, self.g_eb_raw = grads[-2:]

    @staticmethod
    def param_shapes(dim: int, hidden: int, enrich: bool) -> list[tuple[int, ...]]:
        cond = MadeNetwork.param_shapes(dim, hidden) if dim > 1 else [(1,), (1,)]
        return cond + [(dim,), (dim,)] * enrich

    def _conditioner(self, x_in: np.ndarray):
        """(mu, s_raw, hidden activations) for the rows ``x_in``; a 1-D
        block's are its constants as (1, 1) rows, with no hidden layer."""
        if self.dim == 1:
            return self.shift[None], self.log_scale[None], None
        return self.made.forward(x_in)

    def _enrich_ab(self):
        b = _softplus(self.eb_raw)
        a = np.tanh(self.ea_raw) / b
        return a, b

    def forward(self, x: np.ndarray):
        """Density-direction transform; returns (z, logdet, cache)."""
        x_in = x[:, ::-1] if self.reverse else x
        mu, s_raw, h = self._conditioner(x_in)
        s = _clamp(s_raw)
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
        if self.dim == 1:
            self.g_shift += dmu.sum(axis=0)
            self.g_log_scale += ds_raw.sum(axis=0)
            return du * exp_ms
        dx_in = du * exp_ms + self.made.backward(x_in, h, dmu, ds_raw)
        return dx_in[:, ::-1] if self.reverse else dx_in

    def inverse(self, z: np.ndarray) -> np.ndarray:
        if self.enrich:
            u = self._enrich_inverse(z)
        else:
            u = z
        x_in = np.zeros_like(u)
        for tdim in range(self.dim):
            mu, s_raw, _ = self._conditioner(x_in)
            s = _clamp(s_raw)
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
                 mu_std: np.ndarray, sigma_std: np.ndarray, storage=None):
        """``storage`` is a (theta, grad) pair of zeroed vectors of
        ``n_params`` values for the model to live in; by default it gets
        its own."""
        self.dim = dim
        enrich = self.enriched(dim)
        shapes = FlowBlock.param_shapes(dim, hidden, enrich)
        if storage is None:
            storage = np.zeros((2, self.n_params(dim, n_blocks, hidden)))
        self.theta, self.grad = storage
        self._params = _views(self.theta, shapes * n_blocks)
        self._grads = _views(self.grad, shapes * n_blocks)
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
    def n_params(dim: int, n_blocks: int, hidden: int) -> int:
        """The length of ``theta`` for this architecture."""
        shapes = FlowBlock.param_shapes(dim, hidden, FlowModel.enriched(dim))
        return n_blocks * sum(math.prod(s) for s in shapes)

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


def build_flow(dim: int, config: TrainConfig, mu_std=None, sigma_std=None,
               storage=None) -> FlowModel:
    """Construct a flow with the configured architecture and a seeded init
    (in ``storage``, if given: see ``FlowModel``)."""
    init_gen = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(0x11AD, 0))))
    if mu_std is None:
        mu_std = np.zeros(dim)
    if sigma_std is None:
        sigma_std = np.ones(dim)
    return FlowModel(dim, config.n_blocks, config.hidden, init_gen, mu_std, sigma_std, storage)


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


def _blocks_1d(flat: np.ndarray) -> np.ndarray:
    """The (k, blocks, 4) view of k 1-D flows' (k, P) ``theta`` or
    ``grad`` rows, whose last axis is a block's (shift, log-scale, ea,
    eb), the layout of ``FlowBlock.param_shapes``."""
    return flat.reshape(flat.shape[0], -1, 4)


def _conditioner_1d(params: np.ndarray) -> dict:
    """Every block's conditioner output and enrichment pair for 1-D flows,
    from their (models, blocks, 4) ``_blocks_1d`` view.

    The values come out shaped (models, blocks); the row chain's eight
    values are written into one (8, models, blocks) array, "chain", in the
    order of ``_CHAIN_KEYS``, by ``FlowBlock.forward``'s operations."""
    shift, s_raw, ea_raw, eb_raw = np.moveaxis(params, -1, 0)
    chain = np.empty((8,) + shift.shape)
    mu, s, exp_ms, a, slope, ab, two_b, dgp_coef = chain
    np.copyto(mu, shift)
    _clamp(s_raw, out=s)
    np.negative(s, out=exp_ms)
    np.exp(exp_ms, out=exp_ms)
    ta = np.tanh(ea_raw)
    _softplus(eb_raw, out=slope)
    np.divide(ta, slope, out=a)
    np.multiply(a, slope, out=ab)
    np.multiply(2.0, slope, out=two_b)
    np.multiply(-2.0, a, out=dgp_coef)
    dgp_coef *= slope
    dgp_coef *= slope
    return {"s_raw": s_raw, "eb_raw": eb_raw, "ta": ta, "b": slope, "chain": chain}


# the row chain's per-block values, in the order of ``_conditioner_1d``'s "chain"
_CHAIN_KEYS = ("mu", "s", "exp_ms", "a", "b", "ab", "two_b", "dgp_coef")


def _block_values(cond: dict, models) -> tuple[dict, dict]:
    """The row chain's per-block values of some models of ``cond``, twice:
    for the forward's block-by-block part, indexed by block, Python floats
    for one model (an int index) or a (g, 1) column per block for a group
    (a list of indices), which broadcasts over (g, n) rows; and for the
    backward, one column per value, (blocks, 1) or (blocks, g, 1), which
    broadcasts over the (blocks, n) or (blocks, g, n) rows of every block
    at once."""
    values = cond["chain"][:, models]
    if isinstance(models, list):
        columns = values.transpose(0, 2, 1)[..., None]
        per_block = columns
    else:
        columns = values[..., None]
        per_block = values.tolist()
    return dict(zip(_CHAIN_KEYS, per_block)), dict(zip(_CHAIN_KEYS, columns))


def _chain_1d(x, c: dict, logdet=None, keep: bool = False):
    """Run every block's row operations of ``FlowBlock.forward``, in its
    order, on the rows ``x`` ((n,) for one model, (g, n) for a group) with
    per-block values ``c``.  Returns (z, logdet, rows): the logdet is
    accumulated only if one is given, and only if ``keep`` are the blocks'
    u and t written to ``rows``, one (2, blocks, *x.shape) array.  The
    backward pass recomputes the rest from them."""
    n_blocks = len(c["mu"])
    rows = np.empty((2, n_blocks) + x.shape) if keep else None
    for k in range(n_blocks):
        u = np.subtract(x, c["mu"][k], out=rows[0, k] if keep else None)
        u *= c["exp_ms"][k]
        t = np.multiply(c["b"][k], u, out=rows[1, k] if keep else None)
        np.tanh(t, out=t)
        x = u + c["a"][k] * t
        if logdet is not None:
            gp = 1.0 + c["ab"][k] * (1.0 - t * t)
            logdet = logdet + (np.log(gp) - c["s"][k])
        del u, t    # scoring holds one block's temporaries at a time
    return x, logdet, rows


def _chain_backward_1d(rows, cols: dict, dz, c_logdet: float) -> np.ndarray:
    """Reverse-mode through ``_chain_1d``: ``FlowBlock.backward``'s row sums
    per block, from ``_block_values``' columns ``cols``.  Returns (dmu, ds,
    da, db) stacked, shaped (4, blocks) for one model and (4, blocks, g)
    for a group; ds ignores the clamp.

    Only the recurrence du = dz*gp + q, dz = du*exp_ms runs block by block;
    every other operation runs once on all blocks' rows.  The six row
    terms of every block go into one buffer and are summed in one
    reduction; each row sum is still its own sum over the rows, and da
    and db each add their two sums, as ``FlowBlock.backward`` does."""
    u, t = rows
    one_mt2 = 1.0 - t * t
    gp = 1.0 + cols["ab"] * one_mt2
    dgp = c_logdet / gp
    q = dgp * cols["dgp_coef"] * t * one_mt2
    dzs = np.empty_like(u)      # each block's incoming dz
    du = np.empty_like(u)
    dzs[-1] = dz
    exp_ms = cols["exp_ms"]
    # one model's recurrence scales by Python floats: numpy multiplies by
    # them faster than by (1,) columns
    exp_ms_k = exp_ms[:, 0].tolist() if exp_ms.ndim == 2 else exp_ms
    for k in reversed(range(len(u))):
        du_k = np.multiply(dzs[k], gp[k], out=du[k])
        du_k += q[k]
        if k:
            np.multiply(du_k, exp_ms_k[k], out=dzs[k - 1])
    a, slope = cols["a"], cols["b"]
    terms = np.empty((6,) + u.shape)   # dmu, ds, da, db, da's and db's 2nd parts
    np.multiply(dzs, t, out=terms[2])
    np.multiply(dzs * a * u, one_mt2, out=terms[3])
    np.multiply(dgp * slope, one_mt2, out=terms[4])
    np.multiply(dgp * a * one_mt2, 1.0 - cols["two_b"] * t * u, out=terms[5])
    neg_du = np.negative(du, out=du)
    np.subtract(neg_du * u, c_logdet, out=terms[1])
    np.multiply(neg_du, exp_ms, out=terms[0])
    sums = terms.sum(axis=-1)
    sums[2:4] += sums[4:]
    return sums[:4]


def _conditioner_adjoint_1d(grads: np.ndarray, cond: dict, sums) -> None:
    """Add the stacked conditioners' adjoint to ``grads``, the (models,
    blocks, 4) ``_blocks_1d`` view of the gradient rows.  ``sums`` holds
    the blocks' row sums, shaped (models, blocks, 4) with (dmu, ds, da,
    db) on the last axis; its ds is zeroed where the clamp passes none.
    Every value is the product or sum ``FlowBlock.backward`` forms."""
    np.copyto(sums[..., 1], 0.0, where=~(np.abs(cond["s_raw"]) < LOG_SCALE_CLAMP))
    grads[..., :2] += sums[..., :2]
    da, db = sums[..., 2], sums[..., 3]
    ta, slope = cond["ta"], cond["b"]
    sig = _sigmoid(cond["eb_raw"])
    grads[..., 2] += da * (1.0 - ta * ta) / slope
    grads[..., 3] += db * sig + da * (-ta / (slope * slope)) * sig


def _forward_1d(model: FlowModel, y, keep: bool):
    """Standardize ``y`` and run every block of a 1-D flow on its scalar
    conditioner.  Returns (z, logdet, cache); the cache holds each block's
    rows only if ``keep``."""
    x, logdet = model._standardize(y)
    cond = _conditioner_1d(_blocks_1d(model.theta[None]))
    c, cols = _block_values(cond, 0)
    z, logdet, rows = _chain_1d(x[:, 0], c, logdet, keep)
    return z[:, None], logdet, (cond, cols, rows)


def _backward_1d(model: FlowModel, cache, dz, c_logdet: float) -> None:
    """Reverse-mode through ``_forward_1d``: the blocks' row sums, then the
    stacked conditioners' adjoint once."""
    cond, cols, rows = cache
    sums = _chain_backward_1d(rows, cols, dz[:, 0], c_logdet)
    _conditioner_adjoint_1d(_blocks_1d(model.grad[None]), cond, sums.T[None])


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
    correction and global-norm clipping; ``grad`` is left unchanged.

    A (k, P) ``theta`` holds k models' vectors, one per row: each row is
    clipped by its own norm, and they share the step counter."""
    if theta.shape != grad.shape or theta.shape != state.m.shape:
        raise RuntimeError("parameter/gradient/state shape mismatch")
    norm = np.sqrt((grad * grad).sum(axis=-1, keepdims=True))  # numpy's sum, not BLAS: thread-free
    if (norm > CLIP_NORM).any():
        # fmax leaves every other row (a NaN norm too) multiplied by exactly 1
        grad = grad * (CLIP_NORM / np.fmax(norm, CLIP_NORM))
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
    return train_many([data], [config])[0]


def train_many(datasets, configs) -> list[FlowModel]:
    """Fit one flow per (dataset, config) pair, as ``train`` does, and
    return them in input order.

    Every dataset is checked before any step.  The 1-D flows that share
    their block count and learning rate train in lockstep
    (see ``_lockstep``); each keeps its own seed, standardizer, hold-out
    split, shuffle stream, clip decision and best-epoch snapshot, so every
    model is bit-identical to its own ``train`` run."""
    if len(datasets) != len(configs):
        raise ValueError(f"{len(datasets)} datasets but {len(configs)} configs")
    fits = []
    for i, (data, config) in enumerate(zip(datasets, configs)):
        try:
            fits.append(_Fit(data, config))
        except ValueError as err:
            raise ValueError(f"dataset {i}: {err}") from None
    runs: dict = {}
    for fit in fits:
        cfg = fit.config
        key = (cfg.n_blocks, cfg.learning_rate) if fit.dim == 1 else fit
        runs.setdefault(key, []).append(fit)
    for run in runs.values():
        _lockstep(sorted(run, key=lambda fit: -fit.n_steps))
    return [fit.model for fit in fits]


class _Fit:
    """One model's data and schedule in a lockstep run: its hold-out split,
    its training rows (standardized, as one 1-D array, for a 1-D flow),
    its shuffle stream and its best-epoch snapshot."""

    def __init__(self, data, config: TrainConfig):
        arr = _as_2d(data)
        n, self.dim = arr.shape
        if n < max(2, config.batch_size // 8):
            raise ValueError(f"not enough training samples ({n})")
        self.config = config
        self.mu_std, self.sigma_std = standardizer_fit(arr)
        self.shuffle_gen = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=config.seed, spawn_key=(0x5417, 0))))
        perm = self.shuffle_gen.permutation(n)
        n_hold = max(1, int(round(HOLDOUT_FRACTION * n)))
        self.hold = arr[perm[:n_hold]]
        tr = arr[perm[n_hold:]]
        if tr.shape[0] == 0:
            raise ValueError("holdout split left no training data")
        # the 1-D step takes standardized rows; grad_nll standardizes its own
        self.rows = ((tr - self.mu_std) / self.sigma_std)[:, 0] if self.dim == 1 else tr
        self.batch_size = min(config.batch_size, tr.shape[0])
        self.per_epoch = -(-tr.shape[0] // self.batch_size)
        self.n_steps = config.epochs * self.per_epoch

    def start(self, storage) -> None:
        """Build the model in ``storage`` and score its initial hold-out NLL."""
        self.model = build_flow(self.dim, self.config, self.mu_std, self.sigma_std, storage)
        self.best_nll = nll(self.model, self.hold)
        self.best_theta = self.model.theta.copy()

    def batch(self, step: int) -> np.ndarray:
        """The rows of training step ``step``, a slice of the epoch's
        shuffled rows, which its first step draws."""
        j = step % self.per_epoch
        if j == 0:
            self.shuffled = self.rows[self.shuffle_gen.permutation(self.rows.shape[0])]
        return self.shuffled[j * self.batch_size:(j + 1) * self.batch_size]

    def after(self, step: int) -> None:
        """After an epoch's last step, keep the model if its hold-out NLL is
        the best yet."""
        if step % self.per_epoch == self.per_epoch - 1:
            hold_nll = nll(self.model, self.hold)
            if hold_nll < self.best_nll:
                self.best_nll = hold_nll
                self.best_theta = self.model.theta.copy()


def _lockstep(fits: list[_Fit]) -> None:
    """Train ``fits``, which share an architecture and a learning rate and
    are sorted by step count (longest first), one step each per round.

    Their ``theta``, ``grad`` and Adam moments are rows of (k, P) arrays;
    the models still training are a prefix of the rows, and the
    conditioner, its adjoint and the Adam step run once per round over
    that prefix.  Only the 1-D row chain is split, by batch rows.  A flow
    of dim > 1 trains alone (k = 1) through ``grad_nll``."""
    first = fits[0]
    cfg = first.config
    theta = np.zeros((len(fits), FlowModel.n_params(first.dim, cfg.n_blocks, cfg.hidden)))
    grad = np.zeros_like(theta)
    for i, fit in enumerate(fits):
        fit.start((theta[i], grad[i]))
    state = AdamState(theta)
    active = 0
    for step in range(first.n_steps):
        if active == 0 or fits[active - 1].n_steps <= step:
            active = sum(fit.n_steps > step for fit in fits)
            theta, grad = theta[:active], grad[:active]
            state.m, state.v = state.m[:active], state.v[:active]
        batches = [fit.batch(step) for fit in fits[:active]]
        if first.dim == 1:
            grad[:] = 0.0
            _grad_1d(theta, grad, batches)
        else:
            grad_nll(first.model, batches[0])
        adam_step(theta, grad, state, cfg)
        for fit in fits[:active]:
            fit.after(step)
    for fit in fits:
        fit.model.theta[:] = fit.best_theta


def _grad_1d(theta: np.ndarray, grad: np.ndarray, batches: list[np.ndarray]) -> None:
    """Add each 1-D model's batch-NLL gradient to its row of (k, P) ``grad``:
    the conditioners once for all models, the row chain once per group of
    models whose batches have equal row counts.  A one-model group runs on
    1-D rows with Python-float block values, as ``grad_nll`` does."""
    cond = _conditioner_1d(_blocks_1d(theta))
    sums = np.empty(cond["s_raw"].shape + (4,))  # (dmu, ds, da, db) per model and block
    groups: dict[int, list[int]] = {}
    for i, rows in enumerate(batches):
        groups.setdefault(rows.shape[0], []).append(i)
    for n, members in groups.items():
        if len(members) == 1:
            members, = members      # an int index: Python-float block values
            x = batches[members]
        else:
            x = np.stack([batches[i] for i in members])
        c, cols = _block_values(cond, members)
        z, _, rows = _chain_1d(x, c, keep=True)
        z /= n
        sums[members] = _chain_backward_1d(rows, cols, z, -1.0 / n).T
    _conditioner_adjoint_1d(_blocks_1d(grad), cond, sums)


# -- serialization ----------------------------------------------------------

_MAGIC = b"DSCFLOW1"


def save_flow(model: FlowModel, path) -> None:
    """Versioned flat binary layout: magic, architecture header (dim, block
    count, hidden-layer count, enrichment flag, hidden width), the
    standardizer, then ``theta`` (every parameter in declaration order) as
    little-endian float64.  A 1-D block has no hidden layer: count and width
    are 0.  Loading reproduces log-densities bit-identically."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        blk = model.blocks[0]
        hidden = blk.made.hidden if model.dim > 1 else 0
        fh.write(struct.pack("<IIIBI", model.dim, len(model.blocks), int(hidden > 0),
                             blk.enrich, hidden))
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
        dim, n_blocks, n_hidden, enrich, hidden = struct.unpack("<IIIBI", read(17, "header"))
        if dim == 0:
            raise ValueError(f"{path}: zero-dimensional flow")
        layers = int(dim > 1)       # a 1-D block has none: count 0, width 0
        if n_hidden != layers or not (layers or hidden == 0):
            raise ValueError(f"{path}: a {dim}-dimensional flow block has {('no', 'one')[layers]}"
                             f" hidden layer, got {n_hidden} of width {hidden}")
        if enrich != FlowModel.enriched(dim):
            raise ValueError(f"{path}: enrichment flag must be {FlowModel.enriched(dim):d} "
                             f"for a {dim}-dimensional flow, got {enrich}")
        try:
            config = TrainConfig(n_blocks=n_blocks,
                                 hidden=hidden if layers else TrainConfig.hidden)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None
        mu_std = np.frombuffer(read(8 * dim, "standardizer"), dtype="<f8").copy()
        sigma_std = np.frombuffer(read(8 * dim, "standardizer"), dtype="<f8").copy()
        raw = read(8 * FlowModel.n_params(dim, n_blocks, hidden), "parameter data")
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after parameters")
    model = build_flow(dim, config, mu_std, sigma_std)
    model.theta[:] = np.frombuffer(raw, dtype="<f8")
    return model
