"""Masked autoregressive flow density estimator of one scalar statistic,
self-contained in numpy.

The flow maps a standardized statistic through a stack of blocks onto a
standard normal latent.  Statistics come as flat (n,) arrays, and the
standardizer is a scalar mean and deviation.  In one dimension an
autoregressive conditioner has no inputs, so each block's shift and
log-scale are constants, and an affine stack alone would span only
Gaussian shapes.  Each block therefore composes its affine map with a
learnable monotone element-wise map g(u) = u + a*tanh(b*u),
parameterized so a*b is in (-1, 1), which keeps g' > 0; with a = 0 the
block is the plain affine map.  A block is thus four values (shift,
log-scale, ea, eb).  All parameters of a model live
in one flat vector ``theta`` (their gradients in ``grad``), of which
``FlowModel.blocks`` is the (blocks, 4) view.

Log-densities are exact via the change of variables, gradients are
hand-written reverse-mode, and training uses Adam on the average negative
log-likelihood.  The blocks' conditioners are computed once per call on a
(models, blocks, 4) view of ``theta``, and the per-row chain runs on their
scalars (``_chain_1d``).  Only the chain's recurrences run block by
block: a training pass keeps each block's u and t in one (2, blocks,
rows) buffer, and its backward pass computes every other row term once
for all blocks.  Scoring holds one block's temporaries at a time.  Each
elementwise operation keeps its operands and their association, so the
results are bit-identical to running the block formulas one block at a
time.  There is one gradient path, ``_grad_1d``: ``train_many`` uses its
model axis to train many flows in lockstep, one Adam step each per
round, with results bit-identical to training each alone, and
``grad_nll`` is its one-model case.
"""

from __future__ import annotations

import math
import numbers
import os
import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TrainConfig",
    "FlowModel",
    "AdamState",
    "standardizer_fit",
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
    """Optimizer settings and the block count of a flow fit."""

    learning_rate: float = 2e-4
    epochs: int = 200
    batch_size: int = 256
    seed: int = 0           # seeds the hold-out split and the minibatch shuffles
    n_blocks: int = 5

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:       # NaN fails too
            raise ValueError("learning rate must be positive and finite")
        for name in ("epochs", "batch_size", "n_blocks", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.n_blocks < 1:
            raise ValueError("a flow needs at least one block")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def standardizer_fit(data: np.ndarray) -> tuple[float, float]:
    """Empirical mean and (population) standard deviation of finite data."""
    arr = _flat(data)
    if arr.size < 2:
        raise ValueError("standardizer needs at least two samples")
    if not np.all(np.isfinite(arr)):
        raise ValueError("data must be finite (no NaN or inf)")
    sigma = float(arr.std())
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"degenerate data: standard deviation {sigma}")
    return float(arr.mean()), sigma


def _flat(data) -> np.ndarray:
    """``data`` as a flat (n,) float array of statistics."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected (n,) data, got shape {arr.shape}")
    return arr


def _softplus(x, out=None):
    return np.logaddexp(0.0, x, out=out)


def _clamp(s_raw, out):
    """The log-scale clamped to +-LOG_SCALE_CLAMP: ``np.clip``'s values
    (NaN passes through), without its Python-level dispatch."""
    out = np.maximum(s_raw, -LOG_SCALE_CLAMP, out=out)
    return np.minimum(out, LOG_SCALE_CLAMP, out=out)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _enrich_inverse(z: np.ndarray, a, b) -> np.ndarray:
    """The u with g(u) = u + a*tanh(b*u) = z.  g is strictly increasing and
    |g(u) - u| <= |a| gives a guaranteed bracket, then bisection to ~1e-15
    relative."""
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
    """Standardizer plus a stack of monotone blocks over a standard normal
    base; supports exact log-density, inversion, and gradients."""

    def __init__(self, n_blocks: int, mu_std=0.0, sigma_std=1.0, storage=None):
        """``storage`` is a (theta, grad) pair of zeroed vectors of
        ``n_params`` values for the model to live in; by default it gets
        its own.  Zero parameters make every block the identity map, and
        the default standardizer makes the whole flow the identity."""
        if storage is None:
            storage = np.zeros((2, self.n_params(n_blocks)))
        self.theta, self.grad = storage
        self.blocks = self.theta.reshape(n_blocks, 4)   # (shift, log-scale, ea, eb)
        self.mu_std = float(mu_std)
        self.sigma_std = float(sigma_std)

    @staticmethod
    def n_params(n_blocks: int) -> int:
        """The length of ``theta``: four values per block."""
        return 4 * n_blocks

    # -- evaluation ---------------------------------------------------------

    def _standardize(self, y):
        """Standardized data and the standardizer's per-sample logdet
        -log(sigma_std): the input of the first block."""
        x = (_flat(y) - self.mu_std) / self.sigma_std
        return x, np.full(x.shape, -np.log(self.sigma_std))

    def forward(self, y):
        """Map data to latent; returns (z, per-sample logdet).  No block
        cache outlives its block."""
        x, logdet = self._standardize(y)
        c, _ = _block_values(_conditioner_1d(self.blocks[None]), 0)
        return _chain_1d(x, c, logdet)[:2]

    def log_prob(self, y) -> np.ndarray:
        z, logdet = self.forward(y)
        return _base_log_prob(z) + logdet

    def inverse(self, z) -> np.ndarray:
        """Map latent to data: each block's enrichment inverse, then its
        affine inverse, in reverse block order."""
        x = _flat(z)
        c, _ = _block_values(_conditioner_1d(self.blocks[None]), 0)
        for k in reversed(range(len(self.blocks))):
            u = _enrich_inverse(x, c["a"][k], c["b"][k])
            x = c["mu"][k] + u * np.exp(c["s"][k])
        return x * self.sigma_std + self.mu_std


def _base_log_prob(z: np.ndarray) -> np.ndarray:
    """The standard normal log-density of each latent in ``z``."""
    return -0.5 * (z * z) - 0.5 * math.log(2 * math.pi)


def nll(model: FlowModel, batch) -> float:
    """Average negative log-likelihood over the batch."""
    log_prob = model.log_prob(batch)
    if log_prob.size == 0:
        raise ValueError("nll requires a non-empty batch")
    return float(-log_prob.mean())


def grad_nll(model: FlowModel, batch) -> float:
    """The batch NLL; its exact reverse-mode gradient overwrites
    ``model.grad``.  The gradient is the training step's, ``_grad_1d``,
    on one model."""
    x, _ = model._standardize(batch)
    if x.size == 0:
        raise ValueError("grad_nll requires a non-empty batch")
    model.grad[:] = 0.0
    _grad_1d(model.theta[None], model.grad[None], [x])
    return nll(model, batch)


def _blocks_1d(flat: np.ndarray) -> np.ndarray:
    """The (k, blocks, 4) view of k flows' (k, P) ``theta`` or ``grad``
    rows, whose last axis is a block's (shift, log-scale, ea, eb)."""
    return flat.reshape(flat.shape[0], -1, 4)


def _conditioner_1d(params: np.ndarray) -> dict:
    """Every block's conditioner output and enrichment pair, from the
    models' (models, blocks, 4) ``_blocks_1d`` view: mu = shift,
    s = clamp(log-scale), b = softplus(eb) and a = tanh(ea)/b.

    The values come out shaped (models, blocks); the row chain's eight
    values are written into one (8, models, blocks) array, "chain", in the
    order of ``_CHAIN_KEYS``."""
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


def _chain_1d(x, c: dict, logdet=None):
    """Run every block's row operations, u = (x - mu)*exp(-s),
    t = tanh(b*u), x = u + a*t and logdet += log(1 + ab*(1 - t*t)) - s, on
    the rows ``x`` ((n,) for one model, (g, n) for a group) with per-block
    values ``c``.  Returns (z, logdet, rows).  Scoring passes a logdet to
    accumulate and gets no rows; a training pass passes none and gets the
    blocks' u and t in ``rows``, one (2, blocks, *x.shape) array, from
    which the backward pass recomputes the rest."""
    n_blocks = len(c["mu"])
    keep = logdet is None
    rows = np.empty((2, n_blocks) + x.shape) if keep else None
    for k in range(n_blocks):
        u = np.subtract(x, c["mu"][k], out=rows[0, k] if keep else None)
        u *= c["exp_ms"][k]
        t = np.multiply(c["b"][k], u, out=rows[1, k] if keep else None)
        np.tanh(t, out=t)
        x = u + c["a"][k] * t
        if not keep:
            gp = 1.0 + c["ab"][k] * (1.0 - t * t)
            logdet = logdet + (np.log(gp) - c["s"][k])
        del u, t    # scoring holds one block's temporaries at a time
    return x, logdet, rows


def _chain_adjoint_1d(rows, cols: dict, dz, c_logdet: float) -> np.ndarray:
    """Reverse-mode through ``_chain_1d``: each block's row sums of the
    loss's derivatives, from ``_block_values``' columns ``cols``.  Returns
    (dmu, ds, da, db) stacked, shaped (4, blocks) for one model and
    (4, blocks, g) for a group; ds ignores the clamp.

    Only the recurrence du = dz*gp + q, dz = du*exp_ms runs block by block;
    every other operation runs once on all blocks' rows.  The six row
    terms of every block go into one buffer and are summed in one
    reduction; each row sum is still its own sum over the rows, and da
    and db each add their two sums."""
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
    db) on the last axis; its ds is zeroed where the clamp passes none."""
    np.copyto(sums[..., 1], 0.0, where=~(np.abs(cond["s_raw"]) < LOG_SCALE_CLAMP))
    grads[..., :2] += sums[..., :2]
    da, db = sums[..., 2], sums[..., 3]
    ta, slope = cond["ta"], cond["b"]
    sig = _sigmoid(cond["eb_raw"])
    grads[..., 2] += da * (1.0 - ta * ta) / slope
    grads[..., 3] += db * sig + da * (-ta / (slope * slope)) * sig


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

    Every dataset is checked before any step.  The flows that share
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
        runs.setdefault((fit.config.n_blocks, fit.config.learning_rate), []).append(fit)
    for run in runs.values():
        _lockstep(sorted(run, key=lambda fit: -fit.n_steps))
    return [fit.model for fit in fits]


class _Fit:
    """One model's data and schedule in a lockstep run: its hold-out split,
    its standardized training rows, its shuffle stream and its best-epoch
    snapshot."""

    def __init__(self, data, config: TrainConfig):
        arr = _flat(data)
        n = arr.size
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
        if tr.size == 0:
            raise ValueError("holdout split left no training data")
        # the lockstep step takes standardized rows; grad_nll standardizes its own
        self.rows = (tr - self.mu_std) / self.sigma_std
        self.batch_size = min(config.batch_size, tr.size)
        self.per_epoch = -(-tr.size // self.batch_size)
        self.n_steps = config.epochs * self.per_epoch

    def start(self, storage) -> None:
        """Build the model in ``storage`` and score its initial hold-out NLL."""
        self.model = FlowModel(self.config.n_blocks, self.mu_std, self.sigma_std, storage)
        self.best_nll = nll(self.model, self.hold)
        self.best_theta = self.model.theta.copy()

    def batch(self, step: int) -> np.ndarray:
        """The rows of training step ``step``, a slice of the epoch's
        shuffled rows, which its first step draws."""
        j = step % self.per_epoch
        if j == 0:
            self.shuffled = self.rows[self.shuffle_gen.permutation(self.rows.size)]
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
    """Train ``fits``, which share a block count and a learning rate and
    are sorted by step count (longest first), one step each per round.

    Their ``theta``, ``grad`` and Adam moments are rows of (k, P) arrays;
    the models still training are a prefix of the rows, and the
    conditioner, its adjoint and the Adam step run once per round over
    that prefix.  Only the row chain is split, by batch rows."""
    first = fits[0]
    cfg = first.config
    theta = np.zeros((len(fits), FlowModel.n_params(cfg.n_blocks)))
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
        grad[:] = 0.0
        _grad_1d(theta, grad, [fit.batch(step) for fit in fits[:active]])
        adam_step(theta, grad, state, cfg)
        for fit in fits[:active]:
            fit.after(step)
    for fit in fits:
        fit.model.theta[:] = fit.best_theta


def _grad_1d(theta: np.ndarray, grad: np.ndarray, batches: list[np.ndarray]) -> None:
    """Add each model's batch-NLL gradient to its row of (k, P) ``grad``:
    the conditioners once for all models, the row chain once per group of
    models whose batches have equal row counts.  A one-model group runs on
    1-D rows with Python-float block values; ``grad_nll`` is one such
    group."""
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
        z, _, rows = _chain_1d(x, c)
        z /= n
        sums[members] = _chain_adjoint_1d(rows, cols, z, -1.0 / n).T
    _conditioner_adjoint_1d(_blocks_1d(grad), cond, sums)


# -- serialization ----------------------------------------------------------

_MAGIC = b"DSCFLOW2"


def save_flow(model: FlowModel, path) -> None:
    """Versioned flat binary layout: magic, the block count as a
    little-endian uint32, then the standardizer's mean and deviation and
    ``theta`` (each block's four values in order) as little-endian
    float64.  Loading reproduces log-densities bit-identically."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I2d", len(model.blocks), model.mu_std, model.sigma_std))
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
        n_blocks, = struct.unpack("<I", read(4, "block count"))
        if n_blocks < 1:
            raise ValueError(f"{path}: a flow needs at least one block")
        mu_std, sigma_std = struct.unpack("<2d", read(16, "standardizer"))
        if not (math.isfinite(mu_std) and 0 < sigma_std < math.inf):
            raise ValueError(f"{path}: corrupt standardizer (mean {mu_std}, "
                             f"deviation {sigma_std})")
        raw = read(8 * FlowModel.n_params(n_blocks), "parameter data")
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after parameters")
    model = FlowModel(n_blocks, mu_std, sigma_std)
    model.theta[:] = np.frombuffer(raw, dtype="<f8")
    if not np.all(np.isfinite(model.theta)):
        raise ValueError(f"{path}: non-finite parameter values")
    return model
