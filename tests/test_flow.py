import hashlib
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest

from discodet import flow, sweeps
from discodet.flow import (AdamState, FlowModel, TrainConfig, adam_step, grad_nll,
                           load_flow, nll, save_flow, standardizer_fit, train)
from discodet.statkit import SeedStream, sample_gamma
from discodet.sweeps import autoregressive_check

LOG_SCALE = 1   # the column of a block's (shift, log-scale, ea, eb) values


def perturbed_model(seed=11, scale=0.1, n_blocks=3):
    model = FlowModel(n_blocks)
    model.theta += scale * np.random.default_rng(seed).standard_normal(model.theta.size)
    return model


def finite_diff_check(model, batch, step=1e-5, rel_tol=1e-4, abs_tol=1e-7):
    grad_nll(model, batch)
    theta, grad = model.theta, model.grad.copy()
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + step
        up = nll(model, batch)
        theta[i] = orig - step
        down = nll(model, batch)
        theta[i] = orig
        fd = (up - down) / (2 * step)
        err = abs(fd - grad[i])
        assert err <= abs_tol or err / max(abs(fd), abs(grad[i])) <= rel_tol, (
            f"gradient mismatch: analytic {grad[i]:.3e}, numeric {fd:.3e}")


class TestStandardizer:
    def test_fit(self):
        mu, sigma = standardizer_fit(np.array([1.0, 3.0]))
        assert (type(mu), type(sigma)) == (float, float)
        assert (mu, sigma) == (2.0, 1.0)

    def test_degenerate(self):
        with pytest.raises(ValueError):
            standardizer_fit(np.ones(10))
        with pytest.raises(ValueError):
            standardizer_fit(np.ones(1))


class TestIdentityInit:
    def test_log_prob_is_standard_normal_at_init(self):
        model = FlowModel(4)
        x = np.random.default_rng(0).standard_normal(32)
        expected = -0.5 * x ** 2 - 0.5 * math.log(2 * math.pi)
        np.testing.assert_allclose(model.log_prob(x), expected, atol=1e-12)

    def test_forward_is_identity_at_init(self):
        model = FlowModel(5)
        x = np.random.default_rng(1).standard_normal(16)
        z, _ = model.forward(x)
        np.testing.assert_allclose(z, x, atol=1e-12)


class TestAutoregressive:
    """validate's flow_autoregressive check: z(y) increases on sorted probe
    points and each logdet is log dz/dy."""

    @pytest.mark.parametrize("n_blocks,scale", [(1, 0.3), (3, 0.1), (5, 0.3)])
    def test_perturbed_flows_pass(self, n_blocks, scale):
        model = perturbed_model(n_blocks=n_blocks, scale=scale)
        y = np.sort(np.random.default_rng(2).standard_normal(64))
        ok, worst = autoregressive_check(model, y)
        assert ok and worst < 1e-6

    # negative controls on validate's own probe flow: a logdet without the
    # enrichment's log g' term (ab = 0 reaches only the logdet), and a
    # decreasing map, whose logdet is still log|dz/dy|
    @pytest.mark.parametrize("key,corrupt", [("ab", np.zeros_like), ("exp_ms", np.negative)],
                             ids=["no-log-gp", "decreasing"])
    def test_corrupted_flow_fails_check(self, monkeypatch, key, corrupt):
        def check():
            found, = [c for c in sweeps._flow_checks(SeedStream(31))
                      if c.name == "flow_autoregressive"]
            return found.passed

        assert check()
        conditioner = flow._conditioner_1d

        def corrupted(params):
            cond = conditioner(params)
            values = cond["chain"][CHAIN_KEYS.index(key)]
            values[...] = corrupt(values)
            return cond
        monkeypatch.setattr(flow, "_conditioner_1d", corrupted)
        assert not check()


class TestConstantConditioner:
    """A block's conditioner has no inputs, so it is stored as constants:
    a block is four values, a row of the (blocks, 4) view of theta."""

    def test_dim1_block_is_four_values(self):
        assert flow.FlowModel.n_params(5) == 20
        model = perturbed_model(n_blocks=5)
        assert model.theta.shape == (20,)
        assert model.blocks.shape == (5, 4)
        assert np.shares_memory(model.blocks, model.theta)


CHAIN_KEYS = ("mu", "s", "exp_ms", "a", "b", "ab", "two_b", "dgp_coef")


def per_parameter(flat):
    """The (shift, log-scale, ea, eb) views, each shaped (models, blocks),
    of the models' (k, P) parameter or gradient rows."""
    return flat.reshape(flat.shape[0], -1, 4).transpose(2, 0, 1)


def reference_conditioner(stacked):
    """The conditioners computed one parameter at a time, stacked over
    (model, block) axes, with the row chain's values in one array."""
    shift, log_scale, ea_raw, eb_raw = stacked
    s = np.clip(log_scale, -flow.LOG_SCALE_CLAMP, flow.LOG_SCALE_CLAMP)
    ta = np.tanh(ea_raw)
    slope = flow._softplus(eb_raw)
    a = ta / slope
    chain = np.stack([shift, s, np.exp(-s), a, slope, a * slope, 2.0 * slope,
                      -2.0 * a * slope * slope])
    return {"s_raw": log_scale, "ta": ta, "b": slope, "chain": chain}


def reference_adjoint(stacked, g_stacked, cond, dmu, ds, da, db):
    """The conditioners' adjoint, one parameter at a time on the
    (model, block)-stacked views."""
    shift, log_scale, ea_raw, eb_raw = stacked
    g_shift, g_log_scale, g_ea_raw, g_eb_raw = g_stacked
    ds = np.where(np.abs(cond["s_raw"]) < flow.LOG_SCALE_CLAMP, ds, 0.0)
    g_shift += dmu
    g_log_scale += ds
    ta, slope = cond["ta"], cond["b"]
    sig = flow._sigmoid(eb_raw)
    g_ea_raw += da * (1.0 - ta * ta) / slope
    g_eb_raw += db * sig + da * (-ta / (slope * slope)) * sig


def reference_forward(cond, model, x):
    """One model's blocks run one at a time on Python-float block values:
    z, the blocks' summed logdet and each block's (u, t, gp, 1 - t*t)."""
    c = dict(zip(CHAIN_KEYS, cond["chain"][:, model].tolist()))
    logdet = 0.0
    rows = []
    for k in range(len(c["mu"])):
        u = (x - c["mu"][k]) * c["exp_ms"][k]
        t = np.tanh(c["b"][k] * u)
        x = u + c["a"][k] * t
        one_mt2 = 1.0 - t * t
        gp = 1.0 + c["ab"][k] * one_mt2
        logdet = logdet + (np.log(gp) - c["s"][k])
        rows.append((u, t, gp, one_mt2))
    return x, logdet, rows


def reference_row_sums(cond, model, x):
    """One model's (dmu, ds, da, db) row sums of the batch NLL, shaped
    (4, blocks), from ``reference_forward``'s rows, one block at a time."""
    c = dict(zip(CHAIN_KEYS, cond["chain"][:, model].tolist()))
    z, _, rows = reference_forward(cond, model, x)
    n_blocks, n = len(rows), x.shape[0]
    dz, c_logdet = z / n, -1.0 / n
    sums = np.empty((4, n_blocks))
    for k in reversed(range(n_blocks)):
        u, t, gp, one_mt2 = rows[k]
        a, slope, exp_ms = c["a"][k], c["b"][k], c["exp_ms"][k]
        dgp = c_logdet / gp
        du = dz * gp + dgp * c["dgp_coef"][k] * t * one_mt2
        sums[2, k] = (dz * t).sum() + (dgp * slope * one_mt2).sum()
        sums[3, k] = (dz * a * u * one_mt2).sum() \
            + (dgp * a * one_mt2 * (1.0 - c["two_b"][k] * t * u)).sum()
        sums[1, k] = (-du * u - c_logdet).sum()
        sums[0, k] = (-du * exp_ms).sum()
        dz = du * exp_ms
    return sums


class TestScalarPath:
    """log_prob, the grad_nll loss and its gradient against the
    block-by-block reference, through a standardizer that is not the
    identity, with one block's log-scale clamped high and one low.  The
    reference sums the logdet in another order, so they agree to rounding."""

    @pytest.mark.parametrize("n_blocks", [1, 2, 5])
    @pytest.mark.parametrize("n", [64, 8])
    def test_matches_block_loop(self, n, n_blocks):
        model = perturbed_model(n_blocks=n_blocks, scale=0.3)
        model.mu_std = 0.5
        model.sigma_std = 2.0
        if n_blocks > 1:
            model.blocks[-1, LOG_SCALE] = 30.0
            model.blocks[0, LOG_SCALE] = -30.0
        theta = model.theta[None]
        cond = reference_conditioner(per_parameter(theta))
        y = np.random.default_rng(n).standard_normal(n) * 2 + 0.5
        x = (y - 0.5) / 2.0
        z, logdet, _ = reference_forward(cond, 0, x)
        log_prob = -0.5 * z * z - 0.5 * math.log(2 * math.pi) - math.log(2.0) + logdet
        np.testing.assert_allclose(model.log_prob(y), log_prob, rtol=1e-12, atol=1e-14)
        loss = grad_nll(model, y)
        assert loss == pytest.approx(-log_prob.mean(), rel=1e-12, abs=1e-14)
        grad = np.zeros_like(theta)
        reference_adjoint(per_parameter(theta), per_parameter(grad), cond,
                          *reference_row_sums(cond, 0, x)[:, None])
        np.testing.assert_allclose(model.grad, grad[0], rtol=1e-12, atol=1e-14)


class TestRowChain:
    """The row chain, which runs only its recurrences block by block, and
    the conditioners' fused adjoint, against the same formulas run one
    block and one parameter at a time: every row sum and the gradient
    agree bit for bit, for one model, a row group of two and a lone model
    beside it."""

    @pytest.mark.parametrize("sizes", [(1,), (17,), (256,), (17, 9, 17)],
                             ids=["k1-n1", "k1-n17", "k1-n256", "group-and-lone"])
    def test_matches_block_by_block(self, sizes):
        models = [perturbed_model(seed=s, scale=0.3, n_blocks=5)
                  for s in range(1, len(sizes) + 1)]
        models[0].blocks[3, LOG_SCALE] = 30.0     # one block's log-scale clamps high
        models[0].blocks[1, LOG_SCALE] = -30.0    # and one low
        gen = np.random.default_rng(len(sizes))
        batches = [gen.standard_normal(n) * 2 + 0.5 for n in sizes]
        theta = np.stack([m.theta for m in models])
        grad = np.zeros_like(theta)
        cond = flow._conditioner_1d(flow._blocks_1d(theta))
        ref_cond = reference_conditioner(per_parameter(theta))
        np.testing.assert_array_equal(cond["chain"], ref_cond["chain"])
        ref_sums = np.stack([reference_row_sums(ref_cond, i, x)
                             for i, x in enumerate(batches)], axis=-1)
        groups = [[0, 2], 1] if len(sizes) == 3 else [0]
        for members in groups:
            x = np.stack([batches[i] for i in members]) if isinstance(members, list) \
                else batches[members]
            c, cols = flow._block_values(cond, members)
            z, _, rows = flow._chain_1d(x, c)
            sums = flow._chain_adjoint_1d(rows, cols, z / x.shape[-1], -1.0 / x.shape[-1])
            np.testing.assert_array_equal(sums, ref_sums[..., members])
        flow._grad_1d(theta, grad, batches)
        ref_grad = np.zeros_like(theta)
        reference_adjoint(per_parameter(theta), per_parameter(ref_grad), ref_cond,
                          *ref_sums.transpose(0, 2, 1))
        np.testing.assert_array_equal(grad, ref_grad)


class TestGradients:
    def test_dim1_with_enrichment(self):
        model = perturbed_model(scale=0.3)
        batch = np.random.default_rng(4).standard_normal(8)
        finite_diff_check(model, batch)


class TestInversion:
    @pytest.mark.parametrize("n_blocks,standardize", [(1, True), (4, False)])
    def test_roundtrip(self, n_blocks, standardize):
        model = perturbed_model(scale=0.3, n_blocks=n_blocks)
        if standardize:
            model.mu_std = 1.5
            model.sigma_std = 2.0
        y = np.random.default_rng(6).standard_normal(64) * 2 + 1
        z, _ = model.forward(y)
        np.testing.assert_allclose(model.inverse(z), y, atol=1e-9)

    def test_logdet_consistency(self):
        # numerical Jacobian of the 1-D transform must match the reported logdet
        model = perturbed_model(scale=0.3)
        y = np.array([0.7])
        _, logdet = model.forward(y)
        h = 1e-6
        z_up, _ = model.forward(y + h)
        z_dn, _ = model.forward(y - h)
        deriv = (z_up[0] - z_dn[0]) / (2 * h)
        assert math.log(abs(deriv)) == pytest.approx(float(logdet[0]), abs=1e-6)


class TestTraining:
    def test_gaussian_nll_reaches_entropy(self):
        gen = SeedStream(8).child("gauss")
        data = 3.0 + 2.0 * gen.standard_normal(20_000)
        model = train(data, TrainConfig(seed=13, epochs=20))
        entropy = 0.5 * math.log(2 * math.pi * math.e * 4.0)
        eval_data = 3.0 + 2.0 * gen.standard_normal(20_000)
        assert nll(model, eval_data) == pytest.approx(entropy, abs=0.05)

    def test_gamma_fit_improves_over_gaussian(self):
        gen = SeedStream(8).child("gamma")
        data = sample_gamma(gen, 5, 1.0, size=8000)
        model = train(data, TrainConfig(seed=13, epochs=40))
        fitted = nll(model, data)
        mu, sigma = standardizer_fit(data)
        gauss_nll = 0.5 * math.log(2 * math.pi * sigma ** 2) + 0.5
        assert fitted < gauss_nll - 0.005

    def test_determinism(self):
        data = SeedStream(8).child("det").standard_normal(2000)
        m1 = train(data, TrainConfig(seed=21, epochs=3))
        m2 = train(data, TrainConfig(seed=21, epochs=3))
        np.testing.assert_array_equal(m1.theta, m2.theta)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            train(np.array([1.0, 2.0]), TrainConfig(epochs=1, batch_size=256))

    # unchecked, a negative batch size leaves the batch loop empty and train
    # returns the untrained init without an error, and so does a NaN or an
    # infinite learning rate (its hold-out NLL never beats the first);
    # n_blocks = -1 fails inside numpy, and seed = -1 fails in training as
    # a fault of the data
    @pytest.mark.parametrize("kwargs,match", [
        ({"batch_size": 0}, "batch size"), ({"batch_size": -5}, "batch size"),
        ({"n_blocks": 0}, "block"), ({"n_blocks": -1}, "block"),
        ({"learning_rate": math.nan}, "learning rate"),
        ({"learning_rate": math.inf}, "learning rate"), ({"seed": -1}, "seed"),
    ], ids=["batch_size=0", "batch_size=-5", "n_blocks=0", "n_blocks=-1",
            "learning_rate=nan", "learning_rate=inf", "seed=-1"])
    def test_sizes_must_be_positive(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            TrainConfig(**kwargs)

    # unchecked, each builds and training dies in numpy with a TypeError
    @pytest.mark.parametrize("name,value", [
        ("epochs", 2.5), ("batch_size", math.nan), ("batch_size", 64.5), ("n_blocks", 2.5),
        ("epochs", 3.0), ("seed", 2.5), ("seed", math.nan),
    ], ids=["epochs=2.5", "batch_size=nan", "batch_size=64.5", "n_blocks=2.5", "epochs=3.0",
            "seed=2.5", "seed=nan"])
    def test_sizes_must_be_integers(self, name, value):
        message = f"{name} must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            TrainConfig(**{name: value})


def ragged_sets():
    """Datasets and configs for one lockstep run, in an input order that is
    not their step-count order: a single-batch set (135 training rows), a
    ragged last batch (900 rows: 3 x 256 + 132), an exact multiple of the
    batch size (512 rows), a heavy-tailed set whose steps clip, a set of
    the ragged one's size with another seed and epoch count, and one with
    another learning rate, which trains apart."""
    gen = SeedStream(17).child("ragged")
    fast = {"learning_rate": 0.05}     # moves the flows far enough to clip some steps
    return [
        (gen.standard_normal(150), TrainConfig(seed=1, epochs=4, **fast)),
        (sample_gamma(gen, 5, 1.0, 1000), TrainConfig(seed=2, epochs=3, **fast)),
        (gen.standard_normal(569) + 3.0, TrainConfig(seed=3, epochs=3, **fast)),
        (np.exp(2.0 * gen.standard_normal(600)), TrainConfig(seed=4, epochs=3, **fast)),
        (sample_gamma(gen, 5, 2.0, 1000), TrainConfig(seed=6, epochs=5, **fast)),
        (sample_gamma(gen, 5, 2.0, 1000), TrainConfig(seed=7, epochs=2)),
    ]


class TestTrainMany:
    def test_matches_train_bit_for_bit(self):
        sets = ragged_sets()
        many = flow.train_many([d for d, _ in sets], [c for _, c in sets])
        assert len(many) == len(sets)
        for (data, config), got in zip(sets, many):
            ref = train(data, config)
            np.testing.assert_array_equal(got.theta, ref.theta)
            assert (got.mu_std, got.sigma_std) == (ref.mu_std, ref.sigma_std)

    def test_step_gradient_is_grad_nll(self):
        # one lockstep gradient for three models, two in a row group and one
        # alone, equals grad_nll's (checked against finite differences) for
        # each; the models' standardizers are the identity, so the rows are
        # their standardized batches
        models = [perturbed_model(seed=s, scale=0.3) for s in (1, 2, 3)]
        models[1].blocks[2, LOG_SCALE] = 30.0     # one block's log-scale clamps
        gen = np.random.default_rng(7)
        rows = [gen.standard_normal(n) * 2 + 0.5 for n in (17, 9, 17)]
        theta = np.stack([m.theta for m in models])
        grad = np.zeros_like(theta)
        flow._grad_1d(theta, grad, rows)
        for model, x, g in zip(models, rows, grad):
            grad_nll(model, x)
            np.testing.assert_array_equal(g, model.grad)

    def test_clip_decided_per_model(self, monkeypatch):
        # in the run above, some Adam step clips one model's gradient and
        # not another's
        decisions = []
        step = flow.adam_step

        def spy(theta, grad, state, config):
            decisions.append(set(np.sqrt((grad * grad).sum(axis=-1)) > flow.CLIP_NORM))
            step(theta, grad, state, config)
        monkeypatch.setattr(flow, "adam_step", spy)
        sets = ragged_sets()
        flow.train_many([d for d, _ in sets], [c for _, c in sets])
        assert {True, False} in decisions

    @pytest.mark.parametrize("bad,message", [
        (np.array([1.0, 2.0]), "not enough training samples (2)"),
        (np.ones((40, 1, 1)), "expected (n,) data, got shape (40, 1, 1)"),
        (np.ones((40, 1)), "expected (n,) data, got shape (40, 1)"),
        (np.ones(40), "degenerate data"),
        # unchecked, a non-finite statistic gives a NaN standardizer and
        # train returns the untrained init without an error
        (np.r_[np.arange(39.0), math.nan], "data must be finite"),
        (np.r_[np.arange(39.0), math.inf], "data must be finite"),
        (np.r_[np.arange(39.0), -math.inf], "data must be finite"),
    ], ids=["too-few", "shape", "columns", "degenerate", "nan", "inf", "-inf"])
    def test_bad_dataset_raises_before_training(self, monkeypatch, bad, message):
        built = []

        class SpyFlowModel(flow.FlowModel):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)
        monkeypatch.setattr(flow, "FlowModel", SpyFlowModel)
        good = SeedStream(18).child("good").standard_normal(100)
        configs = [TrainConfig(seed=i, epochs=1) for i in range(3)]
        with pytest.raises(ValueError, match=re.escape(f"dataset 1: {message}")):
            flow.train_many([good, bad, good], configs)
        assert built == []
        with pytest.raises(ValueError, match=re.escape(f"dataset 0: {message}")):
            train(bad, configs[0])

    def test_lengths_must_match(self):
        with pytest.raises(ValueError, match="2 datasets but 1 configs"):
            flow.train_many([np.arange(100.0)] * 2, [TrainConfig(epochs=1)])


class TestSerialization:
    def test_bit_identical_roundtrip(self, tmp_path):
        model = perturbed_model()
        model.mu_std = 4.2
        model.sigma_std = 0.7
        path = tmp_path / "model.flow"
        save_flow(model, path)
        loaded = load_flow(path)
        y = np.random.default_rng(9).standard_normal(100)
        np.testing.assert_array_equal(loaded.log_prob(y), model.log_prob(y))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"NOTAFLOW" + b"\0" * 40)
        with pytest.raises(ValueError):
            load_flow(path)

    def test_dscflow1_rejected(self, tmp_path):
        # a default flow in the layout before this one: magic, a 17-byte
        # header (dim 1, 5 blocks, no network layer, enrichment flag 1,
        # width 0), the standardizer and 20 values
        path = tmp_path / "model.flow"
        path.write_bytes(bytes.fromhex("445343464c4f5731" "01000000" "05000000" "00000000"
                                       "01" "00000000")
                         + np.r_[0.0, 1.0, np.zeros(20)].astype("<f8").tobytes())
        with pytest.raises(ValueError, match=re.escape(f"{path}: not a serialized flow model")):
            load_flow(path)

    # byte offsets in a file: magic (8), the block count (4), the
    # standardizer's mean (8) and deviation (8), then theta
    @pytest.mark.parametrize("cut,what", [(10, "block count"), (8 + 4 + 4, "standardizer"),
                                          (8 + 4 + 8 + 4, "standardizer"),
                                          (-8, "parameter data")],
                             ids=["header", "standardizer", "deviation", "theta"])
    def test_truncated(self, tmp_path, cut, what):
        model = perturbed_model()
        path = tmp_path / "model.flow"
        save_flow(model, path)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ValueError, match=re.escape(f"{path}: truncated {what}")):
            load_flow(path)

    def test_trailing_bytes(self, tmp_path):
        model = perturbed_model()
        path = tmp_path / "model.flow"
        save_flow(model, path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="trailing"):
            load_flow(path)

    def test_header_checked_before_allocation(self, tmp_path):
        # the header claims 2**28 blocks with no parameters behind them:
        # rejected without building the model
        path = tmp_path / "model.flow"
        path.write_bytes(b"DSCFLOW2" + struct.pack("<I2d", 2**28, 0.0, 1.0))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape(f"{path}: truncated parameter")):
                load_flow(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    # a block count of 0, with a standardizer behind it or none: the count
    # is checked before the standardizer is read
    @pytest.mark.parametrize("body", [struct.pack("<2d", 0.0, 1.0), b""],
                             ids=["no-blocks", "no-blocks-bare"])
    def test_bad_architecture_rejected(self, tmp_path, body):
        path = tmp_path / "model.flow"
        path.write_bytes(b"DSCFLOW2" + struct.pack("<I", 0) + body)
        message = f"{path}: a flow needs at least one block"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_flow(path)

    # values that no training writes: rejected, naming the file, before
    # any statistic is scored
    @pytest.mark.parametrize("mu,sigma", [(0.0, 0.0), (0.0, -1.0), (0.0, math.nan),
                                          (0.0, math.inf), (math.inf, 1.0),
                                          (-math.inf, 1.0), (math.nan, 1.0)],
                             ids=["sigma-zero", "sigma-negative", "sigma-nan", "sigma-inf",
                                  "mu-inf", "mu-neg-inf", "mu-nan"])
    def test_bad_standardizer_rejected(self, tmp_path, mu, sigma):
        model = perturbed_model()
        path = tmp_path / "model.flow"
        path.write_bytes(b"DSCFLOW2" + struct.pack("<I2d", len(model.blocks), mu, sigma)
                         + model.theta.astype("<f8").tobytes())
        with pytest.raises(ValueError, match=re.escape(f"{path}: corrupt standardizer")):
            load_flow(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta_rejected(self, tmp_path, value):
        model = perturbed_model()
        model.theta[5] = value
        path = tmp_path / "model.flow"
        save_flow(model, path)
        with pytest.raises(ValueError, match=re.escape(f"{path}: non-finite parameter")):
            load_flow(path)

    def test_file_bytes_unchanged(self, tmp_path):
        # the header is the magic and the block count; the rest is byte for
        # byte what the DSCFLOW1 layout wrote after its 17-byte header
        model = perturbed_model(seed=11)
        model.mu_std = 1.5
        model.sigma_std = 0.5
        path = tmp_path / "model.flow"
        save_flow(model, path)
        data = path.read_bytes()
        assert data[:12] == b"DSCFLOW2" + bytes([3, 0, 0, 0])
        assert hashlib.sha256(data[12:]).hexdigest() == \
            "d0348d8207adabee12a9d7dcba44c585d1c7a7c481f6d4190c1920f467da94e3"

    @pytest.mark.parametrize("n_blocks", [1, 3])
    def test_body_is_theta(self, tmp_path, n_blocks):
        model = perturbed_model(n_blocks=n_blocks)
        path = tmp_path / "model.flow"
        save_flow(model, path)
        header = len(b"DSCFLOW2") + 4 + 2 * 8
        assert path.read_bytes()[header:] == model.theta.astype("<f8").tobytes()


class TestFlatParameters:
    @pytest.fixture(params=["built", "loaded"])
    def model(self, request, tmp_path):
        model = perturbed_model()
        if request.param == "loaded":
            save_flow(model, tmp_path / "model.flow")
            model = load_flow(tmp_path / "model.flow")
        return model

    def test_blocks_are_a_view_of_theta(self, model):
        assert model.blocks.shape == (3, 4)
        np.testing.assert_array_equal(model.blocks.reshape(-1), model.theta)
        model.blocks[1, LOG_SCALE] = 7.5
        assert model.theta[4 + LOG_SCALE] == 7.5

    def test_grad_nll_fills_grad_in_place(self, model):
        grad = model.grad
        batch = np.random.default_rng(3).standard_normal(6)
        loss = grad_nll(model, batch)
        assert type(loss) is float and loss == nll(model, batch)
        assert model.grad is grad and np.any(grad != 0.0)
        expected = np.zeros((1, grad.size))
        flow._grad_1d(model.theta[None], expected, [batch])
        np.testing.assert_array_equal(grad, expected[0])


def reference_adam(params, grads, m, v, t, lr):
    """Per-array Adam with global-norm clipping, one array at a time."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads))
    if total > 5.0:
        grads = [g * (5.0 / total) for g in grads]
    bc1, bc2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
    for p, g, mi, vi in zip(params, grads, m, v):
        mi *= 0.9
        mi += (1 - 0.9) * g
        vi *= 0.999
        vi += (1 - 0.999) * g * g
        p -= lr * (mi / bc1) / (np.sqrt(vi / bc2) + 1e-8)
    return total > 5.0


class TestAdam:
    def test_matches_per_array_reference(self):
        model = perturbed_model()
        config = TrainConfig(learning_rate=1e-3)
        ref = [p.copy() for p in model.blocks]
        m = [np.zeros_like(p) for p in ref]
        v = [np.zeros_like(p) for p in ref]
        state = AdamState(model.theta)
        gen = np.random.default_rng(12)
        # the third gradient is scaled far past the clip norm
        for t, scale in enumerate([0.01, 0.01, 100.0], start=1):
            grads = [scale * gen.standard_normal(p.shape) for p in ref]
            clipped = reference_adam(ref, grads, m, v, t, config.learning_rate)
            assert clipped == (t == 3)
            grad = np.concatenate([g.reshape(-1) for g in grads])
            before = grad.copy()
            adam_step(model.theta, grad, state, config)
            np.testing.assert_array_equal(grad, before)
            for p, r in zip(model.blocks, ref):
                if clipped:
                    np.testing.assert_allclose(p, r, rtol=1e-12, atol=0)
                else:
                    np.testing.assert_array_equal(p, r)
        assert state.t == 3


class TestNumerics:
    def test_log_scale_clamp_keeps_finite(self):
        model = perturbed_model()
        model.blocks[0, LOG_SCALE] = 50.0     # would overflow without clamping
        out = model.log_prob(np.array([1e3, -1e3, 0.0]))
        assert np.all(np.isfinite(out))

    def test_nll_empty_batch(self):
        model = FlowModel(5)
        with pytest.raises(ValueError):
            nll(model, np.empty(0))

    def test_log_prob_keeps_no_block_cache(self):
        # scoring holds one block's temporaries at a time (about nine arrays
        # of the rows at the peak), not a stacked (blocks, rows) cache
        model = perturbed_model(n_blocks=5)
        y = np.random.default_rng(3).standard_normal(100_000)
        tracemalloc.start()
        try:
            model.log_prob(y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * y.nbytes

    def test_width_mismatch_rejected(self):
        # four statistics per row must not broadcast through a 1-D flow
        model = perturbed_model()
        with pytest.raises(ValueError, match=re.escape("got shape (10, 4)")):
            model.log_prob(np.ones((10, 4)))

    # a statistic is a flat (n,) array: a column is rejected, not reshaped
    @pytest.mark.parametrize("call", [nll, grad_nll, lambda m, y: m.forward(y),
                                      lambda m, y: m.inverse(y)],
                             ids=["nll", "grad_nll", "forward", "inverse"])
    def test_column_rejected(self, call):
        with pytest.raises(ValueError, match=re.escape("expected (n,) data, got shape (4, 1)")):
            call(FlowModel(1), np.ones((4, 1)))
