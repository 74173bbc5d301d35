"""End-to-end acceptance suite.

Each test prints one ``[PASS]``/``[FAIL]`` line for its criterion.  The
sweep-based criteria run on reduced Monte-Carlo sizes: every check is
either an exact property or CI-aware, so smaller sample counts widen the
intervals instead of weakening the assertion.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from discodet import channel, detector, flow, sweeps, theory
from discodet.config import DEFAULT_CONFIG, parse_config_text
from discodet.statkit import SeedStream, binomial_ci, sample_gamma

NOISE = DEFAULT_CONFIG.noise_power()
SRC = Path(__file__).resolve().parents[1] / "src"


def cli_env(**overrides):
    """Environment for a CLI subprocess: the absolute package path first,
    since a relative PYTHONPATH does not resolve under another cwd."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, **overrides, "PYTHONPATH": path}


def report(num, desc, cond, detail=""):
    line = f"[{'PASS' if cond else 'FAIL'}] criterion {num}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert cond, line


# -- shared fixtures ---------------------------------------------------------

@pytest.fixture(scope="module")
def surrogate_detector():
    """Unsupervised pipeline fitted on the tractable two-Gamma mixture
    (H1 = Gamma(5, 2*noise)), shared by the calibration and oracle criteria."""
    stream = SeedStream(1001)
    gen = stream.child("data")
    n = 20_000
    h1 = sample_gamma(gen, 5, 2 * NOISE, size=n // 2)
    h0 = sample_gamma(gen, 5, NOISE, size=n - n // 2)
    mix = np.concatenate([h1, h0])
    mix = mix[stream.child("shuffle").permutation(mix.size)]
    null = theory.GammaNull(5, NOISE)
    model = flow.train(detector.prefilter(mix, null, 0.5),
                       flow.TrainConfig(seed=77, epochs=120))
    det = detector.calibrate(model, null, 0.05, 1_000_000, stream.child("calibrate"))
    return det, stream


SWEEP_CONFIG = """
detector.train_size = 6000
detector.eval_size = 20000
detector.n_threshold = 200000
flow.epochs = 60
sweep.powers_dbm = -10, -7, -1, 5, 8
sweep.elements = 0, 256, 512, 1024, 2048
sweep.samples = 1, 3, 5, 10, 20
sjnr.n_symbols = 100000
seeds.root = 4242
"""


@pytest.fixture(scope="module")
def sweep_cfg():
    return parse_config_text(SWEEP_CONFIG)


def mdr_series(results, variant):
    pts = [(getattr(r, f"mdr_{variant}"), getattr(r, f"mdr_{variant}_lo"),
            getattr(r, f"mdr_{variant}_hi")) for r in results]
    return pts


def no_significant_increase(points):
    """Non-increasing trend up to CI width: a later point may not sit
    significantly above any earlier one."""
    return all(points[i + 1][1] <= points[i][2] for i in range(len(points) - 1))


# -- criteria ----------------------------------------------------------------

def test_criterion_01_alpha_bar():
    val = theory.alpha_bar(DEFAULT_CONFIG.profile())
    report(1, "mean squared reflection amplitude = 0.82",
           abs(val - 0.82) < 1e-12, f"got {val!r}")


def test_criterion_02_cascaded_clt():
    geo = DEFAULT_CONFIG.geometry()          # 2048 elements
    fad = DEFAULT_CONFIG.fading()
    prof = DEFAULT_CONFIG.profile()
    draws = channel.cascaded_mc(SeedStream(1002).child("clt"), geo, fad, prof, 100_000)
    loss_g = channel.path_loss_linear(fad.alice_dris,
                                      geo.distance(geo.alice, geo.dris_center))
    loss_i = channel.path_loss_linear(fad.dris_willie,
                                      geo.distance(geo.dris_center, geo.willie))
    var_th = theory.prop_variance(2048, theory.alpha_bar(prof), loss_g, loss_i)
    var_mc = float(np.mean(np.abs(draws) ** 2))
    ratio = float(np.mean(np.abs(draws) ** 4) / var_mc**2)
    rel = abs(var_mc - var_th) / var_th
    report(2, "cascaded-channel Gaussian limit (variance within 2%, "
              "fourth-moment ratio in [1.9, 2.1])",
           rel < 0.02 and 1.9 < ratio < 2.1,
           f"rel err {rel:.4f}, ratio {ratio:.3f}")


def test_criterion_03_null_exactness():
    scen = DEFAULT_CONFIG.scenario(5.0)
    stream = SeedStream(1003)
    crit = 1.628 / math.sqrt(100_000)        # 1% significance, large n
    passes = 0
    for i in range(10):
        y = channel.gen_willie_statistics(stream.child("ks", i), scen, "H0", 100_000, 5)
        stat, _ = stats.kstest(y, stats.gamma(a=5, scale=NOISE).cdf)
        passes += stat < crit
    report(3, "H0 statistics exactly Gamma(5, noise) by KS at 1% "
              "for >= 9 of 10 seeds", passes >= 9, f"{passes}/10 passed")


class TestCriterion04FlowSuite:
    def test_a_gradients(self):
        gen = np.random.default_rng(5)
        worst = 0.0
        ok = True
        model = flow.FlowModel(3)
        model.theta += 0.2 * gen.standard_normal(model.theta.size)
        batch = gen.standard_normal(6)
        flow.grad_nll(model, batch)
        theta, grad = model.theta, model.grad.copy()
        for i in range(theta.size):
            orig = theta[i]
            theta[i] = orig + 1e-5
            up = flow.nll(model, batch)
            theta[i] = orig - 1e-5
            down = flow.nll(model, batch)
            theta[i] = orig
            fd = (up - down) / 2e-5
            err = abs(fd - grad[i])
            worst = max(worst, err)
            if err > 1e-7 and err / max(abs(fd), abs(grad[i])) > 1e-4:
                ok = False
        report("4a", "every gradient coordinate of a 1-D flow within "
                     "1e-4 rel / 1e-7 abs of central differences", ok,
               f"worst abs err {worst:.2e}")

    def test_b_inversion(self):
        model = flow.FlowModel(4)
        gen = np.random.default_rng(6)
        model.theta += 0.3 * gen.standard_normal(model.theta.size)
        y = gen.standard_normal(256) * 3
        z, _ = model.forward(y)
        err = float(np.max(np.abs(model.inverse(z) - y)))
        report("4b", "inverse-of-forward round trip within 1e-9",
               err < 1e-9, f"max err {err:.2e}")

    def test_c_gaussian_nll(self):
        gen = SeedStream(1004).child("gauss")
        data = 3.0 + 2.0 * gen.standard_normal(20_000)
        model = flow.train(data, flow.TrainConfig(seed=14, epochs=20))
        eval_data = 3.0 + 2.0 * gen.standard_normal(50_000)
        got = flow.nll(model, eval_data)
        entropy = 0.5 * math.log(2 * math.pi * math.e * 4.0)
        report("4c", "Normal(3, 2^2) NLL within 0.05 nats of entropy",
               abs(got - entropy) < 0.05,
               f"NLL {got:.4f} vs entropy {entropy:.4f}")

    def test_d_gamma_tv(self):
        gen = SeedStream(1004).child("gamma")
        data = sample_gamma(gen, 5, 1.0, size=20_000)
        model = flow.train(data, flow.TrainConfig(seed=15, epochs=200))
        grid = np.linspace(1e-3, 25.0, 512)
        p_true = stats.gamma(a=5).pdf(grid)
        p_fit = np.exp(model.log_prob(grid))
        tv = 0.5 * float(np.trapezoid(np.abs(p_true - p_fit), grid))
        report("4d", "Gamma(5,1) fit within 0.05 total variation on a "
                     "512-point grid", tv <= 0.05, f"TV {tv:.4f}")


def test_criterion_05_far_calibration(surrogate_detector):
    det, stream = surrogate_detector
    null = det.null
    results = []
    ok = True
    for alpha in (0.01, 0.05, 0.1):
        eta = detector.calibrate_threshold(det.flow, null, alpha, 1_000_000,
                                           stream.child(f"cal/{alpha}"))
        d = detector.FittedDetector(det.flow, null, eta)
        y = sample_gamma(stream.child(f"null-eval/{alpha}"), 5, NOISE,
                         size=100_000)
        far = float(np.mean(detector.classify(d, y)))
        lo, hi = binomial_ci(int(round(alpha * 100_000)), 100_000, 0.99)
        ok &= lo <= far <= hi
        results.append(f"alpha={alpha}: FAR={far:.4f} in [{lo:.4f},{hi:.4f}]")
    report(5, "empirical FAR inside the 99% Wilson band for "
              "alpha in {0.01, 0.05, 0.1}", ok, "; ".join(results))


def test_criterion_06_np_oracle(surrogate_detector):
    det, stream = surrogate_detector
    y_h1 = sample_gamma(stream.child("h1-eval"), 5, 2 * NOISE, size=50_000)
    mdr = float(np.mean(~detector.classify(det, y_h1)))
    y_crit = stats.gamma(a=5, scale=NOISE).ppf(0.95)
    mdr_opt = float(stats.gamma(a=5, scale=2 * NOISE).cdf(y_crit))
    report(6, "unsupervised MDR within 0.05 of the analytic NP optimum "
              "on the tractable surrogate", mdr <= mdr_opt + 0.05,
           f"MDR {mdr:.4f} vs optimum {mdr_opt:.4f}")


def test_criterion_07_unsup_vs_sup():
    cfg = parse_config_text("detector.train_size = 20000\n"
                            "detector.eval_size = 20000\n"
                            "detector.n_threshold = 500000\n"
                            "flow.epochs = 100\n"
                            "seeds.root = 1007\n")
    root = SeedStream(cfg["seeds.root"])
    details, ok = [], True
    for p0 in (-7.0, 5.0):
        r = sweeps.run_point(cfg, root, "p0_dbm", p0)
        gap = abs(r.mdr_unsup - r.mdr_sup)
        ok &= gap <= 0.05
        details.append(f"{p0:g} dBm: unsup {r.mdr_unsup:.4f}, "
                       f"sup {r.mdr_sup:.4f}")
    report(7, "|MDR_unsup - MDR_sup| <= 0.05 at -7 and 5 dBm",
           ok, "; ".join(details))


@pytest.fixture(scope="module")
def unsaturated_points(sweep_cfg):
    """The reduced config's points at -33, -30 and -27 dBm, where the surface
    MDRs lie inside (0, 1); run once for the tests that read them."""
    root = SeedStream(sweep_cfg["seeds.root"])
    return [sweeps.run_point(sweep_cfg, root, "p0_dbm", p0) for p0 in (-33.0, -30.0, -27.0)]


def test_unsaturated_surface_points(unsaturated_points):
    """Low powers where the surface MDRs lie inside (0, 1), so the unsup/sup
    gap and the P0 trend compare quantities that can differ."""
    rs = unsaturated_points
    inside = all(0 < getattr(r, f"mdr_{v}_lo") and getattr(r, f"mdr_{v}_hi") < 1
                 for r in rs for v in ("unsup", "sup"))
    gap = all(abs(r.mdr_unsup - r.mdr_sup) <= 0.05 for r in rs)
    trend = all(no_significant_increase(mdr_series(rs, v)) for v in ("unsup", "sup"))
    report("7/9 (unsaturated)", "surface MDRs inside (0, 1), |MDR_unsup - MDR_sup| "
           "<= 0.05 and non-increasing in P0 at -33, -30 and -27 dBm",
           inside and gap and trend,
           "; ".join(f"{r.sweep_value:g} dBm: unsup {r.mdr_unsup:.4f}, sup {r.mdr_sup:.4f}"
                     for r in rs))


def test_radiometer_np_oracle(sweep_cfg, unsaturated_points):
    """Given the channel, the warden's samples are independent CN(0, mu_n)
    with mu_n >= noise, so the likelihood ratio of Y is non-decreasing and
    the radiometer Y > Gamma^-1(1 - alpha; N, noise) is the most powerful
    level-alpha test.  On each point's own evaluation H1 batch, no flow's MDR
    may sit significantly below the radiometer's, nor more than 0.02 above."""
    cfg = sweep_cfg
    root = SeedStream(cfg["seeds.root"])
    n_samples, alpha = cfg["detector.n_samples"], cfg["detector.alpha"]
    null = theory.GammaNull(n_samples, cfg.noise_power())
    # calibration error can leave a flow's realized FAR up to alpha_hi, and
    # its MDR down to the radiometer's at alpha_hi (z = 4.5, as perfbench)
    z = 4.5
    alpha_hi = alpha + z * math.sqrt(alpha * (1 - alpha) / cfg["detector.n_threshold"])
    details, ok = [], True
    for r in unsaturated_points:
        seeds = root.derive(f"point/p0_dbm/{r.sweep_value!r}")
        h1 = sweeps._eval_batch(cfg, seeds, cfg.scenario(r.sweep_value), n_samples).h1
        opt = float(np.mean(h1 <= theory.radiometer_threshold(null, alpha)))
        opt_lo = float(np.mean(h1 <= theory.radiometer_threshold(null, alpha_hi)))
        for v in ("unsup", "sup"):
            mdr = getattr(r, f"mdr_{v}")
            hi = binomial_ci(round(mdr * h1.size), h1.size, math.erf(z / math.sqrt(2)))[1]
            ok &= hi >= opt_lo and mdr <= opt + 0.02
        details.append(f"{r.sweep_value:g} dBm: radiometer {opt:.4f}, "
                       f"unsup {r.mdr_unsup:.4f}, sup {r.mdr_sup:.4f}")
    report("6/7 (radiometer)", "flow MDRs not significantly below the radiometer's "
           "and at most 0.02 above it at -33, -30 and -27 dBm", ok, "; ".join(details))


def test_criterion_08_sjnr_anchors():
    cfg = DEFAULT_CONFIG
    stream = SeedStream(1008)
    bob = tuple(cfg["geometry.bob_center"])
    details, ok = [], True
    for n_d, anchor in ((2048, -21.33), (0, 11.07)):
        scen = cfg.scenario(5.0, n_elements=n_d, bob_position=bob)
        sig, jam, noise = channel.gen_bob_signals(stream.child(f"sjnr/{n_d}"),
                                                  scen, 200_000)
        sim_db = 10 * math.log10(theory.sjnr_empirical(sig, jam, noise))
        ok &= abs(sim_db - anchor) <= 0.5
        details.append(f"N_D={n_d}: sim {sim_db:.2f} dB vs {anchor} dB")
    report(8, "simulated SJNR within 0.5 dB of the closed form at 5 dBm",
           ok, "; ".join(details))


class TestCriterion09Trends:
    @pytest.fixture(scope="class")
    def all_sweeps(self, sweep_cfg):
        return tuple(sweeps.run_sweep(sweep_cfg, v) for v in ("p0_dbm", "n_elements", "n_samples"))

    def test_mdr_monotone(self, all_sweeps):
        power, elements, samples = all_sweeps
        ok = True
        for name, rs in (("P0", power), ("N_D", elements), ("N", samples)):
            for variant in ("unsup", "sup", "no_dris"):
                if not no_significant_increase(mdr_series(rs, variant)):
                    ok = False
        report("9 (MDR)", "MDR non-increasing in P0, N_D, and N up to "
                          "CI width for every detector variant", ok)

    def test_sjnr_trends(self, all_sweeps):
        _, elements, samples = all_sweeps
        theory_dec = all(a.sjnr_theory_db > b.sjnr_theory_db
                         for a, b in zip(elements, elements[1:]))
        sim_dec = all(a.sjnr_sim_db > b.sjnr_sim_db
                      for a, b in zip(elements, elements[1:]))
        sims = [r.sjnr_sim_db for r in samples]
        flat = max(sims) - min(sims) <= 0.3
        report("9 (SJNR)", "SJNR decreasing in N_D and flat across N",
               theory_dec and sim_dec and flat,
               f"elements sim {[f'{v:.2f}' for v in (r.sjnr_sim_db for r in elements)]}, "
               f"samples spread {max(sims) - min(sims):.3f} dB")


TINY_CONFIG = ("detector.train_size = 1500\ndetector.eval_size = 1500\n"
               "detector.n_threshold = 20000\nflow.epochs = 3\n"
               "sweep.powers_dbm = -7, 5\nsweep.elements = 0, 64\n"
               "sweep.samples = 1, 5\nsjnr.n_symbols = 20000\n"
               "seeds.root = 99\n")


def test_criterion_10_determinism(tmp_path):
    cfgfile = tmp_path / "tiny.cfg"
    cfgfile.write_text(TINY_CONFIG)
    ok = True
    details = []
    for sub in ("sweep-power", "sweep-elements", "sweep-samples", "dump-config"):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{sub}-{tag}.out"
            res = subprocess.run(
                [sys.executable, "-m", "discodet.cli", sub,
                 "--config", str(cfgfile), "--out", str(out)],
                capture_output=True, text=True, env=cli_env())
            assert res.returncode == 0, f"{sub}: {res.stderr}"
            outs.append(out.read_bytes())
        same = outs[0] == outs[1]
        ok &= same
        details.append(f"{sub}: {'identical' if same else 'DIFFERS'}")
    report(10, "subcommand reruns with identical config and seed are "
               "byte-identical", ok, "; ".join(details))


def test_csv_independent_of_blas_threads(tmp_path):
    """The cascade contraction is a BLAS matmul: its CSV may not depend on
    how many threads BLAS runs."""
    cfgfile = tmp_path / "tiny.cfg"
    cfgfile.write_text(TINY_CONFIG)
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"sweep-power-{threads}.csv"
        env = cli_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        res = subprocess.run([sys.executable, "-m", "discodet.cli", "sweep-power",
                              "--config", str(cfgfile), "--out", str(out)],
                             capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
