"""Experiment sweeps, validation suite, and CSV emission.

Each sweep point fits three detectors (unsupervised, supervised, and the
same unsupervised pipeline on data generated without the surface; at zero
elements the first and the last coincide and are fitted once), then
evaluates missed-detection and false-alarm rates on fresh labeled data
and compares the simulated SJNR against the closed form.  Seeds are
derived per point from labeled substreams, so points are independent and
the emitted CSV is byte-identical across reruns.  A sweep draws every
point first, trains all their flows in one lockstep run, then scores
each point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import channel, detector, flow, statkit, theory
from .config import ScenarioConfig, dump_config

__all__ = ["SweepResult", "run_sweep", "run_validation", "emit_csv", "run_point"]


@dataclass
class SweepResult:
    sweep_var: str
    sweep_value: float
    mdr_unsup: float
    mdr_unsup_lo: float
    mdr_unsup_hi: float
    mdr_sup: float
    mdr_sup_lo: float
    mdr_sup_hi: float
    mdr_no_dris: float
    mdr_no_dris_lo: float
    mdr_no_dris_hi: float
    far_target: float
    far_empirical: float
    sjnr_sim_db: float
    sjnr_theory_db: float
    seed: int


_CSV_COLUMNS = [f.name for f in fields(SweepResult)]
CSV_HEADER = ",".join(_CSV_COLUMNS)


def _db(x: float) -> float:
    return 10.0 * math.log10(x)


@dataclass
class _FitDraw:
    """One drawn detector fit: the flow's training statistics and seed, and
    the generator that calibrates its threshold."""

    n_elements: int
    variant: str
    statistics: np.ndarray
    train_config: flow.TrainConfig
    calib_gen: np.random.Generator


def _draw_fit(cfg: ScenarioConfig, seeds: statkit.SeedStream, scenario,
              null: theory.GammaNull, variant: str) -> _FitDraw:
    """Draw one detector variant's training statistics on ``scenario``, N of
    them accumulated per statistic where N is ``null.shape`` (the sweeps and
    the CLI ``train`` command share this path).

    ``variant`` is "unsup" (the prefiltered unlabeled mixture) or "sup"
    (transmit-hypothesis statistics); the no-surface baseline is the
    unsupervised variant drawn on a zero-element scenario (same code, same
    seed labels), which makes the N_D = 0 sweep row bit-identical to it.
    """
    n_samples = null.shape
    t_total = cfg["detector.train_size"]
    if variant == "unsup":
        n_h1 = int(round(cfg["detector.mixture_h1"] * t_total))
        h1 = channel.gen_willie_statistics(seeds.child("train-data/unsup/h1"),
                                           scenario, "H1", n_h1, n_samples)
        h0 = channel.gen_willie_statistics(seeds.child("train-data/unsup/h0"),
                                           scenario, "H0", t_total - n_h1, n_samples)
        mix = np.concatenate([h1, h0])
        mix = mix[seeds.child("train-data/unsup/shuffle").permutation(mix.size)]
        statistics = detector.prefilter(mix, null, cfg["detector.rho"])
    elif variant == "sup":
        statistics = channel.gen_willie_statistics(seeds.child("train-data/sup/h1"),
                                                   scenario, "H1", t_total, n_samples)
    else:
        raise ValueError(f"unknown detector variant {variant!r}")
    tcfg = cfg.train_config(seed=seeds.derive(f"train-init/{variant}").root_seed)
    return _FitDraw(scenario.geometry.n_elements, variant, statistics, tcfg,
                    seeds.child(f"calibrate/{variant}"))


def _eval_h0(cfg: ScenarioConfig, seeds: statkit.SeedStream, scenario,
             n_samples: int) -> np.ndarray:
    """H0 half of the evaluation batches; it does not depend on the surface."""
    return channel.gen_willie_statistics(seeds.child("eval/h0"), scenario, "H0",
                                         cfg["detector.eval_size"], n_samples)


def _eval_batch(cfg: ScenarioConfig, seeds: statkit.SeedStream, scenario, n_samples: int,
                eval_h0=None) -> detector.ObservationBatch:
    """H0 statistics (drawn unless given), then as many H1 statistics of
    ``scenario``: the labeled batch of the sweeps and the CLI ``eval``."""
    if eval_h0 is None:
        eval_h0 = _eval_h0(cfg, seeds, scenario, n_samples)
    n_d = scenario.geometry.n_elements
    eval_h1 = channel.gen_willie_statistics(seeds.child(f"eval/h1/{n_d}"), scenario, "H1",
                                            len(eval_h0), n_samples)
    return detector.ObservationBatch(eval_h0, eval_h1)


def _sjnr_pair(cfg: ScenarioConfig, seeds: statkit.SeedStream, p0_dbm: float,
               n_elements: int) -> tuple[float, float]:
    """(simulated, theoretical) SJNR in dB at this operating point."""
    bob_mode = cfg["sjnr.bob_mode"]
    bob_pos = tuple(cfg["geometry.bob_center"]) if bob_mode == "center" else None
    scen = cfg.scenario(p0_dbm, n_elements=n_elements, bob_position=bob_pos)
    sig, jam, noise = channel.gen_bob_signals(seeds.child("sjnr"), scen,
                                              cfg["sjnr.n_symbols"])
    sim = theory.sjnr_empirical(sig, jam, noise)

    geo, fad = scen.geometry, scen.fading
    center = np.asarray(cfg["geometry.bob_center"], float)
    loss_d_b = channel.path_loss_linear(fad.alice_bob, geo.distance(geo.alice, center))
    loss_i_b = channel.path_loss_linear(fad.dris_bob, geo.distance(geo.dris_center, center))
    loss_g = channel.path_loss_linear(fad.alice_dris,
                                      geo.distance(geo.alice, geo.dris_center))
    th = theory.sjnr_theory(scen.p0_watts, n_elements, theory.alpha_bar(scen.profile),
                            loss_d_b, loss_g, loss_i_b, fad.noise_b)
    return _db(sim), _db(th)


# sweep variable -> the config key that lists its values
_SWEEP_LISTS = {"p0_dbm": "sweep.powers_dbm", "n_elements": "sweep.elements",
                "n_samples": "sweep.samples"}


@dataclass
class _Point:
    """A sweep point's draws: the null of its N, its fits, its evaluation
    batches by element count, and its (simulated, theoretical) SJNR."""

    sweep_value: float
    null: theory.GammaNull
    fits: list[_FitDraw]
    batches: dict[int, detector.ObservationBatch]
    sjnr: tuple[float, float]


def _draw_point(cfg: ScenarioConfig, root: statkit.SeedStream, sweep_var: str,
                sweep_value: float) -> _Point:
    """Draw everything of the point with ``sweep_var`` set to ``sweep_value``
    (the other two quantities keep their configured values) that its fits
    and scores need: the unsupervised and supervised fits and, on a surface
    point, the no-surface baseline's, each with its evaluation batch."""
    setting = {"p0_dbm": cfg["sweep.fixed_p0_dbm"],
               "n_elements": cfg.geometry().n_elements,
               "n_samples": cfg["detector.n_samples"]}
    setting[sweep_var] = sweep_value
    p0_dbm, n_elements, n_samples = setting.values()
    seeds = root.derive(f"point/{sweep_var}/{sweep_value!r}")
    scen = cfg.scenario(p0_dbm, n_elements=n_elements)
    null = theory.GammaNull(n_samples, scen.fading.noise_w)
    eval_h0 = _eval_h0(cfg, seeds, scen, n_samples)
    plan = [(scen, ("unsup", "sup"))]
    if scen.geometry.n_elements > 0:   # with no surface, the baseline is the unsup fit
        plan.append((cfg.scenario(p0_dbm, n_elements=0), ("unsup",)))
    fits, batches = [], {}
    for scenario, variants in plan:
        # seed labels keyed by the element count: a 0-element point is the baseline
        n_d = scenario.geometry.n_elements
        batches[n_d] = _eval_batch(cfg, seeds, scenario, n_samples, eval_h0)
        fits += [_draw_fit(cfg, seeds.derive(f"fit/{n_d}"), scenario, null, v)
                 for v in variants]
    return _Point(sweep_value, null, fits, batches,
                  _sjnr_pair(cfg, seeds, p0_dbm, n_elements))


def _score_point(cfg: ScenarioConfig, point: _Point, models: list[flow.FlowModel],
                 sweep_var: str, seed: int) -> SweepResult:
    """Calibrate each fitted flow with its own generator, evaluate it on its
    scenario's batch, and build the point's row."""
    alpha, n_mc = cfg["detector.alpha"], cfg["detector.n_threshold"]
    reports = {(fit.n_elements, fit.variant):
               detector.evaluate(detector.calibrate(model, point.null, alpha, n_mc, fit.calib_gen),
                                 point.batches[fit.n_elements])
               for fit, model in zip(point.fits, models)}
    n_d = point.fits[0].n_elements
    rep_unsup, rep_sup = reports[n_d, "unsup"], reports[n_d, "sup"]
    rep_nodris = reports[0, "unsup"]    # at n_d = 0, the unsupervised fit itself
    sjnr_sim, sjnr_th = point.sjnr
    return SweepResult(
        sweep_var=sweep_var,
        sweep_value=point.sweep_value,
        mdr_unsup=rep_unsup.mdr, mdr_unsup_lo=rep_unsup.mdr_ci[0],
        mdr_unsup_hi=rep_unsup.mdr_ci[1],
        mdr_sup=rep_sup.mdr, mdr_sup_lo=rep_sup.mdr_ci[0], mdr_sup_hi=rep_sup.mdr_ci[1],
        mdr_no_dris=rep_nodris.mdr, mdr_no_dris_lo=rep_nodris.mdr_ci[0],
        mdr_no_dris_hi=rep_nodris.mdr_ci[1],
        far_target=alpha,
        far_empirical=rep_unsup.far,
        sjnr_sim_db=sjnr_sim,
        sjnr_theory_db=sjnr_th,
        seed=seed,
    )


def _run_points(cfg: ScenarioConfig, root: statkit.SeedStream, sweep_var: str,
                values=None) -> list[SweepResult]:
    """One row per value of ``sweep_var`` (by default the values the config
    lists for it), in three stages: draw every point, fit every flow of
    every point in one lockstep run, then score each point."""
    if sweep_var not in _SWEEP_LISTS:
        raise ValueError(f"sweep variable must be one of {tuple(_SWEEP_LISTS)}, "
                         f"got {sweep_var!r}")
    if values is None:
        values = cfg[_SWEEP_LISTS[sweep_var]]
    points = [_draw_point(cfg, root, sweep_var, v) for v in values]
    fits = [fit for point in points for fit in point.fits]
    models = iter(flow.train_many([fit.statistics for fit in fits],
                                  [fit.train_config for fit in fits]))
    return [_score_point(cfg, point, [next(models) for _ in point.fits], sweep_var,
                         root.root_seed) for point in points]


def run_point(cfg: ScenarioConfig, root: statkit.SeedStream, sweep_var: str,
              sweep_value: float) -> SweepResult:
    """Fit and evaluate all detector variants with ``sweep_var`` set to
    ``sweep_value``; the other two quantities keep their configured values."""
    return _run_points(cfg, root, sweep_var, [sweep_value])[0]


def run_sweep(cfg: ScenarioConfig, sweep_var: str) -> list[SweepResult]:
    """One :func:`run_point` row per value the config lists for ``sweep_var``
    ("p0_dbm": transmit power, "n_elements": surface size, "n_samples":
    samples per statistic); every point's flows train in one lockstep run."""
    return _run_points(cfg, statkit.SeedStream(cfg["seeds.root"]), sweep_var)


# -- CSV ---------------------------------------------------------------------

def _csv_num(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".9g")


def emit_csv(results: list[SweepResult], path, cfg: ScenarioConfig) -> None:
    """Write sweep rows with a '#'-prefixed preamble echoing the config."""
    lines = [f"# {line}" for line in dump_config(cfg).splitlines()]
    lines.append(CSV_HEADER)
    for r in results:
        lines.append(",".join(_csv_num(getattr(r, name)) for name in _CSV_COLUMNS))
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"failed to write CSV to {path}: {exc}") from exc


# -- validation suite --------------------------------------------------------

@dataclass
class ValidationCheck:
    name: str
    passed: bool
    detail: str


# central-difference steps and tolerances of the flow self-checks
_AR_STEP, _AR_TOL = 1e-6, 1e-6
_GRAD_STEP, _GRAD_REL_TOL, _GRAD_ABS_TOL = 1e-5, 1e-4, 1e-7


def autoregressive_check(model: flow.FlowModel, y: np.ndarray) -> tuple[bool, float]:
    """The one-dimensional form of an autoregressive flow's triangular
    Jacobian: on the sorted probe points ``y`` the map z(y) is strictly
    increasing, and each logdet is log|dz/dy| by central differences
    within ``_AR_TOL``.  Returns (passed, worst logdet error)."""
    z, logdet = model.forward(y)
    slope = (model.forward(y + _AR_STEP)[0] - model.forward(y - _AR_STEP)[0]) / (2 * _AR_STEP)
    worst = float(np.max(np.abs(np.log(np.abs(slope)) - logdet)))
    return bool(np.all(np.diff(z) > 0)) and worst <= _AR_TOL, worst


def _flow_checks(root: statkit.SeedStream) -> list[ValidationCheck]:
    """The flow machinery's self-checks on one perturbed 3-block probe
    flow: its Jacobian, gradients, inversion and normalization."""
    gen = root.child("validate/flow-probe")
    model = flow.FlowModel(3)
    model.theta += 0.2 * gen.standard_normal(model.theta.size)
    y = np.sort(gen.standard_normal(64))
    ok, worst = autoregressive_check(model, y)
    checks = [ValidationCheck("flow_autoregressive", ok,
                              f"z(y) increasing, logdet = log|dz/dy|: worst error {worst:.2e}")]
    ok, worst = _gradient_check(model, gen.standard_normal(8))
    checks.append(ValidationCheck("flow_gradients", ok,
                                  f"worst finite-difference mismatch {worst:.2e}"))
    z, _ = model.forward(y)
    round_trip = float(np.max(np.abs(model.inverse(z) - y)))
    checks.append(ValidationCheck("flow_roundtrip", round_trip < 1e-9,
                                  f"max inverse(forward(y)) error {round_trip:.2e}"))
    # the window is the image of the latent [-10, 10], which holds all but
    # ~1e-23 of the mass wherever the flow puts it
    lo, hi = model.inverse(np.array([-10.0, 10.0]))
    grid = np.linspace(lo, hi, 4001)
    mass = float(np.trapezoid(np.exp(model.log_prob(grid)), grid))
    checks.append(ValidationCheck("flow_normalization", abs(mass - 1.0) < 1e-3,
                                  f"density mass on [{lo:.2f}, {hi:.2f}] = {mass:.6f}"))
    return checks


def run_validation(cfg: ScenarioConfig) -> list[ValidationCheck]:
    """Execute the closed-form and pipeline self-checks; returns one record
    per check (failures are report content, not exceptions)."""
    root = statkit.SeedStream(cfg["seeds.root"])
    checks: list[ValidationCheck] = []
    noise = cfg.noise_power()
    profile = cfg.profile()
    abar = theory.alpha_bar(profile)

    # mean squared amplitude of the reflection profile (informational)
    checks.append(ValidationCheck("alpha_bar", True, f"alpha_bar = {abar:.6f}"))

    # exact variance and circularity of the cascaded channel
    n_draws = 100_000
    geo = cfg.geometry()
    fad = cfg.fading()
    draws = channel.cascaded_mc(root.child("validate/cascade"), geo, fad, profile, n_draws)
    loss_g = channel.path_loss_linear(fad.alice_dris, geo.distance(geo.alice, geo.dris_center))
    loss_i = channel.path_loss_linear(fad.dris_willie,
                                      geo.distance(geo.dris_center, geo.willie))
    var_th = theory.prop_variance(geo.n_elements, abar, loss_g, loss_i)
    var_mc = float(np.mean(np.abs(draws) ** 2))
    rel = abs(var_mc - var_th) / var_th
    ratio = float(np.mean(np.abs(draws) ** 4) / var_mc**2)
    checks.append(ValidationCheck("cascade_variance", rel < 0.02,
                                  f"MC/theory relative error {rel:.4f}"))
    checks.append(ValidationCheck("cascade_circularity", 1.9 < ratio < 2.1,
                                  f"fourth-moment ratio {ratio:.3f}"))
    mean_mod = float(np.abs(draws.mean()))
    mean_bound = 6.0 * math.sqrt(var_th / n_draws)
    checks.append(ValidationCheck("cascade_mean_zero", mean_mod < mean_bound,
                                  f"|mean| = {mean_mod:.3e} (bound {mean_bound:.3e})"))

    # exactness of the Gamma null via Kolmogorov-Smirnov over 10 seeds
    n_stats = 100_000
    n_samples = cfg["detector.n_samples"]
    null = theory.GammaNull(n_samples, noise)
    scen = cfg.scenario(cfg["sweep.fixed_p0_dbm"])
    ranks = np.arange(n_stats + 1.0) / n_stats
    passes = 0
    for i in range(10):
        y = channel.gen_willie_statistics(root.child("validate/ks", i), scen,
                                          "H0", n_stats, n_samples)
        cdf = theory.gamma_cdf(null, np.sort(y))
        stat = max(np.max(ranks[1:] - cdf), np.max(cdf - ranks[:-1]))
        crit = 1.628 / math.sqrt(n_stats)   # 1% significance, large n
        passes += bool(stat < crit)
    checks.append(ValidationCheck("h0_gamma_ks", passes >= 9,
                                  f"{passes}/10 seeds below the 1% KS critical value"))

    checks += _flow_checks(root)

    # FAR calibration and the tractable-surrogate comparison
    sur_cfg = flow.TrainConfig(seed=root.derive("validate/sur-seed").root_seed,
                               epochs=120)
    alpha = 0.05
    n_train = 20_000
    gen_s = root.child("validate/surrogate")
    h1_stats = statkit.sample_gamma(gen_s, n_samples, 2 * noise, size=n_train // 2)
    h0_stats = statkit.sample_gamma(gen_s, n_samples, noise, size=n_train - n_train // 2)
    mix = np.concatenate([h1_stats, h0_stats])
    mix = mix[root.child("validate/surrogate-shuffle").permutation(mix.size)]
    model = flow.train(detector.prefilter(mix, null, cfg["detector.rho"]), sur_cfg)
    det = detector.calibrate(model, null, alpha, 400_000,
                             root.child("validate/surrogate-calib"))
    n_eval = 50_000
    gen_e = root.child("validate/surrogate-eval")
    far = float(np.mean(detector.classify(
        det, statkit.sample_gamma(gen_e, n_samples, noise, size=n_eval))))
    lo, hi = statkit.binomial_ci(int(round(alpha * n_eval)), n_eval, 0.99)
    checks.append(ValidationCheck("far_calibration", lo <= far <= hi,
                                  f"empirical FAR {far:.4f} vs target {alpha}"))

    h1_eval = statkit.sample_gamma(gen_e, n_samples, 2 * noise, size=n_eval)
    mdr = float(np.mean(~detector.classify(det, h1_eval)))
    y_crit = theory.radiometer_threshold(null, alpha)
    mdr_opt = float(theory.gamma_cdf(theory.GammaNull(n_samples, 2 * noise), y_crit))
    checks.append(ValidationCheck("surrogate_np_oracle", mdr <= mdr_opt + 0.05,
                                  f"pipeline MDR {mdr:.4f} vs analytic optimum {mdr_opt:.4f}"))
    return checks


def _gradient_check(model: flow.FlowModel, batch: np.ndarray) -> tuple[bool, float]:
    """Central-difference check of :func:`flow.grad_nll`, the training
    step's gradient on one model, on every entry of ``theta``."""
    flow.grad_nll(model, batch)
    grad = model.grad.copy()
    theta = model.theta
    worst = 0.0
    ok = True
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + _GRAD_STEP
        up = flow.nll(model, batch)
        theta[i] = orig - _GRAD_STEP
        down = flow.nll(model, batch)
        theta[i] = orig
        fd = (up - down) / (2 * _GRAD_STEP)
        err = abs(fd - grad[i])
        denom = max(abs(fd), abs(grad[i]))
        score = err if denom < 1e-12 else err / max(denom, 1.0)
        worst = max(worst, score)
        if err > _GRAD_ABS_TOL and (denom == 0 or err / denom > _GRAD_REL_TOL):
            ok = False
    return ok, worst
