"""Output checks computed apart from the program.

Nothing here imports ``discodet``: every reference value is derived from
the generated config's own numbers (path losses, the surface profile, the
Monte-Carlo sizes) with numpy and scipy.  Each function returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import math
import re

from scipy import integrate, stats

CSV_COLUMNS = ("sweep_var,sweep_value,mdr_unsup,mdr_unsup_lo,mdr_unsup_hi,"
               "mdr_sup,mdr_sup_lo,mdr_sup_hi,mdr_no_dris,mdr_no_dris_lo,"
               "mdr_no_dris_hi,far_target,far_empirical,sjnr_sim_db,"
               "sjnr_theory_db,seed").split(",")

# Statistical bands are two-sided at z = 4.5 (about 7e-6 per comparison),
# so no seed should trip them on a correct program.
Z_BAND = 4.5
SJNR_TOL_DB = 0.5
MDR_GAP = 0.05

VALIDATION_NAMES = ("alpha_bar", "cascade_variance", "cascade_circularity",
                    "cascade_mean_zero", "h0_gamma_ks", "flow_autoregressive",
                    "flow_gradients", "flow_roundtrip", "flow_normalization",
                    "far_calibration", "surrogate_np_oracle")
# run_validation's own sizes (not configurable from the CLI)
VALIDATION_FAR_EVAL = 50_000
VALIDATION_FAR_CALIB = 400_000


# -- closed forms --------------------------------------------------------------

def path_loss(cfg: dict, link: str, d: float) -> float:
    kind = cfg[f"fading.link_{link}"]
    return 10.0 ** ((cfg[f"fading.{kind}_intercept_db"]
                     + cfg[f"fading.{kind}_slope_db"] * math.log10(d)) / 10.0)


def noise_power(cfg: dict) -> float:
    dbm = -170.0 + 10.0 * math.log10(cfg["fading.bandwidth_hz"])
    return 10.0 ** ((dbm - 30.0) / 10.0)


def alpha_bar(cfg: dict) -> float:
    return sum(p * a * a for p, a in zip(cfg["dris.probabilities"], cfg["dris.amplitudes"]))


def sjnr_closed_db(cfg: dict, p0_dbm: float, n_elements: int) -> float:
    """SJNR at the annulus centre: (p0/L_d) / (p0 N abar / (L_g L_I) + noise)."""
    p0 = 10.0 ** ((p0_dbm - 30.0) / 10.0)
    alice, dris, bob = (cfg["geometry.alice"], cfg["geometry.dris_center"],
                        cfg["geometry.bob_center"])
    l_d = path_loss(cfg, "alice_bob", math.dist(alice, bob))
    l_g = path_loss(cfg, "alice_dris", math.dist(alice, dris))
    l_i = path_loss(cfg, "dris_bob", math.dist(dris, bob))
    jam = p0 * n_elements * alpha_bar(cfg) / (l_g * l_i)
    return 10.0 * math.log10((p0 / l_d) / (jam + noise_power(cfg)))


def mdr_optimum(cfg: dict, p0_dbm: float, alpha: float) -> float:
    """Surface-free Neyman-Pearson MDR at false-alarm rate ``alpha``.

    Given the Rayleigh direct channel t = L_d |h_d|^2 ~ Exp(1), the
    statistic is Gamma(N, p0 t / L_d + noise); the optimal test thresholds
    it at the null's (1 - alpha) quantile, so
    MDR* = integral of F_Gamma(y_c; N, p0 t / L_d + noise) e^-t dt.
    """
    n = cfg["detector.n_samples"]
    noise = noise_power(cfg)
    p0 = 10.0 ** ((p0_dbm - 30.0) / 10.0)
    l_d = path_loss(cfg, "alice_willie",
                    math.dist(cfg["geometry.alice"], cfg["geometry.willie"]))
    y_c = stats.gamma.ppf(1.0 - alpha, n, scale=noise)
    val, _ = integrate.quad(
        lambda t: stats.gamma.cdf(y_c, n, scale=p0 * t / l_d + noise) * math.exp(-t),
        0.0, math.inf, epsabs=1e-12, epsrel=1e-10)
    return val


def wilson(k: int, n: int, z: float) -> tuple[float, float]:
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    lo = 0.0 if k == 0 else max(center - half, 0.0)
    hi = 1.0 if k == n else min(center + half, 1.0)
    return lo, hi


def far_halfwidth(alpha: float, n_calib: int, n_eval: int) -> float:
    """Band for an empirical FAR: the threshold's own Monte-Carlo error
    (n_calib null draws) plus the evaluation's binomial error."""
    return Z_BAND * math.sqrt(alpha * (1 - alpha) * (1.0 / n_calib + 1.0 / n_eval))


# -- sweep CSV -----------------------------------------------------------------

def parse_csv(text: str) -> list[dict]:
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    if not lines or lines[0].split(",") != CSV_COLUMNS:
        raise ValueError("CSV header does not match the documented schema")
    rows = []
    for ln in lines[1:]:
        fields = ln.split(",")
        if len(fields) != len(CSV_COLUMNS):
            raise ValueError(f"CSV row has {len(fields)} fields: {ln!r}")
        rows.append(dict(zip(CSV_COLUMNS, fields)))
    return rows


def _mdr_count(row: dict, variant: str, n: int, problems: list, tag: str) -> int:
    """Recover the miss count and check the row's 95% Wilson interval."""
    mdr = float(row[f"mdr_{variant}"])
    k = round(mdr * n)
    if abs(k / n - mdr) > 1e-8:
        problems.append(f"{tag}: mdr_{variant} {mdr} is not a count over {n}")
    lo, hi = wilson(k, n, 1.959963984540054)
    got_lo, got_hi = float(row[f"mdr_{variant}_lo"]), float(row[f"mdr_{variant}_hi"])
    if not got_lo <= mdr <= got_hi:
        problems.append(f"{tag}: mdr_{variant} {mdr} outside its interval "
                        f"[{got_lo}, {got_hi}]")
    if abs(got_lo - lo) > 1e-8 or abs(got_hi - hi) > 1e-8:
        problems.append(f"{tag}: mdr_{variant} interval [{got_lo}, {got_hi}] differs "
                        f"from the Wilson interval [{lo:.9g}, {hi:.9g}]")
    return k


def check_sweep(text: str, cfg: dict, spec: dict, seed: int) -> list[str]:
    """Check one sweep CSV against the closed forms.

    ``spec`` gives the sweep variable and, for every point in order, its
    (sweep value, power in dBm, element count); powers listed under
    ``unsaturated_dbm`` get the surface-row checks.
    """
    problems: list[str] = []
    try:
        rows = parse_csv(text)
    except ValueError as exc:
        return [str(exc)]
    points = spec["points"]
    if len(rows) != len(points):
        return [f"expected {len(points)} rows, got {len(rows)}"]
    alpha = cfg["detector.alpha"]
    n_eval = cfg["detector.eval_size"]
    n_calib = cfg["detector.n_threshold"]
    far_band = far_halfwidth(alpha, n_calib, n_eval)
    # calibration error can leave the realized FAR above alpha, and the MDR
    # below MDR*(alpha) with it
    alpha_hi = alpha + Z_BAND * math.sqrt(alpha * (1 - alpha) / n_calib)
    for row, (value, p0_dbm, n_el) in zip(rows, points):
        tag = f"{row['sweep_var']}={row['sweep_value']}"
        if row["sweep_var"] != spec["sweep_var"] or float(row["sweep_value"]) != value:
            problems.append(f"{tag}: expected {spec['sweep_var']}={value}")
        if int(row["seed"]) != seed:
            problems.append(f"{tag}: seed column {row['seed']} != {seed}")
        if float(row["far_target"]) != alpha:
            problems.append(f"{tag}: far_target {row['far_target']} != {alpha}")

        far = float(row["far_empirical"])
        if abs(far - alpha) > far_band:
            problems.append(f"{tag}: far_empirical {far} outside {alpha} +- {far_band:.4f}")

        closed = sjnr_closed_db(cfg, p0_dbm, n_el)
        sim, th = float(row["sjnr_sim_db"]), float(row["sjnr_theory_db"])
        if abs(sim - closed) > SJNR_TOL_DB:
            problems.append(f"{tag}: sjnr_sim_db {sim:.3f} not within {SJNR_TOL_DB} dB "
                            f"of the closed form {closed:.3f}")
        if abs(th - closed) > 1e-6:
            problems.append(f"{tag}: sjnr_theory_db {th} != closed form {closed:.9g}")

        k = {v: _mdr_count(row, v, n_eval, problems, tag)
             for v in ("unsup", "sup", "no_dris")}

        opt = mdr_optimum(cfg, p0_dbm, alpha)
        opt_lo = mdr_optimum(cfg, p0_dbm, alpha_hi)
        mdr0 = float(row["mdr_no_dris"])
        if mdr0 > opt + MDR_GAP:
            problems.append(f"{tag}: mdr_no_dris {mdr0} more than {MDR_GAP} above "
                            f"the NP optimum {opt:.4f}")
        if wilson(k["no_dris"], n_eval, Z_BAND)[1] < opt_lo:
            problems.append(f"{tag}: mdr_no_dris {mdr0} significantly below the NP "
                            f"optimum {opt_lo:.4f}")

        if n_el == 0 and (row["mdr_unsup"], row["mdr_unsup_lo"], row["mdr_unsup_hi"]) != \
                (row["mdr_no_dris"], row["mdr_no_dris_lo"], row["mdr_no_dris_hi"]):
            problems.append(f"{tag}: surface-free point but mdr_unsup "
                            f"{row['mdr_unsup']} != mdr_no_dris {row['mdr_no_dris']}")
        if p0_dbm in spec.get("unsaturated_dbm", ()):
            for v in ("unsup", "sup"):
                if not 0 < k[v] < n_eval:
                    problems.append(f"{tag}: surface mdr_{v} {row[f'mdr_{v}']} "
                                    "not strictly inside (0, 1)")
            gap = abs(float(row["mdr_unsup"]) - float(row["mdr_sup"]))
            if gap > MDR_GAP:
                problems.append(f"{tag}: |mdr_unsup - mdr_sup| = {gap:.4f} > {MDR_GAP}")
    return problems


# -- validation report ---------------------------------------------------------

_LINE = re.compile(r"^\[(PASS|FAIL)\] ([a-z0-9_]+): (.*)$")


def check_validation(text: str, exit_code: int, cfg: dict) -> list[str]:
    """Check the eleven named self-checks of ``discodet validate``.

    Every check must pass, with two exceptions that reject a correct
    program on a fixed share of seeds: ``h0_gamma_ks`` (needs 9 of 10 KS
    tests at 1%, so about 0.4% of seeds fail) and ``far_calibration`` (a
    99% band that ignores the threshold's own Monte-Carlo error, so about
    1.5% of seeds fail).  For those two the reported figures are judged
    here at z = 4.5 instead, and the exit code must agree with the report.
    """
    problems: list[str] = []
    lines = text.splitlines()
    found = {}
    for ln in lines[:-1]:
        m = _LINE.match(ln)
        if not m:
            problems.append(f"unparsed report line {ln!r}")
            continue
        found[m.group(2)] = (m.group(1) == "PASS", m.group(3))
    if tuple(found) != VALIDATION_NAMES:
        return problems + [f"check names {list(found)} != {list(VALIDATION_NAMES)}"]
    n_pass = sum(ok for ok, _ in found.values())
    if not lines or lines[-1] != f"{n_pass}/{len(VALIDATION_NAMES)} checks passed":
        problems.append(f"bad summary line {lines[-1] if lines else ''!r}")
    if exit_code != (0 if n_pass == len(VALIDATION_NAMES) else 1):
        problems.append(f"exit code {exit_code} does not match {n_pass} passed checks")

    def number(name, pattern):
        m = re.search(pattern, found[name][1])
        if not m:
            problems.append(f"{name}: cannot read {found[name][1]!r}")
            return None
        return float(m.group(1))

    for name, (ok, detail) in found.items():
        if not ok and name not in ("h0_gamma_ks", "far_calibration"):
            problems.append(f"{name} failed: {detail}")

    abar = number("alpha_bar", r"alpha_bar = ([0-9.]+)")
    if abar is not None and abs(abar - alpha_bar(cfg)) > 1e-6:
        problems.append(f"alpha_bar {abar} != {alpha_bar(cfg):.6f}")

    ks_pass = number("h0_gamma_ks", r"^(\d+)/10 ")
    # P(4 or more of 10 KS tests reject at 1%) is about 2e-6
    if ks_pass is not None and ks_pass < 7:
        problems.append(f"h0_gamma_ks: only {ks_pass:.0f}/10 seeds pass")

    alpha = 0.05  # run_validation's surrogate detector uses a fixed alpha
    far = number("far_calibration", r"empirical FAR ([0-9.]+)")
    band = far_halfwidth(alpha, VALIDATION_FAR_CALIB, VALIDATION_FAR_EVAL)
    if far is not None and abs(far - alpha) > band:
        problems.append(f"far_calibration: FAR {far} outside {alpha} +- {band:.4f}")

    n = cfg["detector.n_samples"]
    opt = stats.gamma.cdf(stats.gamma.ppf(1 - alpha, n), n, scale=2.0)
    got_opt = number("surrogate_np_oracle", r"analytic optimum ([0-9.]+)")
    if got_opt is not None and abs(got_opt - opt) > 1e-4:
        problems.append(f"surrogate_np_oracle: optimum {got_opt} != {opt:.4f}")
    return problems
