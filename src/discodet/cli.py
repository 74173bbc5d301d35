"""Command-line interface.

Subcommands: ``validate`` (closed-form and pipeline self-checks),
``sweep-power`` / ``sweep-elements`` / ``sweep-samples`` (CSV experiment
sweeps), ``train`` / ``eval`` (fit or apply a single detector model), and
``dump-config`` (print the fully-resolved configuration).

Exit codes: 0 on success, 1 on a failed validation or evaluation, 2 on
configuration or usage errors.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import detector, flow, sweeps, theory
from .config import DEFAULT_CONFIG, ConfigError, dump_config, parse_config
from .statkit import SeedStream


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discodet",
        description="Covert-communication detection under a disco "
                    "reconfigurable surface: simulation, flow-based "
                    "detection, and closed-form validation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_default=None):
        p.add_argument("--config", help="path to a key-value config file")
        p.add_argument("--seed", type=int, help="override the root seed")
        p.add_argument("--alpha", type=float, help="target false alarm rate")
        p.add_argument("--out", default=out_default, help="output file path")
        return p

    common(sub.add_parser("validate", help="run the self-check suite"))
    common(sub.add_parser("sweep-power", help="transmit-power sweep"),
           out_default="sweep_power.csv")
    common(sub.add_parser("sweep-elements", help="surface-size sweep"),
           out_default="sweep_elements.csv")
    common(sub.add_parser("sweep-samples", help="samples-per-statistic sweep"),
           out_default="sweep_samples.csv")
    common(sub.add_parser("train", help="fit one unsupervised detector"),
           out_default="detector.flow")
    p_eval = common(sub.add_parser("eval", help="evaluate a trained model"))
    p_eval.add_argument("--model", required=True, help="path to a saved flow model")
    common(sub.add_parser("dump-config", help="print the resolved configuration"))
    return parser


def _load_config(args):
    cfg = parse_config(args.config) if args.config else DEFAULT_CONFIG
    if args.alpha is not None:
        cfg = cfg.with_overrides(detector__alpha=args.alpha)
    if args.seed is not None:
        cfg = cfg.with_overrides(seeds__root=args.seed)
    return cfg


def _cmd_validate(args) -> int:
    cfg = _load_config(args)
    checks = sweeps.run_validation(cfg)
    lines = []
    n_fail = 0
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        n_fail += not c.passed
        lines.append(f"[{status}] {c.name}: {c.detail}")
    lines.append(f"{len(checks) - n_fail}/{len(checks)} checks passed")
    report = "\n".join(lines)
    print(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report + "\n")
    return 1 if n_fail else 0


def _run_sweep(args, sweep_var: str) -> int:
    cfg = _load_config(args)
    t0 = time.perf_counter()
    results = sweeps.run_sweep(cfg, sweep_var)
    elapsed = time.perf_counter() - t0
    sweeps.emit_csv(results, args.out, cfg)
    print(f"wrote {len(results)} rows to {args.out} ({elapsed:.1f}s)")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    seeds = SeedStream(cfg["seeds.root"]).derive("cli-train")
    scen = cfg.scenario(cfg["sweep.fixed_p0_dbm"])
    null = theory.GammaNull(cfg["detector.n_samples"], scen.fading.noise_w)
    fit = sweeps._draw_fit(cfg, seeds, scen, null, "unsup")
    model = flow.train(fit.statistics, fit.train_config)
    det = detector.calibrate(model, null, cfg["detector.alpha"], cfg["detector.n_threshold"],
                             fit.calib_gen)
    flow.save_flow(model, args.out)
    print(f"saved model to {args.out} "
          f"(threshold {det.threshold:.6g}, trained on {len(fit.statistics)} samples)")
    return 0


def _cmd_eval(args) -> int:
    cfg = _load_config(args)
    model = flow.load_flow(args.model)
    seeds = SeedStream(cfg["seeds.root"]).derive("cli-eval")
    alpha, n_samples = cfg["detector.alpha"], cfg["detector.n_samples"]
    scen = cfg.scenario(cfg["sweep.fixed_p0_dbm"])
    null = theory.GammaNull(n_samples, scen.fading.noise_w)
    det = detector.calibrate(model, null, alpha, cfg["detector.n_threshold"],
                             seeds.child("calibrate"))
    rep = detector.evaluate(det, sweeps._eval_batch(cfg, seeds, scen, n_samples))
    eta = det.threshold
    print(f"threshold = {eta:.6g}")
    print(f"FAR = {rep.far:.4f} (target {alpha}, "
          f"95% CI [{rep.far_ci[0]:.4f}, {rep.far_ci[1]:.4f}])")
    print(f"MDR = {rep.mdr:.4f} (95% CI [{rep.mdr_ci[0]:.4f}, {rep.mdr_ci[1]:.4f}])")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(f"threshold,far,far_lo,far_hi,mdr,mdr_lo,mdr_hi\n"
                     f"{eta:.9g},{rep.far:.9g},{rep.far_ci[0]:.9g},{rep.far_ci[1]:.9g},"
                     f"{rep.mdr:.9g},{rep.mdr_ci[0]:.9g},{rep.mdr_ci[1]:.9g}\n")
    # the FAR must sit inside a generous band around the target
    lo, hi = rep.far_ci
    return 0 if lo <= alpha * 2 and hi >= alpha / 2 else 1


def _cmd_dump_config(args) -> int:
    cfg = _load_config(args)
    text = dump_config(cfg)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "sweep-power": lambda a: _run_sweep(a, "p0_dbm"),
    "sweep-elements": lambda a: _run_sweep(a, "n_elements"),
    "sweep-samples": lambda a: _run_sweep(a, "n_samples"),
    "train": _cmd_train,
    "eval": _cmd_eval,
    "dump-config": _cmd_dump_config,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
