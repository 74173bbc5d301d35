"""discodet benchmark: sweep workloads end to end, and per layer when traced.

    python3 perfbench/run.py --workload sweep-dris --seed 1 --seconds 20 --trace 0

Each job is one ``discodet`` CLI command in a fresh process (closed loop,
one client, nothing alongside).  A run repeats the workload's job until
``--seconds`` have passed, checks every output against computations made
here without discodet (see checks.py), and prints one JSON line.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced jobs and reports per-layer metrics from
the traced ones plus the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer as tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_LIMIT_S = 170      # every run ends, children included, within this
SETUP_PROBES = 9
# One BLAS thread per job: the flow's small matrix products gain little
# from a second thread on two cores, and spinning BLAS threads made job
# times twice as noisy.  cpu_s above wall_s then means real parallelism.
BLAS_THREADS = "1"

# The reference scenario, written out in full so that the checks read
# the same numbers the program is given.
REFERENCE = {
    "geometry.alice": (0.0, 0.0, 5.0),
    "geometry.willie": (0.0, 100.0, 0.0),
    "geometry.dris_center": (-1.5, 0.0, 5.0),
    "geometry.bob_center": (0.0, 140.0, 0.0),
    "fading.los_intercept_db": 35.6,
    "fading.los_slope_db": 22.0,
    "fading.nlos_intercept_db": 32.6,
    "fading.nlos_slope_db": 36.7,
    "fading.link_alice_dris": "los",
    "fading.link_dris_willie": "los",
    "fading.link_dris_bob": "los",
    "fading.link_alice_willie": "nlos",
    "fading.link_alice_bob": "nlos",
    "fading.bandwidth_hz": 180e3,
    "dris.phases": (math.pi / 9, 7 * math.pi / 6),
    "dris.amplitudes": (0.8, 1.0),
    "dris.probabilities": (0.5, 0.5),
    "detector.alpha": 0.05,
    "detector.rho": 0.5,
    "detector.n_samples": 5,
    "detector.m_symbols": 20,
    "sjnr.bob_mode": "center",
}
# Monte-Carlo sizes shared by both sweep workloads
SWEEP_SIZES = {
    "detector.train_size": 1500,
    "detector.eval_size": 3000,
    "detector.n_threshold": 50_000,
    "flow.epochs": 30,
    "sjnr.n_symbols": 30_000,
}

WORKLOADS = {
    # the paper's loop on the default 2048-element surface: -30 dBm is
    # unsaturated (surface MDR ~0.47), -7 dBm is the reference power
    "sweep-dris": {
        "command": "sweep-power",
        "config": {**SWEEP_SIZES, "dris.elements_h": 64, "dris.elements_v": 32,
                   "sweep.powers_dbm": (-30.0, -7.0)},
        "sweep": {"sweep_var": "p0_dbm",
                  "points": [(-30.0, -30.0, 2048), (-7.0, -7.0, 2048)],
                  "unsaturated_dbm": (-30.0,)},
    },
    # same sizes and path with no surface: the channel is bypassed, so
    # flow training, calibration and evaluation do the work
    "sweep-nodris": {
        "command": "sweep-elements",
        "config": {**SWEEP_SIZES, "sweep.elements": (0,), "sweep.fixed_p0_dbm": -7.0},
        "sweep": {"sweep_var": "n_elements", "points": [(0, -7.0, 0)]},
    },
    # the self-check suite: the only path through cascaded_mc, plus the
    # dim-4 flow; a 1024-element surface keeps one job under 40 s
    "validate": {
        "command": "validate",
        "config": {"dris.elements_h": 32, "dris.elements_v": 32},
    },
}

LAYER_FIELDS = (
    ("channel.sample_dris_coeffs", ("calls", "self_s", "coeffs")),
    ("channel.gen_willie_statistics", ("calls", "total_s", "self_s", "intervals")),
    ("channel.gen_bob_signals", ("total_s", "self_s", "symbols")),
    ("channel.cascaded_mc", ("total_s", "self_s", "draws")),
    ("channel.sample_rician_g", ("calls", "self_s")),
    ("channel.los_steering", ("calls", "self_s")),
    ("statkit.sample_cgauss", ("calls", "self_s", "draws")),
    ("statkit.sample_gamma", ("self_s", "draws")),
    ("statkit.empirical_quantile", ("self_s",)),
    ("theory.gamma_h0_logpdf", ("calls", "self_s")),
    ("flow.train", ("calls", "total_s", "self_s", "epochs")),
    ("flow.grad_nll", ("calls", "self_s", "rows")),
    ("flow.adam_step", ("calls", "self_s")),
    ("flow.log_prob", ("calls", "self_s", "rows")),
    ("detector.calibrate_threshold", ("total_s", "self_s", "draws")),
    ("detector.evaluate", ("total_s", "self_s", "rows")),
    ("detector.prefilter", ("self_s",)),
    ("sweeps.run_point", ("calls", "total_s")),
    ("sweeps.run_validation", ("self_s",)),
    ("sweeps.emit_csv", ("self_s",)),
    ("cli.main", ("total_s",)),
)
# per-layer metric -> (span name, summary field, unit)
PER_LAYER = {f"{span}.{field}": (span, field, "s" if field.endswith("_s") else "count")
             for span, fields in LAYER_FIELDS for field in fields}
GENERATORS = ("channel.gen_willie_statistics", "channel.gen_bob_signals", "channel.cascaded_mc")


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(_fmt(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def program_seed(workload: str, seed: int) -> int:
    digest = hashlib.blake2b(f"{workload}/{seed}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def config_values(workload: str, seed: int) -> dict:
    return {**REFERENCE, **WORKLOADS[workload]["config"],
            "seeds.root": program_seed(workload, seed)}


def config_text(values: dict) -> str:
    return "".join(f"{k} = {_fmt(v)}\n" for k, v in values.items())


class Runner:
    """Starts jobs for one benchmark run and keeps their results."""

    def __init__(self, workload: str, seed: int, out: Path, limit: float):
        self.workload = workload
        self.limit = limit
        self.seed = program_seed(workload, seed)
        self.out = out
        self.cfg = config_values(workload, seed)
        self.cfg_path = out / "bench.cfg"
        self.cfg_path.write_text(config_text(self.cfg), encoding="utf-8")
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
                    "OPENBLAS_NUM_THREADS": BLAS_THREADS, "OMP_NUM_THREADS": BLAS_THREADS,
                    "MKL_NUM_THREADS": BLAS_THREADS, "PYTHONHASHSEED": "0"}
        self.n_started = 0

    def start(self, setup_only=False, traced=False):
        """Run one job; returns (result dict or None, output path, trace path).

        A job still running at the run's time limit is killed and counts
        as failed."""
        i = self.n_started
        self.n_started += 1
        result = self.out / f"job{i}.json"
        output = self.out / f"job{i}.out"
        trace = self.out / f"job{i}.trace.jsonl" if traced else None
        argv = [sys.executable, str(BENCH_DIR / "job.py"), "--config", str(self.cfg_path),
                "--result", str(result)]
        if trace:
            argv += ["--trace", str(trace)]
        if setup_only:
            argv.append("--setup-only")
        else:
            argv += ["--", WORKLOADS[self.workload]["command"], "--config",
                     str(self.cfg_path), "--seed", str(self.seed), "--out", str(output)]
        with open(self.out / f"job{i}.log", "wb") as log:
            t_spawn = time.monotonic()
            try:
                proc = subprocess.run(argv, cwd=ROOT, env=self.env, stdout=log,
                                      stderr=subprocess.STDOUT,
                                      timeout=max(self.limit - t_spawn, 1.0))
            except subprocess.TimeoutExpired:
                return None, output, trace
        if proc.returncode != 0 or not result.exists():
            return None, output, trace
        res = json.loads(result.read_text(encoding="utf-8"))
        res["setup_s"] = res["ready_monotonic"] - t_spawn
        return res, output, trace


def check_output(runner: Runner, res: dict, output: Path) -> list[str]:
    spec = WORKLOADS[runner.workload]
    text = output.read_text(encoding="utf-8") if output.exists() else ""
    if spec["command"] == "validate":
        return checks.check_validation(text, res["exit_code"], runner.cfg)
    if res["exit_code"] != 0:
        return [f"{spec['command']} exited {res['exit_code']}"]
    return checks.check_sweep(text, runner.cfg, spec["sweep"], runner.seed)


def layer_metrics(spans: list) -> dict:
    agg = tracing.summarize(spans)
    out = {}
    for metric, (span, field, _) in PER_LAYER.items():
        out[metric] = agg.get(span, {}).get(field, 0)
    out["channel.cascade_macs"] = sum(agg.get(g, {}).get("macs", 0) for g in GENERATORS)
    pre = agg.get("detector.prefilter", {})
    out["detector.prefilter.kept_ratio"] = pre["kept"] / pre["offered"] if pre else 0.0
    return out


def per_layer_units() -> dict:
    units = {m: unit for m, (_, _, unit) in PER_LAYER.items()}
    units.update({"channel.cascade_macs": "count", "detector.prefilter.kept_ratio": "ratio",
                  "trace.overhead_s": "s"})
    return units


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = BENCH_DIR / "out" / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    out.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, out, time.monotonic() + RUN_LIMIT_S)

    # the first start compiles bytecode and fails fast when the program is missing
    if runner.start(setup_only=True)[0] is None:
        print(f"discodet cannot be set up; see {out}", file=sys.stderr)
        return 2
    setups = []
    for _ in range(SETUP_PROBES):
        res = runner.start(setup_only=True)[0]
        if res is None:
            print(f"discodet set-up failed; see {out}", file=sys.stderr)
            return 2
        setups.append(res["setup_s"])

    # sweeps write a CSV, and two jobs of one seed must write the same bytes
    writes_csv = WORKLOADS[args.workload]["command"] != "validate"
    min_jobs = 2 if (writes_csv or args.trace) else 1
    problems: list[str] = []
    done, csvs = [], []
    attempted = failed = 0
    deadline = time.monotonic() + args.seconds
    while (attempted < min_jobs or time.monotonic() < deadline) \
            and time.monotonic() < runner.limit:
        traced = bool(args.trace) and attempted % 2 == 1
        attempted += 1
        res, output, trace = runner.start(traced=traced)
        if res is None:
            failed += 1
            continue
        problems += [f"job {attempted}: {p}" for p in check_output(runner, res, output)]
        if writes_csv and output.exists():
            csvs.append(output.read_bytes())
        res["traced"] = traced
        if traced:
            res["layers"] = layer_metrics(tracing.load_spans(trace))
        done.append(res)
        setups.append(res["setup_s"])
    if len(set(csvs)) > 1:
        problems.append("CSV bytes differ between jobs of the same config and seed")

    if args.trace:
        plain = [r["wall_s"] for r in done if not r["traced"]]
        layered = [r["layers"] for r in done if r["traced"]]
        metrics = {}
        if plain and layered:
            units = per_layer_units()
            for name, unit in units.items():
                if name == "trace.overhead_s":
                    continue
                vals = [lay[name] for lay in layered]
                if unit == "s":
                    metrics[name] = statistics.median(vals)
                else:
                    if len(set(vals)) > 1:
                        problems.append(f"{name} differs between traced jobs: {vals}")
                    metrics[name] = vals[0]
            traced_wall = [r["wall_s"] for r in done if r["traced"]]
            metrics["trace.overhead_s"] = statistics.median(traced_wall) - statistics.median(plain)
            metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    else:
        metrics = {}
        if done:
            metrics = {
                "wall_s": {"value": statistics.median(r["wall_s"] for r in done), "unit": "s"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "cpu_s": {"value": statistics.median(r["cpu_s"] for r in done), "unit": "s"},
                "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in done),
                                "unit": "MB"},
            }
    for p in problems:
        print(p, file=sys.stderr)
    if not problems and not failed:
        shutil.rmtree(out)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
