"""Time one 1-D flow training step, the per-layer cost of an epoch.

    PYTHONPATH=src python3 tools/step_time.py [--fit N]

A step is what ``flow.train_many`` does in one round: the batch-NLL
gradient of every model (``flow._grad_1d``) and one ``flow.adam_step``.
The script times k = 1 model (``validate``'s surrogate fit) and k = 6
models (the six fits of a ``sweep-dris`` point) on 256-row batches at the
default architecture: 5 blocks of four values (shift, log-scale and the
enrichment pair), 20 parameters per model.  For each k it prints the
parameter count per model and the best and the median, over REPEATS
repeats, of the mean time of one step over CALLS steps.  ``--fit N``
also times N whole ``flow.train`` fits of 10,000 Gamma statistics over
120 epochs, the size of ``validate``'s surrogate fit.  Only numpy and the
standard library are used; run it on two checkouts (each with its own
``src`` on PYTHONPATH) to compare them.  A checkout from before the flow
became one-dimensional only needs its own copy of this script, as
``flow.FlowModel.n_params`` took the dimension there.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

import numpy as np

from discodet import flow

BATCH_ROWS = 256
MODEL_COUNTS = (1, 6)
FIT_STATISTICS = 10_000
FIT_EPOCHS = 120
REPEATS = 15
CALLS = 400


def step_times(k: int) -> list[float]:
    """Mean seconds per training step of ``k`` models, once per repeat."""
    cfg = flow.TrainConfig()
    gen = np.random.default_rng(k)
    theta = np.zeros((k, flow.FlowModel.n_params(cfg.n_blocks)))   # the identity init
    theta += 0.1 * gen.standard_normal(theta.shape)      # away from the identity init
    grad = np.zeros_like(theta)
    state = flow.AdamState(theta)
    batches = [gen.standard_normal(BATCH_ROWS) for _ in range(k)]
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(CALLS):
            grad[:] = 0.0
            flow._grad_1d(theta, grad, batches)
            flow.adam_step(theta, grad, state, cfg)
        times.append((time.perf_counter() - start) / CALLS)
    return times


def fit_times(fits: int) -> list[float]:
    """Seconds per whole ``flow.train`` fit of the surrogate's size."""
    gen = np.random.default_rng(0)
    data = gen.gamma(5.0, 1.0, size=FIT_STATISTICS)
    times = []
    for _ in range(fits):
        start = time.perf_counter()
        flow.train(data, flow.TrainConfig(epochs=FIT_EPOCHS))
        times.append(time.perf_counter() - start)
    return times


def report(label: str, times: list[float], scale: float, unit: str) -> None:
    print(f"{label}: best {min(times) * scale:.1f} {unit}, "
          f"median {statistics.median(times) * scale:.1f} {unit} (of {len(times)})")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--fit", type=int, default=0, metavar="N")
    args = parser.parse_args(argv)
    if args.fit < 0:
        parser.error("--fit must be >= 0")
    cfg = flow.TrainConfig()
    n_params = flow.FlowModel.n_params(cfg.n_blocks)
    for k in MODEL_COUNTS:
        report(f"step k={k} ({BATCH_ROWS} rows, {n_params} parameters per model)",
               step_times(k), 1e6, "us")
    if args.fit:
        report(f"fit ({FIT_STATISTICS} statistics, {FIT_EPOCHS} epochs)",
               fit_times(args.fit), 1e3, "ms")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
