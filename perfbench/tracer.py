"""Outside-in tracer for discodet.

The program carries no instrumentation of its own, so the benchmark
wraps every public function of ``channel``, ``statkit``, ``theory``,
``flow``, ``detector``, ``sweeps`` and ``cli`` (plus the
``FlowModel.log_prob`` method) and records one span per call: name,
start, end, parent span, and work counts derived from the call's
arguments and result.  A function is replaced under every module
attribute that refers to it, so names imported directly
(``channel.sample_cgauss``, ``detector.sample_gamma``,
``detector.empirical_quantile``, ``detector.gamma_h0_logpdf``) are
traced too.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time

import numpy as np

TRACED_MODULES = ("channel", "statkit", "theory", "flow", "detector", "sweeps", "cli")
# modules whose attributes may alias a traced function
ALIAS_MODULES = TRACED_MODULES + ("config",)


def _rows(x) -> int:
    return int(np.shape(x)[0])


def _n_elements(scenario) -> int:
    return scenario.geometry.n_elements


# span name -> counts(bound arguments, result)
COUNTERS = {
    "channel.sample_dris_coeffs": lambda a, r: {"coeffs": int(np.size(r))},
    "channel.gen_willie_statistics": lambda a, r: {
        "intervals": a["n_intervals"],
        "macs": (a["n_intervals"] * a["n_samples"] * _n_elements(a["scenario"])
                 if a["hypothesis"] == "H1" else 0)},
    "channel.gen_bob_signals": lambda a, r: {
        "symbols": a["n_symbols"],
        "macs": (math.ceil(a["n_symbols"] / a["scenario"].m_symbols)
                 * a["scenario"].m_symbols * _n_elements(a["scenario"]))},
    "channel.cascaded_mc": lambda a, r: {
        "draws": a["n_draws"], "macs": a["n_draws"] * a["geometry"].n_elements},
    "statkit.sample_cgauss": lambda a, r: {"draws": int(np.size(r))},
    "statkit.sample_gamma": lambda a, r: {"draws": int(np.size(r))},
    "flow.train": lambda a, r: {"epochs": a["config"].epochs},
    "flow.grad_nll": lambda a, r: {"rows": _rows(a["batch"])},
    "flow.log_prob": lambda a, r: {"rows": _rows(r)},
    "detector.calibrate_threshold": lambda a, r: {"draws": a["n_mc"]},
    "detector.evaluate": lambda a, r: {"rows": len(a["batch"])},
    "detector.prefilter": lambda a, r: {"offered": len(a["batch"]), "kept": len(r)},
}


class Tracer:
    """Span recorder; one instance per traced process."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = [name, start, end, parent, None]
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                spans[idx][4] = counter(bound.arguments, result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(tracer: Tracer) -> None:
    """Replace discodet's public functions by traced wrappers in place."""
    modules = {m: importlib.import_module(f"discodet.{m}") for m in ALIAS_MODULES}
    package = importlib.import_module("discodet")
    wrapped = {}
    for m in TRACED_MODULES:
        mod = modules[m]
        names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
        for n in names:
            fn = getattr(mod, n)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                wrapped[fn] = tracer.wrap(f"{m}.{n}", fn)
    for mod in list(modules.values()) + [package]:
        for n, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, n, wrapped[obj])
    flow_model = modules["flow"].FlowModel
    flow_model.log_prob = tracer.wrap("flow.log_prob", flow_model.log_prob)


def summarize(spans: list) -> dict:
    """Per-name calls, total seconds, self seconds and summed counts.

    Self time is a span's duration minus the durations of its direct
    child spans (calls in one process are nested, never overlapping).
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, parent, counts) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += end - start - child[i]
        for key, val in (counts or {}).items():
            agg[key] = agg.get(key, 0) + val
    return out


def load_spans(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]
