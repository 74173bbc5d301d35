"""The scripts in tools/ and perfbench/ run against the current package."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from discodet import channel
from discodet.config import parse_config_text

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"
PERFBENCH = ROOT / "perfbench"


def load_tool(name, folder=TOOLS):
    spec = importlib.util.spec_from_file_location(name, folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_step_time_reports_default_architecture(monkeypatch, capsys):
    step_time = load_tool("step_time")
    monkeypatch.setattr(step_time, "REPEATS", 1)
    monkeypatch.setattr(step_time, "CALLS", 2)
    assert step_time.main([]) == 0
    out = capsys.readouterr().out
    assert out.count("20 parameters per model") == len(step_time.MODEL_COUNTS)


def test_golden_outputs_needs_an_output_directory(capsys):
    golden_outputs = load_tool("golden_outputs")
    assert golden_outputs.main([]) == 2
    assert "tools/golden_outputs.py OUTDIR" in capsys.readouterr().err


def test_golden_channel_cases_run_the_kernel_they_name(monkeypatch):
    golden_outputs = load_tool("golden_outputs")
    ran = []
    for name in ("_element_cascade", "_pattern_cascade"):
        kernel = getattr(channel, name)
        monkeypatch.setattr(channel, name,
                            lambda *args, _kernel=kernel, _name=name:
                            ran.append(_name) or _kernel(*args))
    cfg = parse_config_text(golden_outputs.TINY_CONFIG)
    for label, draw in golden_outputs.CHANNEL_CASES.items():
        ran.clear()
        values = draw(np.random.default_rng(0), cfg)
        assert set(ran) == {f"_{label.split()[-1]}_cascade"}, label
        assert values.size and np.all(np.isfinite(values)), label


# The benchmark's tracer wraps discodet's public functions and counts work
# from their arguments by name, so a renamed argument, or a stage that no
# sweep reaches any more, shows up as a missing counter.  Span -> the
# counters its calls must carry:
SPAN_COUNTERS = {
    "detector.prefilter": ("offered", "kept"),
    "detector.calibrate_threshold": ("draws",),
    "detector.evaluate": ("rows",),
    "channel.gen_willie_statistics": ("intervals",),
    "flow.log_prob": ("rows",),
}


def test_traced_sweep_counts_every_stage(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(load_tool("golden_outputs").TINY_CONFIG, encoding="utf-8")
    trace = tmp_path / "trace.jsonl"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, str(PERFBENCH / "job.py"), "--config", str(cfg),
         "--result", str(tmp_path / "result.json"), "--trace", str(trace), "--",
         "sweep-power", "--config", str(cfg), "--out", str(tmp_path / "sweep.csv")],
        capture_output=True, text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": path})
    assert res.returncode == 0, res.stderr[-2000:]
    result = json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))
    assert result["exit_code"] == 0, res.stderr[-2000:]
    tracer = load_tool("tracer", PERFBENCH)
    summary = tracer.summarize(tracer.load_spans(trace))
    for span, counters in SPAN_COUNTERS.items():
        assert summary.get(span, {}).get("calls", 0) > 0, span
        for counter in counters:
            assert summary[span].get(counter, 0) > 0, f"{span}.{counter}"
