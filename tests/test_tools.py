"""The scripts in tools/ run against the current package."""

import importlib.util
from pathlib import Path

import numpy as np

from discodet import channel
from discodet.config import parse_config_text

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
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
