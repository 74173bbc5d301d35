import ast
import importlib
import os
import re
import struct
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from discodet import cli, detector, flow, sweeps
from discodet.config import parse_config_text
from discodet.statkit import SeedStream
from discodet.sweeps import CSV_HEADER, SweepResult, emit_csv, run_sweep

# deliberately tiny Monte-Carlo sizes: these tests exercise plumbing and
# determinism, not statistical power
TINY_CONFIG = """
detector.train_size = 1500
detector.eval_size = 1500
detector.n_threshold = 1000
flow.epochs = 3
sweep.powers_dbm = -7, 5
sweep.elements = 0, 64
sweep.samples = 1, 5
sjnr.n_symbols = 20000
seeds.root = 777
"""


@pytest.fixture(scope="module")
def tiny_cfg():
    return parse_config_text(TINY_CONFIG)


@pytest.fixture(scope="module")
def elements_results(tiny_cfg):
    with pytest.warns(UserWarning):     # tiny n_threshold triggers the warning
        return run_sweep(tiny_cfg, "n_elements")


class TestEmitCsv:
    def _row(self):
        return SweepResult("p0_dbm", 5.0, 0.1, 0.05, 0.15, 0.1, 0.05, 0.15,
                           0.2, 0.1, 0.3, 0.05, 0.049, -21.3315302, -21.33,
                           777)

    def test_empty_results_header_only(self, tiny_cfg, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path, tiny_cfg)
        lines = path.read_text().splitlines()
        data = [ln for ln in lines if not ln.startswith("#")]
        assert data == [CSV_HEADER]
        # preamble echoes the resolved config, including defaulted knobs
        preamble = "\n".join(ln for ln in lines if ln.startswith("#"))
        assert "detector.rho = 0.5" in preamble
        assert "seeds.root = 777" in preamble

    def test_one_row_two_noncomment_lines(self, tiny_cfg, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv([self._row()], path, tiny_cfg)
        data = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        assert len(data) == 2
        fields = data[1].split(",")
        assert len(fields) == len(CSV_HEADER.split(","))
        assert fields[0] == "p0_dbm"
        assert fields[-1] == "777"

    def test_nine_significant_digits(self, tiny_cfg, tmp_path):
        path = tmp_path / "digits.csv"
        emit_csv([self._row()], path, tiny_cfg)
        data = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")][1]
        assert "-21.3315302" in data

    def test_io_error_reports_path(self, tiny_cfg, tmp_path):
        with pytest.raises(OSError, match="no/such"):
            emit_csv([], tmp_path / "no/such/dir/x.csv", tiny_cfg)


class TestSweeps:
    def test_elements_sweep_shape(self, tiny_cfg, elements_results):
        rs = elements_results
        assert [r.sweep_value for r in rs] == [0, 64]
        for r in rs:
            for v in (r.mdr_unsup, r.mdr_sup, r.mdr_no_dris, r.far_empirical):
                assert 0.0 <= v <= 1.0
            assert r.mdr_unsup_lo <= r.mdr_unsup <= r.mdr_unsup_hi
            assert r.far_target == tiny_cfg["detector.alpha"]
            assert r.seed == 777

    def test_zero_elements_row_equals_baseline(self, elements_results):
        r0 = elements_results[0]
        assert r0.mdr_unsup == r0.mdr_no_dris
        assert r0.mdr_unsup_lo == r0.mdr_no_dris_lo
        assert r0.mdr_unsup_hi == r0.mdr_no_dris_hi

    @pytest.mark.parametrize("n_d,fits", [
        (0, [(0, "unsup"), (0, "sup")]),             # the baseline is the unsup fit
        (64, [(64, "unsup"), (64, "sup"), (0, "unsup")]),
    ])
    def test_baseline_fitted_only_with_surface(self, tiny_cfg, n_d, fits):
        point = sweeps._draw_point(tiny_cfg, SeedStream(777), "n_elements", n_d)
        assert [(fit.n_elements, fit.variant) for fit in point.fits] == fits
        assert sorted(point.batches) == sorted({n for n, _ in fits})

    @pytest.mark.parametrize("sweep_var", ["p0_dbm", "n_elements", "n_samples"])
    def test_sweep_rows_equal_one_point_rows(self, tiny_cfg, sweep_var, monkeypatch):
        # a sweep trains every point's flows in one lockstep run; a lone
        # point trains only its own, so equal rows show that no model
        # leaks into another across points.  Three epochs barely move a
        # flow, so the calibrated thresholds, which any change of a flow
        # moves, are compared too.
        thresholds = []
        calibrate = detector.calibrate

        def recording_calibrate(*args, **kwargs):
            det = calibrate(*args, **kwargs)
            thresholds.append(det.threshold)
            return det

        monkeypatch.setattr(detector, "calibrate", recording_calibrate)
        root = SeedStream(tiny_cfg["seeds.root"])
        with pytest.warns(UserWarning):     # tiny n_threshold triggers the warning
            rows = run_sweep(tiny_cfg, sweep_var)
            in_sweep = list(thresholds)
            thresholds.clear()
            alone = [sweeps.run_point(tiny_cfg, root, sweep_var, r.sweep_value)
                     for r in rows]
        assert [r.sweep_value for r in rows] == list(
            tiny_cfg[sweeps._SWEEP_LISTS[sweep_var]])
        for r, a in zip(rows, alone):
            for f in fields(SweepResult):
                assert getattr(r, f.name) == getattr(a, f.name), f.name
        assert len(in_sweep) >= 2 * len(rows) and thresholds == in_sweep

    def test_unknown_sweep_variable(self, tiny_cfg):
        # both entry points name the valid variables before any work
        match = r"sweep variable must be one of \('p0_dbm', 'n_elements', 'n_samples'\)"
        with pytest.raises(ValueError, match=match + ", got 'foo'"):
            run_sweep(tiny_cfg, "foo")
        with pytest.raises(ValueError, match=match):
            sweeps.run_point(tiny_cfg, SeedStream(777), "foo", 1.0)

    def test_sjnr_theory_decreasing_in_elements(self, elements_results):
        assert elements_results[1].sjnr_theory_db < elements_results[0].sjnr_theory_db

    def test_rerun_reproduces_rows(self, tiny_cfg, elements_results):
        with pytest.warns(UserWarning):
            again = run_sweep(tiny_cfg, "n_elements")
        for a, b in zip(elements_results, again):
            assert a.mdr_unsup == b.mdr_unsup
            assert a.sjnr_sim_db == b.sjnr_sim_db


class TestValidationSuite:
    def test_all_checks_pass(self):
        cfg = parse_config_text("dris.elements_h = 16\ndris.elements_v = 16\n"
                                "detector.n_samples = 5\nseeds.root = 31\n")
        checks = sweeps.run_validation(cfg)
        failed = [c.name for c in checks if not c.passed]
        assert failed == [], f"validation failures: {failed}"
        assert all(type(c.passed) is bool for c in checks)
        names = {c.name for c in checks}
        assert {"cascade_variance", "h0_gamma_ks", "flow_gradients",
                "flow_roundtrip", "far_calibration",
                "surrogate_np_oracle"} <= names

    @staticmethod
    def probe_model_and_batch():
        model = flow.FlowModel(2)
        model.theta += 0.2 * SeedStream(3).child("theta").standard_normal(model.theta.size)
        batch = SeedStream(4).child("grad").standard_normal(6)
        assert sweeps._gradient_check(model, batch)[0]
        return model, batch

    def test_gradient_check_rejects_a_wrong_gradient(self, monkeypatch):
        model, batch = self.probe_model_and_batch()
        grad_nll = flow.grad_nll

        def wrong_grad_nll(model, batch):
            out = grad_nll(model, batch)
            model.grad[3] += 0.5
            return out

        monkeypatch.setattr(flow, "grad_nll", wrong_grad_nll)
        assert not sweeps._gradient_check(model, batch)[0]

    def test_gradient_check_rejects_a_wrong_training_gradient(self, monkeypatch):
        # the check runs the gradient that every training step takes
        model, batch = self.probe_model_and_batch()
        grad_1d = flow._grad_1d

        def wrong_grad_1d(theta, grad, batches):
            grad_1d(theta, grad, batches)
            grad[0, 3] += 0.5

        monkeypatch.setattr(flow, "_grad_1d", wrong_grad_1d)
        assert not sweeps._gradient_check(model, batch)[0]


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("module", ["discodet"] + [
    f"discodet.{m}" for m in ("channel", "statkit", "theory", "flow", "detector", "sweeps")])
def test_all_names_resolve(module):
    """Every name a module exports exists: ``from ... import *`` and
    tools that walk ``__all__`` with ``getattr`` fail on a stale entry."""
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_package_does_not_import_scipy():
    """The runtime needs numpy and the standard library only: the Gamma
    tail and quantile are closed forms in theory, and loading scipy.special
    alone costs about a quarter of a second per process."""
    found = []
    for path in sorted((SRC / "discodet").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                names = [node.module]
            else:
                continue
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == [], f"scipy imported at {found}"


RUNTIME_GUARD = """
import sys
sys.path.insert(0, {src!r})
from discodet.cli import main
codes = [main(["sweep-power", "--config", "tiny.cfg", "--out", "power.csv"]),
         main(["validate", "--config", "tiny.cfg"])]
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert codes == [0, 0], codes
assert loaded == [], f"scipy loaded at run time: {{loaded[:5]}}"
"""


def test_cli_runs_without_loading_scipy(tmp_path):
    # a lazy import inside a command would move the load into its run time
    (tmp_path / "tiny.cfg").write_text(TINY_CONFIG)
    res = subprocess.run([sys.executable, "-c", RUNTIME_GUARD.format(src=str(SRC))],
                         capture_output=True, text=True, cwd=tmp_path)
    assert res.returncode == 0, res.stderr[-2000:]


def run_cli(args, cwd):
    # an absolute package path: a relative PYTHONPATH does not resolve under cwd
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "discodet.cli", *args],
                          capture_output=True, text=True, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path})


class TestCli:
    def test_dump_config_roundtrip(self, tmp_path):
        res = run_cli(["dump-config"], tmp_path)
        assert res.returncode == 0
        cfg = parse_config_text(res.stdout)
        assert cfg["flow.epochs"] == 200

    def test_dump_config_with_overrides(self, tmp_path):
        res = run_cli(["dump-config", "--alpha", "0.01", "--seed", "5"], tmp_path)
        assert res.returncode == 0
        cfg = parse_config_text(res.stdout)
        assert cfg["detector.alpha"] == 0.01
        assert cfg["seeds.root"] == 5

    def test_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("dris.elements_h = 0\n")
        res = run_cli(["dump-config", "--config", str(bad)], tmp_path)
        assert res.returncode == 2
        assert "config error" in res.stderr

    @pytest.mark.parametrize("command", ["dump-config", "sweep-power"])
    def test_bad_profile_exits_2(self, tmp_path, command):
        bad = tmp_path / "bad.cfg"
        bad.write_text("dris.probabilities = 0.6, 0.6\n")
        res = run_cli([command, "--config", str(bad)], tmp_path)
        assert res.returncode == 2
        assert "dris profile" in res.stderr

    @pytest.mark.parametrize("line", ["flow.batch_size = 0", "detector.mixture_h1 = 1.5",
                                      "flow.layers = 0"])
    def test_bad_training_setting_exits_2(self, tmp_path, line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(line + "\n")
        res = run_cli(["sweep-elements", "--config", str(bad)], tmp_path)
        assert res.returncode == 2
        assert "config error" in res.stderr and line.split()[0] in res.stderr

    def test_bad_geometry_exits_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("geometry.bob_inner = 25\n")    # above geometry.bob_outer = 20
        res = run_cli(["sweep-power", "--config", str(bad)], tmp_path)
        assert res.returncode == 2
        assert "config error" in res.stderr and "geometry.bob_inner" in res.stderr

    # Alice sits at (0, 0, 5) by default: a node there has no path loss to her
    @pytest.mark.parametrize("line", ["geometry.dris_center = 0, 0, 5",
                                      "geometry.willie = 0, 0, 5"])
    def test_coincident_positions_exit_2(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(line + "\n")
        assert cli.main(["dump-config", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "positions coincide" in err

    def test_bad_sweep_samples_exits_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CONFIG.replace("sweep.samples = 1, 5", "sweep.samples = 1, 25"))
        res = run_cli(["sweep-samples", "--config", str(bad)], tmp_path)
        assert res.returncode == 2
        assert "config error" in res.stderr and "sweep.samples" in res.stderr

    # the root seed must fit a 64-bit unsigned integer, from a file or a flag
    @pytest.mark.parametrize("source", ["file", "flag"])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_exits_2(self, tmp_path, capsys, source, seed):
        if source == "file":
            cfgfile = tmp_path / "seed.cfg"
            cfgfile.write_text(f"seeds.root = {seed}\n")
            args = ["--config", str(cfgfile)]
        else:
            args = ["--seed", str(seed)]
        assert cli.main(["dump-config", *args]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "seeds.root" in err

    def test_unknown_subcommand_exits_2(self, tmp_path):
        res = run_cli(["frobnicate"], tmp_path)
        assert res.returncode == 2

    def test_bad_alpha_exits_2(self, tmp_path):
        res = run_cli(["dump-config", "--alpha", "2.0"], tmp_path)
        assert res.returncode == 2

    def test_sweep_byte_identical_rerun(self, tmp_path):
        cfgfile = tmp_path / "tiny.cfg"
        cfgfile.write_text(TINY_CONFIG)
        args = ["sweep-samples", "--config", str(cfgfile)]
        a = run_cli([*args, "--out", "a.csv"], tmp_path)
        b = run_cli([*args, "--out", "b.csv"], tmp_path)
        assert a.returncode == 0 and b.returncode == 0, a.stderr + b.stderr
        bytes_a = (tmp_path / "a.csv").read_bytes()
        assert bytes_a == (tmp_path / "b.csv").read_bytes()
        assert bytes_a.startswith(b"#")
        assert re.fullmatch(r"wrote 2 rows to a\.csv \(\d+\.\ds\)\n", a.stdout)

    def test_train_writes_default_architecture(self, tmp_path):
        # the flow the default config builds: five blocks of four values
        cfgfile = tmp_path / "tiny.cfg"
        cfgfile.write_text(TINY_CONFIG)
        model = tmp_path / "model.flow"
        with pytest.warns(UserWarning):     # tiny n_threshold triggers the warning
            assert cli.main(["train", "--config", str(cfgfile), "--out", str(model)]) == 0
        header = b"DSCFLOW2" + struct.pack("<I", 5)
        data = model.read_bytes()
        assert data[:len(header)] == header
        assert len(data) == len(header) + 8 * (2 + 20)     # the standardizer, then theta

    def test_train_then_eval(self, tmp_path):
        cfgfile = tmp_path / "tiny.cfg"
        cfgfile.write_text(TINY_CONFIG)
        model = tmp_path / "model.flow"
        res = run_cli(["train", "--config", str(cfgfile), "--out", str(model)],
                      tmp_path)
        assert res.returncode == 0, res.stderr
        assert model.exists()
        res = run_cli(["eval", "--config", str(cfgfile), "--model", str(model)],
                      tmp_path)
        assert res.returncode == 0, res.stderr
        assert "FAR" in res.stdout and "MDR" in res.stdout

    def test_eval_rejects_corrupt_standardizer(self, tmp_path, capsys):
        cfgfile = tmp_path / "tiny.cfg"
        cfgfile.write_text(TINY_CONFIG)
        model = tmp_path / "bad.flow"
        # five identity blocks behind a standardizer of deviation 0
        model.write_bytes(b"DSCFLOW2" + struct.pack("<I2d", 5, 0.0, 0.0)
                          + np.zeros(20).astype("<f8").tobytes())
        assert cli.main(["eval", "--config", str(cfgfile), "--model", str(model)]) == 1
        captured = capsys.readouterr()
        assert f"error: {model}: corrupt standardizer" in captured.err
        assert captured.out == ""

    def test_eval_rejects_multidimensional_model(self, tmp_path):
        cfgfile = tmp_path / "tiny.cfg"
        cfgfile.write_text(TINY_CONFIG)
        model = tmp_path / "dim2.flow"
        # the header and standardizer of a two-dimensional flow with one
        # 8-wide network layer per block, in the DSCFLOW1 layout that
        # carried a dimension; its body is never read
        model.write_bytes(b"DSCFLOW1" + struct.pack("<IIIBI", 2, 2, 1, 0, 8)
                          + np.zeros(4).astype("<f8").tobytes())
        res = run_cli(["eval", "--config", str(cfgfile), "--model", str(model)], tmp_path)
        assert res.returncode == 1
        assert "error:" in res.stderr and "not a serialized flow model" in res.stderr
