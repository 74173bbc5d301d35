"""Write discodet's reference outputs for a byte-identity check.

    PYTHONPATH=src python3 tools/golden_outputs.py OUTDIR

Runs the three sweeps, the ``train`` command and the ``validate``
self-check suite on a tiny configuration with a fixed seed and writes
``sweep_power.csv``, ``sweep_elements.csv``, ``sweep_samples.csv``,
``detector.flow`` and ``validate.txt`` (the suite's report) to OUTDIR.
Run it on two checkouts (each with its own ``src`` on PYTHONPATH) and
compare; ``diff`` prints nothing when every file is byte-identical:

    diff -r OUT_A OUT_B

The configuration is the test suite's ``TINY_CONFIG``
(tests/test_harness.py): small Monte-Carlo sizes that still run every
detector variant, a surface and a surface-free point.  ``validate`` keeps
its own fixed Monte-Carlo sizes and takes only the scenario, the
detector settings and the root seed from it, so ``validate.txt`` is the
report of the suite at full size.

``detector.flow`` is the default flow: after the 17-byte header and the
standardizer come its 20 values, four per block.  A checkout whose 1-D
blocks still carried a network layer wrote 1,300 values there; compare
such a file by its live values, not by bytes.
"""

from __future__ import annotations

import sys
import warnings
from pathlib import Path

from discodet import cli

TINY_CONFIG = """\
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

OUTPUTS = {"sweep-power": "sweep_power.csv", "sweep-elements": "sweep_elements.csv",
           "sweep-samples": "sweep_samples.csv", "train": "detector.flow",
           "validate": "validate.txt"}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "tiny.cfg"
    cfg_path.write_text(TINY_CONFIG, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # the tiny n_threshold warns
        for command, name in OUTPUTS.items():
            code = cli.main([command, "--config", str(cfg_path), "--out", str(out / name)])
            if code != 0:
                print(f"{command} exited {code}", file=sys.stderr)
                return code
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
