"""Write discodet's reference outputs for a byte-identity check.

    PYTHONPATH=src python3 tools/golden_outputs.py OUTDIR

Runs the three sweeps, the ``train`` command, ``eval`` of the model it
trained (``--model OUTDIR/detector.flow``) and the ``validate``
self-check suite on a tiny configuration with a fixed seed and writes
``sweep_power.csv``, ``sweep_elements.csv``, ``sweep_samples.csv``,
``detector.flow``, ``eval.csv`` (the threshold and the error rates with
their intervals) and ``validate.txt`` (the suite's report) to OUTDIR,
and fixed-seed draws of the channel generators to ``channel.txt``.
Run it on two checkouts (each with its own ``src`` on PYTHONPATH) and
compare; ``diff`` prints nothing when every file is byte-identical:

    diff -r OUT_A OUT_B

The configuration is the test suite's ``TINY_CONFIG``
(tests/test_harness.py): small Monte-Carlo sizes that still run every
detector variant, a surface and a surface-free point.  ``validate`` keeps
its own fixed Monte-Carlo sizes and takes only the scenario, the
detector settings and the root seed from it, so ``validate.txt`` is the
report of the suite at full size.

``channel.txt`` holds one labeled line per draw, in ``.17g``, from each
case of ``CHANNEL_CASES``: the warden's H1 statistic at -30 dBm through
the pattern kernel (2048 elements, N = 5) and through the per-element
kernel (2048 elements, N = 20, and 3 elements, N = 5), the receiver's
jamming powers on 2048 and on 3 elements, and ``cascaded_mc`` on 2048
elements (real and imaginary parts in turn).  The sweeps saturate their surface MDRs at 0, so a change to
the per-element kernel shows only there; the label of each line names
the kernel that drew it.

``detector.flow`` is the default flow: after the magic, the block count
and the standardizer come its 20 values, four per block.  A checkout
that writes the ``DSCFLOW1`` layout puts a 17-byte header where the
block count is, and one whose 1-D blocks still carried a network layer
wrote 1,300 values; compare such files by what follows the header, or
by their live values, not by whole bytes.
"""

from __future__ import annotations

import sys
import warnings
from pathlib import Path

import numpy as np

from discodet import channel, cli
from discodet.config import parse_config
from discodet.statkit import SeedStream

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
           "eval": "eval.csv", "validate": "validate.txt"}

# label -> draws from a fresh stream of that label, for a config
CHANNEL_CASES = {
    "willie-h1 N_D=2048 N=5 pattern": lambda gen, cfg: channel.gen_willie_statistics(
        gen, cfg.scenario(-30.0, n_elements=2048), "H1", 8, 5),
    "willie-h1 N_D=2048 N=20 element": lambda gen, cfg: channel.gen_willie_statistics(
        gen, cfg.scenario(-30.0, n_elements=2048), "H1", 8, 20),
    "willie-h1 N_D=3 N=5 element": lambda gen, cfg: channel.gen_willie_statistics(
        gen, cfg.scenario(-30.0, n_elements=3), "H1", 8, 5),
    "bob-jamming N_D=2048 pattern": lambda gen, cfg: channel.gen_bob_signals(
        gen, cfg.scenario(-30.0, n_elements=2048), 8)[1],
    "bob-jamming N_D=3 element": lambda gen, cfg: channel.gen_bob_signals(
        gen, cfg.scenario(-30.0, n_elements=3), 8)[1],
    "cascaded-mc N_D=2048 pattern": lambda gen, cfg: channel.cascaded_mc(
        gen, cfg.geometry(2048), cfg.fading(), cfg.profile(), 8).view(np.float64),
}


def channel_lines(cfg) -> str:
    seeds = SeedStream(cfg["seeds.root"])
    return "".join(f"{label} {value:.17g}\n" for label, draw in CHANNEL_CASES.items()
                   for value in draw(seeds.child(label), cfg))


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
            model = ["--model", str(out / OUTPUTS["train"])] if command == "eval" else []
            code = cli.main([command, "--config", str(cfg_path), "--out", str(out / name),
                             *model])
            if code != 0:
                print(f"{command} exited {code}", file=sys.stderr)
                return code
    (out / "channel.txt").write_text(channel_lines(parse_config(cfg_path)), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
