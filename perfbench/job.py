"""One benchmark job in a fresh process.

Sets discodet up (import, parse the generated config, build the
scenario), stamps the moment it is ready, runs one ``discodet`` CLI
command through ``discodet.cli.main`` and writes its timings as JSON.

    python3 perfbench/job.py --config C --result R.json [--trace T.jsonl] \
        [--setup-only] -- <discodet CLI arguments>

``ready_monotonic`` is CLOCK_MONOTONIC, which the parent compares with
its own clock read just before starting this process.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import discodet.cli
    from discodet.config import parse_config

    cfg = parse_config(args.config)
    cfg.scenario(cfg["sweep.fixed_p0_dbm"])
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    ready = time.monotonic()
    result = {"ready_monotonic": ready}

    if not args.setup_only:
        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        exit_code = discodet.cli.main(cli_args)
        wall = time.perf_counter() - t0
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
        result.update(exit_code=exit_code, wall_s=wall,
                      cpu_s=_cpu_s(usage1) - _cpu_s(usage0),
                      peak_rss_mb=usage1.ru_maxrss * 1024 / 1e6)
        if tracer is not None:
            tracer.dump(args.trace)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
