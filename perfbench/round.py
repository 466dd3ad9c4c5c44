"""One timed round of a workload, in a fresh process.

Usage: ``python3 round.py --workload NAME --inputs DIR --out DIR --result FILE
[--port N] [--trace SPANS_FILE]``, with raghpo importable (``PYTHONPATH=src``).

The round warms up on the small inputs, then times the workload's CLI
commands on the full inputs, calling ``raghpo.cli.main`` in-process one
command after another, as a user would type them. A fresh process per round
means no in-process state carries over from one round to the next. With
``--trace`` the timed commands run under the span tracer, the result also
holds the per-layer figures, and the spans are written to ``SPANS_FILE``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import urllib.request
from pathlib import Path
from time import perf_counter

import raghpo.cli

from inputs import WORKLOADS
from stub import ROUTES

_NO_PROXY = urllib.request.build_opener(urllib.request.ProxyHandler({}))


def stub_stats(port: int | None) -> dict:
    if port is None:
        return {field: dict.fromkeys(ROUTES, 0) for field in ("requests", "tokens", "busy_s")}
    with _NO_PROXY.open(f"http://127.0.0.1:{port}/stats", timeout=30) as reply:
        return json.loads(reply.read())


def _delta(after: dict, before: dict) -> dict:
    return {
        field: {route: v - before[field].get(route, 0) for route, v in values.items()}
        for field, values in after.items()
    }


def cli(*argv) -> None:
    """Run one raghpo command in-process; its report goes nowhere."""
    argv = [str(a) for a in argv]
    with contextlib.redirect_stdout(io.StringIO()):
        code = raghpo.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"raghpo {' '.join(argv)} exited with {code}")


def commands(workload: str, inputs: Path, out: Path, warm: bool) -> list[list]:
    """The CLI commands of one pass, on the small inputs when ``warm``."""
    size = WORKLOADS[workload]
    if workload == "replay":
        table = inputs / ("warm_grid.jsonl" if warm else "grid.jsonl")
        budget, seeds = (2, 1) if warm else (size["budget"], size["seeds"])
        runs = [
            ["optimize", "--grid", table, "--algo", algo, "--budget", budget,
             "--seeds", seeds, "--objective", size["objective"],
             "--out", out / f"run_{algo}.jsonl"]
            for algo in size["algorithms"]
        ]
        return runs + [
            ["analyze", "--table", table, "--run", out / f"run_{size['analyze_run']}.jsonl",
             "--metric", size["objective"], "--split", "dev", "--out", out / "analysis"]
        ]
    dataset = inputs / ("warm_dataset" if warm else "dataset")
    config = inputs / "config.json"
    if workload == "live-tune":
        budget, seeds = (2, 1) if warm else (size["budget"], size["seeds"])
        return [
            ["optimize", "--config", config, "--dataset", dataset, "--algo", algo,
             "--budget", budget, "--seeds", seeds, "--objective", size["objective"],
             "--parallelism", size["parallelism"], "--out", out / f"run_{algo}.jsonl"]
            for algo in size["algorithms"]
        ]
    space = ["--space", inputs / "warm_space.json"] if warm else []
    return [
        ["grid", "--config", config, "--dataset", dataset, *space, "--metrics", "context_mrr",
         "--parallelism", size["parallelism"], "--out", out / "grid.jsonl"]
    ]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--port", type=int)
    parser.add_argument("--trace", type=Path, help="trace, writing the spans to this file")
    parser.add_argument("--fault", help="plant a fault from faults.py (smoke check only)")
    args = parser.parse_args()

    warm_out = args.out / "warm"
    for argv in commands(args.workload, args.inputs, warm_out, warm=True):
        cli(*argv)

    if args.fault:
        import faults

        faults.plant(args.fault)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    timed = commands(args.workload, args.inputs, args.out, warm=False)
    before = stub_stats(args.port)
    start = perf_counter()
    for argv in timed:
        cli(*argv)
    run_s = perf_counter() - start
    service = _delta(stub_stats(args.port), before)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"run_s": run_s, "peak_rss_mb": peak_kb / 1024.0, "service": service}
    if tracer is not None:
        tracer.restore()
        tracer.write(args.trace)
        result["layers"] = tracing.layer_metrics(tracer, service)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
