"""raghpo benchmark: three workloads through ``raghpo.cli.main``, checked and timed.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {replay,live-tune,grid-retrieval}
        --seed N --seconds S --trace {0,1}

The run runs timed rounds, each in a fresh process with a fixed, minimal
environment, until ``S`` seconds have passed. Before each round it sets up
the workload's inputs from the seed and starts the stub, three times;
``setup_s`` is the median over all set-ups. It reports
medians over rounds, checks the last round's outputs against oracles that
do not use raghpo code, and prints one JSON object as its last line. With
``--trace 1`` one more round runs under the span tracer and the per-layer
figures are reported instead of the end-to-end ones; its spans are kept in
``.perfbench_work/spans-<workload>.jsonl``. The exit code is 0 only when
every output check passes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import inputs
from inputs import WARM_DATASET, WARM_QIDS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
SETUPS_PER_ROUND = 3
# Rounds must end by then, leaving time for the checks within 180 s.
DEADLINE_S = 160.0
# Seed whose live-tune trajectory digest is recorded in expected.json.
EXPECTED = json.loads((BENCH_DIR / "expected.json").read_text(encoding="utf-8"))


class BenchError(RuntimeError):
    """The benchmark could not run to the point of checking outputs."""


@dataclass(frozen=True)
class Job:
    workload: str
    seed: int
    seconds: float
    trace: bool
    # A fault planted in every round (see faults.py); only the smoke check sets it.
    fault: str | None = None


def child_env(root: Path, home: Path) -> dict[str, str]:
    """The fixed, minimal environment of every process the benchmark starts.

    No proxy variables (``requests`` scans the environment for them on every
    call), one BLAS thread, fixed string hashing.
    """
    return {
        "PATH": "/usr/bin:/bin",
        "HOME": str(home),
        "LANG": "C.UTF-8",
        "LC_ALL": "C.UTF-8",
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": str(root / "src"),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }


class Stub:
    """The loopback model service, in its own process."""

    def __init__(self, env: dict[str, str], cwd: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "stub.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=cwd, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise BenchError("stub service did not start")
        self.port = int(line.split()[1])

    def close(self) -> None:
        """Stop the service by closing its stdin, and wait for it to exit."""
        try:
            self.proc.communicate(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def setup(workload: str, seed: int, root: Path, work: Path) -> tuple[dict, Stub | None]:
    """Generate and write the inputs, start the stub when the workload needs one."""
    work.mkdir(parents=True)
    size = WORKLOADS[workload]
    if workload == "replay":
        scores = inputs.make_scores(seed, size["qids"])
        fingerprint = inputs.stock_fingerprint()
        inputs.write_grid(scores, fingerprint, work / "grid.jsonl")
        inputs.write_grid(inputs.make_scores(seed, WARM_QIDS), fingerprint,
                          work / "warm_grid.jsonl")
        return {"scores": scores}, None
    data = inputs.make_dataset(seed, size["docs"], size["doc_tokens"], size["dev"], size["test"])
    inputs.write_dataset(data, work / "dataset")
    inputs.write_dataset(inputs.make_dataset(seed, *WARM_DATASET), work / "warm_dataset")
    space = inputs.stock_space_json()
    for key in ("chunk_size", "chunk_overlap", "embedding_model", "generative_model"):
        space[key] = space[key][:1]
    _write_json(work / "warm_space.json", space)
    stub = Stub(child_env(root, work), work)
    endpoint = {"base_url": f"http://127.0.0.1:{stub.port}", "timeout": 60,
                "max_attempts": 3, "backoff_seconds": 0.05}
    _write_json(work / "config.json",
                {"endpoints": {"embed": endpoint, "generate": endpoint}, "embed_batch_size": 32})
    return {"data": data}, stub


def run_round(job: Job, root: Path, work: Path, stub: Stub | None, index: int, trace: bool,
              deadline: float) -> dict:
    out = work / f"round{index}"
    out.mkdir()
    result = out.parent / f"round{index}.json"
    cmd = [sys.executable, str(BENCH_DIR / "round.py"), "--workload", job.workload,
           "--inputs", str(work / "inputs"), "--out", str(out), "--result", str(result)]
    if stub is not None:
        cmd += ["--port", str(stub.port)]
    if trace:
        cmd += ["--trace", str(work.parent / f"spans-{job.workload}.jsonl")]
    if job.fault:
        cmd += ["--fault", job.fault]
    try:
        proc = subprocess.run(cmd, env=child_env(root, out), cwd=out, stdout=subprocess.DEVNULL,
                              timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"round {index} did not finish before the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"round {index} exited with {proc.returncode}")
    payload = json.loads(result.read_text(encoding="utf-8"))
    payload["digest"] = outputs_digest(out)
    return payload


def outputs_digest(out: Path) -> str:
    """SHA-256 over every file a round's timed commands wrote."""
    digest = hashlib.sha256()
    for path in sorted(out.rglob("*")):
        if path.is_file() and "warm" not in path.relative_to(out).parts:
            digest.update(str(path.relative_to(out)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def check(workload: str, seed: int, oracle: dict, out: Path) -> checks.Verdict:
    if workload == "replay":
        return checks.check_replay(oracle["scores"], out)
    if workload == "grid-retrieval":
        return checks.check_grid(oracle["data"], out)
    recorded = EXPECTED["live-tune"]
    digest = recorded["trajectory_sha256"] if seed == recorded["seed"] else None
    return checks.check_live(oracle["data"], out, digest)


def measure(job: Job, root: Path, work: Path) -> tuple[dict, checks.Verdict, dict]:
    """Set up, run the timed (and traced) rounds, check the outputs, reduce the figures."""
    deadline = perf_counter() + DEADLINE_S
    setup_s, rounds, traced, stub = [], [], None, None
    start = perf_counter()
    try:
        while True:
            timed = not rounds or perf_counter() - start < job.seconds
            if not timed and (traced or not job.trace):
                break
            # Set-ups are spread over the run, a few before each round, so
            # their median does not hang on one moment's machine speed. Only
            # the last copy is kept; earlier ones are deleted at once, so the
            # kernel need not write them back during the round.
            for _ in range(SETUPS_PER_ROUND):
                if stub is not None:
                    stub.close()
                shutil.rmtree(work / "inputs", ignore_errors=True)
                t0 = perf_counter()
                oracle, stub = setup(job.workload, job.seed, root, work / "inputs")
                setup_s.append(perf_counter() - t0)
            result = run_round(job, root, work, stub, len(rounds), not timed, deadline)
            if timed:
                rounds.append(result)
            else:
                traced = result
    finally:
        if stub is not None:
            stub.close()

    verdict = check(job.workload, job.seed, oracle, work / f"round{len(rounds) - 1}")

    def counts(r: dict) -> tuple:
        return r["digest"], r["service"]["requests"], r["service"]["tokens"]

    if any(counts(r) != counts(rounds[0]) for r in rounds[1:] + ([traced] if traced else [])):
        verdict.fail(1, "two rounds on the same inputs wrote different outputs or counts")
    service = rounds[0]["service"]
    if traced:
        metrics = dict(traced["layers"])
        metrics["service_calls"] = sum(service["requests"].values())
        metrics["service_tokens"] = sum(service["tokens"].values())
        metrics["trace.overhead_s"] = traced["run_s"] - statistics.median(
            r["run_s"] for r in rounds)
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "run_s": statistics.median(r["run_s"] for r in rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
            "ops_total": verdict.ops_total,
        }
    info = {"rounds": len(rounds), "round_run_s": [round(r["run_s"], 4) for r in rounds],
            "setup_s": [round(s, 4) for s in setup_s]}
    return metrics, verdict, info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    # Turn a termination request into an exit, so the finally blocks stop
    # the stub and the running round.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "raghpo").is_dir():
        print(f"error: no raghpo sources under {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    units = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = units["per_layer" if args.trace else "end_to_end"]

    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        metrics, verdict, info = measure(
            Job(args.workload, args.seed, args.seconds, bool(args.trace)), root, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"python={platform.python_version()} numpy={np.__version__} nproc={os.cpu_count()} "
          f"rounds={info['rounds']} round_run_s={info['round_run_s']} setup_s={info['setup_s']}")
    for problem in verdict.problems:
        print(f"check failed: {problem}")
    for m in declared:
        print(f"{m['name']:40s} {metrics[m['name']]:>16.6g} {m['unit']}")
    result = {
        "correct": verdict.ops_failed == 0,
        "attempted": verdict.ops_total,
        "failed": verdict.ops_failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0 if verdict.ops_failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
