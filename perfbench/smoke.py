"""Smoke check of the benchmark itself. Run from a checkout's root:

    python3 perfbench/smoke.py

It shows that the output checks catch a planted wrong replay score, an
embedding cache that ignores the model and an evaluation cache that ignores
the answering settings, and that every count and ratio the traced run
reports repeats exactly between two runs of the same seed. Exit code 0
means every expectation held; takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from run import EXPECTED, Job, measure

ROOT = Path.cwd()
EXACT_UNITS = ("count", "ratio")


def _measure(job: Job, name: str):
    work = ROOT / ".perfbench_work" / f"smoke-{name}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return measure(job, ROOT, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    exact = [m["name"] for m in declared if m["unit"] in EXACT_UNITS]
    ok = True

    def expect(condition: bool, what: str) -> None:
        nonlocal ok
        ok &= condition
        print(f"{'PASS' if condition else 'FAIL'}: {what}", flush=True)

    live_seed = EXPECTED["live-tune"]["seed"]
    for workload, fault, seed in (
        ("replay", "wrong-score", 3),
        ("grid-retrieval", "model-blind-embed-cache", 3),
        ("live-tune", "answer-blind-eval-cache", live_seed),
    ):
        _, verdict, _ = _measure(Job(workload, seed, 0, False, fault), f"{workload}-fault")
        expect(verdict.ops_failed > 0, f"{workload}: planted {fault} is caught "
                                       f"({verdict.ops_failed} of {verdict.ops_total} rows fail)")

    for workload in ("replay", "grid-retrieval", "live-tune"):
        first, second = (_measure(Job(workload, 2, 0, True), f"{workload}-{i}") for i in (1, 2))
        expect(first[1].ops_failed == 0 and second[1].ops_failed == 0,
               f"{workload}: unchanged code passes every output check")
        differ = [n for n in exact if first[0][n] != second[0][n]]
        expect(not differ, f"{workload}: counts and ratios repeat exactly"
                           + (f" (differ: {differ})" if differ else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
