"""Output checks that need no reference run and hold for any workload seed.

Each check reads the files a round wrote and recomputes what they must
contain from the benchmark's own inputs, with numpy and the closed-form
helpers in :mod:`inputs`; nothing here imports raghpo. A check returns how
many result rows the workload had to produce and how many of them are
missing or wrong.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from inputs import METRICS, SPACE_SIZE, SPLITS, TOP_KS, WORKLOADS, chunk_spans, config_dict, \
    decode, stock_fingerprint
from stub import Vectorizer

TOLERANCE = 1e-12


@dataclass
class Verdict:
    ops_total: int = 0
    ops_failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.ops_failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)


def _close(value, expected: float) -> bool:
    return isinstance(value, (int, float)) and abs(value - expected) <= TOLERANCE


def _rows(path: Path) -> list[dict]:
    if not path.is_file():
        return []
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _trials_by_seed(path: Path) -> dict[int, list[dict]]:
    by_seed: dict[int, list[dict]] = {}
    for row in _rows(path):
        if row.get("kind") == "trial":
            by_seed.setdefault(row["seed"], []).append(row)
    return {s: sorted(rows, key=lambda r: r["iteration"]) for s, rows in by_seed.items()}


def _seed_rows(verdict: Verdict, by_seed: dict, seed: int, budget: int, label: str) -> list[dict]:
    rows = by_seed.get(seed, [])
    if [r["iteration"] for r in rows] != list(range(1, len(rows) + 1)) or len(rows) > budget:
        verdict.fail(budget, f"{label} seed {seed}: iterations are not 1..{budget}")
        return []
    if len(rows) < budget:
        verdict.fail(budget - len(rows), f"{label} seed {seed}: {budget - len(rows)} trials missing")
    return rows


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def check_replay(scores: np.ndarray, out: Path) -> Verdict:
    """Every trial's dev score, best-so-far and test-of-best equal numpy's per-config means."""
    size = WORKLOADS["replay"]
    means = scores.mean(axis=3)
    obj = METRICS.index(size["objective"])
    mrr = METRICS.index("context_mrr")
    dev, test = SPLITS.index("dev"), SPLITS.index("test")
    budget, seeds = size["budget"], size["seeds"]
    verdict = Verdict()
    test_of_best: dict[int, list[float]] = {}
    for algo in size["algorithms"]:
        by_seed = _trials_by_seed(out / f"run_{algo}.jsonl")
        for seed in range(1, seeds + 1):
            verdict.ops_total += budget
            best = best_ordinal = None
            seen: set[int] = set()
            for row in _seed_rows(verdict, by_seed, seed, budget, algo):
                o = row["ordinal"]
                where = f"{algo} seed {seed} iteration {row['iteration']}"
                if not 0 <= o < SPACE_SIZE or o in seen:
                    verdict.fail(1, f"{where}: ordinal {o} out of range or repeated")
                    continue
                seen.add(o)
                score = means[o, dev, obj]
                if best is None or score > best:
                    best, best_ordinal = score, o
                retrieval_ok = (
                    _close(row["retrieval_score"], means[o, dev, mrr])
                    if row["driver"] == "context_mrr"
                    else row["retrieval_score"] is None
                )
                if not (
                    _close(row["objective_score"], score)
                    and retrieval_ok
                    and row["best_ordinal"] == best_ordinal
                    and _close(row["best_dev"], best)
                    and _close(row["test_of_best"], means[best_ordinal, test, obj])
                ):
                    verdict.fail(1, f"{where}: scores differ from the score matrix")
                if algo == size["analyze_run"]:
                    test_of_best.setdefault(row["iteration"], []).append(
                        means[best_ordinal, test, obj])

    analysis = out / "analysis"
    dev_means = means[:, dev, obj]
    verdict.ops_total += 2
    try:
        extremes = json.loads((analysis / "extremes.json").read_text(encoding="utf-8"))
        worst, best = int(np.argmin(dev_means)), int(np.argmax(dev_means))
        ok = (
            extremes["worst"]["config"] == config_dict(worst)
            and _close(extremes["worst"]["score"], dev_means[worst])
            and extremes["best"]["config"] == config_dict(best)
            and _close(extremes["best"]["score"], dev_means[best])
        )
    except (OSError, KeyError, ValueError):
        ok = False
    if not ok:
        verdict.fail(1, "analysis/extremes.json differs from the score matrix's argmin/argmax")
    series = _rows(analysis / "convergence.jsonl")
    ok = len(series) == budget and all(
        p["iteration"] == i and p["n"] == seeds
        and _close(p["mean_test"], float(np.mean(test_of_best.get(i, [np.nan]))))
        and _close(p["grid_max"], dev_means.max())
        for i, p in enumerate(series, start=1)
    )
    if not ok:
        verdict.fail(1, "analysis/convergence.jsonl differs from the recomputed series")
    return verdict


# ---------------------------------------------------------------------------
# grid-retrieval
# ---------------------------------------------------------------------------


def _chunks(data: dict, chunk_size: int, overlap: float) -> tuple[list[str], list[str], int]:
    """Chunk texts, their source doc ids, and the embedded-token total, in chunk_id order."""
    texts, sources, tokens = [], [], 0
    for doc in data["corpus"]:
        words = doc["text"].split()
        for start, length in chunk_spans(len(words), chunk_size, overlap):
            texts.append(" ".join(words[start : start + length]))
            sources.append(doc["doc_id"])
            tokens += length
    return texts, sources, tokens


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return matrix / norms


def expected_mrr(data: dict) -> tuple[dict, dict]:
    """Brute-force context_mrr per (ordinal, split, qid) and embedded tokens per ordinal.

    Ranks chunks by (-cosine, chunk_id) with the stub's own vector function;
    chunk_id order is corpus order, then chunk position.
    """
    vectorizer = Vectorizer()
    questions = data["questions"]
    mrr: dict[tuple[int, str, str], float] = {}
    embedded: dict[int, int] = {}
    by_index: dict[tuple, dict] = {}
    for o in range(SPACE_SIZE):
        chunk_size, overlap, model, top_k, _ = decode(o)
        key = (chunk_size, overlap, model)
        if key not in by_index:
            texts, sources, tokens = _chunks(data, chunk_size, overlap)
            unit = _unit_rows(np.array([vectorizer.vector(model, t) for t in texts]))
            ranked = {}
            for qa in questions:
                query = vectorizer.vector(model, qa["question"])
                norm = np.linalg.norm(query)
                if norm > 0.0:
                    query = query / norm
                sims = unit @ query
                order = np.lexsort((np.arange(len(texts)), -sims))
                gold = set(qa["gold_doc_ids"])
                hits = [r for r, i in enumerate(order[: max(TOP_KS)], 1) if sources[i] in gold]
                ranked[qa["qid"]] = hits[0] if hits else None
            by_index[key] = {"ranked": ranked, "tokens": tokens}
        entry = by_index[key]
        embedded[o] = entry["tokens"]
        for qa in questions:
            rank = entry["ranked"][qa["qid"]]
            mrr[(o, qa["split"], qa["qid"])] = 1.0 / rank if rank and rank <= top_k else 0.0
    return mrr, embedded


def check_grid(data: dict, out: Path) -> Verdict:
    """Every written context_mrr and index cost equals the brute-force oracle."""
    verdict = Verdict(ops_total=SPACE_SIZE * len(SPLITS))
    rows = _rows(out / "grid.jsonl")
    if not rows or rows[0].get("space_fingerprint") != stock_fingerprint():
        verdict.fail(verdict.ops_total, "grid table missing or its header is wrong")
        return verdict
    scores: dict[tuple[int, str], dict[str, float]] = {}
    costs: dict[tuple[int, str], int] = {}
    for row in rows[1:]:
        cell = (row["ordinal"], row["split"])
        if row.get("kind") == "cost":
            costs[cell] = row["embedded_tokens"]
        elif row["metric"] == "context_mrr":
            scores.setdefault(cell, {})[row["qid"]] = row["score"]
    mrr, embedded = expected_mrr(data)
    qids = {split: [qa["qid"] for qa in data["questions"] if qa["split"] == split]
            for split in SPLITS}
    for o in range(SPACE_SIZE):
        for split in SPLITS:
            got = scores.get((o, split), {})
            want = {q: mrr[(o, split, q)] for q in qids[split]}
            if got != want or costs.get((o, split)) != embedded[o]:
                verdict.fail(1, f"cell (ordinal {o}, {split}) differs from the brute-force oracle")
    return verdict


# ---------------------------------------------------------------------------
# live-tune
# ---------------------------------------------------------------------------


def trajectory_digest(out: Path) -> str:
    """SHA-256 over ordinals, scores, test-of-best and accounted tokens of every trial."""
    size = WORKLOADS["live-tune"]
    rows = []
    for algo in size["algorithms"]:
        for seed, trials in sorted(_trials_by_seed(out / f"run_{algo}.jsonl").items()):
            for r in trials:
                rows.append([
                    algo, seed, r["iteration"], r["ordinal"], round(r["objective_score"], 10),
                    None if r["test_of_best"] is None else round(r["test_of_best"], 10),
                    r["cum_embedded_tokens"], r["cum_generation_input_tokens"],
                    r["cum_generation_output_tokens"],
                ])
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()


def check_live(data: dict, out: Path, expected_digest: str | None) -> Verdict:
    """Scores agree across seeds and algorithms, best-dev is monotone, ledgers add up."""
    size = WORKLOADS["live-tune"]
    budget = size["budget"]
    verdict = Verdict()
    doc_tokens = [len(doc["text"].split()) for doc in data["corpus"]]
    index_tokens: dict[tuple, int] = {}
    dev_score: dict[int, float] = {}
    test_score: dict[int, float] = {}
    for algo in size["algorithms"]:
        by_seed = _trials_by_seed(out / f"run_{algo}.jsonl")
        for seed in range(1, size["seeds"] + 1):
            verdict.ops_total += budget
            best = None
            charged: set[tuple] = set()
            cum = [0, 0, 0]
            for row in _seed_rows(verdict, by_seed, seed, budget, algo):
                where = f"{algo} seed {seed} iteration {row['iteration']}"
                o, score = row["ordinal"], row["objective_score"]
                index = decode(o)[:3]
                if index not in index_tokens:
                    index_tokens[index] = sum(
                        length for n in doc_tokens for _, length in chunk_spans(n, *index[:2]))
                cost = row["cost"]
                if index not in charged:
                    charged.add(index)
                    cum[0] += cost["embedded_tokens"]
                cum[1] += cost["generation_input_tokens"]
                cum[2] += cost["generation_output_tokens"]
                if best is None or score > best:
                    best = score
                consistent = (
                    dev_score.setdefault(o, score) == score
                    and test_score.setdefault(row["best_ordinal"], row["test_of_best"])
                    == row["test_of_best"]
                )
                if not (
                    consistent
                    and row["best_dev"] == best
                    and cost["embedded_tokens"] == index_tokens[index]
                    and cum == [row["cum_embedded_tokens"], row["cum_generation_input_tokens"],
                                row["cum_generation_output_tokens"]]
                ):
                    verdict.fail(1, f"{where}: score, best-dev or ledger inconsistent")
    if expected_digest is not None and trajectory_digest(out) != expected_digest:
        verdict.fail(1, "trajectory digest differs from the one recorded for this seed")
    return verdict
