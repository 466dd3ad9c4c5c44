"""Synthetic benchmark inputs, derived only from the workload seed.

Nothing here imports raghpo: the files are written in the documented
on-disk formats (dataset directory, grid-table JSON lines), and the
closed-form helpers (stock space decoding, chunk spans) restate the
documented contracts so the output checks stay independent of the code
under test.
"""

from __future__ import annotations

import hashlib
import json
from math import floor
from pathlib import Path

import numpy as np

# The stock search space, in ordinal digit order (slowest first).
CHUNK_SIZES = (256, 384, 512)
CHUNK_OVERLAPS = (0.0, 0.25)
EMBEDDING_MODELS = (
    "multilingual-e5-large",
    "bge-large-en-v1.5",
    "granite-embedding-125M-english",
)
TOP_KS = (3, 5, 10)
GENERATIVE_MODELS = (
    "Llama-3.1-8B-Instruct",
    "Mistral-Nemo-Instruct-2407",
    "Granite-3.1-8B-instruct",
)
RADIX = (len(CHUNK_SIZES), len(CHUNK_OVERLAPS), len(EMBEDDING_MODELS), len(TOP_KS),
         len(GENERATIVE_MODELS))
SPACE_SIZE = int(np.prod(RADIX))
SPLITS = ("dev", "test")
METRICS = ("lexical_ac", "faithfulness", "context_mrr")

# Input sizes and CLI settings of each workload.
WORKLOADS = {
    "replay": {
        "qids": 200,
        "algorithms": ("random", "tpe", "greedy_m", "greedy_r", "greedy_rcc"),
        "seeds": 20,
        "budget": SPACE_SIZE,
        "objective": "lexical_ac",
        "analyze_run": "tpe",
    },
    "live-tune": {
        "docs": 150,
        "doc_tokens": 400,
        "dev": 6,
        "test": 6,
        "algorithms": ("greedy_m", "tpe"),
        "seeds": 8,
        "budget": 10,
        "objective": "lexical_ac,faithfulness",
        "parallelism": 2,
    },
    "grid-retrieval": {
        "docs": 400,
        "doc_tokens": 500,
        "dev": 16,
        "test": 16,
        "parallelism": 2,
    },
}
# Small inputs every round warms up on before its timed commands:
# (docs, tokens per doc, dev questions, test questions), and replay qids.
WARM_DATASET = (20, 400, 2, 2)
WARM_QIDS = 2


def decode(ordinal: int) -> tuple:
    """(chunk_size, chunk_overlap, embedding_model, top_k, generative_model) of an ordinal."""
    digits = []
    for size in reversed(RADIX):
        ordinal, digit = divmod(ordinal, size)
        digits.append(digit)
    d = digits[::-1]
    return (CHUNK_SIZES[d[0]], CHUNK_OVERLAPS[d[1]], EMBEDDING_MODELS[d[2]], TOP_KS[d[3]],
            GENERATIVE_MODELS[d[4]])


def config_dict(ordinal: int) -> dict:
    keys = ("chunk_size", "chunk_overlap", "embedding_model", "top_k", "generative_model")
    return dict(zip(keys, decode(ordinal)))


def chunk_spans(n_tokens: int, size: int, overlap: float) -> list[tuple[int, int]]:
    """(start, length) windows with stride size - floor(size * overlap); last one may be short."""
    stride = size - floor(size * overlap)
    spans = []
    start = 0
    while n_tokens:
        spans.append((start, min(size, n_tokens - start)))
        if start + size >= n_tokens:
            break
        start += stride
    return spans


def _dump(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Text datasets
# ---------------------------------------------------------------------------


def make_dataset(seed: int, n_docs: int, doc_tokens: int, n_dev: int, n_test: int) -> dict:
    """Corpus and questions whose gold documents share rare words with them.

    Each document mixes a Zipf-weighted common vocabulary with 30 topic
    words of its own; a question repeats topic words of one gold document,
    and its gold answer is a short span of that document.
    """
    rng = np.random.default_rng(seed)
    common = np.array([f"w{i}" for i in range(2000)])
    weights = 1.0 / (np.arange(len(common)) + 10.0)
    weights /= weights.sum()
    docs = []
    for d in range(n_docs):
        topics = np.array([f"t{d}x{j}" for j in range(30)])
        from_topic = rng.random(doc_tokens) < 0.3
        words = np.where(
            from_topic,
            topics[rng.integers(0, len(topics), doc_tokens)],
            common[rng.choice(len(common), doc_tokens, p=weights)],
        )
        docs.append({"doc_id": f"d{d:05d}", "tokens": words.tolist()})
    gold = rng.choice(n_docs, n_dev + n_test, replace=False)
    questions = []
    for i, d in enumerate(gold):
        tokens = docs[d]["tokens"]
        topic_tokens = [t for t in tokens if t.startswith("t")]
        picked = list(rng.choice(topic_tokens, 8)) + list(
            common[rng.choice(len(common), 6, p=weights)])
        rng.shuffle(picked)
        start = int(rng.integers(0, doc_tokens - 6))
        questions.append(
            {
                "qid": f"q{i:04d}",
                "question": " ".join(picked),
                "gold_answer": " ".join(tokens[start : start + 6]),
                "gold_doc_ids": [docs[d]["doc_id"]],
                "split": "dev" if i < n_dev else "test",
            }
        )
    return {
        "corpus": [{"doc_id": d["doc_id"], "text": " ".join(d["tokens"])} for d in docs],
        "questions": questions,
    }


def write_dataset(data: dict, root: Path) -> None:
    root.mkdir(parents=True, exist_ok=True)
    manifest = {"format_version": 1, "corpus_file": "corpus.jsonl",
                "benchmark_file": "benchmark.jsonl"}
    (root / "manifest.json").write_text(_dump(manifest) + "\n", encoding="utf-8")
    with (root / "corpus.jsonl").open("w", encoding="utf-8") as fh:
        fh.writelines(_dump(doc) + "\n" for doc in data["corpus"])
    with (root / "benchmark.jsonl").open("w", encoding="utf-8") as fh:
        fh.writelines(_dump(qa) + "\n" for qa in data["questions"])


# ---------------------------------------------------------------------------
# Grid tables
# ---------------------------------------------------------------------------


def make_scores(seed: int, n_qids: int) -> np.ndarray:
    """Score matrix [ordinal, split, metric, qid] in [0, 1].

    Per metric, a config's quality is a sum of per-value utilities plus one
    pairwise interaction; questions add their own difficulty and noise.
    """
    rng = np.random.default_rng(seed)
    digits = np.array([[int(x) for x in np.unravel_index(o, RADIX)] for o in range(SPACE_SIZE)])
    scores = np.empty((SPACE_SIZE, len(SPLITS), len(METRICS), n_qids))
    for m in range(len(METRICS)):
        utility = sum(rng.uniform(0.0, 0.12, size)[digits[:, p]] for p, size in enumerate(RADIX))
        interaction = rng.uniform(-0.05, 0.05, (RADIX[0], RADIX[2]))[digits[:, 0], digits[:, 2]]
        quality = 0.15 + utility + interaction
        for s in range(len(SPLITS)):
            difficulty = rng.normal(0.0, 0.15, n_qids)
            noise = rng.normal(0.0, 0.08, (SPACE_SIZE, n_qids))
            scores[:, s, m, :] = np.clip(quality[:, None] + difficulty[None, :] + noise, 0.0, 1.0)
    return scores


def write_grid(scores: np.ndarray, fingerprint: str, path: Path) -> None:
    """Write every score as one grid-table row, in (ordinal, split, metric, qid) order."""
    n_qids = scores.shape[3]
    qids = [f"q{i:04d}" for i in range(n_qids)]
    with path.open("w", encoding="utf-8") as fh:
        fh.write(_dump({"format_version": 1, "space_fingerprint": fingerprint}) + "\n")
        for o in range(SPACE_SIZE):
            for s, split in enumerate(SPLITS):
                for m, metric in enumerate(METRICS):
                    fh.writelines(
                        f'{{"metric":"{metric}","ordinal":{o},"qid":"{q}",'
                        f'"score":{v!r},"split":"{split}"}}\n'
                        for q, v in zip(qids, scores[o, s, m].tolist())
                    )


def stock_space_json() -> dict:
    return {
        "format_version": 1,
        "chunk_size": list(CHUNK_SIZES),
        "chunk_overlap": list(CHUNK_OVERLAPS),
        "embedding_model": list(EMBEDDING_MODELS),
        "top_k": list(TOP_KS),
        "generative_model": list(GENERATIVE_MODELS),
    }


def stock_fingerprint() -> str:
    """SHA-256 of the canonical space JSON, as grid-table headers record it."""
    canonical = json.dumps(stock_space_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
