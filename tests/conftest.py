"""Shared fixtures: tiny spaces, synthetic grid tables, stub model service."""

from __future__ import annotations

import hashlib
import json
import random
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from raghpo.dataio import Dataset, Document, GridTable, QaPair
from raghpo.searchspace import ParamName, SearchSpace

STUB_VECTOR_DIM = 8


# ---------------------------------------------------------------------------
# Spaces
# ---------------------------------------------------------------------------


@pytest.fixture()
def default_space() -> SearchSpace:
    return SearchSpace.default()


@pytest.fixture()
def tiny_space() -> SearchSpace:
    """A 2^5 = 32 configuration space for fast exhaustive checks."""
    return SearchSpace(
        chunk_sizes=(4, 8),
        chunk_overlaps=(0.0, 0.5),
        embedding_models=("emb-a", "emb-b"),
        top_ks=(1, 2),
        generative_models=("gen-a", "gen-b"),
    )


# ---------------------------------------------------------------------------
# Synthetic grid tables
# ---------------------------------------------------------------------------


def fill_table(
    space: SearchSpace,
    score_fn,
    *,
    split_metrics: dict[str, tuple[str, ...]],
    qids: dict[str, tuple[str, ...]],
) -> GridTable:
    """Complete table with score_fn(ordinal, split, metric, qid) everywhere."""
    table = GridTable(space_fingerprint=space.fingerprint())
    for split, metrics in split_metrics.items():
        for metric in metrics:
            for ordinal in range(space.total_size):
                for qid in qids[split]:
                    table.add_score(
                        ordinal, split, metric, qid, score_fn(ordinal, split, metric, qid)
                    )
    return table


def is_complete(table: GridTable, metric: str, split: str, size: int) -> bool:
    """Whether every config in ``range(size)`` has a row for each qid seen for (split, metric)."""
    scores = table.slice(split, metric, size)
    return bool(scores.qids) and not np.isnan(scores.means).any()


def additive_utilities(space: SearchSpace, rng: random.Random) -> dict[ParamName, list[float]]:
    """Independent per-value utilities in [0, 1] for a separable objective."""
    return {
        p: [rng.random() for _ in space.values_of(p)] for p in ParamName
    }


def additive_scores(space: SearchSpace, utils: dict[ParamName, list[float]]) -> list[float]:
    """Per-ordinal separable score: mean of the five per-value utilities."""
    scores = []
    for ordinal in range(space.total_size):
        config = space.config_at(ordinal)
        total = 0.0
        for param in ParamName:
            values = space.values_of(param)
            total += utils[param][values.index(config.value_of(param))]
        scores.append(total / len(ParamName))
    return scores


def argmax_config(space: SearchSpace, scores: list[float]):
    best = max(range(len(scores)), key=lambda i: (scores[i], -i))
    return space.config_at(best)


def table_from_config_scores(
    space: SearchSpace,
    dev_scores: list[float],
    *,
    test_scores: list[float] | None = None,
    mrr_scores: list[float] | None = None,
    metric: str = "lexical_ac",
    dev_qids: tuple[str, ...] = ("q0", "q1"),
    test_qids: tuple[str, ...] = ("t0",),
) -> GridTable:
    """Table whose per-config means equal the given per-ordinal scores.

    Every question of a config gets the config's score, so the question mean
    is exactly that score. ``mrr_scores`` adds a context_mrr slice on dev.
    """
    test_scores = dev_scores if test_scores is None else test_scores
    table = GridTable(space_fingerprint=space.fingerprint())
    for ordinal in range(space.total_size):
        for qid in dev_qids:
            table.add_score(ordinal, "dev", metric, qid, dev_scores[ordinal])
        for qid in test_qids:
            table.add_score(ordinal, "test", metric, qid, test_scores[ordinal])
        if mrr_scores is not None:
            for qid in dev_qids:
                table.add_score(ordinal, "dev", "context_mrr", qid, mrr_scores[ordinal])
    return table


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


def make_document(doc_id: str, n_tokens: int, word: str = "tok") -> Document:
    return Document(doc_id=doc_id, text=" ".join(f"{word}{i}" for i in range(n_tokens)))


@pytest.fixture()
def tiny_dataset() -> Dataset:
    """5 documents, 4 dev questions, 2 test questions; gold labels everywhere."""
    corpus = tuple(make_document(f"d{i}", 12) for i in range(5))
    dev = tuple(
        QaPair(
            qid=f"q{i}",
            question=f"what is in document {i}",
            gold_answer=f"tok{i} tok{i + 1}",
            gold_doc_ids=(f"d{i}",),
        )
        for i in range(4)
    )
    test = tuple(
        QaPair(
            qid=f"t{i}",
            question=f"test question {i}",
            gold_answer=f"tok{i + 2}",
            gold_doc_ids=(f"d{i}",),
        )
        for i in range(2)
    )
    dataset = Dataset(corpus=corpus, dev=dev, test=test, name="tiny")
    dataset.validate()
    return dataset


# ---------------------------------------------------------------------------
# Stub model service (loopback only)
# ---------------------------------------------------------------------------


def stub_vector(text: str, dim: int = STUB_VECTOR_DIM) -> list[float]:
    """Deterministic pseudo-embedding derived from the text's hash."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return [digest[i] / 255.0 * 2.0 - 1.0 for i in range(dim)]


def stub_generation_tokens(prompt: str) -> tuple[int, int]:
    """Declared token counts, deliberately unequal to any local estimate."""
    return 1000 + len(prompt.split()), 77


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802 (http.server API)
        server = self.server
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        server.received.setdefault(self.path, []).append((self.headers, raw))
        payload = json.loads(raw or b"{}")
        remaining, status = server.fail_counts.get(self.path, (0, 500))
        if remaining > 0:
            server.fail_counts[self.path] = (remaining - 1, status)
            self.send_response(status)
            self.end_headers()
            return
        server.calls.setdefault(self.path, []).append(payload)
        override = server.overrides.get(self.path)
        reply = override(payload) if override is not None else None
        if reply is None:
            reply = self._normal_reply(payload)
        if reply is None:
            self._send(404, f"no route {self.path}".encode("utf-8"))
            return
        self._send(200, reply if isinstance(reply, bytes) else json.dumps(reply).encode("utf-8"))

    def _send(self, status: int, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _normal_reply(self, payload: dict) -> dict | None:
        if self.path == "/embed":
            texts = payload["texts"]
            return {
                "vectors": [stub_vector(t) for t in texts],
                "token_counts": [len(t.split()) for t in texts],
            }
        if self.path == "/generate":
            prompt = payload["prompt"]
            input_tokens, output_tokens = stub_generation_tokens(prompt)
            reply = {"text": "echo: " + prompt[-48:]}
            if not self.server.omit_token_counts:
                reply["input_tokens"] = input_tokens
                reply["output_tokens"] = output_tokens
            return reply
        if self.path == "/judge":
            return {"score": 0.5}
        return None

    def log_message(self, *args):  # silence per-request noise
        pass


class StubService:
    def __init__(self):
        self.server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
        self.server.fail_counts = {}
        self.server.calls = {}
        self.server.received = {}
        self.server.omit_token_counts = False
        self.server.overrides = {}
        self._thread = threading.Thread(
            target=lambda: self.server.serve_forever(poll_interval=0.01), daemon=True
        )
        self._thread.start()

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.server.server_address[1]}"

    def calls(self, route: str) -> list[dict]:
        return self.server.calls.get(route, [])

    def received(self, route: str) -> list[tuple]:
        """(headers, raw body) of every request to ``route``, failed ones included."""
        return self.server.received.get(route, [])

    def fail_next(self, route: str, count: int, status: int = 500) -> None:
        """Answer the next ``count`` requests to ``route`` with ``status`` and no body."""
        self.server.fail_counts[route] = (count, status)

    def set_omit_token_counts(self, omit: bool) -> None:
        self.server.omit_token_counts = omit

    def override(self, route: str, reply) -> None:
        """Answer ``route`` with HTTP 200 and ``reply(payload)``.

        Bytes are sent as the body unchanged, other values as JSON (NaN
        included); ``None`` falls back to the normal reply.
        """
        self.server.overrides[route] = reply

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture()
def stub_service():
    service = StubService()
    yield service
    service.close()
