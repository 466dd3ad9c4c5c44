"""Live RAG pipeline backend: chunking, embedding, retrieval, generation.

The pipeline talks to external model services over a minimal two-endpoint
HTTP contract (plus an optional judge endpoint), keeping the engine
vendor-neutral:

* ``POST {base}/embed`` with ``{"model": str, "texts": [str]}`` returns
  ``{"vectors": [[float, ...], ...], "token_counts": [int, ...]}``
  (token_counts optional).
* ``POST {base}/generate`` with ``{"model": str, "prompt": str, "params":
  {"temperature": 0.0, "greedy": true}}`` returns ``{"text": str,
  "input_tokens": int, "output_tokens": int}`` (token fields optional; when
  absent a local whitespace estimate is used and flagged).
* ``POST {base}/judge`` with ``{"question", "answer", "gold_answer"}``
  returns ``{"score": float}`` in [0, 1].

Requests go out through the standard library's ``urllib.request``, which
honours ``*_proxy``/``no_proxy`` (read once per process) and verifies HTTPS
against the system trust store. A 5xx or 429 reply, a refused or dropped
connection and a timeout are retried with exponential backoff; any other
reply but 200 (a 307/308 redirect included) fails at once, as does a 200
whose body is not a JSON object. Every such failure is a
:class:`ServiceFailure`.

Generation requests always pin greedy decoding. Retrieval is an exact
cosine scan over an in-memory index rather than an approximate structure:
at the scale this engine targets, exact search is affordable and removes an
approximation confound. Chunk token spans are measured with a plain
whitespace tokenizer, since the engine cannot assume access to any
particular model's tokenizer.
"""

from __future__ import annotations

import hashlib
import http.client
import importlib.resources
import json
import logging
import os
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import floor
from typing import Iterable, Mapping, Sequence

import numpy as np

from .costs import CostDelta
from .dataio import SPLITS, Dataset, Document, GridKey, GridTable, ScoreSlice
from .evaluator import RETRIEVAL_OBJECTIVE, EvalResult, Objective, StoredScores
from .metrics import (
    CONTEXT_MRR,
    FAITHFULNESS,
    JUDGE_AC,
    LEXICAL_AC,
    METRIC_NAMES,
    RetrievedChunk,
    context_correctness_mrr,
    faithfulness_precision,
    lexical_answer_correctness,
    tokenize,
)
from .searchspace import IndexConfig, RagConfig, SearchSpace

log = logging.getLogger(__name__)

TEMPLATE_VERSION = 1


class ServiceFailure(RuntimeError):
    """A model service call failed after exhausting its retry budget."""


# ---------------------------------------------------------------------------
# Chunking
# ---------------------------------------------------------------------------


def whitespace_tokens(text: str) -> list[str]:
    """Token unit used for chunk spans and local token-count estimates."""
    return text.split()


def chunk_spans(n_tokens: int, chunk_size: int, chunk_overlap: float) -> list[tuple[int, int]]:
    """(start, length) spans of a sliding window over ``n_tokens`` tokens.

    Stride is ``chunk_size - floor(chunk_size * chunk_overlap)``. The final
    chunk is kept even when partial; emission stops once a chunk reaches the
    end of the document, so every token is covered exactly once by the
    non-overlapping remainder.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if not 0.0 <= chunk_overlap < 1.0:
        raise ValueError(f"chunk_overlap must be in [0, 1), got {chunk_overlap}")
    if n_tokens == 0:
        return []
    stride = chunk_size - floor(chunk_size * chunk_overlap)
    spans: list[tuple[int, int]] = []
    start = 0
    while True:
        spans.append((start, min(chunk_size, n_tokens - start)))
        if start + chunk_size >= n_tokens:
            break
        start += stride
    return spans


@dataclass(frozen=True)
class Chunk:
    """A contiguous token window of one document."""

    chunk_id: str
    source_doc_id: str
    token_start: int
    token_length: int
    text: str


def chunk_document(doc: Document, chunk_size: int, chunk_overlap: float) -> list[Chunk]:
    """Split one document into overlapping chunks of whitespace tokens."""
    tokens = whitespace_tokens(doc.text)
    chunks = []
    for i, (start, length) in enumerate(chunk_spans(len(tokens), chunk_size, chunk_overlap)):
        chunks.append(
            Chunk(
                chunk_id=f"{doc.doc_id}#{i:05d}",
                source_doc_id=doc.doc_id,
                token_start=start,
                token_length=length,
                text=" ".join(tokens[start : start + length]),
            )
        )
    return chunks


def chunk_corpus(
    corpus: Iterable[Document], chunk_size: int, chunk_overlap: float
) -> tuple[Chunk, ...]:
    """Every document's chunks, in corpus order."""
    return tuple(
        chunk
        for doc in corpus
        for chunk in chunk_document(doc, chunk_size, chunk_overlap)
    )


# ---------------------------------------------------------------------------
# Vector index
# ---------------------------------------------------------------------------


class VectorIndex:
    """Immutable in-memory index with exact cosine top-k search."""

    def __init__(self, chunks: Sequence[Chunk], vectors: np.ndarray):
        if len(chunks) != len(vectors):
            raise ValueError(
                f"chunk/vector count mismatch: {len(chunks)} vs {len(vectors)}"
            )
        self._chunks = tuple(chunks)
        matrix = np.asarray(vectors, dtype=np.float64)
        if matrix.ndim != 2 and len(self._chunks) > 0:
            raise ValueError("vectors must be a 2-D array")
        if not np.isfinite(matrix).all():
            raise ValueError("vectors must be finite")
        if len(self._chunks) == 0:
            matrix = matrix.reshape(0, 0)
        norms = np.linalg.norm(matrix, axis=1, keepdims=True) if len(self._chunks) else None
        if norms is not None:
            norms[norms == 0.0] = 1.0
            matrix = matrix / norms
        self._unit = matrix
        # Each row's position in chunk_id order, the tie-break of search; rows
        # are in corpus order, which need not be chunk_id order.
        by_id = sorted(range(len(self._chunks)), key=lambda i: self._chunks[i].chunk_id)
        self._id_rank = np.empty(len(self._chunks), dtype=np.intp)
        self._id_rank[by_id] = np.arange(len(self._chunks))

    def __len__(self) -> int:
        return len(self._chunks)

    @property
    def dim(self) -> int:
        """Vector dimension; 0 for an empty index."""
        return self._unit.shape[1]

    @property
    def chunks(self) -> tuple[Chunk, ...]:
        return self._chunks

    def search(self, query_vector: np.ndarray, top_k: int) -> list[RetrievedChunk]:
        """Exact top-k by cosine similarity; ties broken by lower chunk_id.

        Asking for more chunks than the index holds returns everything and
        logs the shortfall.
        """
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        n = len(self._chunks)
        if n == 0:
            log.warning("retrieval against an empty index returns no chunks")
            return []
        if top_k > n:
            log.warning("top_k=%d exceeds index size %d; returning all chunks", top_k, n)
        query = np.asarray(query_vector, dtype=np.float64)
        if not np.isfinite(query).all():
            raise ValueError("query vector must be finite")
        norm = np.linalg.norm(query)
        if norm > 0.0:
            query = query / norm
        sims = self._unit @ query
        k = min(top_k, n)
        # Every row tied with the k-th largest similarity stays a candidate, so
        # the chunk_id tie-break decides between them exactly as a full sort would.
        kth = np.partition(sims, n - k)[n - k]
        candidates = np.flatnonzero(sims >= kth)
        order = candidates[np.lexsort((self._id_rank[candidates], -sims[candidates]))]
        return [
            RetrievedChunk(
                source_doc_id=self._chunks[i].source_doc_id,
                rank=rank,
                text=self._chunks[i].text,
            )
            for rank, i in enumerate(order[:k], start=1)
        ]


# ---------------------------------------------------------------------------
# Service clients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServiceEndpoint:
    """Where a model service lives and how hard to try."""

    base_url: str
    auth_env: str | None = None
    timeout: float = 60.0
    max_attempts: int = 3
    backoff_seconds: float = 0.5

    def __post_init__(self) -> None:
        url = self.base_url
        if not isinstance(url, str) or any(c <= " " or c >= "\x7f" for c in url):
            raise ValueError(
                f"base_url must be a string of printable ASCII without spaces, got {url!r}"
            )
        parts = urllib.parse.urlsplit(url)
        try:
            parts.port
        except ValueError:
            raise ValueError(f"base_url has an invalid port: {url!r}") from None
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"base_url must be an http:// or https:// URL with a host, got {url!r}")
        if not self.timeout > 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not self.backoff_seconds >= 0:
            raise ValueError(f"backoff_seconds must be >= 0, got {self.backoff_seconds}")

    def headers(self) -> dict[str, str]:
        """The bearer token from ``auth_env``, or no headers when it is unset or empty."""
        token = os.environ.get(self.auth_env, "") if self.auth_env else ""
        return {"Authorization": f"Bearer {token}"} if token else {}

    @classmethod
    def from_dict(cls, data: Mapping) -> "ServiceEndpoint":
        """The endpoint a config entry describes; a bad entry is a ``ValueError`` naming the field."""
        if not isinstance(data, Mapping):
            raise ValueError(f"expected an object with a base_url, got {data!r}")
        if "base_url" not in data:
            raise ValueError("base_url is required")
        fields = {"base_url": data["base_url"], "auth_env": data.get("auth_env")}
        for name, kind in (("timeout", float), ("max_attempts", int), ("backoff_seconds", float)):
            if name in data:
                try:
                    fields[name] = kind(data[name])
                except (TypeError, ValueError):
                    raise ValueError(f"{name} must be a number, got {data[name]!r}") from None
        return cls(**fields)


class _ServiceClient:
    """Posts JSON to one endpoint; a missing auth token is logged once per client."""

    def __init__(self, endpoint: ServiceEndpoint):
        self.endpoint = endpoint
        # Taken, and never released, by the first request that finds the token
        # missing. Worker threads share a client, so a plain flag could race.
        self._auth_warned = threading.Lock()

    def _post(self, route: str, payload: dict) -> dict:
        """POST ``payload`` with retries; a reply that is not a JSON object is a failure."""
        endpoint = self.endpoint
        headers = endpoint.headers()
        if endpoint.auth_env and not headers and self._auth_warned.acquire(blocking=False):
            log.warning("auth env var %s is not set; sending unauthenticated", endpoint.auth_env)
        url = endpoint.base_url.rstrip("/") + route
        request = urllib.request.Request(
            url,
            data=json.dumps(payload, allow_nan=False).encode("utf-8"),
            headers={"Content-Type": "application/json", **headers},
            method="POST",
        )
        last_error: Exception | None = None
        for attempt in range(endpoint.max_attempts):
            if attempt:
                time.sleep(endpoint.backoff_seconds * (2 ** (attempt - 1)))
            try:
                try:
                    response = urllib.request.urlopen(request, timeout=endpoint.timeout)
                except urllib.error.HTTPError as exc:
                    # A reply other than 2xx, a 307/308 redirect included; it
                    # carries the status and the body, and must be closed.
                    response = exc
                with response:
                    status, body = response.status, response.read()
            # URLError, timeouts and refused or reset connections are OSErrors;
            # HTTPException covers a reply cut short or a dropped connection.
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                log.warning("request to %s failed (attempt %d): %s", url, attempt + 1, exc)
                continue
            if status >= 500 or status == 429:
                last_error = ServiceFailure(f"{url} returned HTTP {status}")
                log.warning("%s returned HTTP %d (attempt %d)", url, status, attempt + 1)
                continue
            if status != 200:
                raise ServiceFailure(f"{url} returned HTTP {status}: {_excerpt(body)}")
            try:
                reply = json.loads(body)
            except ValueError:  # JSONDecodeError, or UnicodeDecodeError on bytes that are not UTF-8
                raise ServiceFailure(
                    f"{url} returned a body that is not JSON: {_excerpt(body)!r}"
                ) from None
            if not isinstance(reply, dict):
                raise ServiceFailure(
                    f"{url} returned JSON that is not an object: {_excerpt(body)!r}"
                )
            return reply
        raise ServiceFailure(f"{url} failed after {endpoint.max_attempts} attempts: {last_error}")


def _excerpt(body: bytes) -> str:
    """The first 200 characters of a reply body, for an error message."""
    return body.decode("utf-8", errors="replace")[:200]


class EmbeddingClient(_ServiceClient):
    """Batched embedding requests against the ``/embed`` route."""

    def __init__(self, endpoint: ServiceEndpoint, batch_size: int = 32):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        super().__init__(endpoint)
        self.batch_size = batch_size

    def embed(self, model: str, texts: Sequence[str]) -> np.ndarray:
        """One row per text; rejects ragged, empty or non-finite vectors and mixed dimensions."""
        if not texts:
            return np.zeros((0, 0))
        blocks: list[np.ndarray] = []
        for start in range(0, len(texts), self.batch_size):
            batch = list(texts[start : start + self.batch_size])
            reply = self._post("/embed", {"model": model, "texts": batch})
            got = reply.get("vectors")
            if not isinstance(got, list) or len(got) != len(batch):
                raise ServiceFailure(
                    f"embed reply has {len(got) if isinstance(got, list) else 'no'} "
                    f"vectors for a batch of {len(batch)}"
                )
            try:
                block = np.asarray(got, dtype=np.float64)
            except (TypeError, ValueError):
                raise ServiceFailure("embed reply vectors are ragged or not numeric") from None
            if block.ndim != 2 or block.shape[1] == 0:
                raise ServiceFailure("embed reply vectors are ragged or empty")
            if blocks and block.shape[1] != blocks[0].shape[1]:
                raise ServiceFailure(
                    f"embed reply dimension changed between batches: "
                    f"{blocks[0].shape[1]} then {block.shape[1]}"
                )
            if not np.isfinite(block).all():
                raise ServiceFailure("embed reply vectors contain NaN or infinite values")
            blocks.append(block)
        return np.concatenate(blocks)


class _EmbeddingMemo:
    """(embedding model, text) -> vector memo in front of an ``EmbeddingClient``.

    ``embed`` sends only the texts not yet embedded for the model, once each
    and in first-seen order, and returns one row per requested text. Rows are
    kept as the service returned them, so an index built from them normalizes
    exactly the same numbers as one built from a fresh reply. With a
    :class:`ReplyStore`, texts the memo lacks are looked up there first, and
    the rows fetched by one call are stored in one transaction.
    """

    def __init__(self, client: EmbeddingClient, replies: "ReplyStore | None" = None):
        self.client = client
        self.replies = replies
        self._rows: dict[str, dict[str, np.ndarray]] = {}

    def embed(self, model: str, texts: Sequence[str]) -> np.ndarray:
        if not texts:
            return np.zeros((0, 0))
        rows = self._rows.setdefault(model, {})
        missing = [text for text in dict.fromkeys(texts) if text not in rows]
        if missing and self.replies is not None:
            rows.update(self.replies.vectors(model, missing))
            missing = [text for text in missing if text not in rows]
        if missing:
            fetched = self.client.embed(model, missing)
            rows.update(zip(missing, fetched))
            if self.replies is not None:
                self.replies.put_vectors(model, missing, fetched)
        picked = [rows[text] for text in texts]
        try:
            return np.stack(picked)
        except ValueError:  # rows from separate replies differ in dimension
            dims = list(dict.fromkeys(len(row) for row in picked))
            raise ServiceFailure(
                f"embed reply dimension changed between batches: {dims[0]} then {dims[1]}"
                + self.stored_hint()
            ) from None

    def forget(self, model: str) -> None:
        """Drop the model's rows when the reply store holds them; a no-op without one."""
        if self.replies is not None:
            self._rows.pop(model, None)

    def stored_hint(self) -> str:
        """A note naming the reply store, for a dimension error; empty without one."""
        if self.replies is None:
            return ""
        return f" (rows may come from {self.replies.path}; delete it if the service changed)"


@dataclass(frozen=True)
class GenerationResult:
    text: str
    input_tokens: int
    output_tokens: int
    counts_estimated: bool = False


class GenerationClient(_ServiceClient):
    """Single-prompt generation against the ``/generate`` route, greedy decoding pinned."""

    def generate(self, model: str, prompt: str) -> GenerationResult:
        reply = self._post(
            "/generate",
            {"model": model, "prompt": prompt, "params": {"temperature": 0.0, "greedy": True}},
        )
        text = reply.get("text")
        if not isinstance(text, str):
            raise ServiceFailure("generate reply is missing a text field")
        estimated = False
        input_tokens = reply.get("input_tokens")
        output_tokens = reply.get("output_tokens")
        if input_tokens is None:
            input_tokens = len(whitespace_tokens(prompt))
            estimated = True
        if output_tokens is None:
            output_tokens = len(whitespace_tokens(text))
            estimated = True
        if estimated:
            log.info("service omitted token counts; using local whitespace estimates")
        return GenerationResult(
            text=text,
            input_tokens=int(input_tokens),
            output_tokens=int(output_tokens),
            counts_estimated=estimated,
        )


class JudgeClient(_ServiceClient):
    """Remote answer-correctness judge; only its scores are ingested."""

    def score(self, question: str, answer: str, gold_answer: str) -> float:
        reply = self._post(
            "/judge",
            {"question": question, "answer": answer, "gold_answer": gold_answer},
        )
        score = reply.get("score")
        if not isinstance(score, (int, float)) or not 0.0 <= score <= 1.0:
            raise ServiceFailure(f"judge reply score must be in [0, 1], got {score!r}")
        return float(score)


class ReplyStore:
    """Validated ``/embed`` and ``/generate`` replies on disk, keyed on the literal request.

    One SQLite table maps the SHA-256 of (route, model, input) to the reply
    as the client accepted it: for a text sent to ``/embed``, its vector's
    little-endian float64 bytes; for a prompt sent to ``/generate``, the
    text, token counts and ``counts_estimated`` flag as JSON. The model name
    is the model's identity; the endpoint URL is not part of the key.
    Judge replies and failed calls are never stored. Each ``put_*`` call is
    one transaction, so a killed process keeps every call that returned.
    A store is used from the thread that opened it.
    """

    _BATCH = 500  # keys per lookup query, below SQLite's bound-parameter limit

    def __init__(self, path: str | os.PathLike):
        """Open or create the store; an ``OSError`` naming ``path`` when that fails."""
        import sqlite3

        self.path = path
        try:
            self._db = sqlite3.connect(path)
        except sqlite3.Error as exc:
            raise OSError(f"cannot open reply store {path}: {exc}") from None
        try:
            self._db.execute("PRAGMA journal_mode=WAL")
            self._db.execute("PRAGMA synchronous=NORMAL")
            self._db.execute(
                "CREATE TABLE IF NOT EXISTS replies"
                " (key BLOB PRIMARY KEY, reply BLOB NOT NULL)"
            )
            self._db.execute("SELECT key, reply FROM replies LIMIT 0")
        except sqlite3.Error as exc:
            self._db.close()
            raise OSError(f"cannot open reply store {path}: {exc}") from None

    def close(self) -> None:
        self._db.close()

    @staticmethod
    def _keys(route: str, model: str, inputs: Sequence[str]) -> list[bytes]:
        """Each input's key: the SHA-256 of a JSON array of route and model, then the input."""
        # The array's closing bracket ends it, so no two requests hash the same bytes.
        prefix = hashlib.sha256(json.dumps([route, model]).encode("utf-8"))
        keys = []
        for text in inputs:
            digest = prefix.copy()
            digest.update(text.encode("utf-8", "surrogatepass"))
            keys.append(digest.digest())
        return keys

    def _get(self, route: str, model: str, inputs: Sequence[str]) -> dict[str, bytes]:
        keys = dict(zip(self._keys(route, model, inputs), inputs))
        wanted = list(keys)
        found: dict[str, bytes] = {}
        for start in range(0, len(wanted), self._BATCH):
            batch = wanted[start : start + self._BATCH]
            query = f"SELECT key, reply FROM replies WHERE key IN ({','.join('?' * len(batch))})"
            found.update((keys[key], reply) for key, reply in self._db.execute(query, batch))
        return found

    def _put(self, route: str, model: str, inputs: Sequence[str], replies: Iterable[bytes]) -> None:
        keys = self._keys(route, model, inputs)
        with self._db:
            self._db.executemany("INSERT OR IGNORE INTO replies VALUES (?, ?)", zip(keys, replies))

    def vectors(self, model: str, texts: Sequence[str]) -> dict[str, np.ndarray]:
        """The stored vector of each text that has one."""
        return {
            text: np.frombuffer(reply, dtype="<f8")
            for text, reply in self._get("/embed", model, texts).items()
        }

    def put_vectors(self, model: str, texts: Sequence[str], vectors: np.ndarray) -> None:
        self._put("/embed", model, texts, (np.asarray(row, dtype="<f8").tobytes() for row in vectors))

    def generations(self, model: str, prompts: Sequence[str]) -> dict[str, GenerationResult]:
        """The stored generation of each prompt that has one."""
        return {
            prompt: GenerationResult(*json.loads(reply))
            for prompt, reply in self._get("/generate", model, prompts).items()
        }

    def put_generations(
        self, model: str, prompts: Sequence[str], results: Iterable[GenerationResult]
    ) -> None:
        self._put(
            "/generate",
            model,
            prompts,
            (
                json.dumps([r.text, r.input_tokens, r.output_tokens, r.counts_estimated]).encode()
                for r in results
            ),
        )


# ---------------------------------------------------------------------------
# Prompt templates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PromptTemplate:
    """A per-model prompt body plus per-chunk decorations.

    The body contains the literal placeholders ``{question}`` and
    ``{retrieved documents}``; each retrieved chunk is wrapped in
    prefix/suffix and the wrapped chunks joined with the separator.
    """

    body: str
    chunk_prefix: str = ""
    chunk_suffix: str = ""
    chunk_separator: str = "\n"

    def render(self, question: str, chunk_texts: Sequence[str]) -> str:
        block = self.chunk_separator.join(
            f"{self.chunk_prefix}{text}{self.chunk_suffix}" for text in chunk_texts
        )
        return self.body.replace("{retrieved documents}", block).replace(
            "{question}", question
        )


def _load_template_asset(name: str) -> str:
    resource = importlib.resources.files("raghpo").joinpath("templates", name)
    return resource.read_text(encoding="utf-8")


class TemplateStore:
    """Maps generative model identifiers to their prompt templates."""

    def __init__(self, templates: Mapping[str, PromptTemplate]):
        self._templates = dict(templates)

    def for_model(self, model: str) -> PromptTemplate:
        try:
            return self._templates[model]
        except KeyError:
            raise KeyError(
                f"no prompt template registered for model {model!r}; "
                f"known models: {sorted(self._templates)}"
            ) from None

    @classmethod
    def builtin(cls) -> "TemplateStore":
        """Templates for the three stock generative models."""
        return cls(
            {
                "Granite-3.1-8B-instruct": PromptTemplate(
                    body=_load_template_asset("granite.txt"),
                    chunk_prefix="[Document]\n",
                    chunk_suffix="\n[End]",
                ),
                "Llama-3.1-8B-Instruct": PromptTemplate(
                    body=_load_template_asset("llama.txt"),
                    chunk_prefix="[document]: ",
                ),
                "Mistral-Nemo-Instruct-2407": PromptTemplate(
                    body=_load_template_asset("mistral.txt"),
                ),
            }
        )


# ---------------------------------------------------------------------------
# Pipeline operations
# ---------------------------------------------------------------------------


def build_index(
    corpus: Iterable[Document],
    index_config: IndexConfig,
    embedder: EmbeddingClient | _EmbeddingMemo,
    chunks: Sequence[Chunk] | None = None,
) -> tuple[VectorIndex, int]:
    """Chunk and embed a corpus; returns the index and its embedded-token cost.

    ``chunks``, when given, is the corpus already cut with the config's size
    and overlap, and the corpus is not chunked again. The cost basis is the
    sum of chunk token lengths, one vector per chunk.
    """
    if chunks is None:
        chunks = chunk_corpus(corpus, index_config.chunk_size, index_config.chunk_overlap)
    embedded_tokens = sum(c.token_length for c in chunks)
    vectors = embedder.embed(index_config.embedding_model, [c.text for c in chunks])
    return VectorIndex(chunks, vectors), embedded_tokens


def retrieve(
    index: VectorIndex,
    question: str,
    top_k: int,
    embedder: EmbeddingClient,
    embedding_model: str,
) -> list[RetrievedChunk]:
    """Embed the question and return the exact cosine top-k chunks."""
    query = embedder.embed(embedding_model, [question])
    return index.search(query[0] if len(query) else np.zeros(0), top_k)


# ---------------------------------------------------------------------------
# Live evaluator backend
# ---------------------------------------------------------------------------


class LivePipelineEvaluator(StoredScores):
    """Evaluates configurations by actually running the RAG pipeline.

    It is a replay backend whose :class:`GridTable` fills as it goes: a new
    table, or the one ``raghpo grid`` passes in. :meth:`fill` runs the
    pipeline for a (config, split) cell that lacks rows, and both
    evaluations read score and cost back from the table, so a cell is run
    once per evaluator, and again only while a question lacks a row. The
    qid universe of a (split, metric) is the split's questions for which the
    metric is defined (context_mrr needs gold documents, lexical_ac a gold
    answer with a token, judge_ac a judge), sorted by qid as a replay of the
    table sums them, so both backends compute bit-identical means.

    The evaluator also does shared index work once for its lifetime:

    * the corpus is chunked once per (chunk_size, chunk_overlap), and the
      indexes of every embedding model share that chunk list;
    * each distinct (embedding model, text) is sent to the embedding service
      once; chunk texts that recur across indexes and every split's
      questions are served from one memo.

    An index is built once per IndexConfig, and retrieval is run once per
    (IndexConfig, top_k, split), since it does not depend on the generative
    model. Both are kept until :meth:`release` drops them, which an
    optimizer run never calls, since optimizers revisit indexes.

    With ``replies``, a :class:`ReplyStore`, nothing is sent that an earlier
    evaluator, in this process or another, already sent and got a valid
    reply for: the embedding memo looks up the texts it lacks, and
    :meth:`fill` renders the cell's prompts, looks them up on the calling
    thread and sends only the rest, then records the new replies in question
    order. Without one, each evaluator starts from nothing.

    Each evaluation still reports the full embedded-token cost of its index
    (the sum of its chunk lengths) and the token counts of every generation,
    stored or not, so the *accounted* spend is what a fresh evaluation would
    cost; double charging is prevented by the harness ledger. Only the spend
    actually sent to the services drops.
    """

    def __init__(
        self,
        dataset: Dataset,
        space: SearchSpace,
        embedder: EmbeddingClient,
        generator: GenerationClient,
        templates: TemplateStore | None = None,
        judge: JudgeClient | None = None,
        parallelism: int = 1,
        table: GridTable | None = None,
        replies: ReplyStore | None = None,
    ):
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {parallelism}")
        self.dataset = dataset
        self.space = space
        self.generator = generator
        self.templates = templates or TemplateStore.builtin()
        self.judge = judge
        self.parallelism = parallelism
        self.replies = replies
        self.table = table or GridTable(space_fingerprint=space.fingerprint())
        defined = {
            CONTEXT_MRR: lambda qa: bool(qa.gold_doc_ids),
            LEXICAL_AC: lambda qa: bool(tokenize(qa.gold_answer)),
            FAITHFULNESS: lambda qa: True,
            JUDGE_AC: lambda qa: judge is not None,
        }
        self._universes = {
            (split, metric): tuple(
                sorted(qa.qid for qa in dataset.split(split) if defined[metric](qa))
            )
            for split in SPLITS
            for metric in METRIC_NAMES
        }
        self._slices = {key: self._slice(key) for key in self._universes}
        # Nothing below may refer back to the evaluator: it must be freed by
        # reference counting as soon as its command drops it.
        self._embeddings = _EmbeddingMemo(embedder, replies)
        self._chunks: dict[tuple[int, float], tuple[Chunk, ...]] = {}
        self._indices: dict[IndexConfig, tuple[VectorIndex, int]] = {}
        self._retrieved: dict[
            tuple[IndexConfig, int, str], tuple[tuple[RetrievedChunk, ...], ...]
        ] = {}

    def _slice(self, key: tuple[str, str]) -> ScoreSlice:
        return self.table.slice(*key, self.space.total_size, qids=self._universes[key])

    def _index_for(self, index_config: IndexConfig) -> tuple[VectorIndex, int]:
        cached = self._indices.get(index_config)
        if cached is None:
            log.info(
                "building index: chunk_size=%d overlap=%.2f model=%s",
                index_config.chunk_size,
                index_config.chunk_overlap,
                index_config.embedding_model,
            )
            shape = (index_config.chunk_size, index_config.chunk_overlap)
            chunks = self._chunks.get(shape)
            if chunks is None:
                chunks = self._chunks[shape] = chunk_corpus(self.dataset.corpus, *shape)
            cached = build_index(
                self.dataset.corpus, index_config, self._embeddings, chunks=chunks
            )
            self._indices[index_config] = cached
        return cached

    def release(self, index_config: IndexConfig) -> None:
        """Drop the index of ``index_config`` and every retrieval made from it.

        For a caller that evaluates no more cells of that index. The chunk
        lists stay. The memo rows of its embedding model go only when the
        reply store holds them, so a later evaluation rebuilds the index
        without sending a text to the embedding service again.
        """
        self._indices.pop(index_config, None)
        for key in [key for key in self._retrieved if key[0] == index_config]:
            del self._retrieved[key]
        self._embeddings.forget(index_config.embedding_model)

    def _retrieve_all(
        self, config: RagConfig, split: str
    ) -> tuple[tuple[tuple[RetrievedChunk, ...], ...], int]:
        index, embedded_tokens = self._index_for(config.index)
        key = (config.index, config.answer.top_k, split)
        retrieved = self._retrieved.get(key)
        if retrieved is None:
            model = config.index.embedding_model
            query_vectors = self._embeddings.embed(
                model, [qa.question for qa in self.dataset.split(split)]
            )
            if len(index) and len(query_vectors) and query_vectors.shape[1] != index.dim:
                raise ServiceFailure(
                    f"embedding model {model!r} returned "
                    f"{query_vectors.shape[1]}-dimensional question vectors for a "
                    f"{index.dim}-dimensional index" + self._embeddings.stored_hint()
                )
            retrieved = self._retrieved[key] = tuple(
                tuple(index.search(vector, config.answer.top_k)) for vector in query_vectors
            )
        return retrieved, embedded_tokens

    def fill(
        self, config: RagConfig, split: str, metrics: Sequence[str]
    ) -> list[tuple[GridKey, float]]:
        """Evaluate a cell into the table when any (metric, qid) of its universe lacks a row.

        The pipeline runs once for the whole cell, generating answers unless
        context_mrr is the only metric asked for. Only the missing rows are
        added, and the cell's cost row is replaced with the spend of this run.
        A question whose generation or judge call fails keeps the rows it
        has; when every one fails, nothing is stored and ServiceFailure is
        raised. Returns the rows added, in the order added.
        """
        if not self.space.contains(config):
            raise ValueError(f"configuration {config.as_dict()} is not in the search space")
        questions = self.dataset.split(split)
        ordinal = self.space.ordinal_of(config)
        gaps = {(m, qid) for m in metrics for qid in self._slices[(split, m)].missing(ordinal)}
        if not gaps:
            return []
        retrieved, embedded_tokens = self._retrieve_all(config, split)
        generated = any(metric != CONTEXT_MRR for metric in metrics)
        judged = JUDGE_AC in metrics
        model = config.answer.generative_model
        prompts: list[str] = []
        stored: dict[str, GenerationResult] = {}
        if generated:
            template = self.templates.for_model(model)
            prompts = [
                template.render(qa.question, [c.text for c in chunks])
                for qa, chunks in zip(questions, retrieved)
            ]
            if self.replies is not None:
                stored = self.replies.generations(model, prompts)

        def answer_one(i: int) -> tuple[GenerationResult | None, float | None]:
            """Question i's generation and, when judged, its judge score; None for a failed call."""
            qa = questions[i]
            result = stored.get(prompts[i])
            if result is None:
                try:
                    result = self.generator.generate(model, prompts[i])
                except ServiceFailure as exc:
                    log.warning("generation failed for %s: %s", qa.qid, exc)
                    return None, None
            if not judged:
                return result, None
            try:
                return result, self.judge.score(qa.question, result.text, qa.gold_answer)
            except ServiceFailure as exc:
                log.warning("judge call failed for %s: %s", qa.qid, exc)
                return result, None

        # Stored generations are answered here; only calls to a service go to the pool.
        answers = (
            [(stored.get(prompt), None) for prompt in prompts]
            if generated
            else [(None, None)] * len(questions)
        )
        todo = [i for i, prompt in enumerate(prompts) if judged or prompt not in stored]
        if self.parallelism > 1 and len(todo) > 1:
            with ThreadPoolExecutor(max_workers=self.parallelism) as pool:
                fresh = list(pool.map(answer_one, todo))
        else:
            fresh = [answer_one(i) for i in todo]
        for i, answer in zip(todo, fresh):
            answers[i] = answer
        new = [i for i in todo if answers[i][0] is not None and prompts[i] not in stored]
        if new and self.replies is not None:
            # Recorded here, in question order, so the store never crosses threads.
            self.replies.put_generations(
                model, [prompts[i] for i in new], [answers[i][0] for i in new]
            )

        rows: list[tuple[GridKey, float]] = []
        failed = 0
        input_tokens = 0
        output_tokens = 0
        for qa, chunks, (result, judge_score) in zip(questions, retrieved, answers):
            scores = {CONTEXT_MRR: context_correctness_mrr(chunks, qa.gold_doc_ids)}
            if result is not None:
                # A generation is paid for even when its judge call then fails.
                input_tokens += result.input_tokens
                output_tokens += result.output_tokens
                scores[FAITHFULNESS] = faithfulness_precision(result.text, chunks)
                scores[LEXICAL_AC] = lexical_answer_correctness(result.text, qa.gold_answer)
                scores[JUDGE_AC] = judge_score
            if generated and (result is None or (judged and judge_score is None)):
                failed += 1
            for metric in metrics:
                score = scores.get(metric)
                if score is not None and (metric, qa.qid) in gaps:
                    rows.append(((ordinal, split, metric, qa.qid), score))
        if failed:
            log.warning(
                "%d/%d questions failed generation or judging and lack rows",
                failed,
                len(questions),
            )
            if failed == len(questions):
                raise ServiceFailure(
                    f"every generation{' or judge call' if judged else ''} failed; "
                    "nothing to aggregate"
                )
        for (_, _, metric, qid), score in rows:
            self.table.add_score(ordinal, split, metric, qid, score)
        self.table.set_cost(
            ordinal,
            split,
            CostDelta(
                embedded_tokens=embedded_tokens,
                generation_input_tokens=input_tokens,
                generation_output_tokens=output_tokens,
            ),
        )
        for metric in {metric for (_, _, metric, _), _ in rows}:
            self._slices[(split, metric)] = self._slice((split, metric))
        return rows

    def evaluate(self, config: RagConfig, split: str, objective: Objective) -> EvalResult:
        """Fill the cell's generated metrics, judge_ac too when the objective asks for it,
        and score the objective from the table."""
        judged = JUDGE_AC in objective.metrics
        if judged and self.judge is None:
            raise ValueError("objective includes judge_ac but no judge endpoint is configured")
        metrics = (LEXICAL_AC, FAITHFULNESS, CONTEXT_MRR) + ((JUDGE_AC,) if judged else ())
        self.fill(config, split, metrics)
        return self._stored_result(config, self.space.ordinal_of(config), split, objective)

    def evaluate_retrieval_only(self, config: RagConfig, split: str) -> EvalResult:
        """Fill and score context_mrr only; no generation is run or charged."""
        self.fill(config, split, (CONTEXT_MRR,))
        return self._stored_result(
            config, self.space.ordinal_of(config), split, RETRIEVAL_OBJECTIVE, retrieval_only=True
        )

    def replay_objective(
        self, config: RagConfig, split: str, objective: Objective
    ) -> None:
        """None: a live objective score is never free, so a probe records none.

        A lookup into the filling table would make one seed's probes depend
        on what other seeds had evaluated.
        """
        return None
