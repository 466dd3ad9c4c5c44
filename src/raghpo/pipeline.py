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

Each route is a :class:`Route` record (:data:`EMBED`, :data:`GENERATE`,
:data:`JUDGE`) whose ``check`` is the route's one reply rule: an ``/embed``
vector is a non-empty list of finite JSON numbers (a boolean or a numeric
string is not one), a ``/generate`` text is a string and each token count
an integer of at least 0, and a ``/judge`` score is a number in [0, 1]. The
clients run it on every reply, and :class:`ReplyStore` on every row it
reads back.

Requests go out through the standard library's ``urllib.request``, which
honours ``*_proxy``/``no_proxy`` (read once per process) and verifies HTTPS
against the system trust store. A 5xx or 429 reply, a refused or dropped
connection and a timeout are retried with exponential backoff; any other
reply but 200 (a 307/308 redirect included) fails at once, as does a 200
whose body is not a JSON object or holds a reply its route's ``check``
refuses. Every such failure is a :class:`ServiceFailure`.

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
import reprlib
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass
from functools import partial
from math import floor
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .costs import CostDelta
from .dataio import (
    ENDPOINT_FIELDS,
    SPLITS,
    Dataset,
    Document,
    GridKey,
    GridTable,
    QaPair,
    ScoreSlice,
    check_fields,
    is_a,
)
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
NO_JUDGE = "judge_ac requested but no judge endpoint is configured"


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


#: The warning logged when a retrieval asks for more chunks than its index holds.
_SHORTFALL = "top_k=%d exceeds index size %d; returning all chunks"


class VectorIndex:
    """Immutable in-memory index with exact cosine top-k search."""

    def __init__(self, chunks: Sequence[Chunk], vectors: np.ndarray):
        """An index of ``chunks`` and their ``vectors``, one float64 row per chunk.

        The embedders that make ``vectors`` have already held each row to
        :data:`EMBED`'s rule and every row to one dimension, so nothing here
        checks them again.
        """
        self._chunks = tuple(chunks)
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        self._unit = vectors / norms
        # Each row's position in chunk_id order, the tie-break of search; rows
        # are in corpus order, which need not be chunk_id order.
        by_id = sorted(range(len(self._chunks)), key=lambda i: self._chunks[i].chunk_id)
        self._id_rank = np.argsort(np.asarray(by_id, dtype=np.intp))

    def __len__(self) -> int:
        return len(self._chunks)

    @property
    def chunks(self) -> tuple[Chunk, ...]:
        return self._chunks

    def search(self, query_vector: np.ndarray, top_k: int) -> list[RetrievedChunk]:
        """Exact top-k by cosine similarity; ties broken by lower chunk_id.

        ``top_k`` is at least 1. Asking for more chunks than the index holds
        returns everything and logs the shortfall.
        """
        n = len(self._chunks)
        if n == 0:
            log.warning("retrieval against an empty index returns no chunks")
            return []
        if top_k > n:
            log.warning(_SHORTFALL, top_k, n)
        norm = np.linalg.norm(query_vector)
        query = query_vector / norm if norm > 0.0 else query_vector
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

#: The longest timeout or backoff, in seconds: ``time.sleep`` fails once the monotonic
#: clock plus the wait passes ``threading.TIMEOUT_MAX``, so half of it leaves room.
_MAX_WAIT = threading.TIMEOUT_MAX / 2


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
        if not 0 < self.timeout <= _MAX_WAIT:
            raise ValueError(f"timeout must be > 0 and <= {_MAX_WAIT:.0f}, got {self.timeout}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not 0 <= self.backoff_seconds <= _MAX_WAIT:
            raise ValueError(
                f"backoff_seconds must be >= 0 and <= {_MAX_WAIT:.0f}, got {self.backoff_seconds}"
            )

    def headers(self) -> dict[str, str]:
        """The bearer token from ``auth_env``, or no headers when it is unset or empty."""
        token = os.environ.get(self.auth_env, "") if self.auth_env else ""
        return {"Authorization": f"Bearer {token}"} if token else {}

    @classmethod
    def from_dict(cls, data: dict, where: str) -> "ServiceEndpoint":
        """The endpoint a config entry describes; a bad entry is a ``ValueError`` at ``where``.

        The entry is checked against :data:`~raghpo.dataio.ENDPOINT_FIELDS`;
        a setting it lacks takes the class's default.
        """
        check_fields(data, "endpoint", ENDPOINT_FIELDS, where, ValueError)
        try:
            return cls(**{name: data[name] for name in ENDPOINT_FIELDS if data[name] is not None})
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class GenerationResult:
    text: str
    input_tokens: int
    output_tokens: int
    counts_estimated: bool = False


#: A ``/generate`` reply's values, in the order a store row keeps them; a token count that
#: the service omits is estimated locally, and ``counts_estimated`` says so.
GENERATION_FIELDS = {"text": str, "input_tokens": int, "output_tokens": int, "counts_estimated": bool}


def _check_vector(vector) -> np.ndarray:
    """An ``/embed`` reply: a non-empty vector of finite numbers, as float64.

    Off the wire it is a list of JSON numbers; out of the store, float64 already.
    """
    if not isinstance(vector, np.ndarray):
        if not is_a(vector, list[int | float]):
            raise ValueError(f"vector is not a list of numbers: {reprlib.repr(vector)}")
        try:
            vector = np.asarray(vector, dtype=np.float64)
        except OverflowError:
            raise ValueError("vector holds an integer too large for a float") from None
    if not vector.size:
        raise ValueError("vector is empty")
    if not np.isfinite(vector).all():
        raise ValueError("vector holds NaN or infinite values")
    return vector


def _check_generation(values) -> GenerationResult:
    """A ``/generate`` reply: a list of the values of :data:`GENERATION_FIELDS`, counts >= 0."""
    if not (isinstance(values, list) and len(values) == len(GENERATION_FIELDS)):
        raise ValueError(f"expected {len(GENERATION_FIELDS)} values, got {reprlib.repr(values)}")
    for (name, spec), value in zip(GENERATION_FIELDS.items(), values):
        if not is_a(value, spec) or (spec is int and value < 0):
            what = "a non-negative integer" if spec is int else f"a {spec.__name__}"
            raise ValueError(f"{name} is not {what}: {reprlib.repr(value)}")
    return GenerationResult(*values)


def _check_score(score) -> float:
    """A ``/judge`` reply: a number in [0, 1], as a float."""
    if not (is_a(score, int | float) and 0.0 <= score <= 1.0):
        raise ValueError(f"score is not a number in [0, 1]: {reprlib.repr(score)}")
    return float(score)


@dataclass(frozen=True)
class Route:
    """One service route: its reply rule, and how the reply store keeps a reply.

    ``check`` is the route's only reply rule. It takes one request's reply
    as a client parsed it or ``decode`` read it from a store row, and
    returns it as the evaluator uses it, or raises a ValueError saying what
    is wrong. ``encode`` makes the store row of a checked reply. A store
    key is the SHA-256 of the route, the model and ``key(request)``; the
    model is the model's name, except on ``/judge``, whose requests name no
    model: there the judge's ``base_url`` stands in for it.
    """

    path: str
    check: Callable[[object], object]
    encode: Callable[[object], bytes]
    decode: Callable[[bytes], object]
    key: Callable[[object], str] = lambda request: request


#: A text's vector, kept as its little-endian float64 bytes.
EMBED = Route("/embed", _check_vector, lambda row: np.asarray(row, dtype="<f8").tobytes(),
              lambda row: np.frombuffer(row, dtype="<f8"))
#: A prompt's generation, kept as a JSON array of :data:`GENERATION_FIELDS`' values.
GENERATE = Route("/generate", _check_generation, lambda r: json.dumps(astuple(r)).encode(), json.loads)
#: A (question, answer, gold answer)'s score, kept as JSON; the request is keyed as a JSON array.
JUDGE = Route("/judge", _check_score, lambda score: json.dumps(score).encode(), json.loads, json.dumps)


class _ServiceClient:
    """Posts JSON to one endpoint; a missing auth token is logged once per client."""

    def __init__(self, endpoint: ServiceEndpoint):
        self.endpoint = endpoint
        # Taken, and never released, by the first request that finds the token
        # missing. Worker threads share a client, so a plain flag could race.
        self._auth_warned = threading.Lock()

    def _url(self, route: Route) -> str:
        return self.endpoint.base_url.rstrip("/") + route.path

    def _post(self, route: Route, payload: dict) -> dict:
        """POST ``payload`` with retries; a reply that is not a JSON object is a failure."""
        endpoint = self.endpoint
        headers = endpoint.headers()
        if endpoint.auth_env and not headers and self._auth_warned.acquire(blocking=False):
            log.warning("auth env var %s is not set; sending unauthenticated", endpoint.auth_env)
        url = self._url(route)
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
            # JSONDecodeError, UnicodeDecodeError on bytes that are not UTF-8, or arrays nested too deep
            except (RecursionError, ValueError):
                raise ServiceFailure(
                    f"{url} returned a body that is not JSON: {_excerpt(body)!r}"
                ) from None
            if not isinstance(reply, dict):
                raise ServiceFailure(
                    f"{url} returned JSON that is not an object: {_excerpt(body)!r}"
                )
            return reply
        raise ServiceFailure(f"{url} failed after {endpoint.max_attempts} attempts: {last_error}")

    def _check(self, route: Route, reply):
        """``route.check`` of one request's reply; a reply it refuses is a ServiceFailure."""
        try:
            return route.check(reply)
        except ValueError as exc:
            raise ServiceFailure(f"{self._url(route)} reply {exc}") from None


def _excerpt(body: bytes) -> str:
    """The first 200 characters of a reply body, for an error message."""
    return body.decode("utf-8", errors="replace")[:200]


class EmbeddingClient(_ServiceClient):
    """Embedding requests against the ``/embed`` route.

    ``batch_size`` is the most texts a caller should put in one request;
    :class:`LivePipelineEvaluator` splits its texts by it.
    """

    def __init__(self, endpoint: ServiceEndpoint, batch_size: int = 32):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        super().__init__(endpoint)
        self.batch_size = batch_size

    def embed(self, model: str, texts: Sequence[str]) -> np.ndarray:
        """One row per text, from one request of exactly ``texts``; rejects a reply
        with the wrong count of vectors, a vector :data:`EMBED` refuses or ragged ones."""
        if not texts:
            return np.zeros((0, 0))
        reply = self._post(EMBED, {"model": model, "texts": list(texts)})
        got = reply.get("vectors")
        if not isinstance(got, list) or len(got) != len(texts):
            raise ServiceFailure(
                f"embed reply has {len(got) if isinstance(got, list) else 'no'} "
                f"vectors for a batch of {len(texts)}"
            )
        rows = [self._check(EMBED, vector) for vector in got]
        if len({len(row) for row in rows}) > 1:
            raise ServiceFailure(f"{self._url(EMBED)} reply vectors are ragged")
        return np.stack(rows)


class GenerationClient(_ServiceClient):
    """Single-prompt generation against the ``/generate`` route, greedy decoding pinned."""

    def generate(self, model: str, prompt: str) -> GenerationResult:
        reply = self._post(
            GENERATE,
            {"model": model, "prompt": prompt, "params": {"temperature": 0.0, "greedy": True}},
        )
        text = reply.get("text")
        counts = [reply.get("input_tokens"), reply.get("output_tokens")]
        estimated = None in counts
        if estimated and isinstance(text, str):
            log.info("service omitted token counts; using local whitespace estimates")
            counts = [
                len(whitespace_tokens(counted)) if count is None else count
                for count, counted in zip(counts, (prompt, text))
            ]
        return self._check(GENERATE, [text, *counts, estimated])


class JudgeClient(_ServiceClient):
    """Remote answer-correctness judge; only its scores are ingested."""

    def score(self, question: str, answer: str, gold_answer: str) -> float:
        reply = self._post(
            JUDGE,
            {"question": question, "answer": answer, "gold_answer": gold_answer},
        )
        return self._check(JUDGE, reply.get("score"))


class ReplyStore:
    """Checked replies of every :class:`Route`, keyed on the literal request.

    One SQLite table, in a file or, without a path, in memory, maps each
    request's key to its reply's row, both as the request's route makes
    them. Failed calls are never stored. Each :meth:`put` is one
    transaction, so a killed process keeps every call that returned to a
    store file. A store is used by one thread at a time.

    A store file exists only if a reply was kept: a file at ``path`` is
    opened at once, and otherwise the first :meth:`put` creates it; until
    then every lookup finds nothing. A file that cannot be opened or
    created is one warning naming it, and from then on the store keeps its
    replies in memory, those of the :meth:`put` that failed included, and
    ``path`` is None. A row that is not a valid reply, and an SQLite error
    once the store is open, are a ValueError naming the store.
    """

    _BATCH = 500  # keys per lookup query, below SQLite's bound-parameter limit

    def __init__(self, path: str | os.PathLike | None = None):
        """A store over the file at ``path``, or in memory without it."""
        self.path = path
        self._db = None
        if path is not None and os.path.exists(path):
            self._open()

    def _open(self) -> None:
        """Connect to the file at ``path``, or in memory after one warning when that fails."""
        import sqlite3

        try:
            # Used by one thread at a time, which need not be the one that opened it.
            self._db = sqlite3.connect(self.path or ":memory:", check_same_thread=False)
            self._db.execute("PRAGMA journal_mode=WAL")
            self._db.execute("PRAGMA synchronous=NORMAL")
            self._db.execute(
                "CREATE TABLE IF NOT EXISTS replies (key BLOB PRIMARY KEY, reply BLOB NOT NULL)"
            )
            self._db.execute("SELECT key, reply FROM replies LIMIT 0")
        except sqlite3.Error as exc:
            self.close()
            log.warning(
                "cannot open reply store %s: %s; keeping replies in memory for this run",
                self.path,
                exc,
            )
            self.path = None
            self._open()

    def close(self) -> None:
        if self._db is not None:
            self._db.close()

    @staticmethod
    def _keys(route: Route, model: str, requests: Sequence) -> list[bytes]:
        """Each request's key: the SHA-256 of a JSON array of route and model, then the request."""
        # The array's closing bracket ends it, so no two requests hash the same bytes.
        prefix = hashlib.sha256(json.dumps([route.path, model]).encode("utf-8"))
        keys = []
        for request in requests:
            digest = prefix.copy()
            digest.update(route.key(request).encode("utf-8", "surrogatepass"))
            keys.append(digest.digest())
        return keys

    def get(self, route: Route, model: str, requests: Sequence) -> dict:
        """The checked reply of each request that has a stored one."""
        if self._db is None:
            return {}
        import sqlite3

        keys = dict(zip(self._keys(route, model, requests), requests))
        wanted = list(keys)
        rows = []
        try:
            for start in range(0, len(wanted), self._BATCH):
                batch = wanted[start : start + self._BATCH]
                query = f"SELECT key, reply FROM replies WHERE key IN ({','.join('?' * len(batch))})"
                rows += self._db.execute(query, batch)
        except sqlite3.Error as exc:
            raise ValueError(f"reply store {self.path}: {exc}") from None
        try:
            return {keys[key]: route.check(route.decode(row)) for key, row in rows}
        except (RecursionError, TypeError, ValueError) as exc:  # a row that fails decode or check
            raise ValueError(
                f"reply store {self.path}: a {route.path} row is not a valid reply ({exc}); "
                "delete the file to send its requests again"
            ) from None

    def put(self, route: Route, model: str, requests: Sequence, replies: Iterable) -> None:
        """Keep each request's checked reply, in one transaction."""
        import sqlite3

        keys = self._keys(route, model, requests)
        if self._db is None:
            self._open()
        rows = zip(keys, map(route.encode, replies))
        try:
            with self._db:
                self._db.executemany("INSERT OR IGNORE INTO replies VALUES (?, ?)", rows)
        except sqlite3.Error as exc:
            raise ValueError(f"reply store {self.path}: {exc}") from None


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
    embedder: EmbeddingClient | LivePipelineEvaluator,
    chunks: Sequence[Chunk] | None = None,
) -> tuple[VectorIndex, int]:
    """Chunk and embed a corpus; returns the index and its embedded-token cost.

    ``chunks``, when given, is the corpus already cut with the config's size
    and overlap, and the corpus is not chunked again. The cost basis is the
    sum of chunk token lengths, one vector per chunk. A bare
    :class:`EmbeddingClient` gets every chunk in one request; the live
    evaluator batches and stores them.
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
    return index.search(embedder.embed(embedding_model, [question])[0], top_k)


# ---------------------------------------------------------------------------
# Live evaluator backend
# ---------------------------------------------------------------------------


class LivePipelineEvaluator(StoredScores):
    """Evaluates configurations by actually running the RAG pipeline.

    It is a replay backend whose own :class:`GridTable` fills as it goes.
    :meth:`fill` runs the pipeline for a (config, split) cell that lacks
    rows, and both evaluations read score and cost back from the table, so a
    cell is run once per evaluator, and again only while a question lacks a
    row. The qid universe of a (split, metric) is the split's questions for
    which the metric is defined (context_mrr needs gold documents,
    lexical_ac a gold answer with a token, judge_ac a judge), sorted by qid
    as a replay of the table sums them, so both backends compute
    bit-identical means.

    The evaluator also does shared index work once for its lifetime:

    * the corpus is chunked once per (chunk_size, chunk_overlap), and the
      indexes of every embedding model share that chunk list;
    * each distinct (embedding model, text) is sent to the embedding service
      once; chunk texts that recur across indexes and every split's
      questions are served from the reply store;
    * each embedding model keeps the vector dimension of the first row the
      evaluator sees, stored or fresh, and chunk and question rows alike
      are held to it.

    An index is built once per IndexConfig, and retrieval is run once per
    (IndexConfig, split), since it depends on neither the generative model
    nor, past a prefix of one exact ranking, on top_k. Both are kept until
    :meth:`release` drops them, which an optimizer run never calls, since
    optimizers revisit indexes.

    ``replies``, a :class:`ReplyStore`, is the evaluator's only reply cache;
    without one it opens its own in memory. Nothing is sent that the store
    holds a valid reply for, from this evaluator or from an earlier one
    that shared the store. Every route's requests take one path,
    :meth:`_replies`: :meth:`embed` sends its texts in ``batch_size``
    batches and raises a failure, and :meth:`fill` makes two passes, one
    for the cell's prompts and then one for its judge requests, each
    sending its requests through the worker pool, where a failure is that
    question's alone.

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
        replies: ReplyStore | None = None,
    ):
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {parallelism}")
        self.dataset = dataset
        self.generator = generator
        self.templates = templates or TemplateStore.builtin()
        self.judge = judge
        self.parallelism = parallelism
        self.embedder = embedder
        self.replies = replies or ReplyStore()
        self.table = GridTable(space)
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
        self._chunks: dict[tuple[int, float], tuple[Chunk, ...]] = {}
        self._indices: dict[IndexConfig, tuple[VectorIndex, int]] = {}
        self._retrieved: dict[
            tuple[IndexConfig, str], tuple[tuple[RetrievedChunk, ...], ...]
        ] = {}
        self._dims: dict[str, int] = {}  # each embedding model's vector dimension

    def _slice(self, key: tuple[str, str]) -> ScoreSlice:
        return self.table.slice(*key, qids=self._universes[key])

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
            cached = build_index(self.dataset.corpus, index_config, self, chunks=chunks)
            self._indices[index_config] = cached
        return cached

    def release(self, index_config: IndexConfig) -> None:
        """Drop the index of ``index_config`` and every retrieval made from it.

        For a caller that evaluates no more cells of that index. The chunk
        lists stay, and the reply store keeps the vectors, so a later
        evaluation rebuilds the index without sending a text to the
        embedding service again.
        """
        self._indices.pop(index_config, None)
        for split in SPLITS:
            self._retrieved.pop((index_config, split), None)

    def embed(self, model: str, texts: Sequence[str]) -> np.ndarray:
        """One row per text, stored or sent once (:meth:`_replies`).

        The texts the store lacks go to the embedding client one
        ``batch_size`` batch per call, and a failed call is raised. Every
        stored row, and every batch before it is recorded, must have the
        model's dimension (:meth:`_check_dimension`). Rows are kept as the
        service returned them, so an index built from stored rows normalizes
        exactly the numbers of one built from a fresh reply.
        """
        if not texts:
            return np.zeros((0, 0))
        send = partial(self.embedder.embed, model)
        hold = partial(self._check_dimension, model)
        return np.stack(self._replies(EMBED, model, texts, send, self.embedder.batch_size, hold))

    def _check_dimension(self, model: str, rows: Iterable[np.ndarray]) -> None:
        """Hold ``model``'s rows to the dimension of the first one this evaluator saw.

        Any other dimension is a ServiceFailure naming the model, both
        dimensions and the store file, if any, that the rows may come from.
        """
        for dim in dict.fromkeys(map(len, rows)):
            first = self._dims.setdefault(model, dim)
            if dim != first:
                message = (
                    f"embedding model {model!r} vectors are {dim}-dimensional "
                    f"after {first}-dimensional ones"
                )
                store = self.replies.path
                if store is not None:
                    message += f" (rows may come from {store}; delete it if the service changed)"
                raise ServiceFailure(message)

    def _retrieve_all(
        self, config: RagConfig, split: str
    ) -> tuple[tuple[tuple[RetrievedChunk, ...], ...], int]:
        """Each of the split's questions' top-k chunks under ``config``, and the index's cost.

        Each question is searched once per (index, split), to the space's
        deepest top_k capped at the index size, and a config gets the first
        ``top_k`` chunks of that ranking: the ranking is an exact sort, so
        its prefix is the config's own top-k.
        """
        index, embedded_tokens = self._index_for(config.index)
        top_k, size = config.answer.top_k, len(index)
        if 0 < size < top_k:
            log.warning(_SHORTFALL, top_k, size)
        key = (config.index, split)
        ranked = self._retrieved.get(key)
        if ranked is None:
            query_vectors = self.embed(
                config.index.embedding_model, [qa.question for qa in self.dataset.split(split)]
            )
            depth = min(max(self.space.top_ks), size)
            ranked = self._retrieved[key] = tuple(
                tuple(index.search(vector, depth)) for vector in query_vectors
            )
        return tuple(chunks[:top_k] for chunks in ranked), embedded_tokens

    def fill(
        self, config: RagConfig, split: str, metrics: Sequence[str]
    ) -> list[tuple[GridKey, float]]:
        """Evaluate a cell into the table when any (metric, qid) of its universe lacks a row.

        The pipeline runs once for the whole cell, generating answers unless
        context_mrr is the only metric asked for, and judging every answer
        when judge_ac is. Only the missing rows are added, and the cell's
        cost row is replaced with the spend of this run. A question whose
        generation or judge call fails keeps the rows it has; when every one
        fails, no row is added and ServiceFailure is raised. Returns the rows
        added, in the order added. judge_ac without a judge is a ValueError,
        raised before any request.
        """
        if JUDGE_AC in metrics and self.judge is None:
            raise ValueError(NO_JUDGE)
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
        results: list[GenerationResult | None] = [None] * len(questions)
        judge_scores: list[float | None] = [None] * len(questions)
        if generated:
            model = config.answer.generative_model
            template = self.templates.for_model(model)
            prompts = [
                template.render(qa.question, [c.text for c in chunks])
                for qa, chunks in zip(questions, retrieved)
            ]
            send = self._pooled(GENERATE, questions, prompts, partial(self.generator.generate, model))
            results = self._replies(GENERATE, model, prompts, send)
        if judged:
            answered = [i for i, result in enumerate(results) if result is not None]
            requests = [
                (questions[i].question, results[i].text, questions[i].gold_answer) for i in answered
            ]
            askers = [questions[i] for i in answered]
            send = self._pooled(JUDGE, askers, requests, lambda request: self.judge.score(*request))
            judged_scores = self._replies(JUDGE, self.judge.endpoint.base_url, requests, send)
            for i, score in zip(answered, judged_scores):
                judge_scores[i] = score

        rows: list[tuple[GridKey, float]] = []
        failed = 0
        input_tokens = 0
        output_tokens = 0
        for qa, chunks, result, judge_score in zip(questions, retrieved, results, judge_scores):
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

    def _replies(
        self, route: Route, model: str, requests: Sequence, send: Callable, batch_size=None, hold=None
    ) -> list:
        """Each request's reply: the stored one, else the one ``send`` got for it.

        The store is looked up on the calling thread, and each distinct
        request it lacks is sent once, in first-seen order, ``batch_size``
        at a time (all at once without it): ``send`` takes a batch and
        returns each request's reply, or None for a failed call. Each
        batch's replies are recorded as it returns, so the store never
        crosses threads and an outage in a later batch loses none of the
        earlier ones. ``hold`` sees the stored replies, then each batch's
        before it is recorded, and refuses them by raising.
        """
        got = self.replies.get(route, model, requests)
        if hold is not None:
            hold(got.values())
        missing = [request for request in dict.fromkeys(requests) if request not in got]
        size = batch_size or len(missing) or 1
        for start in range(0, len(missing), size):
            batch = missing[start : start + size]
            replies = send(batch)
            if hold is not None:
                hold(replies)
            new = [(request, reply) for request, reply in zip(batch, replies) if reply is not None]
            if new:
                self.replies.put(route, model, *zip(*new))
            got.update(zip(batch, replies))
        return [got[request] for request in requests]

    def _pooled(self, route: Route, askers: Sequence[QaPair], requests: Sequence, send: Callable):
        """A ``send`` for :meth:`_replies` that sends each request alone, through the worker pool.

        ``askers`` are the questions that asked for ``requests``. A failed
        call is None and a warning against the first question that asked
        for its request.
        """

        def send_one(request):
            try:
                return send(request)
            except ServiceFailure as exc:
                first = askers[requests.index(request)]
                log.warning("%s failed for %s: %s", route.path, first.qid, exc)
                return None

        def send_batch(batch: list) -> list:
            if self.parallelism > 1 and len(batch) > 1:
                with ThreadPoolExecutor(max_workers=self.parallelism) as pool:
                    return list(pool.map(send_one, batch))
            return [send_one(request) for request in batch]

        return send_batch

    def evaluate(self, config: RagConfig, split: str, objective: Objective) -> EvalResult:
        """Fill the cell's generated metrics, judge_ac too when the objective asks for it,
        and score the objective from the table."""
        judged = JUDGE_AC in objective.metrics
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
