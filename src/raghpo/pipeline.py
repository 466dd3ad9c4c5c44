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

Generation requests always pin greedy decoding. Retrieval is an exact
cosine scan over an in-memory index rather than an approximate structure:
at the scale this engine targets, exact search is affordable and removes an
approximation confound. Chunk token spans are measured with a plain
whitespace tokenizer, since the engine cannot assume access to any
particular model's tokenizer.
"""

from __future__ import annotations

import importlib.resources
import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import floor
from typing import Iterable, Mapping, Sequence

import numpy as np
import requests

from .costs import CostDelta
from .dataio import Dataset, Document, QaPair
from .evaluator import EvalResult, Objective
from .metrics import (
    CONTEXT_MRR,
    FAITHFULNESS,
    JUDGE_AC,
    LEXICAL_AC,
    MetricUndefinedError,
    QuestionEval,
    RetrievedChunk,
    aggregate,
    context_correctness_mrr,
    faithfulness_precision,
    lexical_answer_correctness,
)
from .searchspace import AnswerConfig, IndexConfig, RagConfig, SearchSpace

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
        if self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")

    def headers(self) -> dict[str, str]:
        """The bearer token from ``auth_env``, or no headers when it is unset or empty."""
        token = os.environ.get(self.auth_env, "") if self.auth_env else ""
        return {"Authorization": f"Bearer {token}"} if token else {}

    @classmethod
    def from_dict(cls, data: Mapping) -> "ServiceEndpoint":
        return cls(
            base_url=data["base_url"],
            auth_env=data.get("auth_env"),
            timeout=float(data.get("timeout", 60.0)),
            max_attempts=int(data.get("max_attempts", 3)),
            backoff_seconds=float(data.get("backoff_seconds", 0.5)),
        )


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
        last_error: Exception | None = None
        for attempt in range(endpoint.max_attempts):
            if attempt:
                time.sleep(endpoint.backoff_seconds * (2 ** (attempt - 1)))
            try:
                response = requests.post(
                    url, json=payload, timeout=endpoint.timeout, headers=headers
                )
            except requests.RequestException as exc:
                last_error = exc
                log.warning("request to %s failed (attempt %d): %s", url, attempt + 1, exc)
                continue
            if response.status_code >= 500 or response.status_code == 429:
                last_error = ServiceFailure(f"{url} returned HTTP {response.status_code}")
                log.warning("%s returned HTTP %d (attempt %d)", url, response.status_code, attempt + 1)
                continue
            if response.status_code != 200:
                raise ServiceFailure(f"{url} returned HTTP {response.status_code}: {response.text[:200]}")
            try:
                reply = response.json()
            except ValueError:  # requests' JSONDecodeError
                raise ServiceFailure(
                    f"{url} returned a body that is not JSON: {response.text[:200]!r}"
                ) from None
            if not isinstance(reply, dict):
                raise ServiceFailure(
                    f"{url} returned JSON that is not an object: {response.text[:200]!r}"
                )
            return reply
        raise ServiceFailure(f"{url} failed after {endpoint.max_attempts} attempts: {last_error}")


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
    embedder: EmbeddingClient,
) -> tuple[VectorIndex, int]:
    """Chunk and embed a corpus; returns the index and its embedded-token cost.

    The cost basis is the sum of chunk token lengths, one vector per chunk.
    """
    chunks: list[Chunk] = []
    for doc in corpus:
        chunks.extend(
            chunk_document(doc, index_config.chunk_size, index_config.chunk_overlap)
        )
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


def generate_answer(
    question: str,
    retrieved: Sequence[RetrievedChunk],
    answer_config: AnswerConfig,
    templates: TemplateStore,
    generator: GenerationClient,
) -> GenerationResult:
    """Build the per-model prompt over the retrieved chunks and call the generator."""
    template = templates.for_model(answer_config.generative_model)
    prompt = template.render(question, [c.text for c in retrieved])
    return generator.generate(answer_config.generative_model, prompt)


# ---------------------------------------------------------------------------
# Live evaluator backend
# ---------------------------------------------------------------------------


class LivePipelineEvaluator:
    """Evaluates configurations by actually running the RAG pipeline.

    Indices are cached per IndexConfig, so configurations sharing chunking
    and embedding settings reuse one index; the reported embedded-token cost
    is attached to every evaluation that uses the index, and double charging
    is prevented by the harness ledger. Question vectors are cached per
    (embedding model, split), so each split is embedded once per model.
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
    ):
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {parallelism}")
        self.dataset = dataset
        self.space = space
        self.embedder = embedder
        self.generator = generator
        self.templates = templates or TemplateStore.builtin()
        self.judge = judge
        self.parallelism = parallelism
        self._indices: dict[IndexConfig, tuple[VectorIndex, int]] = {}
        self._question_vectors: dict[tuple[str, str], np.ndarray] = {}

    def _index_for(self, index_config: IndexConfig) -> tuple[VectorIndex, int]:
        cached = self._indices.get(index_config)
        if cached is None:
            log.info(
                "building index: chunk_size=%d overlap=%.2f model=%s",
                index_config.chunk_size,
                index_config.chunk_overlap,
                index_config.embedding_model,
            )
            cached = build_index(self.dataset.corpus, index_config, self.embedder)
            self._indices[index_config] = cached
        return cached

    def _questions_embedded(self, model: str, split: str) -> np.ndarray:
        key = (model, split)
        vectors = self._question_vectors.get(key)
        if vectors is None:
            questions = self.dataset.split(split)
            vectors = self.embedder.embed(model, [qa.question for qa in questions])
            self._question_vectors[key] = vectors
        return vectors

    def _retrieve_all(
        self, config: RagConfig, split: str
    ) -> tuple[list[list[RetrievedChunk]], int]:
        if not self.space.contains(config):
            raise ValueError(f"configuration {config.as_dict()} is not in the search space")
        index, embedded_tokens = self._index_for(config.index)
        query_vectors = self._questions_embedded(config.index.embedding_model, split)
        if len(index) and len(query_vectors) and query_vectors.shape[1] != index.dim:
            raise ServiceFailure(
                f"embedding model {config.index.embedding_model!r} returned "
                f"{query_vectors.shape[1]}-dimensional question vectors for a "
                f"{index.dim}-dimensional index"
            )
        retrieved = [index.search(vector, config.answer.top_k) for vector in query_vectors]
        return retrieved, embedded_tokens

    def supports_metric(self, metric: str, split: str) -> bool:
        if metric == CONTEXT_MRR:
            return any(qa.gold_doc_ids for qa in self.dataset.split(split))
        if metric == JUDGE_AC:
            return self.judge is not None
        return metric in (LEXICAL_AC, FAITHFULNESS)

    def evaluate_retrieval_only(self, config: RagConfig, split: str) -> EvalResult:
        """Score retrieval quality only; no generation is run or charged."""
        questions = self.dataset.split(split)
        retrieved, embedded_tokens = self._retrieve_all(config, split)
        per_question = []
        for qa, chunks in zip(questions, retrieved):
            qe = QuestionEval(qid=qa.qid, retrieved=tuple(chunks))
            mrr = context_correctness_mrr(chunks, qa.gold_doc_ids)
            if mrr is not None:
                qe.scores[CONTEXT_MRR] = mrr
            per_question.append(qe)
        agg = aggregate(
            [qe.scores.get(CONTEXT_MRR) for qe in per_question]
        )  # raises when no question has gold documents
        if agg.excluded:
            log.info("%d questions lack gold documents; excluded from retrieval score", agg.excluded)
        return EvalResult(
            config=config,
            per_question=tuple(per_question),
            objective_score=agg.mean,
            cost=CostDelta(embedded_tokens=embedded_tokens),
        )

    def evaluate(self, config: RagConfig, split: str, objective: Objective) -> EvalResult:
        """Run retrieval plus generation and score the requested objective."""
        if JUDGE_AC in objective.metrics and self.judge is None:
            raise ValueError("objective includes judge_ac but no judge endpoint is configured")
        questions = self.dataset.split(split)
        retrieved, embedded_tokens = self._retrieve_all(config, split)

        def answer_one(args: tuple[QaPair, list[RetrievedChunk]]):
            qa, chunks = args
            try:
                return generate_answer(
                    qa.question, chunks, config.answer, self.templates, self.generator
                )
            except ServiceFailure as exc:
                log.warning("generation failed for %s: %s", qa.qid, exc)
                return None

        work = list(zip(questions, retrieved))
        if self.parallelism > 1:
            with ThreadPoolExecutor(max_workers=self.parallelism) as pool:
                generations = list(pool.map(answer_one, work))
        else:
            generations = [answer_one(item) for item in work]

        per_question: list[QuestionEval] = []
        failed: list[str] = []
        input_tokens = 0
        output_tokens = 0
        for qa, chunks, result in zip(questions, retrieved, generations):
            if result is None:
                failed.append(qa.qid)
                continue
            input_tokens += result.input_tokens
            output_tokens += result.output_tokens
            qe = QuestionEval(
                qid=qa.qid, generated_answer=result.text, retrieved=tuple(chunks)
            )
            mrr = context_correctness_mrr(chunks, qa.gold_doc_ids)
            if mrr is not None:
                qe.scores[CONTEXT_MRR] = mrr
            qe.scores[FAITHFULNESS] = faithfulness_precision(result.text, chunks)
            lex = lexical_answer_correctness(result.text, qa.gold_answer)
            if lex is not None:
                qe.scores[LEXICAL_AC] = lex
            if JUDGE_AC in objective.metrics:
                qe.scores[JUDGE_AC] = self.judge.score(
                    qa.question, result.text, qa.gold_answer
                )
            per_question.append(qe)
        if failed:
            log.warning(
                "%d/%d generations failed and are excluded from aggregation",
                len(failed),
                len(questions),
            )
        if not per_question:
            raise ServiceFailure("every generation failed; nothing to aggregate")

        score = 0.0
        for metric, weight in objective.weighted_metrics():
            try:
                agg = aggregate([qe.scores.get(metric) for qe in per_question])
            except MetricUndefinedError:
                raise MetricUndefinedError(
                    f"metric {metric!r} is undefined for every question on split {split!r}"
                ) from None
            score += weight * agg.mean
        return EvalResult(
            config=config,
            per_question=tuple(per_question),
            objective_score=score,
            cost=CostDelta(
                embedded_tokens=embedded_tokens,
                generation_input_tokens=input_tokens,
                generation_output_tokens=output_tokens,
            ),
            failed_qids=tuple(failed),
        )
