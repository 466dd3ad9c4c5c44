import contextlib
import gc
import hashlib
import json
import math
import random
import re
import socket
import sqlite3
import threading
import time
import weakref
from collections import Counter
from dataclasses import replace
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import raghpo.pipeline
from raghpo.costs import CostDelta
from raghpo.dataio import Dataset, QaPair
from raghpo.evaluator import Objective
from raghpo.metrics import CONTEXT_MRR, FAITHFULNESS, JUDGE_AC, LEXICAL_AC
from raghpo.pipeline import (
    EMBED,
    GENERATE,
    JUDGE,
    Chunk,
    EmbeddingClient,
    GenerationClient,
    GenerationResult,
    JudgeClient,
    LivePipelineEvaluator,
    ReplyStore,
    ServiceEndpoint,
    ServiceFailure,
    TemplateStore,
    VectorIndex,
    build_index,
    chunk_corpus,
    chunk_document,
    chunk_spans,
    retrieve,
    whitespace_tokens,
)
from raghpo.searchspace import AnswerConfig, IndexConfig, RagConfig, SearchSpace

from conftest import STUB_VECTOR_DIM, make_document, stub_vector, stub_generation_tokens

GOLDEN_DIR = Path(__file__).parent / "golden"


class FakeEmbedder:
    """Local stand-in for the embedding service with the same stub vectors."""

    batch_size = 32

    def __init__(self):
        self.batches: list[list[str]] = []

    def embed(self, model: str, texts):
        self.batches.append(list(texts))
        if not texts:
            return np.zeros((0, 0))
        return np.asarray([stub_vector(t) for t in texts])


# ---------------------------------------------------------------------------
# Chunking
# ---------------------------------------------------------------------------


def test_chunk_spans_doc_shorter_than_window():
    assert chunk_spans(100, 256, 0.0) == [(0, 100)]


def test_chunk_spans_exact_multiple():
    assert chunk_spans(512, 256, 0.0) == [(0, 256), (256, 256)]


def test_chunk_spans_with_overlap():
    # stride 256 - 64 = 192; final chunk holds the 216-token remainder.
    spans = chunk_spans(600, 256, 0.25)
    assert spans == [(0, 256), (192, 256), (384, 216)]
    assert sum(1 for _ in spans) == 3


def test_chunk_spans_empty_doc():
    assert chunk_spans(0, 256, 0.0) == []


def test_chunk_spans_validation():
    with pytest.raises(ValueError):
        chunk_spans(10, 0, 0.0)
    with pytest.raises(ValueError):
        chunk_spans(10, 4, 1.0)


def _closed_form_spans(n_tokens, chunk_size, overlap):
    # n = 1 if T <= C else 1 + ceil((T - C) / stride); span i starts at i*stride.
    if n_tokens == 0:
        return []
    stride = chunk_size - math.floor(chunk_size * overlap)
    n = 1 if n_tokens <= chunk_size else 1 + math.ceil((n_tokens - chunk_size) / stride)
    return [
        (i * stride, min(chunk_size, n_tokens - i * stride)) for i in range(n)
    ]


def test_chunk_spans_match_closed_form_on_random_triples():
    rng = random.Random(97)
    for _ in range(200):
        n_tokens = rng.randrange(0, 3000)
        chunk_size = rng.randrange(1, 600)
        overlap = rng.choice([0.0, 0.1, 0.25, 0.5, 0.9])
        spans = chunk_spans(n_tokens, chunk_size, overlap)
        assert spans == _closed_form_spans(n_tokens, chunk_size, overlap)
        if not spans:
            continue
        # Coverage: spans reach the end and start at 0.
        assert spans[0][0] == 0
        assert spans[-1][0] + spans[-1][1] == n_tokens
        # Consecutive overlap equals floor(chunk_size * overlap).
        expected_overlap = math.floor(chunk_size * overlap)
        for (s1, l1), (s2, _) in zip(spans, spans[1:]):
            assert (s1 + l1) - s2 == expected_overlap


def test_chunk_document_text_and_ids():
    doc = make_document("docA", 10)
    chunks = chunk_document(doc, chunk_size=4, chunk_overlap=0.5)
    assert [c.chunk_id for c in chunks] == [f"docA#{i:05d}" for i in range(len(chunks))]
    tokens = whitespace_tokens(doc.text)
    for c in chunks:
        assert c.text == " ".join(tokens[c.token_start : c.token_start + c.token_length])
        assert c.source_doc_id == "docA"
        assert c.token_length <= 4


# ---------------------------------------------------------------------------
# Vector index
# ---------------------------------------------------------------------------


def _make_index(vectors):
    chunks = [
        Chunk(
            chunk_id=f"c{i:03d}",
            source_doc_id=f"d{i}",
            token_start=0,
            token_length=2,
            text=f"chunk {i}",
        )
        for i in range(len(vectors))
    ]
    return VectorIndex(chunks, np.asarray(vectors, dtype=float))


def test_search_matches_exhaustive_cosine_scan():
    rng = np.random.default_rng(7)
    vectors = rng.normal(size=(20, 6))
    index = _make_index(vectors)
    query = rng.normal(size=6)
    got = index.search(query, top_k=5)

    # Brute-force oracle: cosine similarities sorted with the same tie rule.
    unit = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    sims = unit @ (query / np.linalg.norm(query))
    expected = sorted(range(20), key=lambda i: (-sims[i], f"c{i:03d}"))[:5]
    assert [c.source_doc_id for c in got] == [f"d{i}" for i in expected]
    assert [c.rank for c in got] == [1, 2, 3, 4, 5]


def test_search_tie_breaks_by_chunk_id():
    vectors = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    index = _make_index(vectors)
    got = index.search(np.array([1.0, 0.0]), top_k=2)
    assert [c.source_doc_id for c in got] == ["d0", "d1"]


def test_search_k_larger_than_index_returns_all(caplog):
    index = _make_index([[1.0, 0.0], [0.0, 1.0]])
    with caplog.at_level("WARNING"):
        got = index.search(np.array([1.0, 0.0]), top_k=10)
    assert len(got) == 2
    assert "exceeds index size" in caplog.text


def test_search_single_chunk_any_k():
    index = _make_index([[0.3, 0.4]])
    got = index.search(np.array([1.0, 1.0]), top_k=3)
    assert len(got) == 1
    assert got[0].rank == 1


@st.composite
def _index_and_query(draw):
    """Small integer vectors, so duplicates and equal similarities are common."""
    n = draw(st.integers(1, 24))
    dim = draw(st.integers(1, 3))
    component = st.integers(-2, 2)
    pool = draw(st.lists(st.lists(component, min_size=dim, max_size=dim), min_size=1, max_size=n))
    rows = [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(n)]
    # chunk_id order differs from row order.
    id_order = draw(st.permutations(range(n)))
    query = draw(st.lists(component, min_size=dim, max_size=dim))
    return np.asarray(rows, dtype=float), [f"c{j:03d}" for j in id_order], np.asarray(query, float)


@given(_index_and_query(), st.integers(1, 30), st.booleans())
def test_search_matches_full_sort_with_ties(case, k, at_tie):
    vectors, chunk_ids, query = case
    n = len(vectors)
    chunks = [Chunk(cid, f"row{i}", 0, 1, f"text {i}") for i, cid in enumerate(chunk_ids)]
    index = VectorIndex(chunks, vectors)
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    qnorm = np.linalg.norm(query)
    sims = (vectors / norms) @ (query / qnorm if qnorm > 0 else query)
    oracle = sorted(range(n), key=lambda i: (-sims[i], chunk_ids[i]))
    tie_cuts = [j for j in range(1, n) if sims[oracle[j - 1]] == sims[oracle[j]]]
    if at_tie and tie_cuts:
        k = tie_cuts[k % len(tie_cuts)]  # the k-th and (k+1)-th rows tie
    got = index.search(query, k)
    assert [c.source_doc_id for c in got] == [f"row{i}" for i in oracle[:k]]
    assert [c.rank for c in got] == list(range(1, min(k, n) + 1))


# ---------------------------------------------------------------------------
# Index building
# ---------------------------------------------------------------------------


def test_build_index_token_count_is_chunk_sum():
    corpus = [make_document("a", 100), make_document("b", 256), make_document("c", 44)]
    index, embedded = build_index(
        corpus, IndexConfig(256, 0.0, "emb"), FakeEmbedder()
    )
    assert embedded == 400
    assert len(index) == 3


def test_build_index_empty_corpus():
    index, embedded = build_index([], IndexConfig(256, 0.0, "emb"), FakeEmbedder())
    assert len(index) == 0
    assert embedded == 0


def test_index_determinism():
    corpus = [make_document("a", 30), make_document("b", 17)]
    config = IndexConfig(8, 0.25, "emb")
    index1, count1 = build_index(corpus, config, FakeEmbedder())
    index2, count2 = build_index(corpus, config, FakeEmbedder())
    assert count1 == count2
    assert [c.chunk_id for c in index1.chunks] == [c.chunk_id for c in index2.chunks]
    query = np.asarray(stub_vector("some question"))
    assert index1.search(query, 3) == index2.search(query, 3)


# ---------------------------------------------------------------------------
# Prompt templates
# ---------------------------------------------------------------------------

QUESTION = "What tuning parameters are available?"
CHUNKS = ["First chunk text.", "Second chunk text.", "Third chunk text."]


@pytest.mark.parametrize(
    "model,golden",
    [
        ("Granite-3.1-8B-instruct", "granite_prompt.txt"),
        ("Llama-3.1-8B-Instruct", "llama_prompt.txt"),
        ("Mistral-Nemo-Instruct-2407", "mistral_prompt.txt"),
    ],
)
def test_prompt_matches_golden_file(model, golden):
    store = TemplateStore.builtin()
    prompt = store.for_model(model).render(QUESTION, CHUNKS)
    assert prompt == (GOLDEN_DIR / golden).read_text(encoding="utf-8")


def test_granite_chunks_individually_wrapped():
    store = TemplateStore.builtin()
    prompt = store.for_model("Granite-3.1-8B-instruct").render(QUESTION, CHUNKS)
    assert prompt.count("[Document]") == 3
    assert prompt.count("[End]") == 3
    assert "[Document]\nSecond chunk text.\n[End]" in prompt


def test_llama_chunks_prefixed():
    store = TemplateStore.builtin()
    prompt = store.for_model("Llama-3.1-8B-Instruct").render(QUESTION, CHUNKS)
    assert prompt.count("[document]: ") == 3


def test_empty_retrieval_renders_no_document_block():
    store = TemplateStore.builtin()
    prompt = store.for_model("Granite-3.1-8B-instruct").render(QUESTION, [])
    assert "[Document]" not in prompt
    assert "{retrieved documents}" not in prompt
    assert QUESTION in prompt


def test_unknown_model_raises():
    store = TemplateStore.builtin()
    with pytest.raises(KeyError, match="no prompt template"):
        store.for_model("gpt-42")


# ---------------------------------------------------------------------------
# Service clients against the loopback stub
# ---------------------------------------------------------------------------


def _endpoint(service, **kwargs) -> ServiceEndpoint:
    defaults = dict(base_url=service.base_url, timeout=5.0, max_attempts=3, backoff_seconds=0.01)
    defaults.update(kwargs)
    return ServiceEndpoint(**defaults)


def _vectors(make):
    """An /embed reply with ``make(i, text)`` as the vector of each text."""
    return lambda payload: {"vectors": [make(i, t) for i, t in enumerate(payload["texts"])]}


BAD_EMBED_REPLIES = {
    "ragged": _vectors(lambda i, t: [1.0, 2.0] if i == 0 else [1.0]),
    "not numeric": _vectors(lambda i, t: ["a", "b"]),
    "flat": _vectors(lambda i, t: 1.0),
    "empty": _vectors(lambda i, t: []),
    "nan": _vectors(lambda i, t: [float("nan"), 1.0]),
    "infinite": _vectors(lambda i, t: [float("inf"), 1.0]),
    "booleans": _vectors(lambda i, t: [True, False]),
    "numeric strings": _vectors(lambda i, t: ["1", "2.5"]),
    "a boolean among numbers": _vectors(lambda i, t: [True, 1.5]),
    "an integer too large for a float": _vectors(lambda i, t: [10**400, 1.0]),
}


@pytest.mark.parametrize("reply", BAD_EMBED_REPLIES.values(), ids=BAD_EMBED_REPLIES.keys())
def test_embedding_client_rejects_malformed_vectors(stub_service, reply):
    stub_service.override("/embed", reply)
    client = EmbeddingClient(_endpoint(stub_service), batch_size=2)
    with pytest.raises(ServiceFailure, match=f"^{re.escape(stub_service.base_url)}/embed reply vector"):
        client.embed("emb-model", [f"text {i}" for i in range(4)])


BAD_TOKEN_COUNTS = {
    "negative": b"-5",
    "string": b'"abc"',
    "out of float range": b"1e400",
    "list": b"[3]",
    "true": b"true",
    "fraction": b"2.5",
}


@pytest.mark.parametrize("field", ["input_tokens", "output_tokens"])
@pytest.mark.parametrize("count", BAD_TOKEN_COUNTS.values(), ids=BAD_TOKEN_COUNTS.keys())
def test_generation_client_rejects_a_token_count_that_is_not_a_count(stub_service, field, count):
    stub_service.override(
        "/generate", lambda payload: b'{"text": "an answer", "%s": %s}' % (field.encode(), count)
    )
    with pytest.raises(ServiceFailure, match=field):
        GenerationClient(_endpoint(stub_service)).generate("gen", "a prompt")


def test_judge_client_rejects_a_boolean_score(stub_service):
    stub_service.override("/judge", lambda payload: {"score": True})
    with pytest.raises(ServiceFailure, match="score"):
        JudgeClient(_endpoint(stub_service)).score("q", "a", "gold")


MALFORMED_BODIES = {
    "not json": lambda payload: b"<html>busy</html>",
    "json array": lambda payload: [1, 2],
    "json string": lambda payload: "ok",
    "json nested too deep": lambda payload: b"[" * 100_000,
}


@pytest.mark.parametrize("route", ["/embed", "/generate", "/judge"])
@pytest.mark.parametrize("body", MALFORMED_BODIES.values(), ids=MALFORMED_BODIES.keys())
def test_malformed_ok_reply_is_a_service_failure(stub_service, route, body):
    stub_service.override(route, body)
    endpoint = _endpoint(stub_service)
    call = {
        "/embed": lambda: EmbeddingClient(endpoint).embed("emb", ["text"]),
        "/generate": lambda: GenerationClient(endpoint).generate("gen", "prompt"),
        "/judge": lambda: JudgeClient(endpoint).score("q", "a", "gold"),
    }[route]
    with pytest.raises(ServiceFailure, match="JSON"):
        call()


def test_generation_client_token_accounting_matches_stub(stub_service):
    client = GenerationClient(_endpoint(stub_service))
    result = client.generate("gen-model", "a prompt with several words inside")
    declared_in, declared_out = stub_generation_tokens("a prompt with several words inside")
    assert result.input_tokens == declared_in
    assert result.output_tokens == declared_out
    assert not result.counts_estimated
    assert result.text == "echo: a prompt with several words inside"


def test_generation_pins_greedy_decoding(stub_service):
    client = GenerationClient(_endpoint(stub_service))
    client.generate("gen-model", "prompt")
    payload = stub_service.calls("/generate")[0]
    assert payload["params"]["temperature"] == 0.0
    assert payload["params"]["greedy"] is True


def test_generation_estimates_when_counts_missing(stub_service):
    stub_service.set_omit_token_counts(True)
    client = GenerationClient(_endpoint(stub_service))
    result = client.generate("gen-model", "five words in this prompt")
    assert result.counts_estimated
    assert result.input_tokens == 5
    assert result.output_tokens == len(result.text.split())


def test_retry_recovers_from_transient_failures(stub_service):
    stub_service.fail_next("/generate", 2)
    client = GenerationClient(_endpoint(stub_service, max_attempts=3))
    result = client.generate("gen-model", "prompt")
    assert result.text.startswith("echo:")


def test_service_failure_after_retry_budget(stub_service):
    stub_service.fail_next("/generate", 5)
    client = GenerationClient(_endpoint(stub_service, max_attempts=2))
    with pytest.raises(ServiceFailure, match="after 2 attempts"):
        client.generate("gen-model", "prompt")


# A ResourceWarning, such as one for a socket left to the garbage collector,
# fails a transport test.
transport_test = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
)


@transport_test
def test_client_error_status_fails_after_one_request(stub_service):
    client = GenerationClient(_endpoint(stub_service, base_url=stub_service.base_url + "/v9"))
    with pytest.raises(ServiceFailure, match=r"returned HTTP 404: no route /v9/generate"):
        client.generate("gen-model", "prompt")
    assert len(stub_service.received("/v9/generate")) == 1


@transport_test
def test_too_many_requests_is_retried(stub_service):
    stub_service.fail_next("/generate", 1, status=429)
    result = GenerationClient(_endpoint(stub_service)).generate("gen-model", "prompt")
    assert result.text.startswith("echo:")
    assert len(stub_service.received("/generate")) == 2


@transport_test
def test_closed_port_is_retried_until_the_budget_is_spent(caplog):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    endpoint = ServiceEndpoint(
        base_url=f"http://127.0.0.1:{port}", timeout=1.0, max_attempts=3, backoff_seconds=0.01
    )
    with caplog.at_level("WARNING"), pytest.raises(ServiceFailure, match="failed after 3 attempts"):
        GenerationClient(endpoint).generate("gen-model", "prompt")
    assert caplog.text.count("failed (attempt") == 3


@transport_test
def test_reply_slower_than_the_timeout_is_retried(stub_service):
    delays = iter([0.6])

    def slow_once(payload):
        time.sleep(next(delays, 0.0))

    stub_service.override("/generate", slow_once)
    client = GenerationClient(_endpoint(stub_service, timeout=0.2))
    assert client.generate("gen-model", "prompt").text.startswith("echo:")
    assert len(stub_service.received("/generate")) == 2


@transport_test
def test_ok_reply_of_invalid_utf8_is_not_json(stub_service):
    stub_service.override("/generate", lambda payload: b'{"text": "\xff"}')
    with pytest.raises(ServiceFailure, match="not JSON"):
        GenerationClient(_endpoint(stub_service)).generate("gen-model", "prompt")


@transport_test
def test_request_carries_the_token_and_the_json_payload(stub_service, monkeypatch):
    monkeypatch.setenv("RAGHPO_TEST_TOKEN", "secret")
    client = GenerationClient(_endpoint(stub_service, auth_env="RAGHPO_TEST_TOKEN"))
    client.generate("gen-model", "café prompt")
    [(headers, body)] = stub_service.received("/generate")
    assert headers["Authorization"] == "Bearer secret"
    assert headers["Content-Type"] == "application/json"
    payload = {
        "model": "gen-model",
        "prompt": "café prompt",
        "params": {"temperature": 0.0, "greedy": True},
    }
    assert body == json.dumps(payload).encode("utf-8")


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"base_url": "localhost:9"}, "http:// or https:// URL with a host"),
        ({"base_url": "ftp://host"}, "http:// or https:// URL with a host"),
        ({"base_url": "http://"}, "http:// or https:// URL with a host"),
        ({"base_url": "http://host:port"}, "invalid port"),
        ({"base_url": "http://host/a b"}, "without spaces"),
        ({"base_url": 9}, "must be a string"),
        ({"base_url": "http://host", "timeout": 0.0}, "timeout must be > 0"),
        ({"base_url": "http://host", "backoff_seconds": -1.0}, "backoff_seconds must be >= 0"),
    ],
)
def test_endpoint_rejects_a_bad_field(fields, message):
    with pytest.raises(ValueError, match=message):
        ServiceEndpoint(**fields)


def test_endpoint_from_dict_rejects_a_fraction_or_boolean_number():
    # Nor a string or an integral float: no setting is converted.
    for field, value in (("timeout", "5"), ("max_attempts", 2.0), ("max_attempts", 2.7), ("timeout", True)):
        message = f"cfg.json: endpoint field {field!r} has the wrong type: {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ServiceEndpoint.from_dict({"base_url": "http://host", field: value}, "cfg.json")


def test_endpoint_from_dict_takes_whole_seconds_and_defaults_what_it_lacks():
    endpoint = ServiceEndpoint.from_dict({"base_url": "http://host", "timeout": 5, "backoff_seconds": 0}, "cfg")
    assert endpoint == ServiceEndpoint("http://host", timeout=5, backoff_seconds=0)
    assert (endpoint.auth_env, endpoint.max_attempts) == (None, 3)


def test_missing_auth_token_is_logged_once_per_client(stub_service, monkeypatch, caplog):
    monkeypatch.delenv("RAGHPO_TEST_TOKEN", raising=False)
    endpoint = _endpoint(stub_service, auth_env="RAGHPO_TEST_TOKEN")
    assert endpoint.headers() == {}
    client = GenerationClient(endpoint)
    with caplog.at_level("WARNING"):
        for _ in range(3):
            client.generate("gen-model", "prompt")
    assert caplog.text.count("RAGHPO_TEST_TOKEN is not set") == 1
    with caplog.at_level("WARNING"):
        EmbeddingClient(endpoint).embed("emb", ["text"])
    assert caplog.text.count("RAGHPO_TEST_TOKEN is not set") == 2
    monkeypatch.setenv("RAGHPO_TEST_TOKEN", "secret")
    assert endpoint.headers() == {"Authorization": "Bearer secret"}


def test_judge_client_roundtrip(stub_service):
    judge = JudgeClient(_endpoint(stub_service))
    assert judge.score("q", "a", "gold") == 0.5


def test_retrieve_over_stub_matches_local_scan(stub_service):
    corpus = [make_document(f"doc{i:02d}", 6) for i in range(20)]
    config = IndexConfig(chunk_size=16, chunk_overlap=0.0, embedding_model="emb")
    embedder = EmbeddingClient(_endpoint(stub_service), batch_size=7)
    index, _ = build_index(corpus, config, embedder)
    question = "which document"
    got = retrieve(index, question, 5, embedder, "emb")

    texts = [c.text for c in index.chunks]
    matrix = np.asarray([stub_vector(t) for t in texts])
    matrix = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
    qv = np.asarray(stub_vector(question))
    sims = matrix @ (qv / np.linalg.norm(qv))
    expected = sorted(
        range(len(texts)), key=lambda i: (-sims[i], index.chunks[i].chunk_id)
    )[:5]
    assert [c.source_doc_id for c in got] == [index.chunks[i].source_doc_id for i in expected]


def test_fill_prompts_are_the_model_template_over_each_question_retrieval(
    stub_service, tiny_dataset
):
    evaluator = _live(stub_service, tiny_dataset)
    config = _config()
    evaluator.evaluate(config, "dev", Objective())
    retrieved, _ = evaluator._retrieve_all(config, "dev")
    template = TemplateStore.builtin().for_model(config.answer.generative_model)
    assert [call["prompt"] for call in stub_service.calls("/generate")] == [
        template.render(qa.question, [c.text for c in chunks])
        for qa, chunks in zip(tiny_dataset.dev, retrieved)
    ]


# ---------------------------------------------------------------------------
# Live evaluator
# ---------------------------------------------------------------------------


def _live(stub_service, dataset, space=None, replies=None, **kwargs) -> LivePipelineEvaluator:
    return LivePipelineEvaluator(
        dataset=dataset,
        space=space or SearchSpace.default(),
        embedder=EmbeddingClient(_endpoint(stub_service), batch_size=16),
        generator=GenerationClient(_endpoint(stub_service, **kwargs)),
        templates=TemplateStore.builtin(),
        replies=replies,
    )


def _config(model="Granite-3.1-8B-instruct") -> RagConfig:
    return RagConfig.from_values(256, 0.0, "multilingual-e5-large", 3, model)


def _rows(evaluator: LivePipelineEvaluator, metric: str, split: str = "dev") -> dict[str, float]:
    """The per-question scores the evaluator's table holds for ``_config()``."""
    ordinal = evaluator.space.ordinal_of(_config())
    return {
        qid: score
        for (o, s, m, qid), score in evaluator.table.scores.items()
        if (o, s, m) == (ordinal, split, metric)
    }


def test_live_retrieval_only_zero_generation(stub_service, tiny_dataset):
    evaluator = _live(stub_service, tiny_dataset)
    result = evaluator.evaluate_retrieval_only(_config(), "dev")
    assert result.cost.generation_input_tokens == 0
    assert result.cost.generation_output_tokens == 0
    # Every document fits one chunk of 12 tokens: 5 docs * 12 tokens.
    assert result.cost.embedded_tokens == 60
    assert 0.0 <= result.objective_score <= 1.0
    assert len(stub_service.calls("/generate")) == 0


def test_live_evaluate_full_cost_accounting(stub_service, tiny_dataset):
    evaluator = _live(stub_service, tiny_dataset)
    result = evaluator.evaluate(_config(), "dev", Objective())
    prompts = [call["prompt"] for call in stub_service.calls("/generate")]
    assert len(prompts) == 4
    declared = [stub_generation_tokens(p) for p in prompts]
    assert result.cost.generation_input_tokens == sum(d[0] for d in declared)
    assert result.cost.generation_output_tokens == sum(d[1] for d in declared)
    assert result.cost.embedded_tokens == 60
    for metric in (CONTEXT_MRR, LEXICAL_AC, FAITHFULNESS):
        rows = _rows(evaluator, metric)
        assert list(rows) == ["q0", "q1", "q2", "q3"]
        assert all(0.0 <= value <= 1.0 for value in rows.values())


def test_fill_adds_only_missing_rows_and_replaces_the_cost_row(stub_service, tiny_dataset):
    evaluator = _live(stub_service, tiny_dataset)
    ordinal = evaluator.space.ordinal_of(_config())
    qids = ["q0", "q1", "q2", "q3"]
    added = evaluator.fill(_config(), "dev", (CONTEXT_MRR,))
    assert [key for key, _ in added] == [(ordinal, "dev", CONTEXT_MRR, q) for q in qids]
    assert evaluator.table.cost_for(ordinal, "dev") == CostDelta(embedded_tokens=60)

    added = evaluator.fill(_config(), "dev", (LEXICAL_AC, FAITHFULNESS, CONTEXT_MRR))
    assert [key[2:] for key, _ in added] == [(m, q) for q in qids for m in (LEXICAL_AC, FAITHFULNESS)]
    cost = evaluator.table.cost_for(ordinal, "dev")
    assert cost.embedded_tokens == 60 and cost.generation_input_tokens > 0

    # The cell is complete: nothing runs, and each evaluation reads the stored cost.
    requests = len(stub_service.received("/generate"))
    assert evaluator.fill(_config(), "dev", (CONTEXT_MRR, LEXICAL_AC)) == []
    assert evaluator.evaluate_retrieval_only(_config(), "dev").cost == CostDelta(embedded_tokens=60)
    assert evaluator.evaluate(_config(), "dev", Objective(metrics=(CONTEXT_MRR,))).cost == cost
    assert len(stub_service.received("/generate")) == requests
    assert evaluator.replay_objective(_config(), "dev", Objective()) is None


def test_live_evaluate_deterministic(stub_service, tiny_dataset):
    evaluator = _live(stub_service, tiny_dataset)
    first = evaluator.evaluate(_config(), "dev", Objective())
    second = evaluator.evaluate(_config(), "dev", Objective())
    assert first == second


def test_live_index_cache_reused_across_configs(stub_service, tiny_dataset):
    evaluator = _live(stub_service, tiny_dataset)
    evaluator.evaluate_retrieval_only(_config(), "dev")
    calls_after_first = len(stub_service.calls("/embed"))
    # Same IndexConfig, different answering stage: neither the corpus nor the
    # split's questions are embedded again.
    other = RagConfig.from_values(256, 0.0, "multilingual-e5-large", 5, "Llama-3.1-8B-Instruct")
    evaluator.evaluate_retrieval_only(other, "dev")
    calls_after_second = len(stub_service.calls("/embed"))
    assert calls_after_second == calls_after_first


def test_live_evaluator_builds_eighteen_distinct_indices(tiny_dataset):
    # One index per distinct (chunk_size, overlap, embedding model) triple.
    space = SearchSpace.default()
    evaluator = LivePipelineEvaluator(
        dataset=tiny_dataset,
        space=space,
        embedder=FakeEmbedder(),
        generator=None,  # retrieval-only path never generates
    )
    index_configs = {c.index for c in space.enumerate()}
    assert len(index_configs) == 18
    for index_config in sorted(
        index_configs,
        key=lambda ic: (ic.chunk_size, ic.chunk_overlap, ic.embedding_model),
    ):
        config = RagConfig(index=index_config, answer=AnswerConfig(3, "Granite-3.1-8B-instruct"))
        evaluator.evaluate_retrieval_only(config, "dev")
    assert len(evaluator._indices) == 18


def test_live_failed_generation_excluded(stub_service, tiny_dataset):
    evaluator = _live(stub_service, tiny_dataset, max_attempts=1)
    stub_service.fail_next("/generate", 1)
    result = evaluator.evaluate(_config(), "dev", Objective())
    assert len(result.failed_qids) == 1
    assert len(_rows(evaluator, LEXICAL_AC)) == 3
    # Retrieval did not fail: the question keeps its context_mrr row.
    assert len(_rows(evaluator, CONTEXT_MRR)) == 4


def test_live_malformed_generation_reply_excludes_question(stub_service, tiny_dataset):
    stub_service.override(
        "/generate",
        lambda payload: b"not json" if "document 2" in payload["prompt"] else None,
    )
    evaluator = _live(stub_service, tiny_dataset)
    result = evaluator.evaluate(_config(), "dev", Objective())
    assert result.failed_qids == ("q2",)
    assert list(_rows(evaluator, LEXICAL_AC)) == ["q0", "q1", "q3"]
    assert result.objective_score == sum(_rows(evaluator, LEXICAL_AC).values()) / 3


def test_live_question_dimension_must_match_index(stub_service, tiny_dataset):
    questions = {qa.question for qa in tiny_dataset.dev}
    stub_service.override(
        "/embed",
        _vectors(lambda i, t: [1.0, 0.0, 0.0] if t in questions else stub_vector(t)),
    )
    with pytest.raises(ServiceFailure, match="3-dimensional after 8-dimensional"):
        _live(stub_service, tiny_dataset).evaluate_retrieval_only(_config(), "dev")


def test_live_rejects_foreign_config(stub_service, tiny_dataset):
    evaluator = _live(stub_service, tiny_dataset)
    foreign = RagConfig.from_values(999, 0.0, "nope", 1, "nope")
    with pytest.raises(ValueError, match="not in the search space"):
        evaluator.evaluate(foreign, "dev", Objective())


def test_live_supports_metric(stub_service, tiny_dataset):
    evaluator = _live(stub_service, tiny_dataset)
    assert evaluator.supports_metric(CONTEXT_MRR, "dev")
    assert not evaluator.supports_metric(JUDGE_AC, "dev")  # no judge configured
    no_gold = Dataset(
        corpus=tiny_dataset.corpus,
        dev=tuple(
            QaPair(qid=q.qid, question=q.question, gold_answer=q.gold_answer)
            for q in tiny_dataset.dev
        ),
        test=(),
    )
    evaluator2 = _live(stub_service, no_gold)
    assert not evaluator2.supports_metric(CONTEXT_MRR, "dev")


@pytest.mark.parametrize("ask", ["evaluate", "fill"])
def test_judge_ac_without_a_judge_raises_before_any_request(stub_service, tiny_dataset, ask):
    evaluator = _live(stub_service, tiny_dataset)
    with pytest.raises(ValueError) as excinfo:
        if ask == "evaluate":
            evaluator.evaluate(_config(), "dev", Objective(metrics=(JUDGE_AC,)))
        else:
            evaluator.fill(_config(), "dev", (LEXICAL_AC, JUDGE_AC))
    assert str(excinfo.value) == "judge_ac requested but no judge endpoint is configured"
    assert {route: stub_service.calls(route) for route in ("/embed", "/generate", "/judge")} == {
        "/embed": [], "/generate": [], "/judge": []
    }
    assert evaluator.table.scores == {} and evaluator.table.costs == {}


def test_live_parallel_matches_sequential(stub_service, tiny_dataset):
    sequential = _live(stub_service, tiny_dataset)
    result_seq = sequential.evaluate(_config(), "dev", Objective())
    parallel = LivePipelineEvaluator(
        dataset=tiny_dataset,
        space=SearchSpace.default(),
        embedder=EmbeddingClient(_endpoint(stub_service), batch_size=16),
        generator=GenerationClient(_endpoint(stub_service)),
        parallelism=3,
    )
    result_par = parallel.evaluate(_config(), "dev", Objective())
    assert result_seq == result_par


@pytest.mark.parametrize("parallelism", [1, 2])
def test_questions_of_the_same_text_share_one_request_per_pass(
    stub_service, tiny_dataset, parallelism
):
    first = tiny_dataset.dev[0]
    dev = (first, replace(first, qid="q1"), *tiny_dataset.dev[2:])
    evaluator = LivePipelineEvaluator(
        dataset=replace(tiny_dataset, dev=dev),
        space=SearchSpace.default(),
        embedder=EmbeddingClient(_endpoint(stub_service)),
        generator=GenerationClient(_endpoint(stub_service)),
        judge=JudgeClient(_endpoint(stub_service)),
        parallelism=parallelism,
    )
    evaluator.evaluate(_config(), "dev", Objective(metrics=(LEXICAL_AC, JUDGE_AC)))
    for route in ("/generate", "/judge"):
        sent = [json.dumps(call, sort_keys=True) for call in stub_service.calls(route)]
        assert len(sent) == len(set(sent)) == 3
    for metric in (LEXICAL_AC, FAITHFULNESS, JUDGE_AC):
        rows = _rows(evaluator, metric)
        assert list(rows) == ["q0", "q1", "q2", "q3"] and rows["q0"] == rows["q1"]


# ---------------------------------------------------------------------------
# Work shared across indexes
# ---------------------------------------------------------------------------


def _shared_text_dataset() -> Dataset:
    """Documents whose chunks recur across chunk sizes and overlaps.

    A 3-token document is one chunk under every setting, d2 and d3 are the
    same text, and every document of 4 or more tokens starts with the same
    4-token window.
    """
    lengths = (3, 6, 10, 10, 17)
    corpus = tuple(make_document(f"d{i}", n) for i, n in enumerate(lengths))
    dev = tuple(
        QaPair(qid=f"q{i}", question=f"where is tok{i}", gold_answer=f"tok{i}",
               gold_doc_ids=(f"d{i}",))
        for i in range(3)
    )
    test = (QaPair(qid="t0", question="tok9 please", gold_answer="tok9", gold_doc_ids=("d2",)),)
    dataset = Dataset(corpus=corpus, dev=dev, test=test)
    dataset.validate()
    return dataset


def _model_salted_embeddings(stub_service) -> None:
    """Make the stub's vectors depend on the model as well as the text."""
    stub_service.override(
        "/embed",
        lambda payload: {
            "vectors": [stub_vector(payload["model"] + "|" + t) for t in payload["texts"]]
        },
    )


def _evaluate_every_cell(evaluator: LivePipelineEvaluator, space: SearchSpace) -> None:
    for config in space.enumerate():
        for split in ("dev", "test"):
            evaluator.evaluate_retrieval_only(config, split)


def test_each_distinct_model_text_is_embedded_once(stub_service, tiny_space):
    dataset = _shared_text_dataset()
    _model_salted_embeddings(stub_service)
    evaluator = _live(stub_service, dataset, tiny_space)
    _evaluate_every_cell(evaluator, tiny_space)

    sent = Counter(
        (call["model"], text) for call in stub_service.calls("/embed") for text in call["texts"]
    )
    assert set(sent.values()) == {1}
    chunk_lists = {
        (size, overlap): chunk_corpus(dataset.corpus, size, overlap)
        for size in tiny_space.chunk_sizes
        for overlap in tiny_space.chunk_overlaps
    }
    texts = {c.text for chunks in chunk_lists.values() for c in chunks}
    texts |= {qa.question for qa in dataset.dev + dataset.test}
    assert set(sent) == {(model, t) for model in tiny_space.embedding_models for t in texts}
    # The fixture does share texts: indexes of one model hold more chunks than
    # the distinct chunk texts that were sent for it.
    assert sum(len(chunks) for chunks in chunk_lists.values()) > len(texts)


def test_chunking_and_retrieval_run_once_per_shape(stub_service, tiny_space, monkeypatch):
    dataset = _shared_text_dataset()
    cuts: Counter = Counter()
    searches: Counter = Counter()
    chunk_document_ = raghpo.pipeline.chunk_document
    search = VectorIndex.search

    def counting_chunk_document(doc, chunk_size, chunk_overlap):
        cuts[doc.doc_id, chunk_size, chunk_overlap] += 1
        return chunk_document_(doc, chunk_size, chunk_overlap)

    def counting_search(index, query_vector, top_k):
        searches[id(index), top_k] += 1
        return search(index, query_vector, top_k)

    monkeypatch.setattr(raghpo.pipeline, "chunk_document", counting_chunk_document)
    monkeypatch.setattr(VectorIndex, "search", counting_search)
    evaluator = _live(stub_service, dataset, tiny_space)
    _evaluate_every_cell(evaluator, tiny_space)

    assert set(cuts) == {
        (doc.doc_id, size, overlap)
        for doc in dataset.corpus
        for size in tiny_space.chunk_sizes
        for overlap in tiny_space.chunk_overlaps
    }
    assert set(cuts.values()) == {1}
    # Every top_k and both generative models share each (index, split) retrieval.
    assert len(searches) == 8
    assert set(searches.values()) == {len(dataset.dev) + len(dataset.test)}


def test_cached_indexes_equal_a_fresh_build(stub_service, tiny_space):
    dataset = _shared_text_dataset()
    _model_salted_embeddings(stub_service)
    evaluator = _live(stub_service, dataset, tiny_space)
    _evaluate_every_cell(evaluator, tiny_space)
    fresh_client = EmbeddingClient(_endpoint(stub_service), batch_size=16)
    rng = np.random.default_rng(7)
    queries = [rng.normal(size=STUB_VECTOR_DIM) for _ in range(5)]

    assert len(evaluator._indices) == 8
    for index_config, (index, embedded_tokens) in evaluator._indices.items():
        fresh, fresh_tokens = build_index(dataset.corpus, index_config, fresh_client)
        assert index.chunks == fresh.chunks
        assert embedded_tokens == fresh_tokens
        for query in queries:
            for top_k in (1, 2, len(fresh)):
                assert index.search(query, top_k) == fresh.search(query, top_k)


def test_release_drops_one_index_and_its_retrievals_but_not_the_chunks(stub_service, tiny_space):
    dataset = _shared_text_dataset()
    model = _config().answer.generative_model
    space = SearchSpace.from_dict({**tiny_space.to_dict(), "generative_model": [model]})
    evaluator = _live(stub_service, dataset, space)
    _evaluate_every_cell(evaluator, space)
    config = space.config_at(0)
    indexes = set(evaluator._indices)
    retrieved = set(evaluator._retrieved)
    chunks = dict(evaluator._chunks)
    sent = len(stub_service.calls("/embed"))

    evaluator.release(config.index)
    assert set(evaluator._indices) == indexes - {config.index}
    assert set(evaluator._retrieved) == {key for key in retrieved if key[0] != config.index}
    # A later evaluation rebuilds the index from the kept chunk list and the
    # evaluator's reply store: nothing is chunked or embedded again.
    evaluator.evaluate(config, "dev", Objective())
    assert config.index in evaluator._indices
    assert all(evaluator._chunks[shape] is chunks[shape] for shape in chunks)
    assert len(stub_service.calls("/embed")) == sent


@pytest.mark.parametrize("documents", [2, 0], ids=["two chunks", "empty index"])
def test_each_top_k_is_a_prefix_of_one_retrieval_and_only_a_shortfall_warns(
    stub_service, caplog, documents
):
    space = SearchSpace(
        chunk_sizes=(4,), chunk_overlaps=(0.0,), embedding_models=("emb-a",),
        top_ks=(1, 3), generative_models=("gen-a",),
    )
    corpus = tuple(make_document(f"d{i}", 3) for i in range(documents))
    qa = QaPair(qid="q0", question="where is tok1", gold_answer="tok1", gold_doc_ids=("d0",))
    evaluator = _live(stub_service, Dataset(corpus=corpus, dev=(qa,), test=()), space)
    fits, exceeds = (RagConfig.from_values(4, 0.0, "emb-a", k, "gen-a") for k in (1, 3))

    with caplog.at_level("WARNING"):
        evaluator.evaluate_retrieval_only(fits, "dev")
        assert "exceeds index size" not in caplog.text
        evaluator.evaluate_retrieval_only(exceeds, "dev")
    assert ("top_k=3 exceeds index size 2" in caplog.text) == bool(documents)
    assert ("empty index" in caplog.text) == (not documents)
    (short,), _ = evaluator._retrieve_all(fits, "dev")
    (full,), _ = evaluator._retrieve_all(exceeds, "dev")
    assert len(full) == documents
    assert short == full[:1]
    assert list(evaluator._retrieved) == [(fits.index, "dev")]


def test_an_evaluator_runs_on_a_thread_other_than_the_one_that_made_it(
    stub_service, tiny_dataset
):
    evaluator = _live(stub_service, tiny_dataset)
    with ThreadPoolExecutor(max_workers=1) as pool:
        result = pool.submit(evaluator.evaluate, _config(), "dev", Objective()).result(timeout=60)
    assert result.failed_qids == ()
    assert len(stub_service.calls("/generate")) == len(tiny_dataset.dev)


@pytest.mark.parametrize("parallelism", [1, 2])
def test_used_evaluator_is_freed_without_the_cycle_collector(
    stub_service, tiny_dataset, parallelism
):
    evaluator = LivePipelineEvaluator(
        dataset=tiny_dataset,
        space=SearchSpace.default(),
        embedder=EmbeddingClient(_endpoint(stub_service)),
        generator=GenerationClient(_endpoint(stub_service)),
        parallelism=parallelism,
    )
    ref = weakref.ref(evaluator)
    gc.disable()
    try:
        evaluator.evaluate(_config(), "dev", Objective())
        evaluator.evaluate_retrieval_only(_config(), "test")
        del evaluator
        assert ref() is None
    finally:
        gc.enable()


def test_stored_rows_of_different_dimensions_are_a_service_failure(stub_service, tiny_space):
    # The first index and the questions come back 8-dimensional, the next
    # index's new texts 4-dimensional, while its shared texts are stored rows.
    dims = iter([STUB_VECTOR_DIM, STUB_VECTOR_DIM])

    def reply(payload):
        dim = next(dims, 4)
        return {"vectors": [stub_vector(t)[:dim] for t in payload["texts"]]}

    stub_service.override("/embed", reply)
    evaluator = _live(stub_service, _shared_text_dataset(), tiny_space)
    evaluator.evaluate_retrieval_only(RagConfig.from_values(4, 0.0, "emb-a", 1, "gen-a"), "dev")
    with pytest.raises(
        ServiceFailure, match="'emb-a' vectors are 4-dimensional after 8-dimensional"
    ):
        evaluator.evaluate_retrieval_only(
            RagConfig.from_values(8, 0.0, "emb-a", 1, "gen-a"), "dev"
        )


def test_live_embed_sends_unstored_texts_once_in_batches_of_batch_size(
    stub_service, tiny_dataset
):
    replies = ReplyStore()
    replies.put(EMBED, "emb", ["stored"], [np.asarray(stub_vector("stored"))])
    evaluator = LivePipelineEvaluator(
        dataset=tiny_dataset,
        space=SearchSpace.default(),
        embedder=EmbeddingClient(_endpoint(stub_service), batch_size=2),
        generator=GenerationClient(_endpoint(stub_service)),
        replies=replies,
    )
    texts = ["t0", "t1", "stored", "t2", "t1", "t3", "t4"]
    vectors = evaluator.embed("emb", texts)
    assert [call["texts"] for call in stub_service.calls("/embed")] == [
        ["t0", "t1"], ["t2", "t3"], ["t4"]
    ]
    np.testing.assert_array_equal(vectors, [stub_vector(t) for t in texts])


def test_a_fresh_batch_of_another_dimension_is_not_stored(stub_service, tiny_space, tmp_path):
    path = tmp_path / "replies.sqlite3"
    replies = ReplyStore(path)
    dataset = _shared_text_dataset()
    _live(stub_service, dataset, tiny_space, replies=replies).evaluate_retrieval_only(
        RagConfig.from_values(4, 0.0, "emb-a", 1, "gen-a"), "dev"
    )

    def stored_rows() -> int:
        with contextlib.closing(sqlite3.connect(path)) as db:
            return db.execute("SELECT COUNT(*) FROM replies").fetchone()[0]

    before = stored_rows()
    sent = len(stub_service.calls("/embed"))
    # The service now embeds in 3 dimensions; the next index shares stored 8-dimensional rows.
    stub_service.override("/embed", _vectors(lambda i, t: [1.0, 0.5, 0.25]))
    evaluator = _live(stub_service, dataset, tiny_space, replies=replies)
    with pytest.raises(ServiceFailure, match="3-dimensional after 8-dimensional") as failure:
        evaluator.evaluate_retrieval_only(RagConfig.from_values(8, 0.0, "emb-a", 1, "gen-a"), "dev")
    assert str(path) in str(failure.value)
    assert len(stub_service.calls("/embed")) == sent + 1
    assert stored_rows() == before
    replies.close()


def test_a_dimension_change_after_a_store_fallback_names_no_store_file(
    stub_service, tiny_space, tmp_path
):
    path = tmp_path / "replies.sqlite3"
    path.write_bytes(b"not a database" * 100)
    replies = ReplyStore(path)
    dataset = _shared_text_dataset()
    _live(stub_service, dataset, tiny_space, replies=replies).evaluate_retrieval_only(
        RagConfig.from_values(4, 0.0, "emb-a", 1, "gen-a"), "dev"
    )
    stub_service.override("/embed", _vectors(lambda i, t: [1.0, 0.5, 0.25]))
    evaluator = _live(stub_service, dataset, tiny_space, replies=replies)
    with pytest.raises(ServiceFailure, match="3-dimensional after 8-dimensional") as failure:
        evaluator.evaluate_retrieval_only(RagConfig.from_values(8, 0.0, "emb-a", 1, "gen-a"), "dev")
    assert "rows may come from" not in str(failure.value)
    assert str(path) not in str(failure.value)
    replies.close()


def test_failed_judge_call_excludes_the_question_and_keeps_its_cost(
    stub_service, tiny_dataset, monkeypatch
):
    stub_service.override(
        "/judge", lambda payload: b"not json" if "document 2" in payload["question"] else None
    )
    judge_threads = []
    score = JudgeClient.score

    def recording_score(client, *args):
        judge_threads.append(threading.current_thread())
        return score(client, *args)

    monkeypatch.setattr(JudgeClient, "score", recording_score)
    evaluator = LivePipelineEvaluator(
        dataset=tiny_dataset,
        space=SearchSpace.default(),
        embedder=EmbeddingClient(_endpoint(stub_service)),
        generator=GenerationClient(_endpoint(stub_service)),
        judge=JudgeClient(_endpoint(stub_service, max_attempts=1)),
        parallelism=2,
    )
    result = evaluator.evaluate(_config(), "dev", Objective(metrics=(LEXICAL_AC, JUDGE_AC)))

    assert result.failed_qids == ("q2",)
    assert _rows(evaluator, JUDGE_AC) == {"q0": 0.5, "q1": 0.5, "q3": 0.5}
    # The judged-out question keeps the rows its generation produced.
    assert list(_rows(evaluator, LEXICAL_AC)) == ["q0", "q1", "q2", "q3"]
    # All four generations were paid for, the judged-out one included.
    declared = [stub_generation_tokens(c["prompt"]) for c in stub_service.calls("/generate")]
    assert len(declared) == 4
    assert result.cost.generation_input_tokens == sum(d[0] for d in declared)
    assert result.cost.generation_output_tokens == sum(d[1] for d in declared)
    # Judge calls run in the generation worker pool.
    assert len(judge_threads) == 4
    assert threading.main_thread() not in judge_threads

    stub_service.override("/judge", lambda payload: b"not json")
    with pytest.raises(ServiceFailure, match="every generation or judge call failed"):
        evaluator.evaluate(_config(), "test", Objective(metrics=(LEXICAL_AC, JUDGE_AC)))


# ---------------------------------------------------------------------------
# Reply store
# ---------------------------------------------------------------------------


def test_reply_store_keeps_replies_exactly_under_route_model_and_input(tmp_path):
    texts = ["a", "caf\u00e9", "lone \ud800 surrogate", ""]
    vectors = np.random.default_rng(0).standard_normal((len(texts), 5))
    answer = GenerationResult("answer \u2603", 12, 3, counts_estimated=True)
    store = ReplyStore(tmp_path / "replies.sqlite3")
    store.put(EMBED, "m", texts, vectors)
    store.put(GENERATE, "m", ["a"], [answer])
    store.put(JUDGE, "http://judge", [("q", "a", "g")], [1.0])
    store.close()

    store = ReplyStore(tmp_path / "replies.sqlite3")
    got = store.get(EMBED, "m", texts + ["never sent"])
    assert set(got) == set(texts)
    assert np.stack([got[t] for t in texts]).tobytes() == vectors.tobytes()
    assert store.get(GENERATE, "m", texts) == {"a": answer}
    assert store.get(JUDGE, "http://judge", [("q", "a", "g"), ("q", "a", "x")]) == {("q", "a", "g"): 1.0}
    assert store.get(EMBED, "other model", texts) == {}
    assert store.get(GENERATE, "other model", ["a"]) == {}
    # The same input on another route is another request.
    assert store.get(EMBED, "m", ["a"]).keys() == {"a"} and store.get(JUDGE, "m", ["a"]) == {}
    store.close()


def _key(route: str, model: str, text: str) -> bytes:
    return hashlib.sha256(json.dumps([route, model]).encode() + text.encode("utf-8", "surrogatepass")).digest()


def test_reply_store_keys_and_rows_keep_their_bytes(tmp_path):
    # A store written by an earlier version is read unchanged: these are its bytes.
    path = tmp_path / "replies.sqlite3"
    store = ReplyStore(path)
    store.put(EMBED, "m", ["caf\u00e9"], [np.asarray([0.5, -2.0])])
    store.put(GENERATE, "g", ["p"], [GenerationResult("ans", 3, 1, True)])
    store.put(JUDGE, "http://j", [("q", "a\u2603", "g")], [1.0])
    store.close()
    with contextlib.closing(sqlite3.connect(path)) as db:
        rows = dict(db.execute("SELECT key, reply FROM replies"))
    assert rows == {
        _key("/embed", "m", "caf\u00e9"): np.asarray([0.5, -2.0], dtype="<f8").tobytes(),
        _key("/generate", "g", "p"): b'["ans", 3, 1, true]',
        _key("/judge", "http://j", '["q", "a\\u2603", "g"]'): b"1.0",
    }


def test_reply_store_refuses_a_file_that_is_not_a_database(tmp_path, caplog):
    path = tmp_path / "replies.sqlite3"
    path.write_bytes(b"not a database" * 100)
    store = ReplyStore(path)
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1 and str(path) in warnings[0]
    assert store.path is None
    # The store keeps its replies in memory instead.
    store.put(EMBED, "m", ["a"], np.ones((1, 3)))
    assert list(store.get(EMBED, "m", ["a"])) == ["a"]
    store.close()
    assert path.read_bytes() == b"not a database" * 100
    assert [p.name for p in tmp_path.iterdir()] == ["replies.sqlite3"]


def test_a_reply_store_creates_its_file_on_its_first_put(tmp_path):
    path = tmp_path / "replies.sqlite3"
    store = ReplyStore(path)
    assert store.get(EMBED, "m", ["a"]) == {}
    assert store.get(GENERATE, "m", ["p"]) == {}
    assert store.get(JUDGE, "http://judge", [("q", "a", "g")]) == {}
    assert list(tmp_path.iterdir()) == []
    store.put(GENERATE, "m", ["p"], [GenerationResult("answer", 3, 1)])
    assert path.is_file() and store.path == path
    store.close()
    # A store opened over the file sees its rows.
    again = ReplyStore(path)
    assert again.get(GENERATE, "m", ["p"]) == {"p": GenerationResult("answer", 3, 1)}
    again.close()


def test_reply_stores_opened_on_one_missing_path_share_their_rows(tmp_path):
    path = tmp_path / "replies.sqlite3"
    first, second = ReplyStore(path), ReplyStore(path)
    first.put(EMBED, "m", ["a"], np.ones((1, 3)))
    second.put(EMBED, "m", ["b"], np.zeros((1, 3)))
    for store in (first, second):
        assert sorted(store.get(EMBED, "m", ["a", "b"])) == ["a", "b"]
    first.close()
    second.close()


def test_a_store_that_cannot_be_created_keeps_the_replies_of_its_first_put(tmp_path, caplog):
    (tmp_path / "afile").write_text("a file, not a directory")
    path = tmp_path / "afile" / "replies.sqlite3"
    store = ReplyStore(path)
    store.put(EMBED, "m", ["a"], np.ones((1, 3)))
    store.put(EMBED, "m", ["b"], np.ones((1, 3)))
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1 and str(path) in warnings[0]
    assert store.path is None
    assert sorted(store.get(EMBED, "m", ["a", "b"])) == ["a", "b"]
    store.close()


#: (route, model, request, a row that is not a valid reply of the route)
SPOILED_ROWS = {
    "embed no bytes": (EMBED, "m", "a", b""),
    "embed cut short": (EMBED, "m", "a", np.ones(3).tobytes()[:-3]),
    "embed nan": (EMBED, "m", "a", np.asarray([1.0, np.nan]).tobytes()),
    "embed SQL text": (EMBED, "m", "a", "0123456789abcdef"),
    "generate string count": (GENERATE, "m", "p", b'["t", "x", 1, false]'),
    "generate negative count": (GENERATE, "m", "p", b'["t", -1, 1, false]'),
    "generate flag not a boolean": (GENERATE, "m", "p", b'["t", 1, 1, "yes"]'),
    "generate short": (GENERATE, "m", "p", b'["t", 1, 1]'),
    "generate an object": (GENERATE, "m", "p", b'{"text": "t"}'),
    "judge fraction past 1": (JUDGE, "http://j", ("q", "a", "g"), b"2.5"),
    "judge boolean": (JUDGE, "http://j", ("q", "a", "g"), b"true"),
    "judge not json": (JUDGE, "http://j", ("q", "a", "g"), b"\xffnot json"),
    "judge SQL integer": (JUDGE, "http://j", ("q", "a", "g"), 1),
    "generate nested too deep": (GENERATE, "m", "p", b"[" * 100_000),
}


@pytest.mark.parametrize("route, model, request_, row", SPOILED_ROWS.values(), ids=SPOILED_ROWS.keys())
def test_a_stored_row_that_is_not_a_valid_reply_is_an_error_naming_the_store(
    tmp_path, route, model, request_, row
):
    path = tmp_path / "replies.sqlite3"
    store = ReplyStore(path)
    valid = {EMBED: np.ones(2), GENERATE: GenerationResult("t", 1, 1), JUDGE: 0.5}[route]
    store.put(route, model, [request_], [valid])
    with contextlib.closing(sqlite3.connect(path)) as db, db:
        db.execute("UPDATE replies SET reply = ?", (row,))
    with pytest.raises(ValueError) as error:
        store.get(route, model, [request_])
    message = str(error.value)
    assert f"reply store {path}: a {route.path} row is not a valid reply" in message
    assert message.endswith("delete the file to send its requests again")
    store.close()


def test_an_sqlite_error_after_open_names_the_store(tmp_path):
    path = tmp_path / "replies.sqlite3"
    store = ReplyStore(path)
    store.put(EMBED, "m", ["a"], np.ones((1, 2)))
    with contextlib.closing(sqlite3.connect(path)) as db:
        db.execute("DROP TABLE replies")
        db.commit()
    for call in (lambda: store.get(EMBED, "m", ["a"]), lambda: store.put(EMBED, "m", ["b"], np.ones((1, 2)))):
        with pytest.raises(ValueError, match=f"^reply store {re.escape(str(path))}: no such table"):
            call()
    store.close()


@pytest.mark.parametrize("parallelism", [1, 2])
def test_evaluators_sharing_a_reply_store_send_each_request_once(
    stub_service, tiny_dataset, tmp_path, parallelism
):
    store = ReplyStore(tmp_path / "replies.sqlite3")

    def evaluate(judge):
        evaluator = LivePipelineEvaluator(
            dataset=tiny_dataset,
            space=SearchSpace.default(),
            embedder=EmbeddingClient(_endpoint(stub_service), batch_size=16),
            generator=GenerationClient(_endpoint(stub_service)),
            judge=JudgeClient(_endpoint(stub_service)) if judge else None,
            parallelism=parallelism,
            replies=store,
        )
        metrics = (LEXICAL_AC, FAITHFULNESS) + ((JUDGE_AC,) if judge else ())
        return evaluator.evaluate(_config(), "dev", Objective(metrics=metrics)), evaluator

    first, first_evaluator = evaluate(judge=False)
    sent = {route: len(stub_service.calls(route)) for route in ("/embed", "/generate")}
    assert sent["/generate"] == len(tiny_dataset.dev)
    second, second_evaluator = evaluate(judge=True)
    assert {route: len(stub_service.calls(route)) for route in sent} == sent
    assert second.cost == first.cost
    assert {k: v for k, v in second_evaluator.table.scores.items() if k[2] != JUDGE_AC} == (
        first_evaluator.table.scores
    )
    # The first evaluation judged nothing: every stored answer is judged once.
    assert len(stub_service.calls("/judge")) == len(tiny_dataset.dev)
    store.close()


def test_an_index_rebuilt_after_release_reads_a_store_file(stub_service, tiny_space, tmp_path):
    dataset = _shared_text_dataset()
    space = SearchSpace.from_dict(
        {**tiny_space.to_dict(), "generative_model": [_config().answer.generative_model]}
    )
    evaluator = _live(stub_service, dataset, space, replies=ReplyStore(tmp_path / "r.sqlite3"))
    _evaluate_every_cell(evaluator, space)
    config = space.config_at(0)
    sent = len(stub_service.calls("/embed"))

    evaluator.release(config.index)
    evaluator.evaluate(config, "dev", Objective())
    assert len(stub_service.calls("/embed")) == sent
    evaluator.replies.close()
