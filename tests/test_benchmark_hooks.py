"""The names the benchmark wraps or patches from outside the package still exist.

``perfbench/tracer.py`` wraps raghpo functions and methods by name, and
``perfbench/faults.py`` replaces evaluator and client methods with wrappers of
a fixed signature. Renaming or deleting one of them breaks only a traced
benchmark run, so this test installs the tracer and checks those signatures.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import inspect
from math import ceil
from pathlib import Path

import numpy as np
import pytest

from raghpo import harness
from raghpo.evaluator import EvalResult, Evaluator, GridReplayEvaluator, Objective
from raghpo.optimizers import ALGORITHMS, create_optimizer
from raghpo.pipeline import (
    EmbeddingClient,
    GenerationClient,
    LivePipelineEvaluator,
    ServiceEndpoint,
    VectorIndex,
)
from raghpo.searchspace import SearchSpace

from conftest import table_from_config_scores

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_wrapped_name():
    tracing = _load_tracer()
    before = SearchSpace.__dict__["neighbors_fixing"]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert SearchSpace.__dict__["neighbors_fixing"] is not before
    finally:
        tracer.restore()
    assert SearchSpace.__dict__["neighbors_fixing"] is before


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_every_optimizer_class_defines_its_own_suggest(tiny_space, algorithm):
    # tracer.py wraps suggest only on classes whose own __dict__ defines it;
    # a suggest inherited from a base class would leave optimizers.suggest empty.
    assert "suggest" in type(create_optimizer(algorithm, tiny_space, 1)).__dict__


def test_traced_replay_records_suggest_spans_for_every_algorithm(tiny_space):
    n = tiny_space.total_size
    table = table_from_config_scores(
        tiny_space, [i / n for i in range(n)], mrr_scores=[(n - i) / n for i in range(n)]
    )
    evaluator = GridReplayEvaluator(table)
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    suggests = {}
    try:
        tracing.install(tracer)
        for algorithm in ALGORITHMS:
            before = tracer.calls().get("optimizers.suggest", 0)
            spec = harness.RunSpec(tiny_space, algorithm, Objective(), budget=6, seeds=(1,))
            harness.run(spec, evaluator)
            suggests[algorithm] = tracer.calls()["optimizers.suggest"] - before
    finally:
        tracer.restore()
    assert suggests == dict.fromkeys(ALGORITHMS, 6)


def test_a_completed_run_adds_no_export_or_load_span(tiny_space):
    # run() itself must call neither export_run nor load_run, so
    # harness.export_run.s measures the export alone.
    n = tiny_space.total_size
    evaluator = GridReplayEvaluator(
        table_from_config_scores(tiny_space, [i / n for i in range(n)])
    )
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        spec = harness.RunSpec(tiny_space, "random", Objective(), budget=6, seeds=(1,))
        harness.run(spec, evaluator)
    finally:
        tracer.restore()
    calls = tracer.calls()
    assert calls["harness.run"] == 1
    assert "harness.export_run" not in calls and "harness.load_run" not in calls


def test_patched_methods_keep_the_signatures_faults_wrap(stub_service):
    for method in (GridReplayEvaluator.evaluate, LivePipelineEvaluator.evaluate):
        assert list(inspect.signature(method).parameters) == ["self", "config", "split", "objective"]
    assert list(inspect.signature(EmbeddingClient.embed).parameters) == ["self", "model", "texts"]
    # The tracer reads (model, prompt) as args[1] and args[2] of generate.
    assert list(inspect.signature(GenerationClient.generate).parameters) == ["self", "model", "prompt"]
    # The tracer wraps search and reads len(args[0]), the index's chunk count.
    assert list(inspect.signature(VectorIndex.search).parameters) == ["self", "query_vector", "top_k"]
    # faults.py calls .tolist() on what embed returns.
    vectors = EmbeddingClient(ServiceEndpoint(stub_service.base_url)).embed("emb", ["a", "b c"])
    assert isinstance(vectors, np.ndarray)
    assert (vectors.ndim, vectors.shape[0], vectors.dtype) == (2, 2, np.float64)


def test_replay_evaluator_exposes_its_space(tiny_space):
    # faults.py reads self.space.ordinal_of(config) inside the wrapped evaluate.
    table = table_from_config_scores(tiny_space, [0.5] * tiny_space.total_size)
    evaluator = GridReplayEvaluator(table)
    assert evaluator.space.ordinal_of(tiny_space.config_at(3)) == 3


def test_eval_result_keeps_the_fields_faults_replace():
    # faults.py calls dataclasses.replace(result, config=...) and (objective_score=...).
    assert {"config", "objective_score"} <= {f.name for f in dataclasses.fields(EvalResult)}


@pytest.mark.parametrize("backend", [GridReplayEvaluator, LivePipelineEvaluator])
def test_both_evaluators_satisfy_the_evaluator_protocol(backend):
    members = [name for name in vars(Evaluator) if not name.startswith("_")]
    assert sorted(members) == [
        "evaluate", "evaluate_retrieval_only", "replay_objective", "supports_metric"
    ]
    for name in members:
        expected = list(inspect.signature(getattr(Evaluator, name)).parameters)
        assert list(inspect.signature(getattr(backend, name)).parameters) == expected


def test_live_embed_calls_send_at_most_one_batch(
    stub_service, tiny_dataset, tiny_space, monkeypatch
):
    # tracer.py counts ceil(len(texts) / client.batch_size) requests per
    # EmbeddingClient.embed call, which is the service's /embed count only
    # while no call holds more than batch_size texts.
    calls = []
    embed = EmbeddingClient.embed

    def recording_embed(client, model, texts):
        calls.append((len(texts), client.batch_size))
        return embed(client, model, texts)

    monkeypatch.setattr(EmbeddingClient, "embed", recording_embed)
    endpoint = ServiceEndpoint(stub_service.base_url, timeout=5.0)
    evaluator = LivePipelineEvaluator(
        dataset=tiny_dataset,
        space=tiny_space,
        embedder=EmbeddingClient(endpoint, batch_size=2),
        generator=GenerationClient(endpoint),
    )
    for ordinal in range(tiny_space.total_size):
        for split in ("dev", "test"):
            evaluator.evaluate_retrieval_only(tiny_space.config_at(ordinal), split)
    assert max(n for n, _ in calls) == 2
    assert all(n <= batch_size for n, batch_size in calls)
    batches = sum(ceil(n / batch_size) for n, batch_size in calls)
    assert batches == len(stub_service.calls("/embed"))
