"""Acceptance suite: one test per criterion, each timed against its budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Every expected value is either fixed by construction or computed
by an independent oracle inside the test.
"""

import contextlib
import math
import random
import time

import numpy as np
import pytest

from raghpo.analysis import grid_extremes
from raghpo.costs import CostDelta
from raghpo.evaluator import GridReplayEvaluator, Objective, best_so_far
from raghpo.harness import CostLedger, RunSpec, run
from raghpo.metrics import (
    JUDGE_AC,
    LEXICAL_AC,
    RetrievedChunk,
    context_correctness_mrr,
    faithfulness_precision,
    lexical_answer_correctness,
)
from raghpo.optimizers import ALGORITHMS, Trial, TrialHistory, create_optimizer
from raghpo.pipeline import (
    EmbeddingClient,
    GenerationClient,
    ServiceEndpoint,
    TemplateStore,
    build_index,
    chunk_spans,
    retrieve,
)
from raghpo.searchspace import IndexConfig, ParamName, SearchSpace

from conftest import (
    additive_scores,
    additive_utilities,
    argmax_config,
    make_document,
    stub_generation_tokens,
    stub_vector,
    table_from_config_scores,
)

OBJECTIVE = Objective()


@contextlib.contextmanager
def criterion(number: int, description: str, limit_seconds: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    if limit_seconds is not None:
        assert elapsed < limit_seconds, (
            f"criterion {number} took {elapsed:.2f}s, limit {limit_seconds}s"
        )
    print(f"ACCEPTANCE {number:>2} PASS ({elapsed:.2f}s): {description}")


def test_criterion_01_search_space_integrity():
    with criterion(1, "search-space integrity: 162 configs, 18 index, 9 answer", 1.0):
        space = SearchSpace.default()
        configs = space.enumerate()
        assert len(configs) == 162
        assert len(set(configs)) == 162
        assert len({c.index for c in configs}) == 18
        assert len({c.answer for c in configs}) == 9
        for i in range(162):
            assert space.ordinal_of(space.config_at(i)) == i


def test_criterion_02_grid_baseline_replay(tmp_path):
    with criterion(2, "analyze extremes exact; judge dev extremes 0.52/0.76", 5.0):
        import json

        from raghpo.cli import main
        from raghpo.dataio import store_grid

        space = SearchSpace.default()

        # Arbitrary synthetic table: extremes must equal a full-scan oracle.
        rng = random.Random(501)
        scores = [rng.random() for _ in range(162)]
        table = table_from_config_scores(space, scores)
        extremes = grid_extremes(table, LEXICAL_AC, "dev")
        assert extremes.worst_score == min(scores)
        assert extremes.best_score == max(scores)
        assert extremes.worst == space.config_at(scores.index(min(scores)))
        assert extremes.best == space.config_at(scores.index(max(scores)))

        # Table shaped like the released product-documentation results,
        # ingested from disk and analyzed through the CLI.
        rng = random.Random(502)
        judge = [0.52 + 0.24 * rng.random() for _ in range(162)]
        judge[17] = 0.52
        judge[99] = 0.76
        judge_table = table_from_config_scores(space, judge, metric=JUDGE_AC)
        table_path = tmp_path / "released_shape.jsonl"
        store_grid(judge_table, table_path)
        code = main(
            [
                "analyze",
                "--table",
                str(table_path),
                "--metric",
                JUDGE_AC,
                "--split",
                "dev",
                "--out",
                str(tmp_path / "analysis"),
            ]
        )
        assert code == 0
        emitted = json.loads((tmp_path / "analysis" / "extremes.json").read_text())
        assert emitted["worst"]["score"] == pytest.approx(0.52, abs=0.005)
        assert emitted["best"]["score"] == pytest.approx(0.76, abs=0.005)


def test_criterion_03_optimizer_soundness_suite():
    with criterion(3, "optimizer soundness: 5 algorithms x 100 seeds, budget 162", 30.0):
        space = SearchSpace.default()
        rng = random.Random(777)
        dev = [rng.random() for _ in range(162)]
        mrr = [rng.random() for _ in range(162)]
        table = table_from_config_scores(space, dev, mrr_scores=mrr)
        evaluator = GridReplayEvaluator(table)
        grid_max = max(dev)
        seeds = tuple(range(1, 101))

        for algorithm in ALGORITHMS:
            spec = RunSpec(
                space=space,
                algorithm=algorithm,
                objective=OBJECTIVE,
                budget=162,
                seeds=seeds,
            )
            record = run(spec, evaluator)
            assert run(spec, evaluator) == record  # deterministic replay per seed
            for sr in record.seed_runs:
                assert len(sr.history) == 162  # budget respected
                assert len({t.config for t in sr.history}) == 162  # no duplicates
                best_curve = [it.best_dev_score for it in sr.iterations]
                assert best_curve == sorted(best_curve)  # monotone
                assert best_curve[-1] == pytest.approx(grid_max)  # reaches grid max


def test_criterion_04_greedy_separable_fixtures():
    with criterion(4, "greedy_m recovers the argmax on 100 separable fixtures", 10.0):
        space = SearchSpace.default()
        for fixture_seed in range(100):
            utils = additive_utilities(space, random.Random(fixture_seed))
            scores = additive_scores(space, utils)
            evaluator = GridReplayEvaluator(
                table_from_config_scores(space, scores)
            )
            optimizer = create_optimizer("greedy_m", space, seed=1000 + fixture_seed)
            history = TrialHistory()
            for iteration in range(1, 15):
                suggestion = optimizer.suggest(history)
                result = evaluator.evaluate(suggestion.config, "dev", OBJECTIVE)
                history.append(
                    Trial(iteration, suggestion.config, result.objective_score)
                )
            config, score = best_so_far(history)
            assert config == argmax_config(space, scores)
            assert score == pytest.approx(max(scores))


def test_criterion_05_rcc_generation_charges_start_at_model_sweep():
    with criterion(5, "greedy_rcc: zero generation tokens in iterations 1-8"):
        space = SearchSpace.default()
        rng = random.Random(55)
        dev = [rng.random() for _ in range(162)]
        mrr = [rng.random() for _ in range(162)]
        table = table_from_config_scores(space, dev, mrr_scores=mrr)
        for ordinal in range(162):
            table.set_cost(ordinal, "dev", CostDelta(1000 + ordinal, 500, 50))
        evaluator = GridReplayEvaluator(table)
        spec = RunSpec(
            space=space,
            algorithm="greedy_rcc",
            objective=OBJECTIVE,
            budget=12,
            seeds=(1, 2, 3),
        )
        record = run(spec, evaluator)
        for sr in record.seed_runs:
            snaps = [it.cost for it in sr.iterations]
            for i in range(8):
                assert snaps[i].generation_input_tokens == 0
                assert snaps[i].generation_output_tokens == 0
            # The generative-model sweep is iteration 9: charges begin there.
            assert snaps[8].generation_input_tokens == 500
            assert snaps[8].generation_output_tokens == 50
            assert sr.history[8].driver == "objective"


def test_criterion_06_cost_ledger_dedup():
    with criterion(6, "ledger: shared index charged once, generation thrice"):
        ledger = CostLedger()
        shared = IndexConfig(256, 0.0, "emb-model")
        snapshots = []
        for _ in range(3):
            ledger.charge(shared, CostDelta(1000, 200, 20))
            snapshots.append(ledger.totals)
        assert ledger.totals.embedded_tokens == 1000
        assert ledger.totals.generation_input_tokens == 600
        assert ledger.totals.generation_output_tokens == 60
        for a, b in zip(snapshots, snapshots[1:]):
            assert b.embedded_tokens >= a.embedded_tokens
            assert b.generation_input_tokens >= a.generation_input_tokens
            assert b.generation_output_tokens >= a.generation_output_tokens


def _bag_overlap(a: list[str], b: list[str]) -> int:
    pool = list(b)
    matched = 0
    for token in a:
        if token in pool:
            pool.remove(token)
            matched += 1
    return matched


def test_criterion_07_metric_brute_force_oracles():
    with criterion(7, "metrics match brute-force references on 1000 cases", 5.0):
        rng = random.Random(2025)
        vocab = [f"w{i}" for i in range(15)]
        doc_ids = list("abcdef")
        for _ in range(1000):
            gen = [rng.choice(vocab) for _ in range(rng.randrange(0, 50))]
            gold = [rng.choice(vocab) for _ in range(rng.randrange(1, 50))]
            ctx_texts = [
                " ".join(rng.choice(vocab) for _ in range(rng.randrange(0, 50)))
                for _ in range(rng.randrange(1, 4))
            ]
            retrieved = [
                RetrievedChunk(rng.choice(doc_ids), rank, text)
                for rank, text in enumerate(ctx_texts, start=1)
            ]
            gold_docs = rng.sample(doc_ids, rng.randrange(0, 3))

            # Token recall against an explicit removal-based matcher.
            assert lexical_answer_correctness(" ".join(gen), " ".join(gold)) == (
                _bag_overlap(gold, gen) / len(gold)
            )
            # Token precision against pooled context tokens.
            pooled = " ".join(ctx_texts).split()
            expected_precision = _bag_overlap(gen, pooled) / len(gen) if gen else 0.0
            assert faithfulness_precision(" ".join(gen), retrieved) == expected_precision
            # Reciprocal rank by linear scan.
            expected_mrr = None
            if gold_docs:
                expected_mrr = 0.0
                for c in sorted(retrieved, key=lambda c: c.rank):
                    if c.source_doc_id in set(gold_docs):
                        expected_mrr = 1.0 / c.rank
                        break
            assert context_correctness_mrr(retrieved, gold_docs) == expected_mrr


def test_criterion_08_sampling_arithmetic():
    with criterion(8, "sampling: 1000 QA at 10% + 9:1 noise -> 100 QA, 1000 docs"):
        from raghpo.dataio import Dataset, QaPair, SamplePlan, sample_dev

        corpus = tuple(make_document(f"d{i}", 5) for i in range(2000))
        dev = tuple(
            QaPair(qid=f"q{i}", question="?", gold_answer="a", gold_doc_ids=(f"d{i}",))
            for i in range(1000)
        )
        dataset = Dataset(corpus=corpus, dev=dev, test=())
        plan = SamplePlan(qa_fraction=0.1, noise_ratio=9, seed=7)
        outcome = sample_dev(dataset, plan)
        assert len(outcome.dataset.dev) == 100
        assert len(outcome.dataset.corpus) == 100 * 10
        ids = outcome.dataset.doc_ids()
        for qa in outcome.dataset.dev:
            assert set(qa.gold_doc_ids) <= ids
        assert outcome.noise_shortfall == 0
        assert sample_dev(dataset, plan) == outcome  # deterministic per seed


def test_criterion_09_tpe_beats_random_on_planted_optimum():
    with criterion(9, "TPE 30-iteration hit rate beats random by >= 5 points", 60.0):
        space = SearchSpace.default()
        utils = {
            ParamName.CHUNK_SIZE: [0.15, 0.45, 0.0],
            ParamName.CHUNK_OVERLAP: [0.0, 0.2],
            ParamName.EMBEDDING_MODEL: [0.0, 0.6, 0.2],
            ParamName.TOP_K: [0.45, 0.0, 0.15],
            ParamName.GENERATIVE_MODEL: [0.3, 0.9, 0.0],
        }
        scores = []
        for ordinal in range(space.total_size):
            config = space.config_at(ordinal)
            total = sum(
                utils[p][space.values_of(p).index(config.value_of(p))] for p in ParamName
            )
            scores.append(total / 5.0)
        evaluator = GridReplayEvaluator(table_from_config_scores(space, scores))
        target = argmax_config(space, scores)

        def hit_rate(algorithm: str, n_seeds: int) -> float:
            hits = 0
            for seed in range(n_seeds):
                optimizer = create_optimizer(algorithm, space, seed)
                history = TrialHistory()
                for iteration in range(1, 31):
                    suggestion = optimizer.suggest(history)
                    result = evaluator.evaluate(suggestion.config, "dev", OBJECTIVE)
                    history.append(
                        Trial(iteration, suggestion.config, result.objective_score)
                    )
                hits += best_so_far(history)[0] == target
            return hits / n_seeds

        tpe_rate = hit_rate("tpe", 200)
        random_rate = hit_rate("random", 200)
        assert tpe_rate >= random_rate + 0.05, (tpe_rate, random_rate)


def test_criterion_10_chunker_closed_form():
    with criterion(10, "chunker spans match the closed-form formula on 500 triples"):
        rng = random.Random(303)
        for _ in range(500):
            n_tokens = rng.randrange(0, 5000)
            chunk_size = rng.randrange(1, 800)
            overlap = rng.choice([0.0, 0.1, 0.2, 0.25, 0.5, 0.75, 0.99])
            spans = chunk_spans(n_tokens, chunk_size, overlap)
            stride = chunk_size - math.floor(chunk_size * overlap)
            if n_tokens == 0:
                assert spans == []
                continue
            expected_n = (
                1 if n_tokens <= chunk_size else 1 + math.ceil((n_tokens - chunk_size) / stride)
            )
            assert len(spans) == expected_n
            assert spans == [
                (i * stride, min(chunk_size, n_tokens - i * stride))
                for i in range(expected_n)
            ]
            assert spans[-1][0] + spans[-1][1] == n_tokens
            for (s1, l1), (s2, _) in zip(spans, spans[1:]):
                assert (s1 + l1) - s2 == math.floor(chunk_size * overlap)


def test_criterion_11_live_pipeline_contract(stub_service):
    with criterion(11, "stub-service contract: prompts, tokens, retrieval", 10.0):
        endpoint = ServiceEndpoint(
            base_url=stub_service.base_url, timeout=5.0, max_attempts=2, backoff_seconds=0.01
        )
        # Prompt golden files, one per stock model.
        from pathlib import Path

        golden_dir = Path(__file__).parent / "golden"
        store = TemplateStore.builtin()
        question = "What tuning parameters are available?"
        chunks = ["First chunk text.", "Second chunk text.", "Third chunk text."]
        for model, golden in (
            ("Granite-3.1-8B-instruct", "granite_prompt.txt"),
            ("Llama-3.1-8B-Instruct", "llama_prompt.txt"),
            ("Mistral-Nemo-Instruct-2407", "mistral_prompt.txt"),
        ):
            rendered = store.for_model(model).render(question, chunks)
            assert rendered == (golden_dir / golden).read_text(encoding="utf-8")

        # Token accounting equals the stub-declared counts.
        generator = GenerationClient(endpoint)
        result = generator.generate("Granite-3.1-8B-instruct", "some prompt here")
        declared = stub_generation_tokens("some prompt here")
        assert (result.input_tokens, result.output_tokens) == declared

        # Retrieval equals an exhaustive cosine scan over a 20-vector fixture.
        embedder = EmbeddingClient(endpoint, batch_size=6)
        corpus = [make_document(f"doc{i:02d}", 5) for i in range(20)]
        index, embedded = build_index(corpus, IndexConfig(16, 0.0, "emb"), embedder)
        assert embedded == 100
        got = retrieve(index, "the question", 5, embedder, "emb")
        matrix = np.asarray([stub_vector(c.text) for c in index.chunks])
        matrix = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
        query = np.asarray(stub_vector("the question"))
        sims = matrix @ (query / np.linalg.norm(query))
        expected = sorted(
            range(20), key=lambda i: (-sims[i], index.chunks[i].chunk_id)
        )[:5]
        assert [c.source_doc_id for c in got] == [
            index.chunks[i].source_doc_id for i in expected
        ]
