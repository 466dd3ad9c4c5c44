import json
import random
import re
import tracemalloc
from pathlib import Path

import pytest

from raghpo import cli, harness
from raghpo.costs import CostDelta
from raghpo.dataio import Dataset, Document, store_dataset, store_grid
from raghpo.evaluator import GridReplayEvaluator, Objective
from raghpo.harness import (
    CostLedger,
    RunSpec,
    export_run,
    load_run,
    run,
)
from raghpo.optimizers import ALGORITHMS
from raghpo.pipeline import (
    EmbeddingClient,
    GenerationClient,
    LivePipelineEvaluator,
    PromptTemplate,
    ServiceEndpoint,
    TemplateStore,
)
from raghpo.searchspace import IndexConfig, SearchSpace

from conftest import table_from_config_scores

OBJECTIVE = Objective()


def scored_evaluator(space, seed=0, with_mrr=True, with_costs=False):
    rng = random.Random(seed)
    dev = [rng.random() for _ in range(space.total_size)]
    mrr = [rng.random() for _ in range(space.total_size)] if with_mrr else None
    table = table_from_config_scores(space, dev, mrr_scores=mrr)
    if with_costs:
        for ordinal in range(space.total_size):
            config = space.config_at(ordinal)
            for split, generated in (("dev", 50), ("test", 20)):
                table.set_cost(
                    ordinal,
                    split,
                    CostDelta(
                        embedded_tokens=_index_tokens(space, config.index),
                        generation_input_tokens=generated,
                        generation_output_tokens=5,
                    ),
                )
    return GridReplayEvaluator(table), dev


def _index_tokens(space, index_config: IndexConfig) -> int:
    # Deterministic per-index embedding cost so ledger dedup is observable.
    sizes = (
        space.chunk_sizes.index(index_config.chunk_size),
        space.chunk_overlaps.index(index_config.chunk_overlap),
        space.embedding_models.index(index_config.embedding_model),
    )
    return 1000 + sizes[0] * 100 + sizes[1] * 10 + sizes[2]


def spec_for(space, algorithm="random", budget=10, seeds=(1, 2), **options):
    return RunSpec(
        space=space,
        algorithm=algorithm,
        objective=OBJECTIVE,
        budget=budget,
        seeds=tuple(seeds),
        optimizer_options=dict(options),
    )


# ---------------------------------------------------------------------------
# Run protocol
# ---------------------------------------------------------------------------


def test_run_shape_ten_by_ten(default_space):
    evaluator, _ = scored_evaluator(default_space)
    record = run(spec_for(default_space, budget=10, seeds=range(1, 11)), evaluator)
    assert len(record.seed_runs) == 10
    assert all(len(sr.history) == 10 for sr in record.seed_runs)
    assert len(record.aggregate) == 10
    total_trials = sum(len(sr.history) for sr in record.seed_runs)
    assert total_trials == 100


def test_run_budget_one_single_seed(tiny_space):
    evaluator, dev = scored_evaluator(tiny_space)
    record = run(spec_for(tiny_space, budget=1, seeds=(7,)), evaluator)
    (seed_run,) = record.seed_runs
    trial = seed_run.history[0]
    assert seed_run.iterations[0].best_dev_score == trial.objective_score
    assert seed_run.iterations[0].best_ordinal == tiny_space.ordinal_of(trial.config)


def test_exhaustive_random_run_reaches_grid_max(default_space):
    evaluator, dev = scored_evaluator(default_space)
    record = run(spec_for(default_space, budget=162, seeds=(3,)), evaluator)
    assert record.seed_runs[0].iterations[-1].best_dev_score == pytest.approx(max(dev))


def test_best_dev_is_monotone_per_seed(default_space):
    evaluator, _ = scored_evaluator(default_space)
    record = run(
        spec_for(default_space, algorithm="tpe", budget=25, seeds=range(1, 6)), evaluator
    )
    for sr in record.seed_runs:
        scores = [it.best_dev_score for it in sr.iterations]
        assert scores == sorted(scores)


def test_test_score_tracks_dev_best(default_space):
    rng = random.Random(5)
    dev = [rng.random() for _ in range(162)]
    test = [rng.random() for _ in range(162)]
    table = table_from_config_scores(default_space, dev, test_scores=test)
    evaluator = GridReplayEvaluator(table)
    record = run(spec_for(default_space, budget=15, seeds=(1,)), evaluator)
    for it in record.seed_runs[0].iterations:
        assert it.test_score_of_best == pytest.approx(test[it.best_ordinal])


def test_runs_are_bit_identical_across_executions(default_space):
    evaluator, _ = scored_evaluator(default_space)
    spec = spec_for(default_space, algorithm="greedy_m", budget=20, seeds=(1, 2, 3))
    assert run(spec, evaluator) == run(spec, evaluator)


def test_cross_seed_aggregate_is_recomputable(default_space):
    import math
    import statistics

    evaluator, _ = scored_evaluator(default_space)
    record = run(spec_for(default_space, budget=8, seeds=range(1, 11)), evaluator)
    for i, point in enumerate(record.aggregate):
        values = [sr.iterations[i].test_score_of_best for sr in record.seed_runs]
        assert point.n == 10
        assert point.mean_test == pytest.approx(sum(values) / 10)
        assert point.se_test == pytest.approx(statistics.stdev(values) / math.sqrt(10))


def test_constant_histories_have_zero_se(tiny_space):
    table = table_from_config_scores(tiny_space, [0.5] * tiny_space.total_size)
    evaluator = GridReplayEvaluator(table)
    record = run(spec_for(tiny_space, budget=5, seeds=(1, 2, 3)), evaluator)
    for point in record.aggregate:
        assert point.mean_test == pytest.approx(0.5)
        assert point.se_test == pytest.approx(0.0)


def test_rcc_refuses_to_start_without_retrieval_metric(default_space):
    evaluator, _ = scored_evaluator(default_space, with_mrr=False)
    with pytest.raises(ValueError, match="gold document labels"):
        run(spec_for(default_space, algorithm="greedy_rcc"), evaluator)


class _NoFreeLookup:
    """Evaluator facade whose replay_objective has no free lookup, like a live backend."""

    def __init__(self, inner):
        self._inner = inner

    def evaluate(self, *args):
        return self._inner.evaluate(*args)

    def evaluate_retrieval_only(self, *args):
        return self._inner.evaluate_retrieval_only(*args)

    def replay_objective(self, *args):
        return None

    def supports_metric(self, *args):
        return self._inner.supports_metric(*args)


def test_rcc_without_free_lookup_defers_best_tracking(default_space):
    evaluator, _ = scored_evaluator(default_space)
    record = run(
        spec_for(default_space, algorithm="greedy_rcc", budget=10, seeds=(1,)),
        _NoFreeLookup(evaluator),
    )
    iterations = record.seed_runs[0].iterations
    # The retrieval-only prefix has no objective score, so no dev best yet.
    for it in iterations[:8]:
        assert it.best_dev_score is None
        assert it.test_score_of_best is None
    assert iterations[8].best_dev_score is not None
    assert iterations[8].test_score_of_best is not None
    # Aggregates skip seeds with undefined values.
    assert record.aggregate[0].n == 0
    assert record.aggregate[0].mean_test is None
    assert record.aggregate[9].n == 1


def test_rcc_probes_get_free_objective_backfill(default_space):
    evaluator, dev = scored_evaluator(default_space)
    record = run(spec_for(default_space, algorithm="greedy_rcc", budget=10, seeds=(4,)), evaluator)
    history = record.seed_runs[0].history
    for trial in history.trials[:8]:
        assert trial.driver == "context_mrr"
        assert trial.retrieval_score is not None
        # Grid replay backfills the objective at zero cost.
        assert trial.objective_score == pytest.approx(
            dev[default_space.ordinal_of(trial.config)]
        )
    assert record.seed_runs[0].iterations[0].best_dev_score is not None


# ---------------------------------------------------------------------------
# The live evaluator's table as the run's store
# ---------------------------------------------------------------------------


def live_evaluator(stub_service, dataset, space) -> LivePipelineEvaluator:
    endpoint = ServiceEndpoint(stub_service.base_url, timeout=5.0, max_attempts=1)
    return LivePipelineEvaluator(
        dataset=dataset,
        space=space,
        embedder=EmbeddingClient(endpoint),
        generator=GenerationClient(endpoint),
        templates=TemplateStore(
            {
                "gen-a": PromptTemplate(body="{question}\n{retrieved documents}"),
                "gen-b": PromptTemplate(body="{retrieved documents}\n{question}"),
            }
        ),
    )


def _generate_requests(stub_service) -> int:
    return len(stub_service.received("/generate"))


@pytest.mark.parametrize("algorithm", ["random", "tpe", "greedy_m", "greedy_rcc"])
def test_each_cell_is_evaluated_once_per_run(
    stub_service, tiny_dataset, tiny_space, algorithm
):
    spec = spec_for(tiny_space, algorithm=algorithm, budget=10, seeds=(1, 2, 3, 4))
    shared = live_evaluator(stub_service, tiny_dataset, tiny_space)
    record = run(spec, shared)
    # One /generate request per distinct (model, prompt): cells that render a
    # prompt another cell already sent (both embedding models get the same
    # vectors from the stub) are answered by the evaluator's reply store.
    sent = [json.loads(raw) for _, raw in stub_service.received("/generate")]
    shared_requests = len(sent)
    assert shared_requests == len({(call["model"], call["prompt"]) for call in sent})

    # A fresh evaluator per seed gives every seed the same trials and
    # per-iteration costs, and shows that the seeds did repeat cells.
    for seed, seed_run in zip(spec.seeds, record.seed_runs):
        alone = live_evaluator(stub_service, tiny_dataset, tiny_space)
        single = run(spec_for(tiny_space, algorithm=algorithm, budget=10, seeds=(seed,)), alone)
        assert single.seed_runs[0] == seed_run
    assert _generate_requests(stub_service) - shared_requests > shared_requests


def test_evaluation_with_failed_questions_is_repeated(
    stub_service, tiny_dataset, tiny_space
):
    # At full budget every seed evaluates every config on dev once. The first
    # generation for q2 fails, so seed 1 scores that cell without q2.
    failed = []

    def first_q2_fails(payload):
        if "document 2" in payload["prompt"] and not failed:
            failed.append(payload["prompt"])
            return b"not json"
        return None

    spec = spec_for(tiny_space, budget=tiny_space.total_size, seeds=(1, 2, 3))
    clean = run(spec, live_evaluator(stub_service, tiny_dataset, tiny_space))
    clean_requests = _generate_requests(stub_service)
    stub_service.override("/generate", first_q2_fails)
    flaky = live_evaluator(stub_service, tiny_dataset, tiny_space)
    record = run(spec, flaky)

    assert len(failed) == 1
    # Seed 2 ran that one cell again, sending only q2's prompt, and stored
    # q2's rows; seed 3 ran nothing.
    assert _generate_requests(stub_service) - clean_requests == clean_requests + 1
    assert record.seed_runs[1:] == clean.seed_runs[1:]
    assert all(flaky.evaluate(c, "dev", OBJECTIVE).failed_qids == () for c in tiny_space.enumerate())


# ---------------------------------------------------------------------------
# Cost ledger
# ---------------------------------------------------------------------------


def test_ledger_charges_index_once():
    ledger = CostLedger()
    index = IndexConfig(256, 0.0, "emb")
    for _ in range(3):
        ledger.charge(index, CostDelta(1000, 50, 5))
    assert ledger.totals.embedded_tokens == 1000
    assert ledger.totals.generation_input_tokens == 150
    assert ledger.totals.generation_output_tokens == 15


def test_ledger_distinct_indexes_both_charged():
    ledger = CostLedger()
    ledger.charge(IndexConfig(256, 0.0, "emb"), CostDelta(1000, 0, 0))
    ledger.charge(IndexConfig(512, 0.0, "emb"), CostDelta(2000, 0, 0))
    assert ledger.totals.embedded_tokens == 3000


def test_ledger_snapshots_monotone():
    rng = random.Random(2)
    ledger = CostLedger()
    snaps = []
    for i in range(20):
        index = IndexConfig(256 + (i % 3), 0.0, "emb")
        ledger.charge(index, CostDelta(rng.randrange(100), rng.randrange(50), rng.randrange(20)))
        snaps.append(ledger.totals)
    for a, b in zip(snaps, snaps[1:]):
        assert b.embedded_tokens >= a.embedded_tokens
        assert b.generation_input_tokens >= a.generation_input_tokens
        assert b.generation_output_tokens >= a.generation_output_tokens


def test_greedy_m_first_sweep_charges_one_index(default_space):
    evaluator, _ = scored_evaluator(default_space, with_costs=True)
    record = run(spec_for(default_space, algorithm="greedy_m", budget=3, seeds=(1,)), evaluator)
    history = record.seed_runs[0].history
    # Shared random suffix: three candidates, one index configuration.
    assert len({t.config.index for t in history}) == 1
    expected = _index_tokens(default_space, history[0].config.index)
    after_three = record.seed_runs[0].iterations[2].cost
    assert after_three.embedded_tokens == expected
    assert after_three.generation_input_tokens == 150


def test_rcc_first_eight_iterations_charge_zero_generation(default_space):
    evaluator, _ = scored_evaluator(default_space, with_costs=True)
    record = run(
        spec_for(default_space, algorithm="greedy_rcc", budget=10, seeds=(2,)), evaluator
    )
    snaps = [it.cost for it in record.seed_runs[0].iterations]
    assert snaps[7].generation_input_tokens == 0
    assert snaps[7].generation_output_tokens == 0
    assert snaps[7].embedded_tokens > 0
    # Generation charges begin with the generative-model sweep.
    assert snaps[8].generation_input_tokens > 0


def test_run_spec_validation(default_space):
    with pytest.raises(ValueError, match="budget"):
        spec_for(default_space, budget=0)
    with pytest.raises(ValueError, match="exceeds"):
        spec_for(default_space, budget=163)
    with pytest.raises(ValueError, match="seed"):
        spec_for(default_space, seeds=())
    with pytest.raises(ValueError, match="distinct"):
        spec_for(default_space, seeds=(1, 1))
    with pytest.raises(ValueError, match="algorithm"):
        spec_for(default_space, algorithm="grid")


# ---------------------------------------------------------------------------
# Export / import
# ---------------------------------------------------------------------------


def test_export_row_arithmetic(tmp_path, default_space):
    evaluator, _ = scored_evaluator(default_space)
    record = run(spec_for(default_space, budget=10, seeds=range(1, 11)), evaluator)
    out = tmp_path / "run.jsonl"
    export_run(record, out)
    lines = out.read_text().strip().splitlines()
    kinds = [line.split('"kind":"')[1].split('"')[0] for line in lines]
    assert kinds.count("run_header") == 1
    assert kinds.count("trial") == 100
    assert kinds.count("aggregate") == 10


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_export_roundtrip_reproduces_record(tmp_path, default_space, algorithm):
    evaluator, _ = scored_evaluator(default_space, with_costs=True)
    record = run(
        spec_for(default_space, algorithm=algorithm, budget=12, seeds=(1, 2)), evaluator
    )
    out = tmp_path / "run.jsonl"
    export_run(record, out)
    assert load_run(out) == record


def test_export_is_deterministic(tmp_path, default_space):
    evaluator, _ = scored_evaluator(default_space)
    spec = spec_for(default_space, budget=6, seeds=(1, 2))
    export_run(run(spec, evaluator), tmp_path / "a.jsonl")
    export_run(run(spec, evaluator), tmp_path / "b.jsonl")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_load_run_rejects_missing_header(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"kind":"aggregate","iteration":1,"mean_test":0.5,"se_test":0,"n":1}\n')
    with pytest.raises(ValueError, match="run_header"):
        load_run(path)


@pytest.mark.parametrize(
    "change, field",
    [
        (lambda row: row.pop("seed"), "'seed'"),
        (lambda row: row.update(iteration="1"), "'iteration'"),
        (lambda row: row.update(objective_score=True), "'objective_score'"),
        (lambda row: row["cost"].pop("embedded_tokens"), "'embedded_tokens'"),
        (lambda row: row.update(ordinal=10**6), "ordinal 1000000"),
        (lambda row: row["cost"].update(generation_input_tokens=-1), "generation_input_tokens"),
        (lambda row: row.update(cum_embedded_tokens=-1), "cum_embedded_tokens must be non-negative"),
        (lambda row: row.update(iteration=2), "seed 1: iterations must be consecutive"),
        (lambda row: row.update(seed=99), "seed 99 is not one of the run_header's seeds"),
        (lambda row: row.update(iteration=3), "iteration 3 exceeds the run_header's budget 2"),
    ],
    ids=[
        "no-seed",
        "str-iteration",
        "bool-score",
        "no-cost-field",
        "ordinal-range",
        "negative-cost",
        "negative-cumulative-cost",
        "duplicate-iteration",
        "unknown-seed",
        "past-budget",
    ],
)
def test_load_run_names_the_line_and_field_of_a_bad_trial_row(
    tmp_path, default_space, change, field
):
    evaluator, _ = scored_evaluator(default_space)
    path = tmp_path / "run.jsonl"
    export_run(run(spec_for(default_space, budget=2, seeds=(1,)), evaluator), path)
    lines = path.read_text().splitlines()
    row = json.loads(lines[1])
    change(row)
    lines[1] = json.dumps(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}:2: .*{re.escape(field)}"):
        load_run(path)


def test_load_run_names_a_missing_aggregate_or_header_field(tmp_path):
    path = tmp_path / "run.jsonl"
    path.write_text('{"kind":"aggregate","iteration":1,"mean_test":0.5,"se_test":0}\n')
    with pytest.raises(ValueError, match=":1: aggregate row lacks field 'n'"):
        load_run(path)
    path.write_text('{"kind":"run_header","format_version":1}\n')
    with pytest.raises(ValueError, match=":1: run_header lacks field 'space'"):
        load_run(path)


STOCK_SPACE = SearchSpace.default().to_dict()


@pytest.mark.parametrize(
    "values, message",
    [
        ({"space": {**STOCK_SPACE, "top_k": "35"}}, "search space field 'top_k' has the wrong type: '35'"),
        (
            {"space": {**STOCK_SPACE, "chunk_size": [256.0, 512]}},
            "search space field 'chunk_size' has the wrong type: [256.0, 512]",
        ),
        ({"space": {**STOCK_SPACE, "format_version": 2}}, "unsupported search-space format_version 2"),
        ({"space": {**STOCK_SPACE, "chunk_overlap": [1.5]}}, "chunk_overlap values must be in [0, 1), got 1.5"),
        (
            {"objective_weights": [10**400]},
            "bad run_header: weights must be numbers that a float can hold",
        ),
    ],
)
def test_load_run_checks_the_header_space_and_weights(
    tmp_path, default_space, values, message
):
    evaluator, _ = scored_evaluator(default_space)
    path = tmp_path / "run.jsonl"
    export_run(run(spec_for(default_space, budget=2, seeds=(1,)), evaluator), path)
    header, *rows = path.read_text().splitlines(keepends=True)
    path.write_text(json.dumps({**json.loads(header), **values}) + "\n" + "".join(rows))
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:1: {message}')}$"):
        load_run(path)


@pytest.mark.parametrize(
    "change, line, message",
    [
        (lambda lines: lines + lines[-1:], 11, "a second aggregate row for iteration 3"),
        (lambda lines: lines[:-1] + [lines[-1].replace('"iteration":3', '"iteration":999')], 10,
         "aggregate row iteration 999 is outside the run_header's budget 1..3"),
        (lambda lines: lines[:-3], None, "3 of the run_header's 3 iterations lack an aggregate row"),
        (lambda lines: lines + lines[:1], 11, "a second run_header row"),
        (lambda lines: lines[1:2] + lines[:1] + lines[2:], 1, "trial row before the run_header row"),
        (lambda lines: lines[:1] + [lines[2], lines[1]] + lines[3:], 2,
         "seed 1: iterations must be consecutive"),
        (lambda lines: [lines[0], lines[1].replace('"seed":1,', '"seed":99,'), *lines[2:], lines[0]],
         2, "trial row seed 99 is not one of the run_header's seeds [1, 2]"),
    ],
    ids=[
        "repeated-aggregate",
        "aggregate-past-budget",
        "no-aggregate",
        "two-headers",
        "trial-above-header",
        "swapped-iterations",
        "bad-trial-then-second-header",
    ],
)
def test_load_run_requires_one_header_and_one_aggregate_row_per_iteration(
    tmp_path, default_space, change, line, message
):
    evaluator, _ = scored_evaluator(default_space)
    path = tmp_path / "run.jsonl"
    export_run(run(spec_for(default_space, budget=3, seeds=(1, 2)), evaluator), path)
    lines = path.read_text().splitlines(keepends=True)
    assert len(lines) == 10 and '"iteration":3' in lines[-1]
    path.write_text("".join(change(lines)))
    where = f"{path}:{line}" if line else str(path)
    with pytest.raises(ValueError, match=f"^{re.escape(where)}: {re.escape(message)}"):
        load_run(path)


@pytest.mark.parametrize("kept", [0, 2])
def test_load_run_requires_every_seed_to_reach_the_budget(tmp_path, default_space, kept):
    evaluator, _ = scored_evaluator(default_space)
    path = tmp_path / "run.jsonl"
    export_run(run(spec_for(default_space, budget=3, seeds=(1, 2)), evaluator), path)
    lines = path.read_text().splitlines(keepends=True)
    seed_2 = [line for line in lines if '"seed":2,' in line]
    assert len(seed_2) == 3
    path.write_text("".join(line for line in lines if line not in seed_2[kept:]))
    message = f"{path}: seed 2 holds {kept} of the run_header's 3 iterations"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_run(path)


def test_load_run_memory_is_bounded(tmp_path, default_space):
    evaluator, _ = scored_evaluator(default_space, with_costs=True)
    path = tmp_path / "run.jsonl"
    export_run(run(spec_for(default_space, budget=162, seeds=range(1, 21)), evaluator), path)
    assert path.read_text().count('"kind":"trial"') >= 3000
    tracemalloc.start()
    try:
        record = load_run(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(sr.history) for sr in record.seed_runs) == 3240
    assert peak < 1.5 * held, (peak, held)


# ---------------------------------------------------------------------------
# Suspension
# ---------------------------------------------------------------------------


class FlakyEvaluator:
    """Delegates to a real evaluator, raising one injected outage."""

    def __init__(self, inner, fail_after_calls: int):
        self._inner = inner
        self._remaining = fail_after_calls
        self._armed = True

    def _tick(self):
        if self._armed:
            self._remaining -= 1
            if self._remaining < 0:
                self._armed = False
                raise ServiceFailure("injected outage")

    def evaluate(self, *args, **kwargs):
        self._tick()
        return self._inner.evaluate(*args, **kwargs)

    def evaluate_retrieval_only(self, *args, **kwargs):
        self._tick()
        return self._inner.evaluate_retrieval_only(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


from raghpo.pipeline import ServiceFailure  # noqa: E402


def test_suspension_without_checkpoint_path_propagates(default_space):
    evaluator, _ = scored_evaluator(default_space)
    flaky = FlakyEvaluator(evaluator, fail_after_calls=2)
    with pytest.raises(ServiceFailure):
        run(spec_for(default_space, budget=5, seeds=(1,)), flaky)


def test_live_rcc_integration_with_stub_service(stub_service, tiny_dataset):
    from raghpo.pipeline import (
        EmbeddingClient,
        GenerationClient,
        LivePipelineEvaluator,
        ServiceEndpoint,
    )
    from raghpo.searchspace import SearchSpace

    space = SearchSpace(
        chunk_sizes=(8,),
        chunk_overlaps=(0.0,),
        embedding_models=("stub-a", "stub-b"),
        top_ks=(2,),
        generative_models=("Granite-3.1-8B-instruct", "Llama-3.1-8B-Instruct"),
    )
    endpoint = ServiceEndpoint(
        base_url=stub_service.base_url, timeout=5.0, max_attempts=2, backoff_seconds=0.01
    )
    evaluator = LivePipelineEvaluator(
        dataset=tiny_dataset,
        space=space,
        embedder=EmbeddingClient(endpoint, batch_size=16),
        generator=GenerationClient(endpoint),
    )
    record = run(spec_for(space, algorithm="greedy_rcc", budget=4, seeds=(1,)), evaluator)
    sr = record.seed_runs[0]
    probes = [t for t in sr.history if t.driver == "context_mrr"]
    assert len(probes) >= 2  # the embedding-model sweep at minimum
    for trial in probes:
        assert trial.objective_score is None  # no free lookup on a live backend
        assert trial.cost.generation_input_tokens == 0
        assert trial.retrieval_score is not None
    # Ledger generation totals come only from objective-phase trials.
    expected_gen = sum(
        t.cost.generation_input_tokens for t in sr.history if t.driver == "objective"
    )
    assert sr.iterations[-1].cost.generation_input_tokens == expected_gen
    # Dev-best tracking starts with the first objective-scored trial.
    first_objective = next(
        (i for i, t in enumerate(sr.history) if t.objective_score is not None), None
    )
    for i, it in enumerate(sr.iterations):
        if first_objective is None or i < first_objective:
            assert it.best_dev_score is None
        else:
            assert it.best_dev_score is not None


class _Killed(BaseException):
    """Stands in for the process being killed: nothing in raghpo catches it."""


@pytest.fixture()
def kill_mid_write(monkeypatch):
    """Arm to make every file opened for writing die halfway through its first write."""

    real_open = Path.open

    def open_(self, mode="r", *args, **kwargs):
        fh = real_open(self, mode, *args, **kwargs)
        if "w" in mode:
            real_write = fh.write

            def write(text):
                real_write(text[: len(text) // 2])
                fh.flush()
                raise _Killed

            fh.write = write
        return fh

    return lambda: monkeypatch.setattr(Path, "open", open_)


def _grid_writer(path, space, version):
    evaluator, _ = scored_evaluator(space, seed=version)
    store_grid(evaluator.table, path)


def _export_writer(path, space, version):
    evaluator, _ = scored_evaluator(space)
    export_run(run(spec_for(space, budget=4, seeds=range(1, version + 1)), evaluator), path)


def _analysis_writer(path, space, version):
    """``raghpo analyze`` of a grid table and a run export; ``path`` links to its first output."""
    table, export, out = (path.parent / name for name in ("grid.jsonl", "run.jsonl", "analysis"))
    if version == 1:
        _grid_writer(table, space, version)
        _export_writer(export, space, version)
        path.symlink_to(out / "extremes.json")
    args = ["analyze", "--table", str(table), "--run", str(export), "--out", str(out)]
    assert cli.main([*args, "--split", ("dev", "test")[version - 1]]) == 0


def _dataset_writer(path, space, version):
    """A dataset directory beside ``path``, which links to its first file."""
    root = path.parent / "dataset"
    if version == 1:
        path.symlink_to(root / "manifest.json")
    dataset = Dataset(corpus=(Document("d0", "text"),), dev=(), test=(), name=f"v{version}")
    store_dataset(dataset, root)


@pytest.mark.parametrize("write", [_grid_writer, _export_writer, _analysis_writer, _dataset_writer])
def test_write_killed_midway_leaves_previous_file_intact(
    tmp_path, default_space, kill_mid_write, write
):
    path = tmp_path / "out.jsonl"
    write(path, default_space, 1)
    previous = path.read_bytes()
    kill_mid_write()
    with pytest.raises(_Killed):
        write(path, default_space, 2)
    assert path.read_bytes() == previous
