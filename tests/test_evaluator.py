import pytest
from hypothesis import given, strategies as st

from raghpo.costs import CostDelta
from raghpo.dataio import GridTable
from raghpo.evaluator import (
    GridReplayEvaluator,
    IncompleteTableError,
    Objective,
    best_so_far,
)
from raghpo.metrics import CONTEXT_MRR, FAITHFULNESS, JUDGE_AC, LEXICAL_AC
from raghpo.optimizers import Trial, TrialHistory

from conftest import fill_table


@pytest.fixture()
def replay(tiny_space):
    def score(ordinal, split, metric, qid):
        return (ordinal * 7 + len(metric) * 3 + int(qid[1:])) % 100 / 100.0

    table = fill_table(
        tiny_space,
        score,
        split_metrics={"dev": (LEXICAL_AC, CONTEXT_MRR), "test": (LEXICAL_AC,)},
        qids={"dev": ("q0", "q1"), "test": ("t0",)},
    )
    return GridReplayEvaluator(table)


def _table_with_rows(space, rows, metric=LEXICAL_AC, split="dev"):
    table = GridTable(space)
    for ordinal in range(space.total_size):
        for i, value in enumerate(rows):
            table.add_score(ordinal, split, metric, f"q{i}", value)
    return table


def test_replay_objective_is_question_mean(tiny_space):
    table = _table_with_rows(tiny_space, (1.0, 0.5, 0.0, 0.5))
    evaluator = GridReplayEvaluator(table)
    result = evaluator.evaluate(tiny_space.config_at(3), "dev", Objective())
    assert result.objective_score == 0.5
    assert result.failed_qids == ()


def test_replay_single_question_echo(tiny_space):
    table = _table_with_rows(tiny_space, (0.77,))
    evaluator = GridReplayEvaluator(table)
    result = evaluator.evaluate(tiny_space.config_at(0), "dev", Objective())
    assert result.objective_score == pytest.approx(0.77)


def test_replay_is_pure_lookup(replay, tiny_space):
    config = tiny_space.config_at(5)
    first = replay.evaluate(config, "dev", Objective())
    second = replay.evaluate(config, "dev", Objective())
    assert first == second


def test_replay_max_equals_table_global_max(replay, tiny_space):
    objective = Objective()
    scores = [
        replay.evaluate(c, "dev", objective).objective_score
        for c in tiny_space.enumerate()
    ]
    # Independent scan over raw table rows.
    best = max(
        sum(
            replay.table.scores[(o, "dev", LEXICAL_AC, q)] for q in ("q0", "q1")
        )
        / 2.0
        for o in range(tiny_space.total_size)
    )
    assert max(scores) == pytest.approx(best)


def test_retrieval_only_uses_mrr_and_zero_generation_cost(tiny_space):
    table = _table_with_rows(tiny_space, (1.0, 0.5, 0.0), metric=CONTEXT_MRR)
    for ordinal in range(tiny_space.total_size):
        table.set_cost(ordinal, "dev", CostDelta(100, 200, 300))
    evaluator = GridReplayEvaluator(table)
    result = evaluator.evaluate_retrieval_only(tiny_space.config_at(0), "dev")
    assert result.objective_score == 0.5
    assert result.cost.embedded_tokens == 100
    assert result.cost.generation_input_tokens == 0
    assert result.cost.generation_output_tokens == 0


def test_replay_reports_costs_when_present(tiny_space):
    table = _table_with_rows(tiny_space, (0.5,))
    table.set_cost(0, "dev", CostDelta(11, 22, 33))
    evaluator = GridReplayEvaluator(table)
    with_cost = evaluator.evaluate(tiny_space.config_at(0), "dev", Objective())
    without = evaluator.evaluate(tiny_space.config_at(1), "dev", Objective())
    assert with_cost.cost == CostDelta(11, 22, 33)
    assert without.cost == CostDelta()


def test_incomplete_table_names_gaps(tiny_space):
    table = GridTable(tiny_space)
    table.add_score(0, "dev", LEXICAL_AC, "q0", 0.5)
    table.add_score(0, "dev", LEXICAL_AC, "q1", 0.5)
    table.add_score(1, "dev", LEXICAL_AC, "q0", 0.5)
    evaluator = GridReplayEvaluator(table)
    with pytest.raises(IncompleteTableError, match="q1"):
        evaluator.evaluate(tiny_space.config_at(1), "dev", Objective())


def test_weighted_objective_combines_metrics(tiny_space):
    table = GridTable(tiny_space)
    for ordinal in range(tiny_space.total_size):
        table.add_score(ordinal, "dev", LEXICAL_AC, "q0", 0.8)
        table.add_score(ordinal, "dev", FAITHFULNESS, "q0", 0.2)
    evaluator = GridReplayEvaluator(table)
    objective = Objective(metrics=(LEXICAL_AC, FAITHFULNESS), weights=(0.75, 0.25))
    result = evaluator.evaluate(tiny_space.config_at(0), "dev", objective)
    assert result.objective_score == pytest.approx(0.75 * 0.8 + 0.25 * 0.2)
    uniform = Objective(metrics=(LEXICAL_AC, FAITHFULNESS))
    assert evaluator.evaluate(
        tiny_space.config_at(0), "dev", uniform
    ).objective_score == pytest.approx(0.5)


def test_replay_objective_free_lookup(replay, tiny_space):
    config = tiny_space.config_at(4)
    direct = replay.evaluate(config, "dev", Objective()).objective_score
    assert replay.replay_objective(config, "dev", Objective()) == direct
    # Missing metric rows return None rather than raising.
    assert replay.replay_objective(config, "test", Objective(metrics=(CONTEXT_MRR,))) is None


def test_supports_metric(replay):
    assert replay.supports_metric(CONTEXT_MRR, "dev")
    assert not replay.supports_metric(CONTEXT_MRR, "test")


def test_objective_validation():
    with pytest.raises(ValueError):
        Objective(metrics=())
    with pytest.raises(ValueError):
        Objective(metrics=("rouge",))
    with pytest.raises(ValueError):
        Objective(metrics=(LEXICAL_AC, LEXICAL_AC))
    with pytest.raises(ValueError):
        Objective(metrics=(LEXICAL_AC, FAITHFULNESS), weights=(0.5, 0.9))
    with pytest.raises(ValueError):
        Objective(metrics=(LEXICAL_AC,), weights=(-1.0,))


def test_weights_summing_a_hair_above_one_keep_perfect_score_at_one(tiny_space):
    table = GridTable(tiny_space)
    for ordinal in range(tiny_space.total_size):
        table.add_score(ordinal, "dev", LEXICAL_AC, "q0", 1.0)
        table.add_score(ordinal, "dev", FAITHFULNESS, "q0", 1.0)
    objective = Objective(metrics=(LEXICAL_AC, FAITHFULNESS), weights=(0.5, 0.5000000001))
    result = GridReplayEvaluator(table).evaluate(
        tiny_space.config_at(0), "dev", objective
    )
    assert result.objective_score == pytest.approx(1.0)
    assert result.objective_score <= 1.0


@given(
    st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4),
    st.floats(-1e-10, 1e-10),
)
def test_accepted_weights_never_push_a_perfect_score_above_one(raw, skew):
    metrics = (LEXICAL_AC, FAITHFULNESS, CONTEXT_MRR, JUDGE_AC)[: len(raw)]
    weights = tuple(w / sum(raw) * (1.0 + skew) for w in raw)
    objective = Objective(metrics=metrics, weights=weights)
    perfect = 0.0
    for _, weight in objective.weighted_metrics():
        perfect += weight * 1.0
    assert perfect <= 1.0
    assert perfect == pytest.approx(1.0)
    # Normalizing is idempotent, so a run header's weights rebuild the same objective.
    assert Objective(metrics=metrics, weights=objective.weights) == objective


# ---------------------------------------------------------------------------
# best_so_far
# ---------------------------------------------------------------------------


def _history(space, scores):
    history = TrialHistory()
    for i, score in enumerate(scores, start=1):
        history.append(
            Trial(iteration=i, config=space.config_at(i - 1), objective_score=score)
        )
    return history


def test_best_so_far_argmax(tiny_space):
    history = _history(tiny_space, [0.3, 0.7, 0.5])
    config, score = best_so_far(history)
    assert score == 0.7
    assert config == tiny_space.config_at(1)


def test_best_so_far_tie_goes_to_earliest(tiny_space):
    history = _history(tiny_space, [0.7, 0.7])
    config, _ = best_so_far(history)
    assert config == tiny_space.config_at(0)


def test_best_so_far_matches_linear_scan(tiny_space):
    import random

    rng = random.Random(11)
    scores = [rng.random() for _ in range(10)]
    history = _history(tiny_space, scores)
    _, best = best_so_far(history)
    assert best == max(scores)


def test_best_so_far_monotone_in_history(tiny_space):
    import random

    rng = random.Random(5)
    history = TrialHistory()
    last = None
    for i in range(1, 21):
        history.append(
            Trial(iteration=i, config=tiny_space.config_at(i - 1), objective_score=rng.random())
        )
        _, score = best_so_far(history)
        if last is not None:
            assert score >= last
        last = score


def test_best_so_far_skips_unscored_trials(tiny_space):
    history = TrialHistory()
    history.append(
        Trial(iteration=1, config=tiny_space.config_at(0), objective_score=None, retrieval_score=0.9)
    )
    with pytest.raises(ValueError):
        best_so_far(history)
    history.append(Trial(iteration=2, config=tiny_space.config_at(1), objective_score=0.4))
    config, score = best_so_far(history)
    assert (config, score) == (tiny_space.config_at(1), 0.4)


def test_best_so_far_empty_history_raises():
    with pytest.raises(ValueError):
        best_so_far(TrialHistory())
