import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from raghpo.evaluator import GridReplayEvaluator, Objective, best_so_far
from raghpo.optimizers import (
    ALGORITHMS,
    DRIVER_OBJECTIVE,
    DRIVER_RETRIEVAL,
    GREEDY_ORDERINGS,
    GreedyOptimizer,
    SpaceExhaustedError,
    TpeOptimizer,
    Trial,
    TrialHistory,
    create_optimizer,
)
from raghpo.searchspace import ParamName, RagConfig, SearchSpace

from conftest import (
    additive_scores,
    additive_utilities,
    argmax_config,
    table_from_config_scores,
)

OBJECTIVE = Objective()


def make_replay(space, dev_scores, mrr_scores=None) -> GridReplayEvaluator:
    table = table_from_config_scores(space, dev_scores, mrr_scores=mrr_scores)
    return GridReplayEvaluator(table)


def random_replay(space, seed, with_mrr=False) -> GridReplayEvaluator:
    rng = random.Random(seed)
    dev = [rng.random() for _ in range(space.total_size)]
    mrr = [rng.random() for _ in range(space.total_size)] if with_mrr else None
    return make_replay(space, dev, mrr)


def drive(optimizer, evaluator, budget, history=None) -> TrialHistory:
    """Minimal suggest -> evaluate -> record loop (the harness adds more)."""
    history = history if history is not None else TrialHistory()
    for _ in range(budget):
        iteration = len(history) + 1
        suggestion = optimizer.suggest(history)
        if suggestion.retrieval_only:
            result = evaluator.evaluate_retrieval_only(suggestion.config, "dev")
            history.append(
                Trial(
                    iteration=iteration,
                    config=suggestion.config,
                    objective_score=evaluator.replay_objective(
                        suggestion.config, "dev", OBJECTIVE
                    ),
                    retrieval_score=result.objective_score,
                    cost=result.cost,
                    driver=DRIVER_RETRIEVAL,
                )
            )
        else:
            result = evaluator.evaluate(suggestion.config, "dev", OBJECTIVE)
            history.append(
                Trial(
                    iteration=iteration,
                    config=suggestion.config,
                    objective_score=result.objective_score,
                    cost=result.cost,
                )
            )
    return history


def ordinals(space, history):
    return [space.ordinal_of(t.config) for t in history]


# ---------------------------------------------------------------------------
# Contract properties shared by all algorithms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_no_duplicates_and_budget_respected(algorithm, tiny_space):
    evaluator = random_replay(tiny_space, seed=3, with_mrr=True)
    for seed in range(12):
        optimizer = create_optimizer(algorithm, tiny_space, seed)
        history = drive(optimizer, evaluator, budget=20)
        assert len(history) == 20
        assert len({t.config for t in history}) == 20


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_deterministic_replay_per_seed(algorithm, tiny_space):
    evaluator = random_replay(tiny_space, seed=4, with_mrr=True)
    first = drive(create_optimizer(algorithm, tiny_space, 11), evaluator, 20)
    second = drive(create_optimizer(algorithm, tiny_space, 11), evaluator, 20)
    assert ordinals(tiny_space, first) == ordinals(tiny_space, second)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_forced_move_returns_remaining_config(algorithm, tiny_space):
    evaluator = random_replay(tiny_space, seed=5, with_mrr=True)
    missing = tiny_space.config_at(17)
    history = TrialHistory()
    iteration = 0
    rng = random.Random(0)
    for i in range(tiny_space.total_size):
        if i == 17:
            continue
        iteration += 1
        score = rng.random()
        history.append(
            Trial(
                iteration=iteration,
                config=tiny_space.config_at(i),
                objective_score=score,
                retrieval_score=score,
            )
        )
    suggestion = create_optimizer(algorithm, tiny_space, 9).suggest(history)
    assert suggestion.config == missing


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_exhausted_space_raises(algorithm, tiny_space):
    evaluator = random_replay(tiny_space, seed=6, with_mrr=True)
    optimizer = create_optimizer(algorithm, tiny_space, 1)
    history = drive(optimizer, evaluator, budget=tiny_space.total_size)
    with pytest.raises(SpaceExhaustedError):
        optimizer.suggest(history)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_state_snapshot_resumes_identical_trajectory(algorithm, tiny_space):
    evaluator = random_replay(tiny_space, seed=8, with_mrr=True)
    reference = drive(create_optimizer(algorithm, tiny_space, 21), evaluator, 12)

    optimizer = create_optimizer(algorithm, tiny_space, 21)
    history = drive(optimizer, evaluator, 6)
    snapshot = json.loads(json.dumps(optimizer.state_dict()))  # prove JSON-serializable
    resumed = create_optimizer(algorithm, tiny_space, 21)
    resumed.load_state_dict(snapshot)
    history = drive(resumed, evaluator, 6, history=history)
    assert ordinals(tiny_space, history) == ordinals(tiny_space, reference)


# ---------------------------------------------------------------------------
# Random search
# ---------------------------------------------------------------------------


def test_random_record_and_replay_sequence(tiny_space):
    evaluator = random_replay(tiny_space, seed=1)
    recorded = ordinals(
        tiny_space, drive(create_optimizer("random", tiny_space, 7), evaluator, 5)
    )
    replayed = ordinals(
        tiny_space, drive(create_optimizer("random", tiny_space, 7), evaluator, 5)
    )
    assert recorded == replayed
    assert len(set(recorded)) == 5


def test_random_draws_spread_over_space(tiny_space):
    # First draws across seeds should not collapse onto one config.
    evaluator = random_replay(tiny_space, seed=2)
    firsts = {
        ordinals(tiny_space, drive(create_optimizer("random", tiny_space, s), evaluator, 1))[0]
        for s in range(40)
    }
    assert len(firsts) > 10


# ---------------------------------------------------------------------------
# Greedy variants
# ---------------------------------------------------------------------------


def test_greedy_orderings_fixed():
    assert GREEDY_ORDERINGS["greedy_m"] == (
        ParamName.GENERATIVE_MODEL,
        ParamName.EMBEDDING_MODEL,
        ParamName.CHUNK_SIZE,
        ParamName.CHUNK_OVERLAP,
        ParamName.TOP_K,
    )
    assert GREEDY_ORDERINGS["greedy_r"] == (
        ParamName.EMBEDDING_MODEL,
        ParamName.CHUNK_SIZE,
        ParamName.CHUNK_OVERLAP,
        ParamName.GENERATIVE_MODEL,
        ParamName.TOP_K,
    )
    assert GREEDY_ORDERINGS["greedy_rcc"] == GREEDY_ORDERINGS["greedy_r"]


def test_greedy_m_first_sweep_varies_only_generative_model(default_space):
    evaluator = random_replay(default_space, seed=10)
    optimizer = create_optimizer("greedy_m", default_space, 3)
    history = drive(optimizer, evaluator, 3)
    configs = [t.config for t in history]
    assert {c.value_of(ParamName.GENERATIVE_MODEL) for c in configs} == set(
        default_space.generative_models
    )
    assert len({c.index for c in configs}) == 1
    assert len({c.answer.top_k for c in configs}) == 1


def test_greedy_sweep_candidates_share_all_other_params(default_space):
    evaluator = random_replay(default_space, seed=12)
    optimizer = create_optimizer("greedy_r", default_space, 5)
    history = drive(optimizer, evaluator, 3)  # embedding-model sweep
    configs = [t.config for t in history]
    for param in ParamName:
        values = {c.value_of(param) for c in configs}
        if param is ParamName.EMBEDDING_MODEL:
            assert len(values) == 3
        else:
            assert len(values) == 1


def test_greedy_full_pass_commits_all_parameters(default_space):
    evaluator = random_replay(default_space, seed=14)
    for seed in range(8):
        optimizer = create_optimizer("greedy_m", default_space, seed)
        history = drive(optimizer, evaluator, 14)
        optimizer.suggest(history)  # triggers the last commit (or fallback)
        assert len(optimizer._committed) == 5


def test_greedy_full_pass_structure_without_collisions(default_space):
    # Seed chosen so no sweep candidate collides with an earlier trial:
    # the pass is exactly 3 + 3 + 3 + 2 + 3 = 14 evaluations.
    evaluator = random_replay(default_space, seed=14)
    optimizer = create_optimizer("greedy_m", default_space, 1)
    history = drive(optimizer, evaluator, 14)
    assert len({t.config for t in history}) == 14
    blocks = [(0, 3), (3, 6), (6, 9), (9, 11), (11, 14)]
    for (start, end), param in zip(blocks, GREEDY_ORDERINGS["greedy_m"]):
        values = {t.config.value_of(param) for t in history.trials[start:end]}
        assert values == set(default_space.values_of(param))


def test_greedy_commit_picks_argmax_value(tiny_space):
    # Objective depends only on the generative model; gen-b wins.
    scores = [
        0.9 if tiny_space.config_at(i).value_of(ParamName.GENERATIVE_MODEL) == "gen-b" else 0.1
        for i in range(tiny_space.total_size)
    ]
    evaluator = make_replay(tiny_space, scores)
    optimizer = GreedyOptimizer(tiny_space, seed=2, algorithm="greedy_m")
    history = drive(optimizer, evaluator, 2)  # both generative models
    optimizer.suggest(history)
    assert optimizer._committed[ParamName.GENERATIVE_MODEL] == "gen-b"


def test_greedy_commit_tie_breaks_to_first_listed_value(tiny_space):
    evaluator = make_replay(tiny_space, [0.5] * tiny_space.total_size)
    optimizer = GreedyOptimizer(tiny_space, seed=2, algorithm="greedy_m")
    history = drive(optimizer, evaluator, 2)
    optimizer.suggest(history)
    assert optimizer._committed[ParamName.GENERATIVE_MODEL] == "gen-a"


def test_greedy_separable_objective_recovers_global_argmax(default_space):
    for fixture_seed in range(5):
        utils = additive_utilities(default_space, random.Random(fixture_seed))
        scores = additive_scores(default_space, utils)
        evaluator = make_replay(default_space, scores)
        optimizer = create_optimizer("greedy_m", default_space, seed=fixture_seed + 100)
        history = drive(optimizer, evaluator, 14)
        config, score = best_so_far(history)
        assert config == argmax_config(default_space, scores)
        assert score == pytest.approx(max(scores))


def test_greedy_per_candidate_suffix_mode(default_space):
    evaluator = random_replay(default_space, seed=16)
    optimizer = create_optimizer(
        "greedy_m", default_space, 5, greedy_suffix_mode="per_candidate"
    )
    history = drive(optimizer, evaluator, 3)
    configs = [t.config for t in history]
    # Swept parameter still covers all values.
    assert {c.value_of(ParamName.GENERATIVE_MODEL) for c in configs} == set(
        default_space.generative_models
    )
    # With this seed the three independent suffixes are not all identical.
    assert len({(c.index, c.answer.top_k) for c in configs}) > 1


def test_greedy_invalid_options():
    space = SearchSpace.default()
    with pytest.raises(ValueError):
        GreedyOptimizer(space, 1, algorithm="greedy_x")
    with pytest.raises(ValueError):
        GreedyOptimizer(space, 1, algorithm="greedy_m", suffix_mode="sometimes")


# ---------------------------------------------------------------------------
# Greedy with retrieval-first context-correctness scoring
# ---------------------------------------------------------------------------


def test_rcc_first_eight_suggestions_are_retrieval_only(default_space):
    evaluator = random_replay(default_space, seed=20, with_mrr=True)
    optimizer = create_optimizer("greedy_rcc", default_space, 4)
    history = TrialHistory()
    flags = []
    for _ in range(9):
        suggestion = optimizer.suggest(history)
        flags.append(suggestion.retrieval_only)
        iteration = len(history) + 1
        if suggestion.retrieval_only:
            result = evaluator.evaluate_retrieval_only(suggestion.config, "dev")
            history.append(
                Trial(
                    iteration,
                    suggestion.config,
                    objective_score=evaluator.replay_objective(
                        suggestion.config, "dev", OBJECTIVE
                    ),
                    retrieval_score=result.objective_score,
                    driver=DRIVER_RETRIEVAL,
                )
            )
        else:
            result = evaluator.evaluate(suggestion.config, "dev", OBJECTIVE)
            history.append(Trial(iteration, suggestion.config, result.objective_score))
    # Sweeps for embedding model (3), chunk size (3), chunk overlap (2).
    assert flags[:8] == [True] * 8
    assert flags[8] is False


def test_rcc_commits_by_retrieval_score_not_objective(tiny_space):
    # Lexical objective prefers emb-a; retrieval quality prefers emb-b.
    dev, mrr = [], []
    for i in range(tiny_space.total_size):
        emb = tiny_space.config_at(i).value_of(ParamName.EMBEDDING_MODEL)
        dev.append(0.9 if emb == "emb-a" else 0.1)
        mrr.append(0.1 if emb == "emb-a" else 0.9)
    evaluator = make_replay(tiny_space, dev, mrr_scores=mrr)
    optimizer = create_optimizer("greedy_rcc", tiny_space, 3)
    history = drive(optimizer, evaluator, 2)  # embedding-model sweep (2 values)
    optimizer.suggest(history)
    assert optimizer._committed[ParamName.EMBEDDING_MODEL] == "emb-b"


def test_rcc_records_driver_per_trial(tiny_space):
    evaluator = random_replay(tiny_space, seed=22, with_mrr=True)
    history = drive(create_optimizer("greedy_rcc", tiny_space, 6), evaluator, 8)
    drivers = [t.driver for t in history]
    # Sweeps of sizes 2+2+2 = 6 retrieval-scored trials, then the objective phase.
    assert drivers[:6] == [DRIVER_RETRIEVAL] * 6
    assert DRIVER_OBJECTIVE in drivers[6:]


# ---------------------------------------------------------------------------
# Tree-structured Parzen estimator
# ---------------------------------------------------------------------------


def test_tpe_first_five_suggestions_are_distinct_and_deterministic(tiny_space):
    evaluator = random_replay(tiny_space, seed=30)
    first = drive(create_optimizer("tpe", tiny_space, 2), evaluator, 5)
    second = drive(create_optimizer("tpe", tiny_space, 2), evaluator, 5)
    assert ordinals(tiny_space, first) == ordinals(tiny_space, second)
    assert len({t.config for t in first}) == 5


def test_tpe_smoothing_ratio_prefers_good_only_values():
    # Per-value counts over values (A, B, C): A seen only among good trials,
    # B only among bad ones.
    l = TpeOptimizer._smoothed([1, 0, 0])
    g = TpeOptimizer._smoothed([0, 1, 0])
    ratio_a = l[0] / g[0]
    ratio_b = l[1] / g[1]
    assert ratio_a > ratio_b


def test_tpe_smoothing_is_add_one_over_value_list():
    assert TpeOptimizer._smoothed([2, 0, 0]) == [3 / 5, 1 / 5, 1 / 5]
    assert sum(TpeOptimizer._smoothed([0, 0, 0])) == pytest.approx(1.0)


def test_tpe_beats_random_on_planted_optimum_toy_space():
    # Two effective parameters (8 x 8 = 64 configs), strongly separable.
    space = SearchSpace(
        chunk_sizes=tuple(2 ** i for i in range(3, 11)),
        chunk_overlaps=(0.0,),
        embedding_models=("e",),
        top_ks=tuple(range(1, 9)),
        generative_models=("g",),
    )
    cs_utils = [0.1, 0.9, 0.3, 0.2, 0.0, 0.4, 0.1, 0.2]
    tk_utils = [0.2, 0.1, 0.0, 0.8, 0.3, 0.1, 0.2, 0.0]
    scores = []
    for ordinal in range(space.total_size):
        config = space.config_at(ordinal)
        i = space.chunk_sizes.index(config.value_of(ParamName.CHUNK_SIZE))
        j = space.top_ks.index(config.value_of(ParamName.TOP_K))
        scores.append((cs_utils[i] + tk_utils[j]) / 2)
    evaluator = make_replay(space, scores)
    target = argmax_config(space, scores)

    def hit_rate(algorithm, seeds):
        hits = 0
        for seed in range(seeds):
            history = drive(create_optimizer(algorithm, space, seed), evaluator, 30)
            config, _ = best_so_far(history)
            hits += config == target
        return hits / seeds

    assert hit_rate("tpe", 100) > hit_rate("random", 100)


def test_tpe_constants_overridable(tiny_space):
    optimizer = create_optimizer(
        "tpe", tiny_space, 1, tpe_gamma=0.5, tpe_candidates=8, tpe_init=2
    )
    assert optimizer.gamma == 0.5
    assert optimizer.n_candidates == 8
    assert optimizer.n_init == 2
    evaluator = random_replay(tiny_space, seed=33)
    history = drive(optimizer, evaluator, 6)
    assert len({t.config for t in history}) == 6


def test_tpe_validation():
    space = SearchSpace.default()
    with pytest.raises(ValueError):
        TpeOptimizer(space, 1, gamma=0.0)
    with pytest.raises(ValueError):
        TpeOptimizer(space, 1, n_candidates=0)


# ---------------------------------------------------------------------------
# TrialHistory invariants
# ---------------------------------------------------------------------------


def test_history_rejects_gapped_iterations(tiny_space):
    history = TrialHistory()
    with pytest.raises(ValueError, match="consecutive"):
        history.append(Trial(iteration=2, config=tiny_space.config_at(0), objective_score=0.5))


def test_history_rejects_duplicate_configs(tiny_space):
    history = TrialHistory()
    history.append(Trial(iteration=1, config=tiny_space.config_at(0), objective_score=0.5))
    with pytest.raises(ValueError, match="duplicate"):
        history.append(Trial(iteration=2, config=tiny_space.config_at(0), objective_score=0.6))


def test_unknown_algorithm_rejected(tiny_space):
    with pytest.raises(ValueError, match="unknown algorithm"):
        create_optimizer("bohb", tiny_space, 1)


# ---------------------------------------------------------------------------
# Incremental view of the history
# ---------------------------------------------------------------------------

# 2 x 3 x 2 x 2 x 2 = 48 configurations.
VIEW_SPACE = SearchSpace(
    chunk_sizes=(4, 8),
    chunk_overlaps=(0.0, 0.25, 0.5),
    embedding_models=("emb-a", "emb-b"),
    top_ks=(1, 2),
    generative_models=("gen-a", "gen-b"),
)
# Few distinct values, so scores tie; None is a trial without that score.
SCORES = st.lists(
    st.one_of(st.none(), st.sampled_from([0.0, 0.25, 0.5, 1.0])),
    min_size=VIEW_SPACE.total_size,
    max_size=VIEW_SPACE.total_size,
)
VARIANTS = st.one_of(
    st.tuples(st.sampled_from(["random", "greedy_m", "greedy_r", "greedy_rcc"]), st.just({})),
    st.tuples(
        st.sampled_from(["greedy_m", "greedy_rcc"]),
        st.just({"greedy_suffix_mode": "per_candidate"}),
    ),
    st.tuples(
        st.just("tpe"),
        st.fixed_dictionaries(
            {
                "tpe_gamma": st.sampled_from([0.1, 0.25, 0.5, 0.9]),
                "tpe_candidates": st.sampled_from([1, 4, 24]),
                "tpe_init": st.sampled_from([0, 2, 5]),
            }
        ),
    ),
)


def _copied(trials) -> TrialHistory:
    """The same trials as new objects, with configs built outside ``config_at``."""
    return TrialHistory(
        Trial(
            t.iteration,
            RagConfig.from_values(*t.config.values()),
            t.objective_score,
            t.retrieval_score,
            t.cost,
            t.driver,
        )
        for t in trials
    )


@settings(max_examples=60, deadline=None)
@given(
    variant=VARIANTS,
    seed=st.integers(0, 2**16),
    objective=SCORES,
    retrieval=SCORES,
    swaps=st.dictionaries(st.integers(1, VIEW_SPACE.total_size), st.integers(0, 48), max_size=3),
)
def test_incremental_view_suggests_what_a_full_rebuild_does(
    variant, seed, objective, retrieval, swaps
):
    # Before each suggest, a fresh optimizer loads the driven one's state and
    # rebuilds its view from the whole history; both must agree. At the
    # iterations in ``swaps`` the history is replaced by a copy of its first
    # k trials (new objects, so the driven optimizer rescans as well).
    algorithm, options = variant
    space = VIEW_SPACE
    optimizer = create_optimizer(algorithm, space, seed, **options)
    history = TrialHistory()
    while len(history) < space.total_size:
        iteration = len(history) + 1
        if iteration in swaps:
            history = _copied(history.trials[: swaps.pop(iteration)])
            iteration = len(history) + 1
        rebuilt = create_optimizer(algorithm, space, seed, **options)
        rebuilt.load_state_dict(json.loads(json.dumps(optimizer.state_dict())))
        suggestion = optimizer.suggest(history)
        assert rebuilt.suggest(history) == suggestion
        ordinal = space.ordinal_of(suggestion.config)
        history.append(
            Trial(
                iteration,
                suggestion.config,
                objective[ordinal],
                retrieval[ordinal] if suggestion.retrieval_only else None,
                driver=DRIVER_RETRIEVAL if suggestion.retrieval_only else DRIVER_OBJECTIVE,
            )
        )
    with pytest.raises(SpaceExhaustedError):
        optimizer.suggest(history)


def test_config_at_is_shared_and_ordinal_of_reads_equal_configs():
    space = VIEW_SPACE
    for ordinal in range(space.total_size):
        config = space.config_at(ordinal)
        assert space.config_at(ordinal) is config
        assert space.ordinal_of(config) == ordinal
        assert space.ordinal_of(RagConfig.from_values(*config.values())) == ordinal
    # An equal space holds configs of its own and reads the other's by value.
    other = SearchSpace.from_dict(space.to_dict())
    assert other.config_at(5) is not space.config_at(5)
    assert other.ordinal_of(space.config_at(5)) == space.ordinal_of(other.config_at(5)) == 5
