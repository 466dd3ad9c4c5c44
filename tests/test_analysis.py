import bisect
import random

import pytest

from raghpo.analysis import (
    convergence_series,
    grid_extremes,
    marginal_means,
    normalized_bins,
    per_config_means,
)
from raghpo.dataio import GridTable, IncompleteTableError
from raghpo.evaluator import GridReplayEvaluator, Objective
from raghpo.harness import RunSpec, run
from raghpo.metrics import JUDGE_AC, LEXICAL_AC
from raghpo.searchspace import ParamName, SearchSpace

from conftest import additive_scores, additive_utilities, table_from_config_scores


@pytest.fixture()
def four_config_space():
    return SearchSpace(
        chunk_sizes=(128, 256),
        chunk_overlaps=(0.0, 0.25),
        embedding_models=("e",),
        top_ks=(3,),
        generative_models=("g",),
    )


# ---------------------------------------------------------------------------
# Extremes
# ---------------------------------------------------------------------------


def test_extremes_match_scan_oracle(four_config_space):
    table = GridTable(four_config_space)
    per_config = {0: (0.2, 0.4), 1: (0.9, 0.7), 2: (0.1, 0.3), 3: (0.6, 0.6)}
    for ordinal, (a, b) in per_config.items():
        table.add_score(ordinal, "dev", LEXICAL_AC, "q0", a)
        table.add_score(ordinal, "dev", LEXICAL_AC, "q1", b)
    extremes = grid_extremes(table, LEXICAL_AC, "dev")
    means = {o: (a + b) / 2 for o, (a, b) in per_config.items()}
    assert extremes.worst_score == min(means.values()) == 0.2
    assert extremes.best_score == max(means.values()) == 0.8
    assert extremes.worst == four_config_space.config_at(2)
    assert extremes.best == four_config_space.config_at(1)


def test_extremes_tie_goes_to_lowest_ordinal(four_config_space):
    table = table_from_config_scores(four_config_space, [0.5, 0.2, 0.5, 0.2])
    extremes = grid_extremes(table, LEXICAL_AC, "dev")
    assert extremes.worst == four_config_space.config_at(1)
    assert extremes.best == four_config_space.config_at(0)


def test_extremes_constant_table(four_config_space):
    table = table_from_config_scores(four_config_space, [0.4] * 4)
    extremes = grid_extremes(table, LEXICAL_AC, "dev")
    assert extremes.worst_score == extremes.best_score == 0.4


def test_extremes_product_docs_shaped_fixture(default_space):
    # Judge answer-correctness landscape bracketing [0.52, 0.76] exactly.
    rng = random.Random(13)
    scores = [0.52 + 0.24 * rng.random() for _ in range(162)]
    scores[40] = 0.52
    scores[120] = 0.76
    table = table_from_config_scores(default_space, scores, metric=JUDGE_AC)
    extremes = grid_extremes(table, JUDGE_AC, "dev")
    assert extremes.worst_score == pytest.approx(0.52, abs=0.005)
    assert extremes.best_score == pytest.approx(0.76, abs=0.005)


def test_extremes_incomplete_table_rejected(four_config_space):
    table = GridTable(four_config_space)
    table.add_score(0, "dev", LEXICAL_AC, "q0", 0.5)
    with pytest.raises(IncompleteTableError, match="ordinal 1 is missing 1 of 1"):
        grid_extremes(table, LEXICAL_AC, "dev")


# ---------------------------------------------------------------------------
# Binning
# ---------------------------------------------------------------------------


def test_bins_best_config_lands_in_last_bin(four_config_space):
    table = table_from_config_scores(four_config_space, [0.0, 0.3, 0.6, 1.0])
    bins = normalized_bins(table, LEXICAL_AC, "dev", bin_count=10)
    assert bins.counts[-1] == 1
    assert bins.counts[0] == 1  # the worst config normalizes to exactly 0
    assert sum(bins.counts) == 4


def test_bins_match_independent_binning_oracle(default_space):
    rng = random.Random(31)
    scores = [rng.random() for _ in range(162)]
    table = table_from_config_scores(default_space, scores)
    bins = normalized_bins(table, LEXICAL_AC, "dev", bin_count=10)

    lo, hi = min(scores), max(scores)
    edges = [lo + (hi - lo) * k / 10 for k in range(1, 10)]
    oracle = [0] * 10
    for x in scores:
        oracle[bisect.bisect_right(edges, x) if x != hi else 9] += 1
    # bisect_right puts values equal to an edge into the next bin, matching
    # half-open [a, b) bins with the final bin closed.
    assert list(bins.counts) == oracle
    assert sum(bins.counts) == 162


def test_bins_affine_invariance(four_config_space):
    base = [0.1, 0.2, 0.3, 0.5]
    shifted = [0.5 * x + 0.2 for x in base]
    t1 = table_from_config_scores(four_config_space, base)
    t2 = table_from_config_scores(four_config_space, shifted)
    b1 = normalized_bins(t1, LEXICAL_AC, "dev")
    b2 = normalized_bins(t2, LEXICAL_AC, "dev")
    assert b1.counts == b2.counts


def test_bins_degenerate_constant_table(four_config_space):
    table = table_from_config_scores(four_config_space, [0.5] * 4)
    bins = normalized_bins(table, LEXICAL_AC, "dev")
    assert bins.degenerate
    assert bins.counts[0] == 4


# ---------------------------------------------------------------------------
# Marginal means
# ---------------------------------------------------------------------------


def test_marginal_means_value_row_counts(default_space):
    rng = random.Random(7)
    table = table_from_config_scores(
        default_space, [rng.random() for _ in range(162)]
    )
    rows = marginal_means(table, LEXICAL_AC, "dev")
    assert len(rows) == 14  # 3 + 2 + 3 + 3 + 3 parameter values
    # Each generative model averages over 162 / 3 = 54 configurations.
    means = per_config_means(table, LEXICAL_AC, "dev")
    for value in default_space.generative_models:
        subset = [
            means[o]
            for o in range(162)
            if default_space.config_at(o).value_of(ParamName.GENERATIVE_MODEL) == value
        ]
        assert len(subset) == 54
        row = next(
            r for r in rows if r.param is ParamName.GENERATIVE_MODEL and r.value == value
        )
        assert row.mean == pytest.approx(sum(subset) / 54)


def test_marginal_means_constant_table_zero_deltas(default_space):
    table = table_from_config_scores(default_space, [0.6] * 162)
    for row in marginal_means(table, LEXICAL_AC, "dev"):
        assert row.delta == pytest.approx(0.0)


def test_marginal_means_recover_planted_additive_effects(default_space):
    utils = additive_utilities(default_space, random.Random(3))
    scores = additive_scores(default_space, utils)
    table = table_from_config_scores(default_space, scores)
    rows = marginal_means(table, LEXICAL_AC, "dev")
    for row in rows:
        values = default_space.values_of(row.param)
        u = utils[row.param]
        planted_delta = (u[values.index(row.value)] - sum(u) / len(u)) / 5
        assert row.delta == pytest.approx(planted_delta)


def test_marginal_mean_deltas_sum_to_zero_per_param(default_space):
    rng = random.Random(9)
    table = table_from_config_scores(default_space, [rng.random() for _ in range(162)])
    rows = marginal_means(table, LEXICAL_AC, "dev")
    for param in ParamName:
        total = sum(r.delta for r in rows if r.param is param)
        assert total == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Convergence series
# ---------------------------------------------------------------------------


def test_convergence_series_length_and_reference(default_space):
    rng = random.Random(17)
    dev = [rng.random() for _ in range(162)]
    table = table_from_config_scores(default_space, dev)
    evaluator = GridReplayEvaluator(table)
    spec = RunSpec(
        space=default_space,
        algorithm="random",
        objective=Objective(),
        budget=10,
        seeds=tuple(range(1, 6)),
    )
    record = run(spec, evaluator)
    series = convergence_series(record, grid_max=max(dev))
    assert len(series) == 10
    assert all(p.grid_max == pytest.approx(max(dev)) for p in series)
    assert series == convergence_series(record, grid_max=max(dev))


def test_additive_fixture_reconstructs_best_from_marginals(default_space):
    # On a separable objective, grand mean + per-value deltas rebuild each
    # config's score exactly, so the reconstructed max matches the extremes.
    utils = additive_utilities(default_space, random.Random(21))
    scores = additive_scores(default_space, utils)
    table = table_from_config_scores(default_space, scores)
    rows = marginal_means(table, LEXICAL_AC, "dev")
    grand = sum(scores) / len(scores)
    delta = {(r.param, r.value): r.delta for r in rows}
    reconstructed = []
    for ordinal in range(162):
        config = default_space.config_at(ordinal)
        reconstructed.append(
            grand + sum(delta[(p, config.value_of(p))] for p in ParamName)
        )
    extremes = grid_extremes(table, LEXICAL_AC, "dev")
    assert max(reconstructed) == pytest.approx(extremes.best_score)
    assert reconstructed.index(max(reconstructed)) == default_space.ordinal_of(extremes.best)


def test_reaggregation_from_export_file_matches_emitted_points(tmp_path, default_space):
    import json
    import math
    import statistics

    from raghpo.harness import export_run

    rng = random.Random(23)
    dev = [rng.random() for _ in range(162)]
    test = [rng.random() for _ in range(162)]
    table = table_from_config_scores(default_space, dev, test_scores=test)
    evaluator = GridReplayEvaluator(table)
    spec = RunSpec(
        space=default_space,
        algorithm="random",
        objective=Objective(),
        budget=6,
        seeds=tuple(range(1, 8)),
    )
    export_run(run(spec, evaluator), tmp_path / "run.jsonl")

    trials: dict[int, dict[int, float]] = {}
    aggregates = {}
    for line in (tmp_path / "run.jsonl").read_text().strip().splitlines():
        row = json.loads(line)
        if row["kind"] == "trial":
            trials.setdefault(row["iteration"], {})[row["seed"]] = row["test_of_best"]
        elif row["kind"] == "aggregate":
            aggregates[row["iteration"]] = row
    for iteration, by_seed in trials.items():
        values = list(by_seed.values())
        point = aggregates[iteration]
        assert point["n"] == len(values) == 7
        assert point["mean_test"] == pytest.approx(sum(values) / len(values))
        assert point["se_test"] == pytest.approx(
            statistics.stdev(values) / math.sqrt(len(values))
        )


def test_convergence_series_constant_histories_zero_se(tiny_space):
    table = table_from_config_scores(tiny_space, [0.5] * tiny_space.total_size)
    evaluator = GridReplayEvaluator(table)
    spec = RunSpec(
        space=tiny_space,
        algorithm="random",
        objective=Objective(),
        budget=4,
        seeds=(1, 2, 3),
    )
    record = run(spec, evaluator)
    for point in convergence_series(record):
        assert point.se_test == pytest.approx(0.0)
