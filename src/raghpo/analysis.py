"""Offline analysis of grid tables and run exports.

Everything here consumes files (grid tables, run exports) already on disk,
never live services, so analyses can be rerun at any time. No plotting is
done in-engine; the outputs are plain numeric series any plotting tool can
consume.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dataio import GridTable
from .harness import RunRecord
from .searchspace import ORDINAL_ORDER, ParamName, RagConfig

DEFAULT_BIN_COUNT = 10


def per_config_means(table: GridTable, metric: str, split: str) -> list[float]:
    """Mean score per config ordinal; requires a complete (metric, split) slice."""
    scores = table.slice(split, metric)
    scores.require_complete(range(table.space.total_size))
    return scores.means.tolist()


@dataclass(frozen=True)
class GridExtremes:
    worst: RagConfig
    worst_score: float
    best: RagConfig
    best_score: float


def grid_extremes(table: GridTable, metric: str, split: str) -> GridExtremes:
    """Worst and best per-config mean scores; ties go to the lowest ordinal."""
    means = per_config_means(table, metric, split)
    worst_ord = min(range(len(means)), key=lambda i: (means[i], i))
    best_ord = max(range(len(means)), key=lambda i: (means[i], -i))
    return GridExtremes(
        worst=table.space.config_at(worst_ord),
        worst_score=means[worst_ord],
        best=table.space.config_at(best_ord),
        best_score=means[best_ord],
    )


@dataclass(frozen=True)
class BinnedScores:
    """Histogram of min-max normalized per-config scores.

    Bins are half-open [a, b) over [0, 1] with the final bin closed, so the
    best config lands in the last bin. ``degenerate`` marks the case where
    every config scores the same (normalization undefined); all configs are
    then reported in the first bin.
    """

    counts: tuple[int, ...]
    worst_score: float
    best_score: float
    degenerate: bool = False


def normalized_bins(
    table: GridTable, metric: str, split: str, bin_count: int = DEFAULT_BIN_COUNT
) -> BinnedScores:
    """Min-max normalize per-config means and bin them uniformly over [0, 1]."""
    if bin_count < 1:
        raise ValueError(f"bin_count must be >= 1, got {bin_count}")
    means = per_config_means(table, metric, split)
    worst, best = min(means), max(means)
    counts = [0] * bin_count
    if best == worst:
        counts[0] = len(means)
        return BinnedScores(tuple(counts), worst, best, degenerate=True)
    for x in means:
        normalized = (x - worst) / (best - worst)
        counts[min(int(normalized * bin_count), bin_count - 1)] += 1
    return BinnedScores(tuple(counts), worst, best)


@dataclass(frozen=True)
class MarginalMean:
    """Mean score over all configs containing one parameter value."""

    param: ParamName
    value: object
    mean: float
    delta: float  # difference from the grand mean over all configs


def marginal_means(table: GridTable, metric: str, split: str) -> list[MarginalMean]:
    """Per parameter value, the mean over configs containing that value."""
    space = table.space
    means = per_config_means(table, metric, split)
    grand = sum(means) / len(means)
    sums: dict[tuple[ParamName, object], list[float]] = {}
    for ordinal, score in enumerate(means):
        config = space.config_at(ordinal)
        for param in ORDINAL_ORDER:
            sums.setdefault((param, config.value_of(param)), []).append(score)
    rows = []
    for param in ORDINAL_ORDER:
        for value in space.values_of(param):
            scores = sums[(param, value)]
            mean = sum(scores) / len(scores)
            rows.append(MarginalMean(param=param, value=value, mean=mean, delta=mean - grand))
    return rows


@dataclass(frozen=True)
class SeriesPoint:
    iteration: int
    mean_test: float | None
    se_test: float | None
    n: int
    grid_max: float | None = None


def convergence_series(
    record: RunRecord, grid_max: float | None = None
) -> list[SeriesPoint]:
    """Per-iteration cross-seed test performance, plus an optional reference line."""
    return [
        SeriesPoint(
            iteration=p.iteration,
            mean_test=p.mean_test,
            se_test=p.se_test,
            n=p.n,
            grid_max=grid_max,
        )
        for p in record.aggregate
    ]
