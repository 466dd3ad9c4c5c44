"""Evaluation contract consumed by the optimizers, with the grid-replay backend.

An evaluator scores one configuration on one benchmark split under an
objective. Both backends read scores and costs from a :class:`GridTable`
through the same code (:class:`StoredScores`). The grid-replay backend's
table is precomputed, which makes optimizer runs exact, deterministic and
free; the live backend (see :mod:`raghpo.pipeline`) fills its table as it
runs the actual RAG pipeline against model services.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

from .costs import CostDelta, ZERO_COST
from .dataio import METRICS_RULE, SPLITS, WEIGHTS_RULE, GridTable, IncompleteTableError, ScoreSlice
from .metrics import CONTEXT_MRR, METRIC_NAMES, MetricUndefinedError, aggregate
from .searchspace import RagConfig, SearchSpace


def _running_sum(values) -> float:
    """Left-to-right float sum, the order in which evaluators combine weighted means."""
    total = 0.0
    for value in values:
        total += value
    return total


def _normalized(weights: tuple[float, ...]) -> tuple[float, ...]:
    """Weights whose running sum is at most 1, so no weighted mean of scores exceeds 1.

    Rounding can only lower each ``weight * mean`` for a mean in [0, 1], and a
    running sum of smaller terms is no larger. Weights already within that
    limit are returned as given, which makes normalizing idempotent.
    """
    if _running_sum(weights) <= 1.0:
        return weights
    total = sum(weights)
    scaled = [w / total for w in weights]
    largest = scaled.index(max(scaled))
    while _running_sum(scaled) > 1.0:
        scaled[largest] = math.nextafter(scaled[largest], 0.0)
    return tuple(scaled)


@dataclass(frozen=True)
class Objective:
    """What the optimizer maximizes: one metric, or a weighted sum of several.

    Weights default to uniform and must sum to 1 (within 1e-9) when given
    explicitly; weights whose sum rounds above 1 are scaled down slightly, so
    a perfect score stays within [0, 1]. Aggregation over questions is always
    the arithmetic mean.
    """

    metrics: tuple[str, ...] = ("lexical_ac",)
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "metrics", tuple(self.metrics))
        METRICS_RULE.check(self.metrics, "metrics")
        if self.weights is not None:
            WEIGHTS_RULE.check(self.weights, "weights")
            if len(self.weights) != len(self.metrics):
                raise ValueError("weights must match metrics one-to-one")
            object.__setattr__(self, "weights", _normalized(tuple(map(float, self.weights))))

    def weighted_metrics(self) -> tuple[tuple[str, float], ...]:
        if self.weights is None:
            w = 1.0 / len(self.metrics)
            return tuple((m, w) for m in self.metrics)
        return tuple(zip(self.metrics, self.weights))

    def describe(self) -> str:
        if len(self.metrics) == 1:
            return self.metrics[0]
        return "+".join(f"{w:g}*{m}" for m, w in self.weighted_metrics())


#: Objective used for retrieval-only evaluation.
RETRIEVAL_OBJECTIVE = Objective(metrics=(CONTEXT_MRR,))


@dataclass(frozen=True)
class EvalResult:
    """Outcome of evaluating one configuration on one split.

    ``failed_qids`` are the questions of the objective's universe that have
    no score for the configuration; the objective averages the others.
    """

    config: RagConfig
    objective_score: float
    cost: CostDelta
    failed_qids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.objective_score <= 1.0:
            raise ValueError(f"objective_score must be in [0, 1], got {self.objective_score}")


class Evaluator(Protocol):
    """What :func:`raghpo.harness.run` needs of a backend.

    ``evaluate_retrieval_only`` scores context_mrr with no generation run or
    charged; ``replay_objective`` is the objective at no cost, or None when
    the backend has no such lookup; ``supports_metric`` says whether a
    metric is defined for some question of a split.
    """

    def evaluate(self, config: RagConfig, split: str, objective: Objective) -> EvalResult: ...

    def evaluate_retrieval_only(self, config: RagConfig, split: str) -> EvalResult: ...

    def replay_objective(
        self, config: RagConfig, split: str, objective: Objective
    ) -> float | None: ...

    def supports_metric(self, metric: str, split: str) -> bool: ...


def best_so_far(history) -> tuple[RagConfig, float]:
    """Best configuration by objective score; ties go to the earliest trial.

    Trials without an objective score (retrieval-only probes in live runs)
    are skipped. Raises ValueError when no trial has an objective score.
    """
    best: tuple[RagConfig, float] | None = None
    for trial in history:
        score = trial.objective_score
        if score is None:
            continue
        if best is None or score > best[1]:
            best = (trial.config, score)
    if best is None:
        raise ValueError("history has no trials with an objective score")
    return best


class StoredScores:
    """What both backends share: scores and costs read from a :class:`GridTable`.

    ``space`` is the table's. ``_slices`` holds one :class:`ScoreSlice` per
    (split, metric) of the table over the backend's qid universe, in which
    order means are summed.
    """

    table: GridTable
    _slices: dict[tuple[str, str], ScoreSlice]

    @property
    def space(self) -> SearchSpace:
        return self.table.space

    def supports_metric(self, metric: str, split: str) -> bool:
        return bool(self._slices[(split, metric)].qids)

    def _stored_result(
        self, config: RagConfig, ordinal: int, split: str, objective: Objective, retrieval_only=False
    ) -> EvalResult:
        """The objective over the rows stored for ``ordinal``, and the cell's cost.

        A metric whose universe lacks rows for ``ordinal`` is averaged over
        the rows present, and the qids without one are reported as failed.
        A retrieval-only result is charged the cell's embedding tokens only.
        """
        score = 0.0
        missing: dict[str, None] = {}
        for metric, weight in objective.weighted_metrics():
            scores = self._slices[(split, metric)]
            mean = float(scores.means[ordinal])
            if math.isnan(mean):
                missing.update(dict.fromkeys(scores.missing(ordinal)))
                column = scores.matrix[:, ordinal].tolist()
                try:
                    mean = aggregate(None if math.isnan(v) else v for v in column).mean
                except MetricUndefinedError:
                    raise MetricUndefinedError(
                        f"metric {metric!r} is undefined for every question on split {split!r}"
                    ) from None
            score += weight * mean
        cost = self.table.cost_for(ordinal, split) or ZERO_COST
        if retrieval_only:
            cost = CostDelta(embedded_tokens=cost.embedded_tokens)
        return EvalResult(config, score, cost, tuple(missing))


class GridReplayEvaluator(StoredScores):
    """Replays precomputed grid scores; evaluation is a deterministic lookup.

    The qid universe of each (split, metric) is every qid with a row for it,
    and a configuration that lacks any of them is an
    :class:`IncompleteTableError`.
    """

    def __init__(self, table: GridTable):
        self.table = table
        self._slices = {
            (split, metric): table.slice(split, metric)
            for split in SPLITS
            for metric in METRIC_NAMES
        }

    def _complete(self, config: RagConfig, split: str, metrics) -> int:
        """The ordinal of ``config``, whose rows for ``metrics`` must all be present."""
        ordinal = self.space.ordinal_of(config)
        for metric in metrics:
            self._slices[(split, metric)].require_complete((ordinal,))
        return ordinal

    def evaluate(self, config: RagConfig, split: str, objective: Objective) -> EvalResult:
        """Replay the full objective for one configuration."""
        ordinal = self._complete(config, split, objective.metrics)
        return self._stored_result(config, ordinal, split, objective)

    def evaluate_retrieval_only(self, config: RagConfig, split: str) -> EvalResult:
        """Replay retrieval quality only; generation is neither run nor charged."""
        ordinal = self._complete(config, split, (CONTEXT_MRR,))
        return self._stored_result(
            config, ordinal, split, RETRIEVAL_OBJECTIVE, retrieval_only=True
        )

    def replay_objective(
        self, config: RagConfig, split: str, objective: Objective
    ) -> float | None:
        """Zero-cost objective lookup, or None when the rows are absent.

        Lets the harness record the would-be objective score of a
        retrieval-only probe, which on a replay backend is free.
        """
        ordinal = self.space.ordinal_of(config)
        score = 0.0
        for metric, weight in objective.weighted_metrics():
            score += weight * float(self._slices[(split, metric)].means[ordinal])
        return None if math.isnan(score) else score
