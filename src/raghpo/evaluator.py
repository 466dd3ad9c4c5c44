"""Evaluation contract consumed by the optimizers, with the grid-replay backend.

An evaluator scores one configuration on one benchmark split under an
objective. The grid-replay backend is a pure lookup into a precomputed score
table, which makes optimizer runs exact, deterministic and free; the live
backend (see :mod:`raghpo.pipeline`) runs the actual RAG pipeline against
model services.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .costs import CostDelta, ZERO_COST
from .dataio import SPLITS, FingerprintMismatchError, GridTable, IncompleteTableError
from .metrics import CONTEXT_MRR, METRIC_NAMES, QuestionEval
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
        if not self.metrics:
            raise ValueError("objective needs at least one metric")
        unknown = [m for m in self.metrics if m not in METRIC_NAMES]
        if unknown:
            raise ValueError(f"unknown metric names {unknown}; expected {sorted(METRIC_NAMES)}")
        if len(set(self.metrics)) != len(self.metrics):
            raise ValueError(f"duplicate metrics in objective: {self.metrics}")
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
            if len(self.weights) != len(self.metrics):
                raise ValueError("weights must match metrics one-to-one")
            if any(w < 0 for w in self.weights):
                raise ValueError(f"weights must be non-negative, got {self.weights}")
            if abs(sum(self.weights) - 1.0) > 1e-9:
                raise ValueError(f"weights must sum to 1, got {sum(self.weights)}")
            object.__setattr__(self, "weights", _normalized(self.weights))

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
    """Outcome of evaluating one configuration on one split."""

    config: RagConfig
    per_question: tuple[QuestionEval, ...]
    objective_score: float
    cost: CostDelta
    failed_qids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.objective_score <= 1.0:
            raise ValueError(f"objective_score must be in [0, 1], got {self.objective_score}")


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


class GridReplayEvaluator:
    """Replays precomputed grid scores; evaluation is a deterministic lookup."""

    def __init__(self, table: GridTable, space: SearchSpace):
        if table.space_fingerprint != space.fingerprint():
            raise FingerprintMismatchError(
                "grid table fingerprint does not match the active search space"
            )
        self.table = table
        self.space = space
        self._slices = {
            (split, metric): table.slice(split, metric, space.total_size)
            for split in SPLITS
            for metric in METRIC_NAMES
        }

    def _objective(self, ordinal: int, split: str, objective: Objective) -> float:
        """Weighted sum of the per-config means; NaN when a metric lacks rows for ``ordinal``."""
        score = 0.0
        for metric, weight in objective.weighted_metrics():
            score += weight * float(self._slices[(split, metric)].means[ordinal])
        return score

    def _build_result(
        self, config: RagConfig, ordinal: int, split: str, objective: Objective, cost: CostDelta
    ) -> EvalResult:
        per_question: dict[str, QuestionEval] = {}
        for metric in objective.metrics:
            scores = self._slices[(split, metric)]
            scores.require_complete((ordinal,))
            for qid, value in zip(scores.qids, scores.matrix[:, ordinal].tolist()):
                per_question.setdefault(qid, QuestionEval(qid=qid)).scores[metric] = value
        ordered = tuple(per_question[q] for q in sorted(per_question))
        return EvalResult(
            config=config,
            per_question=ordered,
            objective_score=self._objective(ordinal, split, objective),
            cost=cost,
        )

    def evaluate(self, config: RagConfig, split: str, objective: Objective) -> EvalResult:
        """Replay the full objective for one configuration."""
        ordinal = self.space.ordinal_of(config)
        cost = self.table.cost_for(ordinal, split) or ZERO_COST
        return self._build_result(config, ordinal, split, objective, cost)

    def evaluate_retrieval_only(self, config: RagConfig, split: str) -> EvalResult:
        """Replay retrieval quality only; generation is neither run nor charged."""
        ordinal = self.space.ordinal_of(config)
        full = self.table.cost_for(ordinal, split)
        cost = (
            CostDelta(embedded_tokens=full.embedded_tokens) if full is not None else ZERO_COST
        )
        return self._build_result(config, ordinal, split, RETRIEVAL_OBJECTIVE, cost)

    def replay_objective(
        self, config: RagConfig, split: str, objective: Objective
    ) -> float | None:
        """Zero-cost objective lookup, or None when the rows are absent.

        Lets the harness record the would-be objective score of a
        retrieval-only probe, which on a replay backend is free. Live
        backends have no equivalent.
        """
        score = self._objective(self.space.ordinal_of(config), split, objective)
        return None if math.isnan(score) else score

    def supports_metric(self, metric: str, split: str) -> bool:
        return bool(self._slices[(split, metric)].qids)
