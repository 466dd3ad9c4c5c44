"""Experiment protocol: budgeted runs, seed repetition, dev-to-test tracking.

A run executes one algorithm for a fixed number of iterations, once per
seed. Each iteration suggests a configuration, evaluates it on the dev
split, then evaluates the current dev-best configuration on the test split,
so generalization can be analyzed per iteration. Token spend is accumulated
in a cost ledger that charges each distinct index build once; test-side
evaluation spend is tracked in a separate ledger because the optimization
cost curves cover optimization-time spend only.
"""

from __future__ import annotations

import logging
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

from .costs import CostDelta
from .dataio import _dump_canonical, _read_jsonl, atomic_write, read_json_object
from .evaluator import Objective, best_so_far
from .metrics import CONTEXT_MRR
from .optimizers import (
    ALGORITHMS,
    DRIVER_OBJECTIVE,
    DRIVER_RETRIEVAL,
    Optimizer,
    Trial,
    TrialHistory,
    create_optimizer,
    restore_optimizer,
)
from .searchspace import IndexConfig, RagConfig, SearchSpace

log = logging.getLogger(__name__)

RUN_FORMAT_VERSION = 1
CHECKPOINT_FORMAT_VERSION = 1


class RunSuspended(RuntimeError):
    """A live run hit a service outage; resumable state was written."""

    def __init__(self, message: str, checkpoint_path: Path):
        super().__init__(message)
        self.checkpoint_path = checkpoint_path


@dataclass(frozen=True)
class CostTotals:
    """A ledger snapshot: cumulative token counts up to some iteration."""

    embedded_tokens: int = 0
    generation_input_tokens: int = 0
    generation_output_tokens: int = 0


class CostLedger:
    """Accumulates token spend across evaluations, charging each index once."""

    def __init__(self) -> None:
        self._charged_indexes: set[IndexConfig] = set()
        self._embedded = 0
        self._gen_in = 0
        self._gen_out = 0
        self._snapshots: list[CostTotals] = []

    def charge(self, index_config: IndexConfig, cost: CostDelta) -> None:
        """Add generation tokens always; embedding tokens only for new indexes."""
        if index_config not in self._charged_indexes:
            self._charged_indexes.add(index_config)
            self._embedded += cost.embedded_tokens
        self._gen_in += cost.generation_input_tokens
        self._gen_out += cost.generation_output_tokens

    def snapshot(self) -> CostTotals:
        totals = self.totals
        self._snapshots.append(totals)
        return totals

    @property
    def totals(self) -> CostTotals:
        return CostTotals(self._embedded, self._gen_in, self._gen_out)

    @property
    def snapshots(self) -> tuple[CostTotals, ...]:
        return tuple(self._snapshots)


@dataclass(frozen=True)
class IterationRecord:
    """State after one iteration: dev best, its test score, spend so far."""

    iteration: int
    best_dev_score: float | None
    best_ordinal: int | None
    test_score_of_best: float | None
    cost: CostTotals


@dataclass(frozen=True)
class SeedRun:
    seed: int
    history: TrialHistory
    iterations: tuple[IterationRecord, ...]


@dataclass(frozen=True)
class AggregatePoint:
    """Cross-seed mean and standard error of the test score at one iteration."""

    iteration: int
    mean_test: float | None
    se_test: float | None
    n: int


@dataclass(frozen=True)
class RunSpec:
    """Everything that determines a run besides the evaluator backend."""

    space: SearchSpace
    algorithm: str
    objective: Objective
    budget: int
    seeds: tuple[int, ...]
    optimizer_options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}"
            )
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if self.budget > self.space.total_size:
            raise ValueError(
                f"budget {self.budget} exceeds the space size {self.space.total_size}"
            )
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be distinct, got {self.seeds}")


@dataclass(frozen=True)
class RunRecord:
    spec: RunSpec
    seed_runs: tuple[SeedRun, ...]
    aggregate: tuple[AggregatePoint, ...]


def _aggregate_test_scores(seed_runs: tuple[SeedRun, ...], budget: int) -> tuple[AggregatePoint, ...]:
    points = []
    for i in range(budget):
        values = [
            sr.iterations[i].test_score_of_best
            for sr in seed_runs
            if sr.iterations[i].test_score_of_best is not None
        ]
        if not values:
            points.append(AggregatePoint(i + 1, None, None, 0))
            continue
        mean = sum(values) / len(values)
        se = statistics.stdev(values) / math.sqrt(len(values)) if len(values) > 1 else 0.0
        points.append(AggregatePoint(i + 1, mean, se, len(values)))
    return tuple(points)


class _SeedProgress:
    """Mutable per-seed state, restorable from a checkpoint mid-run."""

    def __init__(self, spec: RunSpec, seed: int):
        self.seed = seed
        self.optimizer: Optimizer = create_optimizer(
            spec.algorithm, spec.space, seed, **spec.optimizer_options
        )
        self.history = TrialHistory()
        self.iterations: list[IterationRecord] = []
        self.ledger = CostLedger()
        self.test_ledger = CostLedger()
        self.test_cache: dict[int, float] = {}
        # Optimizer snapshot taken before the in-flight iteration's suggest,
        # so a suspension rolls back to a clean iteration boundary.
        self.resume_state: dict | None = None


#: Run-level evaluation memo: (config, split, objective) -> (objective score,
#: cost). ``objective=None`` keys a retrieval-only evaluation.
_EvalMemo = dict[tuple[RagConfig, str, Objective | None], tuple[float, CostDelta]]


def _evaluate(
    evaluator, memo: _EvalMemo, config: RagConfig, split: str, objective: Objective | None
) -> tuple[float, CostDelta]:
    """Score and cost of one evaluation, computed once per run.

    Generation pins greedy decoding, so a repeat would return the same score
    and token counts. A result with failed questions is not stored, so the
    next request retries them.
    """
    key = (config, split, objective)
    known = memo.get(key)
    if known is None:
        if objective is None:
            result = evaluator.evaluate_retrieval_only(config, split)
        else:
            result = evaluator.evaluate(config, split, objective)
        known = (result.objective_score, result.cost)
        if not result.failed_qids:
            memo[key] = known
    return known


def _advance_seed(
    spec: RunSpec,
    evaluator,
    memo: _EvalMemo,
    progress: _SeedProgress,
    free_lookup,
    track_state: bool,
) -> SeedRun:
    """Run the remaining iterations of one seed, returning its final record."""
    try:
        best_config, best_score = best_so_far(progress.history)
    except ValueError:  # no trial has an objective score yet
        best_config, best_score = None, None
    for iteration in range(len(progress.history) + 1, spec.budget + 1):
        if track_state:
            progress.resume_state = progress.optimizer.state_dict()
        suggestion = progress.optimizer.suggest(progress.history)
        config = suggestion.config
        if suggestion.retrieval_only:
            retrieval_score, cost = _evaluate(evaluator, memo, config, "dev", None)
            objective_score = (
                free_lookup(config, "dev", spec.objective) if free_lookup else None
            )
            driver = DRIVER_RETRIEVAL
        else:
            objective_score, cost = _evaluate(evaluator, memo, config, "dev", spec.objective)
            retrieval_score = None
            driver = DRIVER_OBJECTIVE
        progress.history.append(
            Trial(
                iteration=iteration,
                config=config,
                objective_score=objective_score,
                retrieval_score=retrieval_score,
                cost=cost,
                driver=driver,
            )
        )
        progress.ledger.charge(config.index, cost)

        if objective_score is not None and (
            best_score is None or objective_score > best_score
        ):
            best_config, best_score = config, objective_score
        best_ordinal = None
        test_score = None
        if best_config is not None:
            best_ordinal = spec.space.ordinal_of(best_config)
            test_score = progress.test_cache.get(best_ordinal)
            if test_score is None:
                test_score, test_cost = _evaluate(
                    evaluator, memo, best_config, "test", spec.objective
                )
                progress.test_ledger.charge(best_config.index, test_cost)
                progress.test_cache[best_ordinal] = test_score
        progress.iterations.append(
            IterationRecord(
                iteration=iteration,
                best_dev_score=best_score,
                best_ordinal=best_ordinal,
                test_score_of_best=test_score,
                cost=progress.ledger.snapshot(),
            )
        )
    return SeedRun(
        seed=progress.seed,
        history=progress.history,
        iterations=tuple(progress.iterations),
    )


def run(spec: RunSpec, evaluator, checkpoint_path: str | Path | None = None) -> RunRecord:
    """Execute the full protocol: budget iterations per seed, then aggregate.

    The evaluator must provide ``evaluate(config, split, objective)`` and
    ``evaluate_retrieval_only(config, split)``. When it also provides
    ``replay_objective`` (the grid-replay backend does), retrieval-only
    probes get their objective score recorded via that free lookup, so the
    dev-best trajectory is defined from iteration 1 without charging any
    generation spend for those probes.

    Each distinct (config, split, objective) is evaluated once per run:
    seeds that propose the same configuration, and the per-iteration test
    evaluation of the dev-best, reuse the first evaluation's score and cost.
    Every seed's ledgers are still charged as if it had evaluated the
    configuration itself, so the accounted spend does not depend on the
    reuse; only the spend actually sent to the services drops. An
    evaluation with failed questions is not reused.

    With ``checkpoint_path`` set, a live-service outage writes resumable
    state there and raises :class:`RunSuspended`; re-running with the same
    arguments continues the identical trajectory. A completed run removes
    the checkpoint. The evaluation memo is not part of the checkpoint.
    """
    from .pipeline import ServiceFailure

    if spec.algorithm == "greedy_rcc":
        supports = getattr(evaluator, "supports_metric", None)
        if supports is not None and not supports(CONTEXT_MRR, "dev"):
            raise ValueError(
                "greedy_rcc needs retrieval quality on the dev split, but no dev "
                "question has gold document labels (and the grid table has no "
                "context_mrr rows); choose another algorithm or add gold labels"
            )
    free_lookup = getattr(evaluator, "replay_objective", None)
    memo: _EvalMemo = {}

    seed_runs: list[SeedRun] = []
    resumed: _SeedProgress | None = None
    if checkpoint_path is not None and Path(checkpoint_path).is_file():
        seed_runs, resumed = _load_checkpoint(Path(checkpoint_path), spec)
        log.info(
            "resuming from %s: %d seeds complete%s",
            checkpoint_path,
            len(seed_runs),
            f", seed {resumed.seed} mid-run" if resumed else "",
        )

    done = {sr.seed for sr in seed_runs}
    for seed in spec.seeds:
        if seed in done:
            continue
        if resumed is not None and resumed.seed == seed:
            progress, resumed = resumed, None
        else:
            progress = _SeedProgress(spec, seed)
        try:
            seed_run = _advance_seed(
                spec,
                evaluator,
                memo,
                progress,
                free_lookup,
                track_state=checkpoint_path is not None,
            )
        except ServiceFailure as exc:
            if checkpoint_path is None:
                raise
            _save_checkpoint(Path(checkpoint_path), spec, seed_runs, progress)
            raise RunSuspended(
                f"service outage during seed {seed}: {exc}; resumable state "
                f"written to {checkpoint_path}",
                Path(checkpoint_path),
            ) from exc
        seed_runs.append(seed_run)
        log.info(
            "seed %d done: best dev %s",
            seed,
            f"{seed_run.iterations[-1].best_dev_score:.4f}"
            if seed_run.iterations[-1].best_dev_score is not None
            else "n/a",
        )
    if checkpoint_path is not None:
        Path(checkpoint_path).unlink(missing_ok=True)
    ordered = tuple(sorted(seed_runs, key=lambda sr: spec.seeds.index(sr.seed)))
    return RunRecord(
        spec=spec,
        seed_runs=ordered,
        aggregate=_aggregate_test_scores(ordered, spec.budget),
    )


# ---------------------------------------------------------------------------
# Run export / import and checkpoints
# ---------------------------------------------------------------------------


def _spec_header(spec: RunSpec) -> dict:
    return {
        "algorithm": spec.algorithm,
        "objective_metrics": list(spec.objective.metrics),
        "objective_weights": list(spec.objective.weights)
        if spec.objective.weights is not None
        else None,
        "budget": spec.budget,
        "seeds": list(spec.seeds),
        "space": spec.space.to_dict(),
        "space_fingerprint": spec.space.fingerprint(),
        "optimizer_options": spec.optimizer_options,
    }


def _spec_from_header(header: dict) -> RunSpec:
    return RunSpec(
        space=SearchSpace.from_dict(header["space"]),
        algorithm=header["algorithm"],
        objective=Objective(
            metrics=tuple(header["objective_metrics"]),
            weights=tuple(header["objective_weights"])
            if header.get("objective_weights") is not None
            else None,
        ),
        budget=header["budget"],
        seeds=tuple(header["seeds"]),
        optimizer_options=header.get("optimizer_options", {}),
    )


def _trial_row(space: SearchSpace, seed: int, trial: Trial, it: IterationRecord) -> dict:
    return {
        "kind": "trial",
        "seed": seed,
        "iteration": trial.iteration,
        "ordinal": space.ordinal_of(trial.config),
        "objective_score": trial.objective_score,
        "retrieval_score": trial.retrieval_score,
        "driver": trial.driver,
        "cost": trial.cost.as_dict(),
        "best_dev": it.best_dev_score,
        "best_ordinal": it.best_ordinal,
        "test_of_best": it.test_score_of_best,
        "cum_embedded_tokens": it.cost.embedded_tokens,
        "cum_generation_input_tokens": it.cost.generation_input_tokens,
        "cum_generation_output_tokens": it.cost.generation_output_tokens,
    }


def _parse_trial_row(space: SearchSpace, row: dict) -> tuple[Trial, IterationRecord]:
    trial = Trial(
        iteration=row["iteration"],
        config=space.config_at(row["ordinal"]),
        objective_score=row["objective_score"],
        retrieval_score=row["retrieval_score"],
        cost=CostDelta(**row["cost"]),
        driver=row["driver"],
    )
    record = IterationRecord(
        iteration=row["iteration"],
        best_dev_score=row["best_dev"],
        best_ordinal=row["best_ordinal"],
        test_score_of_best=row["test_of_best"],
        cost=CostTotals(
            embedded_tokens=row["cum_embedded_tokens"],
            generation_input_tokens=row["cum_generation_input_tokens"],
            generation_output_tokens=row["cum_generation_output_tokens"],
        ),
    )
    return trial, record


def _seed_run(seed: int, parsed: list[tuple[Trial, IterationRecord]]) -> SeedRun:
    history = TrialHistory()
    iterations = []
    for trial, record in sorted(parsed, key=lambda pair: pair[0].iteration):
        history.append(trial)
        iterations.append(record)
    return SeedRun(seed=seed, history=history, iterations=tuple(iterations))


_OPTIONAL_NUMBER = (int, float, type(None))

#: Field types of the rows of a run export and of a trial row's nested cost
#: object. A JSON boolean is rejected where a number is expected.
_ROW_FIELDS: dict[str, dict[str, type | tuple[type, ...]]] = {
    "trial row": {
        "seed": int,
        "iteration": int,
        "ordinal": int,
        "objective_score": _OPTIONAL_NUMBER,
        "retrieval_score": _OPTIONAL_NUMBER,
        "driver": str,
        "cost": dict,
        "best_dev": _OPTIONAL_NUMBER,
        "best_ordinal": (int, type(None)),
        "test_of_best": _OPTIONAL_NUMBER,
        "cum_embedded_tokens": int,
        "cum_generation_input_tokens": int,
        "cum_generation_output_tokens": int,
    },
    "trial cost": dict.fromkeys(CostDelta().as_dict(), int),
    "aggregate row": {
        "iteration": int,
        "mean_test": _OPTIONAL_NUMBER,
        "se_test": _OPTIONAL_NUMBER,
        "n": int,
    },
}


def _check_fields(record: dict, kind: str, where: str) -> None:
    """Raise ValueError at ``where`` naming the first missing or mistyped field."""
    for name, types in _ROW_FIELDS[kind].items():
        if name not in record:
            raise ValueError(f"{where}: {kind} lacks field {name!r}")
        value = record[name]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValueError(f"{where}: {kind} field {name!r} has the wrong type: {value!r}")


def export_run(record: RunRecord, path: str | Path) -> None:
    """Write a run atomically as JSON lines: header, one row per trial, one per aggregate point.

    The header embeds the search space, so the file is self-contained and
    :func:`load_run` can rebuild configurations from ordinals.
    """
    spec = record.spec
    with atomic_write(path) as fh:
        header = {"kind": "run_header", "format_version": RUN_FORMAT_VERSION}
        header.update(_spec_header(spec))
        fh.write(_dump_canonical(header) + "\n")
        for sr in record.seed_runs:
            for trial, it in zip(sr.history, sr.iterations):
                fh.write(_dump_canonical(_trial_row(spec.space, sr.seed, trial, it)) + "\n")
        for point in record.aggregate:
            fh.write(
                _dump_canonical(
                    {
                        "kind": "aggregate",
                        "iteration": point.iteration,
                        "mean_test": point.mean_test,
                        "se_test": point.se_test,
                        "n": point.n,
                    }
                )
                + "\n"
            )


def load_run(path: str | Path) -> RunRecord:
    """Rebuild a RunRecord from an exported file (lossless round-trip)."""
    source = Path(path)
    header: dict | None = None
    header_line = 0
    trial_rows: list[tuple[int, dict]] = []
    aggregate: list[AggregatePoint] = []
    for lineno, record in _read_jsonl(source, ValueError):
        kind = record.get("kind")
        where = f"{source}:{lineno}"
        if kind == "run_header":
            if record.get("format_version") != RUN_FORMAT_VERSION:
                raise ValueError(
                    f"{where}: unsupported run format_version {record.get('format_version')!r}"
                )
            header, header_line = record, lineno
        elif kind == "trial":
            _check_fields(record, "trial row", where)
            _check_fields(record["cost"], "trial cost", where)
            trial_rows.append((lineno, record))
        elif kind == "aggregate":
            _check_fields(record, "aggregate row", where)
            aggregate.append(
                AggregatePoint(
                    iteration=record["iteration"],
                    mean_test=record["mean_test"],
                    se_test=record["se_test"],
                    n=record["n"],
                )
            )
        else:
            raise ValueError(f"{where}: unknown row kind {kind!r}")
    if header is None:
        raise ValueError(f"{source}: missing run_header row")
    try:
        spec = _spec_from_header(header)
    except KeyError as exc:
        raise ValueError(f"{source}:{header_line}: run_header lacks field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{source}:{header_line}: bad run_header: {exc}") from None
    trials_by_seed: dict[int, list[tuple[Trial, IterationRecord]]] = {}
    for lineno, row in trial_rows:
        try:
            parsed = _parse_trial_row(spec.space, row)
        except (IndexError, TypeError, ValueError) as exc:  # ordinal range, cost keys and signs
            raise ValueError(f"{source}:{lineno}: bad trial row: {exc}") from None
        trials_by_seed.setdefault(row["seed"], []).append(parsed)
    seed_runs = tuple(_seed_run(seed, trials_by_seed.get(seed, [])) for seed in spec.seeds)
    return RunRecord(spec=spec, seed_runs=seed_runs, aggregate=tuple(aggregate))


def _save_checkpoint(
    path: Path, spec: RunSpec, completed: list[SeedRun], progress: _SeedProgress
) -> None:
    payload = {
        "kind": "run_checkpoint",
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "completed": [
            {
                "seed": sr.seed,
                "trials": [
                    _trial_row(spec.space, sr.seed, trial, it)
                    for trial, it in zip(sr.history, sr.iterations)
                ],
            }
            for sr in completed
        ],
        # Rows are the completed iterations only (zip drops a trial whose
        # per-iteration record never landed); the optimizer state is the
        # pre-suggest snapshot, so resume re-proposes the interrupted
        # iteration identically.
        "current": {
            "seed": progress.seed,
            "optimizer_state": progress.resume_state or progress.optimizer.state_dict(),
            "trials": [
                _trial_row(spec.space, progress.seed, trial, it)
                for trial, it in zip(progress.history, progress.iterations)
            ],
            "test_cache": {str(k): v for k, v in progress.test_cache.items()},
        },
    }
    payload.update(_spec_header(spec))
    with atomic_write(path) as fh:
        fh.write(_dump_canonical(payload) + "\n")


def _load_checkpoint(path: Path, spec: RunSpec) -> tuple[list[SeedRun], _SeedProgress | None]:
    payload = read_json_object(path, ValueError)
    if payload.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint format_version")
    saved = _spec_from_header(payload)
    if saved != spec:
        raise ValueError(
            f"{path}: checkpoint was written for a different run spec; "
            "delete it or re-run with the original settings"
        )
    completed = [
        _seed_run(entry["seed"], [_parse_trial_row(spec.space, row) for row in entry["trials"]])
        for entry in payload.get("completed", [])
    ]
    current = payload.get("current")
    progress: _SeedProgress | None = None
    if current is not None:
        progress = _SeedProgress(spec, current["seed"])
        progress.optimizer = restore_optimizer(spec.space, current["optimizer_state"])
        for row in sorted(current["trials"], key=lambda r: r["iteration"]):
            trial, record = _parse_trial_row(spec.space, row)
            progress.history.append(trial)
            progress.iterations.append(record)
            progress.ledger.charge(trial.config.index, trial.cost)
            progress.ledger.snapshot()
        progress.test_cache = {int(k): v for k, v in current["test_cache"].items()}
    return completed, progress
