"""Experiment protocol: budgeted runs, seed repetition, dev-to-test tracking.

A run executes one algorithm for a fixed number of iterations, once per
seed. Each iteration suggests a configuration, evaluates it on the dev
split, then evaluates the current dev-best configuration on the test split,
so generalization can be analyzed per iteration. Token spend is accumulated
in a cost ledger that charges each distinct index build once; test-side
evaluation spend is not charged, because the optimization cost curves cover
optimization-time spend only.

A run keeps no state of its own between commands: every optimizer starts
from its seed, and an evaluator that stores its replies lets a re-run after
an interruption reproduce the trajectory without paying twice.
"""

from __future__ import annotations

import logging
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

from .costs import CostDelta
from .dataio import _dump_canonical, _read_jsonl, atomic_write
from .evaluator import Evaluator, Objective
from .metrics import CONTEXT_MRR
from .optimizers import (
    ALGORITHMS,
    DRIVER_OBJECTIVE,
    DRIVER_RETRIEVAL,
    Optimizer,
    Trial,
    TrialHistory,
    create_optimizer,
)
from .searchspace import IndexConfig, SearchSpace

log = logging.getLogger(__name__)

RUN_FORMAT_VERSION = 1


class CostLedger:
    """Accumulates token spend across evaluations, charging each index once."""

    def __init__(self) -> None:
        self._charged_indexes: set[IndexConfig] = set()
        self._embedded = 0
        self._gen_in = 0
        self._gen_out = 0

    def charge(self, index_config: IndexConfig, cost: CostDelta) -> None:
        """Add generation tokens always; embedding tokens only for new indexes."""
        if index_config not in self._charged_indexes:
            self._charged_indexes.add(index_config)
            self._embedded += cost.embedded_tokens
        self._gen_in += cost.generation_input_tokens
        self._gen_out += cost.generation_output_tokens

    def snapshot(self) -> CostDelta:
        return self.totals

    @property
    def totals(self) -> CostDelta:
        """Cumulative token counts so far."""
        return CostDelta(self._embedded, self._gen_in, self._gen_out)


@dataclass(frozen=True)
class IterationRecord:
    """State after one iteration: dev best, its test score, spend so far."""

    iteration: int
    best_dev_score: float | None
    best_ordinal: int | None
    test_score_of_best: float | None
    cost: CostDelta  # cumulative: the ledger's totals after this iteration


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


def _run_seed(spec: RunSpec, evaluator: Evaluator, seed: int) -> SeedRun:
    """Run every iteration of one seed, returning its final record."""
    optimizer: Optimizer = create_optimizer(
        spec.algorithm, spec.space, seed, **spec.optimizer_options
    )
    history = TrialHistory()
    iterations: list[IterationRecord] = []
    ledger = CostLedger()
    best_config, best_score = None, None
    for iteration in range(1, spec.budget + 1):
        suggestion = optimizer.suggest(history)
        config = suggestion.config
        if suggestion.retrieval_only:
            result = evaluator.evaluate_retrieval_only(config, "dev")
            retrieval_score = result.objective_score
            objective_score = evaluator.replay_objective(config, "dev", spec.objective)
            driver = DRIVER_RETRIEVAL
        else:
            result = evaluator.evaluate(config, "dev", spec.objective)
            objective_score, retrieval_score = result.objective_score, None
            driver = DRIVER_OBJECTIVE
        cost = result.cost
        history.append(
            Trial(
                iteration=iteration,
                config=config,
                objective_score=objective_score,
                retrieval_score=retrieval_score,
                cost=cost,
                driver=driver,
            )
        )
        ledger.charge(config.index, cost)

        if objective_score is not None and (
            best_score is None or objective_score > best_score
        ):
            best_config, best_score = config, objective_score
        best_ordinal = test_score = None
        if best_config is not None:
            best_ordinal = spec.space.ordinal_of(best_config)
            # A best changes only to a trial not seen before, so its test
            # score is known only while the ordinal stays the same.
            if iterations and iterations[-1].best_ordinal == best_ordinal:
                test_score = iterations[-1].test_score_of_best
            if test_score is None:
                test_score = evaluator.evaluate(best_config, "test", spec.objective).objective_score
        iterations.append(
            IterationRecord(
                iteration=iteration,
                best_dev_score=best_score,
                best_ordinal=best_ordinal,
                test_score_of_best=test_score,
                cost=ledger.snapshot(),
            )
        )
    return SeedRun(seed=seed, history=history, iterations=tuple(iterations))


def run(spec: RunSpec, evaluator: Evaluator) -> RunRecord:
    """Execute the full protocol: budget iterations per seed, then aggregate.

    A retrieval-only probe records the evaluator's ``replay_objective`` as
    its objective score. The grid-replay backend looks it up for free, so
    the dev-best trajectory is defined from iteration 1 without charging
    any generation spend for those probes; the live backend returns None.

    Every evaluation is asked of the evaluator, whose score store keeps
    seeds from paying twice: the live backend runs a (config, split) cell
    once and serves later requests for it from its table, and runs it again
    only while a question lacks a row. Every seed's ledger is charged the
    cell's cost as if it had evaluated the configuration itself, so the
    accounted spend does not depend on the reuse; only the spend actually
    sent to the services drops.

    An evaluator's failure propagates and nothing of the run is kept, so
    resuming means running again: the optimizers are deterministic given
    their seeds, and a live evaluator's reply store answers every request
    that was answered before.
    """
    if spec.algorithm == "greedy_rcc" and not evaluator.supports_metric(CONTEXT_MRR, "dev"):
        raise ValueError(
            "greedy_rcc needs retrieval quality on the dev split, but no dev "
            "question has gold document labels (and the grid table has no "
            "context_mrr rows); choose another algorithm or add gold labels"
        )

    seed_runs: list[SeedRun] = []
    for seed in spec.seeds:
        seed_run = _run_seed(spec, evaluator, seed)
        seed_runs.append(seed_run)
        log.info(
            "seed %d done: best dev %s",
            seed,
            f"{seed_run.iterations[-1].best_dev_score:.4f}"
            if seed_run.iterations[-1].best_dev_score is not None
            else "n/a",
        )
    done = tuple(seed_runs)
    return RunRecord(spec=spec, seed_runs=done, aggregate=_aggregate_test_scores(done, spec.budget))


# ---------------------------------------------------------------------------
# Run export / import
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
        cost=CostDelta(
            embedded_tokens=row["cum_embedded_tokens"],
            generation_input_tokens=row["cum_generation_input_tokens"],
            generation_output_tokens=row["cum_generation_output_tokens"],
        ),
    )
    return trial, record


def _seed_run(seed: int, rows: list[tuple[str, Trial, IterationRecord]]) -> SeedRun:
    """One seed's rows in iteration order; a gap or a repeat names its row's ``path:line``."""
    history = TrialHistory()
    iterations = []
    for where, trial, record in sorted(rows, key=lambda row: row[1].iteration):
        try:
            history.append(trial)
        except ValueError as exc:
            raise ValueError(f"{where}: seed {seed}: {exc}") from None
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


class _RunRows:
    """The trial and aggregate rows of a run export, each converted as it is read under its header."""

    def __init__(self, source: Path, spec: RunSpec):
        self.source, self.spec = source, spec
        self.trials: dict[int, list[tuple[str, Trial, IterationRecord]]] = {
            seed: [] for seed in spec.seeds
        }
        self.aggregate: dict[int, AggregatePoint] = {}
        self.error: ValueError | None = None  # the first bad row, in file order

    def add(self, where: str, kind: str, row: dict) -> None:
        """Convert a row whose fields are checked; a bad one is kept as ``error`` if it is the first."""
        if self.error is None:
            try:
                (self._add_trial if kind == "trial" else self._add_aggregate)(where, row)
            except ValueError as exc:
                self.error = exc

    def _add_trial(self, where: str, row: dict) -> None:
        rows = self.trials.get(row["seed"])
        if rows is None:
            raise ValueError(
                f"{where}: trial row seed {row['seed']} is not one of "
                f"the run_header's seeds {list(self.spec.seeds)}"
            )
        if row["iteration"] > self.spec.budget:
            raise ValueError(
                f"{where}: trial row iteration {row['iteration']} exceeds "
                f"the run_header's budget {self.spec.budget}"
            )
        try:
            parsed = _parse_trial_row(self.spec.space, row)
        except (IndexError, TypeError, ValueError) as exc:  # ordinal range, cost keys and signs
            raise ValueError(f"{where}: bad trial row: {exc}") from None
        rows.append((where, *parsed))

    def _add_aggregate(self, where: str, row: dict) -> None:
        iteration = row["iteration"]
        if not 1 <= iteration <= self.spec.budget:
            raise ValueError(
                f"{where}: aggregate row iteration {iteration} is outside "
                f"the run_header's budget 1..{self.spec.budget}"
            )
        if iteration in self.aggregate:
            raise ValueError(f"{where}: a second aggregate row for iteration {iteration}")
        self.aggregate[iteration] = AggregatePoint(
            iteration=iteration, mean_test=row["mean_test"], se_test=row["se_test"], n=row["n"]
        )

    def record(self) -> RunRecord:
        """The run, or the first bad row, gap, repeat, short seed or missing aggregate row
        as a ValueError."""
        if self.error is not None:
            raise self.error
        seed_runs = tuple(_seed_run(seed, rows) for seed, rows in self.trials.items())
        for seed_run in seed_runs:
            if len(seed_run.iterations) != self.spec.budget:
                raise ValueError(
                    f"{self.source}: seed {seed_run.seed} holds {len(seed_run.iterations)} "
                    f"of the run_header's {self.spec.budget} iterations"
                )
        iterations = range(1, self.spec.budget + 1)
        missing = [i for i in iterations if i not in self.aggregate]
        if missing:
            raise ValueError(
                f"{self.source}: {len(missing)} of the run_header's {self.spec.budget} "
                f"iterations lack an aggregate row, the first is iteration {missing[0]}"
            )
        return RunRecord(
            spec=self.spec,
            seed_runs=seed_runs,
            aggregate=tuple(self.aggregate[i] for i in iterations),
        )


#: The kind of each row that follows the header, as :data:`_ROW_FIELDS` names it.
_ROW_KINDS = {"trial": "trial row", "aggregate": "aggregate row"}


def load_run(path: str | Path) -> RunRecord:
    """Rebuild a RunRecord from a run export (lossless round-trip), reading it once.

    The export holds exactly one ``run_header`` row, one trial row per
    iteration from 1 to the budget for each of its seeds, and exactly one
    aggregate row for each of those iterations. Each row becomes
    its ``Trial`` and ``IterationRecord`` or its ``AggregatePoint`` as soon
    as it is read under a valid header, so no raw row outlives its line;
    only rows above the header wait for it.

    A malformed file is a ValueError that names ``path`` and, for a bad
    row, its line. The error raised is, in this order: the first line that
    is not a JSON object, is of unknown kind, lacks a field or mistypes
    one, has an unsupported format version or is a second header; then a
    missing or bad header; then the first bad row in file order; then a
    seed whose iterations have a gap or a repeat; then a seed with fewer
    iterations than the budget; then missing aggregate rows.
    """
    source = Path(path)
    rows: _RunRows | None = None
    held: list[tuple[str, str, dict]] = []  # rows read before the run_header
    header_line, header_error = 0, None
    for lineno, record in _read_jsonl(source, ValueError):
        kind = record.get("kind")
        where = f"{source}:{lineno}"
        if kind == "run_header":
            if header_line:
                raise ValueError(f"{where}: a second run_header row (the first is line {header_line})")
            if record.get("format_version") != RUN_FORMAT_VERSION:
                raise ValueError(
                    f"{where}: unsupported run format_version {record.get('format_version')!r}"
                )
            header_line = lineno
            try:
                rows = _RunRows(source, _spec_from_header(record))
            except KeyError as exc:
                header_error = ValueError(f"{where}: run_header lacks field {exc}")
            except (TypeError, ValueError) as exc:
                header_error = ValueError(f"{where}: bad run_header: {exc}")
            else:
                for held_row in held:
                    rows.add(*held_row)
            held = []
        elif kind in _ROW_KINDS:
            _check_fields(record, _ROW_KINDS[kind], where)
            if kind == "trial":
                _check_fields(record["cost"], "trial cost", where)
            if rows is not None:
                rows.add(where, kind, record)
            elif not header_line:
                held.append((where, kind, record))
        else:
            raise ValueError(f"{where}: unknown row kind {kind!r}")
    if not header_line:
        raise ValueError(f"{source}: missing run_header row")
    if header_error is not None:
        raise header_error
    return rows.record()
