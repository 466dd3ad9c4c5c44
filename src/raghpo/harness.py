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
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import dataio
from .costs import ZERO_COST, CostDelta
from .dataio import _dump_canonical, _read_jsonl, atomic_write, check_fields
from .evaluator import Evaluator, Objective
from .metrics import CONTEXT_MRR
from .optimizers import (
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
        # One optimizer, built now, rejects an unknown algorithm or a bad
        # option before any evaluation is paid for.
        create_optimizer(self.algorithm, self.space, 0, **self.optimizer_options)
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if self.budget > self.space.total_size:
            raise ValueError(
                f"budget {self.budget} exceeds the space size {self.space.total_size}"
            )
        if not self.seeds:
            raise ValueError("seeds must name at least one seed")
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
                cost=ledger.totals,
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


def _spec_from_header(header: dict, space: SearchSpace) -> RunSpec:
    """The spec of a run_header row that :data:`~raghpo.dataio.RUN_HEADER_FIELDS` checked."""
    weights = header["objective_weights"]
    return RunSpec(
        space=space,
        algorithm=header["algorithm"],
        objective=Objective(
            metrics=tuple(header["objective_metrics"]),
            weights=None if weights is None else tuple(weights),
        ),
        budget=header["budget"],
        seeds=tuple(header["seeds"]),
        optimizer_options=header["optimizer_options"],
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
        **{f"cum_{name}": count for name, count in it.cost.as_dict().items()},
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
    try:
        cumulative = CostDelta(*(row[f"cum_{name}"] for name in ZERO_COST.as_dict()))
    except ValueError as exc:  # "<count> must be non-negative", of the cum_<count> field
        raise ValueError(f"cum_{exc}") from None
    record = IterationRecord(
        iteration=row["iteration"],
        best_dev_score=row["best_dev"],
        best_ordinal=row["best_ordinal"],
        test_score_of_best=row["test_of_best"],
        cost=cumulative,
    )
    return trial, record


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
            fh.write(_dump_canonical({"kind": "aggregate", **asdict(point)}) + "\n")


#: The name and the field table of each kind of row that follows the header.
_ROW_KINDS = {
    "trial": ("trial row", dataio.TRIAL_FIELDS),
    "aggregate": ("aggregate row", dataio.AGGREGATE_FIELDS),
}


def load_run(path: str | Path) -> RunRecord:
    """Rebuild a RunRecord from a run export (lossless round-trip), reading it once in file order.

    The export is the layout :func:`export_run` writes: the ``run_header``
    row first, then each seed's trial rows for iterations 1 to the budget in
    order, and exactly one aggregate row per iteration. Each trial row is
    appended to its seed's history as it is read, so no raw row outlives
    its line.

    A malformed file is a ValueError naming ``path`` and, for a bad row, its
    line: the first bad line in file order, else a missing header, a seed
    short of the budget or missing aggregate rows, in that order.
    """
    source = Path(path)
    spec: RunSpec | None = None
    seeds: dict[int, tuple[TrialHistory, list[IterationRecord]]] = {}
    aggregate: dict[int, AggregatePoint] = {}
    for lineno, row in _read_jsonl(source):
        kind = row.get("kind")
        where = f"{source}:{lineno}"
        if kind == "run_header":
            if spec is not None:
                raise ValueError(f"{where}: a second run_header row")
            check_fields(row, "run_header", dataio.RUN_HEADER_FIELDS, where)
            if (version := row["format_version"]) != RUN_FORMAT_VERSION:
                raise ValueError(f"{where}: unsupported run format_version {version!r}")
            space = dataio.read_space(row["space"], where)
            try:
                spec = _spec_from_header(row, space)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{where}: bad run_header: {exc}") from None
            seeds = {seed: (TrialHistory(), []) for seed in spec.seeds}
            continue
        if not isinstance(kind, str) or kind not in _ROW_KINDS:
            raise ValueError(f"{where}: unknown row kind {kind!r}")
        name, fields = _ROW_KINDS[kind]
        check_fields(row, name, fields, where)
        if kind == "trial":
            check_fields(row["cost"], "trial cost", dataio.TRIAL_COST_FIELDS, where)
        if spec is None:
            raise ValueError(f"{where}: {name} before the run_header row")
        iteration = row["iteration"]
        if kind == "aggregate":
            if not 1 <= iteration <= spec.budget:
                raise ValueError(
                    f"{where}: aggregate row iteration {iteration} is outside "
                    f"the run_header's budget 1..{spec.budget}"
                )
            if iteration in aggregate:
                raise ValueError(f"{where}: a second aggregate row for iteration {iteration}")
            aggregate[iteration] = AggregatePoint(
                iteration=iteration, mean_test=row["mean_test"], se_test=row["se_test"], n=row["n"]
            )
            continue
        seed = row["seed"]
        if seed not in seeds:
            raise ValueError(
                f"{where}: trial row seed {seed} is not one of "
                f"the run_header's seeds {list(spec.seeds)}"
            )
        if iteration > spec.budget:
            raise ValueError(
                f"{where}: trial row iteration {iteration} exceeds "
                f"the run_header's budget {spec.budget}"
            )
        try:
            trial, record = _parse_trial_row(spec.space, row)
        except (IndexError, TypeError, ValueError) as exc:  # ordinal range, cost keys and signs
            raise ValueError(f"{where}: bad trial row: {exc}") from None
        history, iterations = seeds[seed]
        try:
            history.append(trial)
        except ValueError as exc:
            raise ValueError(f"{where}: seed {seed}: {exc}") from None
        iterations.append(record)
    if spec is None:
        raise ValueError(f"{source}: missing run_header row")
    for seed, (_, iterations) in seeds.items():
        if len(iterations) != spec.budget:
            raise ValueError(
                f"{source}: seed {seed} holds {len(iterations)} "
                f"of the run_header's {spec.budget} iterations"
            )
    missing = [i for i in range(1, spec.budget + 1) if i not in aggregate]
    if missing:
        raise ValueError(
            f"{source}: {len(missing)} of the run_header's {spec.budget} "
            f"iterations lack an aggregate row, the first is iteration {missing[0]}"
        )
    return RunRecord(
        spec=spec,
        seed_runs=tuple(
            SeedRun(seed=seed, history=history, iterations=tuple(iterations))
            for seed, (history, iterations) in seeds.items()
        ),
        aggregate=tuple(aggregate[i] for i in range(1, spec.budget + 1)),
    )
