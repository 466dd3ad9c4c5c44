"""Command-line entry points: optimize, grid, sample, analyze.

Settings come from an optional JSON run-config file plus flags; flags win.
Flags are typed by argparse. The config, its sections, its search space
and its endpoints are checked by :func:`~raghpo.dataio.check_fields`
against the field tables in :mod:`raghpo.dataio`, and no setting is
converted: a bad one is an error naming the config file and the field.
Exit codes: 0 on completion, 2 on validation/configuration errors, 3 when a
live run was suspended by a service outage. Re-running the same command
resumes: the reply store beside the dataset, the only durable live state,
serves every reply it kept. Both live commands set up through
:func:`_live_evaluator`, and the store creates its file with the first
reply it keeps, so a command that fails before then leaves no file. Neither
live command reads its ``--out``; each writes it once, when the run
completes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import sys
from pathlib import Path
from typing import Iterator

from . import analysis, dataio, harness
from .dataio import (
    DatasetFormatError,
    FingerprintMismatchError,
    GridFormatError,
    SamplePlan,
    atomic_write,
    check_fields,
    load_dataset,
    load_grid,
    sample_dev,
    store_dataset,
    store_grid,
)
from .evaluator import GridReplayEvaluator, Objective
from .metrics import CONTEXT_MRR, FAITHFULNESS, JUDGE_AC, LEXICAL_AC
from .optimizers import ALGORITHMS
from .pipeline import (
    NO_JUDGE,
    EmbeddingClient,
    GenerationClient,
    JudgeClient,
    LivePipelineEvaluator,
    ReplyStore,
    ServiceEndpoint,
    ServiceFailure,
)
from .searchspace import SearchSpace

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SUSPENDED = 3
MAX_SEEDS = 10_000  # the largest seed count N, which runs the seeds 1 to N


class CliError(Exception):
    """Configuration or input problem; reported and mapped to exit code 2."""


def _input_file(path: str | Path, what: str) -> Path:
    """``path`` as an input file, or a CliError that it is not one."""
    source = Path(path)
    if not source.is_file():
        raise CliError(f"{what} not found: {source}")
    return source


def _load_config(path: str | None) -> dict:
    """The run config at ``path``, or an empty one, checked, its defaults filled in."""
    config = {} if path is None else dataio.read_json_object(_input_file(path, "config file"), CliError)
    check_fields(config, "run config", dataio.RUN_CONFIG_FIELDS, str(path), CliError)
    return config


def _setting(args: argparse.Namespace, config: dict, key: str, default=None):
    """The flag ``key`` if given, else the config's; ``default`` when both are None."""
    value = getattr(args, key, None)
    if value is None:
        value = config[key]
    return default if value is None else value


def _load_space(value, where: str | None) -> SearchSpace:
    """The space a path or a config's space object at ``where`` gives; the stock space for None."""
    if value is None:
        return SearchSpace.default()
    if isinstance(value, str):
        where = _input_file(value, "search space file")
        value = dataio.read_json_object(where, CliError)
    return dataio.read_space(value, str(where), CliError)


def _seeds_flag(text: str) -> int | list[int]:
    """``--seeds``: a count ``N``, or a comma-separated list of seeds ``1,2,3``."""
    try:
        seeds = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a count N or a list 1,2,3, got {text!r}") from None
    return seeds[0] if len(seeds) == 1 else seeds


def _names(value: str | list[str] | None) -> list[str]:
    """A list setting: a comma-separated string or a list of strings; None means none."""
    if isinstance(value, str):
        return [name for name in value.split(",") if name]
    return value or []


def _parse_objective(value: str | list[str] | dict | None, where: str | None) -> Objective:
    """The objective of a flag, or of a config's metric names or objective object at ``where``."""
    if value is None:
        return Objective()
    if not isinstance(value, dict):
        return Objective(metrics=tuple(_names(value)))
    check_fields(value, "objective", dataio.OBJECTIVE_FIELDS, str(where), CliError)
    weights = value["weights"]
    return Objective(tuple(value["metrics"]), tuple(weights) if weights else None)


@contextlib.contextmanager
def _live_evaluator(
    args, config: dict, space: SearchSpace, metrics, parallelism: int, sample=None
) -> Iterator[LivePipelineEvaluator]:
    """The live evaluator over the dataset, with the reply store beside it, closed on exit.

    The store is ``<dataset dir>.replies.sqlite3``. ``metrics`` are those
    the command will score; judge_ac among them needs a judge endpoint.
    With a :class:`SamplePlan` ``sample``, the evaluator sees the sampled
    dev split. Nothing is sent here, and the store creates its file only
    when it keeps a reply.
    """
    dataset_path = _setting(args, config, "dataset")
    if dataset_path is None:
        raise CliError("live backend needs --dataset (or dataset in the config)")
    dataset = load_dataset(dataset_path)
    if sample is not None:
        dataset = sample_dev(dataset, sample).dataset
        print(f"sampled dev: {len(dataset.dev)} questions, corpus {len(dataset.corpus)} docs")
    endpoints = config["endpoints"]
    check_fields(endpoints, "endpoints", dataio.ENDPOINTS_FIELDS, str(args.config), CliError)
    if endpoints["embed"] is None or endpoints["generate"] is None:
        raise CliError(
            "live backend needs endpoints.embed and endpoints.generate in the config file"
        )

    def endpoint(name: str) -> ServiceEndpoint:
        return ServiceEndpoint.from_dict(endpoints[name], f"{args.config}: endpoints.{name}")

    embedder = EmbeddingClient(endpoint("embed"), config["embed_batch_size"])
    generator = GenerationClient(endpoint("generate"))
    judge = JudgeClient(endpoint("judge")) if endpoints["judge"] is not None else None
    if JUDGE_AC in metrics and judge is None:
        raise CliError(NO_JUDGE)
    root = Path(dataset_path).resolve()
    replies = ReplyStore(root.parent / f"{root.name}.replies.sqlite3")
    try:
        yield LivePipelineEvaluator(
            dataset, space, embedder, generator, judge=judge, parallelism=parallelism, replies=replies
        )
    finally:
        replies.close()


def _format_cost(totals) -> str:
    return (
        f"embedded={totals.embedded_tokens} "
        f"gen_in={totals.generation_input_tokens} "
        f"gen_out={totals.generation_output_tokens}"
    )


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------


def cmd_optimize(args: argparse.Namespace) -> int:
    """Run the algorithm: replay ``grid_table`` when it is set, else run the pipeline live."""
    config = _load_config(args.config)
    space = _load_space(_setting(args, config, "space"), args.config)
    algorithm = _setting(args, config, "algorithm")
    objective = _parse_objective(_setting(args, config, "objective"), args.config)
    budget = _setting(args, config, "budget")
    seeds = _setting(args, config, "seeds")
    if isinstance(seeds, int) and seeds > MAX_SEEDS:
        raise CliError(f"seeds must be a count of at most {MAX_SEEDS} or a list, got {seeds}")
    seeds = tuple(range(1, seeds + 1)) if isinstance(seeds, int) else tuple(seeds)
    grid_path = _setting(args, config, "grid_table")
    parallelism = _setting(args, config, "parallelism")

    optimizer_options = {}
    for section, fields in (("tpe", dataio.TPE_FIELDS), ("greedy", dataio.GREEDY_FIELDS)):
        values = config[section]
        check_fields(values, section, fields, str(args.config), CliError)
        options = {f"{section}_{key}": values[key] for key in fields if values[key] is not None}
        optimizer_options.update(options)

    plan = None
    if (sample := config["sample"]) is not None:
        check_fields(sample, "sample", dataio.SAMPLE_FIELDS, str(args.config), CliError)
        plan = SamplePlan(*(sample[key] for key in dataio.SAMPLE_FIELDS))

    out = _setting(args, config, "out", "run.jsonl")
    spec = harness.RunSpec(
        space=space,
        algorithm=algorithm,
        objective=objective,
        budget=budget,
        seeds=seeds,
        optimizer_options=optimizer_options,
    )

    if grid_path:
        table = load_grid(_input_file(grid_path, "grid table"), space)
        record = harness.run(spec, GridReplayEvaluator(table))
    else:
        with _live_evaluator(args, config, space, objective.metrics, parallelism, plan) as evaluator:
            record = harness.run(spec, evaluator)

    harness.export_run(record, out)

    final = record.aggregate[-1]
    best_seed = max(
        record.seed_runs,
        key=lambda sr: (
            sr.iterations[-1].best_dev_score
            if sr.iterations[-1].best_dev_score is not None
            else float("-inf")
        ),
    )
    last = best_seed.iterations[-1]
    print(f"algorithm: {algorithm}  objective: {objective.describe()}")
    print(f"budget: {budget} iterations x {len(seeds)} seeds")
    if last.best_ordinal is not None:
        best_config = space.config_at(last.best_ordinal)
        print(f"best configuration (dev, seed {best_seed.seed}): {best_config.as_dict()}")
        dev = f"{last.best_dev_score:.4f}" if last.best_dev_score is not None else "n/a"
        test = f"{last.test_score_of_best:.4f}" if last.test_score_of_best is not None else "n/a"
        print(f"  dev score: {dev}  test score: {test}")
    if final.mean_test is not None:
        print(
            f"mean test of best @ iteration {final.iteration}: "
            f"{final.mean_test:.4f} +/- {final.se_test:.4f} (n={final.n})"
        )
    total = harness.CostLedger()
    for sr in record.seed_runs:
        for trial in sr.history:
            total.charge(trial.config.index, trial.cost)
    print(f"total optimization cost: {_format_cost(total.totals)}")
    print(f"run export: {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


def cmd_grid(args: argparse.Namespace) -> int:
    """Evaluate every cell of the space into a new table, written once at ``--out``.

    The table is built from scratch on every run; the reply store serves
    every reply an earlier run kept, so a re-run sends only what the store
    lacks. Nothing is written unless every cell completes.
    """
    config = _load_config(args.config)
    space = _load_space(_setting(args, config, "space"), args.config)
    out = Path(_setting(args, config, "out", "grid.jsonl"))
    split_value = _setting(args, config, "splits")
    splits = _names(split_value)
    if not splits or not set(splits) <= set(dataio.SPLITS):
        raise CliError(
            f"splits: expected a comma-separated list of dev and test, got {split_value!r}"
        )
    metrics = _names(_setting(args, config, "metrics"))
    parallelism = _setting(args, config, "parallelism")
    with _live_evaluator(args, config, space, metrics, parallelism) as evaluator:
        if not metrics:
            metrics = [LEXICAL_AC, FAITHFULNESS, CONTEXT_MRR]
            metrics += [JUDGE_AC] if evaluator.judge is not None else []
        Objective(metrics=tuple(metrics))  # rejects unknown and repeated metric names
        evaluated = 0
        # Ordinals are index-major, so the loop is done with an index once it
        # reaches a cell of the next one, and the evaluator can drop it.
        held = space.config_at(0).index
        for ordinal in range(space.total_size):
            rag_config = space.config_at(ordinal)
            if rag_config.index != held:
                evaluator.release(held)
                held = rag_config.index
            for split in splits:
                if evaluator.fill(rag_config, split, metrics):
                    evaluated += 1
        evaluator.release(held)

    store_grid(evaluator.table, out)
    print(f"evaluated {evaluated} (config, split) cells; table written to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def cmd_sample(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    plan = SamplePlan(qa_fraction=args.fraction, noise_ratio=args.noise, seed=args.seed)
    outcome = sample_dev(dataset, plan)
    out = Path(args.out)
    store_dataset(outcome.dataset, out)
    provenance = {
        "format_version": 1,
        "source": str(Path(args.dataset)),
        "source_content_sha256": dataio.dataset_content_hash(args.dataset),
        "plan": {
            "qa_fraction": plan.qa_fraction,
            "noise_ratio": plan.noise_ratio,
            "seed": plan.seed,
        },
        "sampled_questions": len(outcome.sampled_qids),
        "gold_documents": len(outcome.gold_doc_ids),
        "noise_documents": len(outcome.noise_doc_ids),
        "noise_shortfall": outcome.noise_shortfall,
        "output_content_sha256": dataio.dataset_content_hash(out),
    }
    _write_json(out / "provenance.json", provenance)
    print(
        f"sampled {len(outcome.sampled_qids)} dev questions; corpus "
        f"{len(outcome.dataset.corpus)} docs ({len(outcome.gold_doc_ids)} gold + "
        f"{len(outcome.noise_doc_ids)} noise)"
    )
    if outcome.noise_shortfall:
        print(
            f"warning: noise shortfall of {outcome.noise_shortfall} documents "
            f"(corpus too small for the requested ratio)",
            file=sys.stderr,
        )
    print(f"dataset written to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _write_json(path: Path, payload) -> None:
    with atomic_write(path) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def cmd_analyze(args: argparse.Namespace) -> int:
    """Write the table's extremes, bins and marginal means and the run's convergence series.

    Every input is read and checked before the first file is written, so a
    refused command leaves ``--out`` as it was.
    """
    if not args.table and not args.run:
        raise CliError("analyze needs --table and/or --run")
    table_path = _input_file(args.table, "grid table") if args.table else None
    run_path = _input_file(args.run, "run export") if args.run else None
    out = Path(args.out)
    space = _load_space(args.space, None)

    if table_path:
        table = load_grid(table_path, space)
        extremes = analysis.grid_extremes(table, args.metric, args.split)
        bins = analysis.normalized_bins(table, args.metric, args.split, args.bins)
        marginals = analysis.marginal_means(table, args.metric, args.split)
    if run_path:
        grid_max = extremes.best_score if table_path else None
        series = analysis.convergence_series(harness.load_run(run_path), grid_max=grid_max)

    if table_path:
        _write_json(
            out / "extremes.json",
            {
                "format_version": 1,
                "metric": args.metric,
                "split": args.split,
                "worst": {"config": extremes.worst.as_dict(), "score": extremes.worst_score},
                "best": {"config": extremes.best.as_dict(), "score": extremes.best_score},
            },
        )
        _write_json(
            out / "bins.json",
            {
                "format_version": 1,
                "metric": args.metric,
                "split": args.split,
                "bin_count": args.bins,
                "counts": list(bins.counts),
                "worst": bins.worst_score,
                "best": bins.best_score,
                "degenerate": bins.degenerate,
            },
        )
        _write_json(
            out / "marginal_means.json",
            {
                "format_version": 1,
                "metric": args.metric,
                "split": args.split,
                "rows": [
                    {
                        "param": row.param.value,
                        "value": row.value,
                        "mean": row.mean,
                        "delta": row.delta,
                    }
                    for row in marginals
                ],
            },
        )
        print(
            f"extremes ({args.metric}, {args.split}): worst {extremes.worst_score:.4f}, "
            f"best {extremes.best_score:.4f}"
        )
        print(f"wrote {out / 'extremes.json'}, {out / 'bins.json'}, {out / 'marginal_means.json'}")

    if run_path:
        with atomic_write(out / "convergence.jsonl") as fh:
            for point in series:
                fh.write(
                    json.dumps(
                        {
                            "iteration": point.iteration,
                            "mean_test": point.mean_test,
                            "se_test": point.se_test,
                            "n": point.n,
                            "grid_max": point.grid_max,
                        },
                        sort_keys=True,
                        separators=(",", ":"),
                    )
                    + "\n"
                )
        print(f"wrote {out / 'convergence.jsonl'} ({len(series)} points)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raghpo",
        description="Hyper-parameter optimization engine for RAG pipelines",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="enable debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="run one HPO algorithm under a budget")
    p_opt.add_argument("--config", help="JSON run-config file; flags override it")
    p_opt.add_argument("--algo", dest="algorithm", choices=ALGORITHMS, help="algorithm id")
    p_opt.add_argument("--budget", type=int, help="iterations per seed")
    p_opt.add_argument("--seeds", type=_seeds_flag, help="seed count (N) or explicit list (1,2,3)")
    p_opt.add_argument("--objective", help="metric name, or comma-separated list")
    p_opt.add_argument("--grid", dest="grid_table", help="grid table for the replay backend")
    p_opt.add_argument("--dataset", help="dataset directory for the live backend")
    p_opt.add_argument("--space", help="search-space JSON file (default: stock space)")
    p_opt.add_argument("--parallelism", type=int, help="live evaluator fan-out cap")
    p_opt.add_argument("--out", help="run export path (default run.jsonl)")
    p_opt.set_defaults(func=cmd_optimize)

    p_grid = sub.add_parser("grid", help="evaluate every configuration into a grid table")
    p_grid.add_argument("--config", help="JSON run-config file with live endpoints")
    p_grid.add_argument("--dataset", help="dataset directory")
    p_grid.add_argument("--space", help="search-space JSON file")
    p_grid.add_argument("--splits", help="comma-separated splits (default dev,test)")
    p_grid.add_argument("--metrics", help="comma-separated metric names")
    p_grid.add_argument("--parallelism", type=int)
    p_grid.add_argument("--out", help="grid table path (default grid.jsonl)")
    p_grid.set_defaults(func=cmd_grid)

    p_sample = sub.add_parser("sample", help="subsample a dev benchmark and its corpus")
    p_sample.add_argument("--dataset", required=True, help="source dataset directory")
    p_sample.add_argument("--out", required=True, help="output dataset directory")
    p_sample.add_argument("--fraction", type=float, required=True, help="dev QA fraction")
    p_sample.add_argument("--noise", type=int, required=True, help="noise docs per gold doc")
    p_sample.add_argument("--seed", type=int, required=True, help="sampling seed")
    p_sample.set_defaults(func=cmd_sample)

    p_an = sub.add_parser("analyze", help="grid extremes, bins, marginal means, convergence")
    p_an.add_argument("--table", help="grid table to analyze")
    p_an.add_argument("--run", help="run export for the convergence series")
    p_an.add_argument("--space", help="search-space JSON file (default: stock space)")
    p_an.add_argument("--metric", default=LEXICAL_AC, help="metric name")
    p_an.add_argument("--split", default="dev", choices=("dev", "test"))
    p_an.add_argument("--bins", type=int, default=analysis.DEFAULT_BIN_COUNT)
    p_an.add_argument("--out", default="analysis", help="output directory")
    p_an.set_defaults(func=cmd_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (
        CliError,
        DatasetFormatError,
        GridFormatError,
        FingerprintMismatchError,
        ValueError,
        OSError,  # a file that cannot be read or written; its message names the path
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ServiceFailure as exc:
        print(f"run suspended: {exc}", file=sys.stderr)
        print("re-run the same command to resume", file=sys.stderr)
        return EXIT_SUSPENDED


if __name__ == "__main__":
    sys.exit(main())
