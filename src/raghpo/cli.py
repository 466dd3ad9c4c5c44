"""Command-line entry points: optimize, grid, sample, analyze.

Settings come from an optional JSON run-config file plus flags; flags win.
Exit codes: 0 on completion, 2 on validation/configuration errors, 3 when a
live run was suspended by a service outage (partial results are written so
the command can be re-run to resume).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import analysis, dataio, harness
from .dataio import (
    DatasetFormatError,
    FingerprintMismatchError,
    GridFormatError,
    GridTable,
    SamplePlan,
    drop_torn_tail,
    grid_cell_text,
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
    EmbeddingClient,
    GenerationClient,
    JudgeClient,
    LivePipelineEvaluator,
    ReplyStore,
    ServiceEndpoint,
    ServiceFailure,
)
from .searchspace import SearchSpace

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SUSPENDED = 3


class CliError(Exception):
    """Configuration or input problem; reported and mapped to exit code 2."""


def _input_file(path: str | Path, what: str) -> Path:
    """``path`` as an input file, or a CliError that it is not one."""
    source = Path(path)
    if not source.is_file():
        raise CliError(f"{what} not found: {source}")
    return source


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    return dataio.read_json_object(_input_file(path, "config file"), CliError)


def _convert(key: str, value, kind: type):
    """``kind(value)`` for a numeric setting, or a CliError that names ``key``."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise CliError(f"{key}: expected {kind.__name__}, got {value!r}") from None


def _setting(args: argparse.Namespace, config: dict, key: str, default=None, kind=None):
    value = getattr(args, key, None)
    if value is None:
        value = config.get(key, default)
    return value if kind is None else _convert(key, value, kind)


def _section(config: dict, key: str) -> dict:
    value = config.get(key) or {}
    if not isinstance(value, dict):
        raise CliError(f"{key}: expected an object, got {value!r}")
    return value


def _load_space(value) -> SearchSpace:
    if value is None:
        return SearchSpace.default()
    if isinstance(value, dict):
        source, data = "space", value
    elif not isinstance(value, str):
        raise CliError(f"space: expected a search-space file path or object, got {value!r}")
    else:
        source = _input_file(value, "search space file")
        data = dataio.read_json_object(source, CliError)
    try:
        return SearchSpace.from_dict(data)
    except (TypeError, ValueError) as exc:
        raise CliError(f"{source}: {exc}") from None


def _parse_seeds(value) -> tuple[int, ...]:
    if isinstance(value, int):
        return tuple(range(1, value + 1))
    if isinstance(value, str):
        parts = [_convert("seeds", p, int) for p in value.split(",") if p]
        if len(parts) == 1:
            return tuple(range(1, parts[0] + 1))
        return tuple(parts)
    if isinstance(value, (list, tuple)):
        return tuple(_convert("seeds", v, int) for v in value)
    raise CliError(f"cannot interpret seeds value {value!r}")


def _parse_objective(value) -> Objective:
    if value is None:
        return Objective()
    if isinstance(value, dict):
        metrics, weights = value.get("metrics"), value.get("weights")
        if not isinstance(metrics, list) or not all(isinstance(m, str) for m in metrics):
            raise CliError(f"objective.metrics: expected a list of metric names, got {metrics!r}")
        if weights and not isinstance(weights, list):
            raise CliError(f"objective.weights: expected a list of numbers, got {weights!r}")
        return Objective(
            metrics=tuple(metrics),
            weights=tuple(_convert("objective.weights", w, float) for w in weights)
            if weights
            else None,
        )
    if isinstance(value, list):
        if not all(isinstance(m, str) for m in value):
            raise CliError(f"objective: expected a list of metric names, got {value!r}")
        return Objective(metrics=tuple(value))
    return Objective(metrics=tuple(m for m in str(value).split(",") if m))


def _replies_path(dataset_path: str | Path) -> Path:
    """Where the reply store of a dataset directory lives: beside it, as ``<dir>.replies.sqlite3``."""
    root = Path(dataset_path).resolve()
    return root.parent / f"{root.name}.replies.sqlite3"


def _build_live_evaluator(
    config: dict,
    dataset,
    space,
    parallelism: int,
    replies_path: Path,
    table: GridTable | None = None,
) -> LivePipelineEvaluator:
    """The live evaluator the config describes, with the reply store at ``replies_path``.

    The store is opened once the endpoints are valid; one that cannot be
    opened is a warning, and the run then sends every request.
    """
    endpoints = config.get("endpoints", {})
    if not isinstance(endpoints, dict) or "embed" not in endpoints or "generate" not in endpoints:
        raise CliError(
            "live backend needs endpoints.embed and endpoints.generate in the config file"
        )

    def endpoint(name: str) -> ServiceEndpoint:
        try:
            return ServiceEndpoint.from_dict(endpoints[name])
        except ValueError as exc:
            raise CliError(f"endpoints.{name}: {exc}") from None

    judge = JudgeClient(endpoint("judge")) if "judge" in endpoints else None
    embedder = EmbeddingClient(
        endpoint("embed"),
        batch_size=_convert("embed_batch_size", config.get("embed_batch_size", 32), int),
    )
    generator = GenerationClient(endpoint("generate"))
    try:
        replies = ReplyStore(replies_path)
    except OSError as exc:
        log.warning("%s; sending every request", exc)
        replies = None
    return LivePipelineEvaluator(
        dataset=dataset,
        space=space,
        embedder=embedder,
        generator=generator,
        judge=judge,
        parallelism=parallelism,
        table=table,
        replies=replies,
    )


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
    config = _load_config(args.config)
    space = _load_space(_setting(args, config, "space"))
    algorithm = _setting(args, config, "algorithm", "random")
    if algorithm not in ALGORITHMS:
        raise CliError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    objective = _parse_objective(_setting(args, config, "objective"))
    budget = _setting(args, config, "budget", 10, int)
    seeds = _parse_seeds(_setting(args, config, "seeds", 10))
    backend = _setting(args, config, "backend", None)
    grid_path = _setting(args, config, "grid_table", None)
    if backend is None:
        backend = "grid-replay" if grid_path else "live"
    parallelism = _setting(args, config, "parallelism", 1, int)
    replies = None

    optimizer_options = {}
    tpe = _section(config, "tpe")
    for key, option, kind in (
        ("gamma", "tpe_gamma", float),
        ("candidates", "tpe_candidates", int),
        ("init", "tpe_init", int),
    ):
        if key in tpe:
            optimizer_options[option] = _convert(f"tpe.{key}", tpe[key], kind)
    greedy = _section(config, "greedy")
    if "suffix_mode" in greedy:
        optimizer_options["greedy_suffix_mode"] = greedy["suffix_mode"]

    if backend == "grid-replay":
        if grid_path is None:
            raise CliError("grid-replay backend needs --grid (or grid_table in the config)")
        table = load_grid(_input_file(grid_path, "grid table"), space)
        evaluator = GridReplayEvaluator(table, space)
    elif backend == "live":
        dataset_path = _setting(args, config, "dataset")
        if dataset_path is None:
            raise CliError("live backend needs --dataset (or dataset in the config)")
        dataset = load_dataset(dataset_path)
        sample_cfg = _section(config, "sample")
        if sample_cfg:
            plan = {
                key: _convert(f"sample.{key}", sample_cfg.get(key), kind)
                for key, kind in (("qa_fraction", float), ("noise_ratio", int), ("seed", int))
            }
            outcome = sample_dev(dataset, SamplePlan(**plan))
            dataset = outcome.dataset
            print(
                f"sampled dev: {len(dataset.dev)} questions, corpus {len(dataset.corpus)} docs"
            )
        evaluator = _build_live_evaluator(
            config, dataset, space, parallelism, _replies_path(dataset_path)
        )
        replies = evaluator.replies
    else:
        raise CliError(f"unknown backend {backend!r}; expected grid-replay or live")

    out = _setting(args, config, "out", "run.jsonl")
    checkpoint = _setting(args, config, "checkpoint", f"{out}.checkpoint")
    spec = harness.RunSpec(
        space=space,
        algorithm=algorithm,
        objective=objective,
        budget=budget,
        seeds=seeds,
        optimizer_options=optimizer_options,
    )
    try:
        record = harness.run(spec, evaluator, checkpoint_path=checkpoint)
    except harness.RunSuspended as exc:
        print(f"run suspended: {exc}", file=sys.stderr)
        print("re-run the same command to resume", file=sys.stderr)
        return EXIT_SUSPENDED
    except ServiceFailure as exc:
        print(f"run suspended: {exc}", file=sys.stderr)
        return EXIT_SUSPENDED
    finally:
        if replies is not None:
            replies.close()

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
    config = _load_config(args.config)
    space = _load_space(_setting(args, config, "space"))
    dataset_path = _setting(args, config, "dataset")
    if dataset_path is None:
        raise CliError("grid needs --dataset (or dataset in the config)")
    dataset = load_dataset(dataset_path)
    out = _setting(args, config, "out", "grid.jsonl")
    splits = [s for s in str(_setting(args, config, "splits", "dev,test")).split(",") if s]
    metric_arg = _setting(args, config, "metrics", None)
    parallelism = _setting(args, config, "parallelism", 1, int)

    out_path = Path(out)
    resuming = out_path.is_file()
    if resuming:
        drop_torn_tail(out_path)
        table = load_grid(out_path, space)
    else:
        table = GridTable(space_fingerprint=space.fingerprint())
    evaluator = _build_live_evaluator(
        config, dataset, space, parallelism, _replies_path(dataset_path), table
    )
    try:
        return _fill_grid(evaluator, out_path, resuming, splits, metric_arg)
    finally:
        if evaluator.replies is not None:
            evaluator.replies.close()


def _fill_grid(
    evaluator: LivePipelineEvaluator,
    out_path: Path,
    resuming: bool,
    splits: list[str],
    metric_arg: str | None,
) -> int:
    """Evaluate every cell of the evaluator's space that its table lacks, into ``out_path``."""
    space, table = evaluator.space, evaluator.table
    metrics = (
        [m for m in str(metric_arg).split(",") if m]
        if metric_arg
        else [LEXICAL_AC, FAITHFULNESS, CONTEXT_MRR]
        + ([JUDGE_AC] if evaluator.judge is not None else [])
    )
    Objective(metrics=tuple(metrics))  # rejects unknown and repeated metric names
    if JUDGE_AC in metrics and evaluator.judge is None:
        raise CliError("judge_ac requested but no judge endpoint configured")
    if resuming:
        print(f"resuming into existing table {out_path}")
    else:
        store_grid(table, out_path)

    evaluated = 0
    # Ordinals are index-major, so the loop is done with an index once it
    # reaches a cell of the next one, and the evaluator can drop it.
    held = space.config_at(0).index
    # Each cell's new rows are appended as soon as it is evaluated, so a killed
    # run keeps them; the table is rewritten in canonical order once, at the end.
    sink = out_path.open("a", encoding="utf-8")
    try:
        for ordinal in range(space.total_size):
            rag_config = space.config_at(ordinal)
            if rag_config.index != held:
                evaluator.release(held)
                held = rag_config.index
            for split in splits:
                added = evaluator.fill(rag_config, split, metrics)
                if added:
                    evaluated += 1
                    sink.write(grid_cell_text(table, ordinal, split, added))
                    sink.flush()
        evaluator.release(held)
    except ServiceFailure as exc:
        sink.close()
        store_grid(table, out_path)
        print(f"grid run suspended: {exc}", file=sys.stderr)
        print(f"partial table written to {out_path}; re-run to resume", file=sys.stderr)
        return EXIT_SUSPENDED
    finally:
        sink.close()

    store_grid(table, out_path)
    if evaluated == 0:
        print(f"table already complete for {metrics} on splits {splits}; nothing to do")
    else:
        print(f"evaluated {evaluated} (config, split) cells; table written to {out_path}")
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
    (out / "provenance.json").write_text(
        json.dumps(provenance, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
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
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def cmd_analyze(args: argparse.Namespace) -> int:
    if not args.table and not args.run:
        raise CliError("analyze needs --table and/or --run")
    table_path = _input_file(args.table, "grid table") if args.table else None
    run_path = _input_file(args.run, "run export") if args.run else None
    out = Path(args.out)
    space = _load_space(args.space)
    grid_max = None

    if table_path:
        table = load_grid(table_path, space)
        extremes = analysis.grid_extremes(table, args.metric, args.split, space)
        grid_max = extremes.best_score
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
        bins = analysis.normalized_bins(table, args.metric, args.split, space, args.bins)
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
        marginals = analysis.marginal_means(table, args.metric, args.split, space)
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
        record = harness.load_run(run_path)
        series = analysis.convergence_series(record, grid_max=grid_max)
        out.mkdir(parents=True, exist_ok=True)
        with (out / "convergence.jsonl").open("w", encoding="utf-8") as fh:
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
    p_opt.add_argument("--seeds", help="seed count (N) or explicit list (1,2,3)")
    p_opt.add_argument("--objective", help="metric name, or comma-separated list")
    p_opt.add_argument("--grid", dest="grid_table", help="grid table for the replay backend")
    p_opt.add_argument("--dataset", help="dataset directory for the live backend")
    p_opt.add_argument("--space", help="search-space JSON file (default: stock space)")
    p_opt.add_argument("--backend", choices=("grid-replay", "live"))
    p_opt.add_argument("--parallelism", type=int, help="live evaluator fan-out cap")
    p_opt.add_argument("--out", help="run export path (default run.jsonl)")
    p_opt.add_argument("--checkpoint", help="resumable-state path (default <out>.checkpoint)")
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
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
