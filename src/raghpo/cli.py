"""Command-line entry points: optimize, grid, sample, analyze.

Settings come from an optional JSON run-config file plus flags; flags win.
Flags are typed by argparse. :func:`_load_config` checks the whole config
before any flag merges: every field, section, search space and endpoint,
whatever the command uses of it, against the field tables in
:mod:`raghpo.dataio` and the value rules they carry. It then checks each
flag that was given by the rule of its field. No setting is converted, and
a bad one is an error naming the config file and the field, or the flag as
typed; only a refusal that involves two settings is made later.
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
from dataclasses import asdict
from pathlib import Path
from typing import Iterator

from . import analysis, dataio, harness
from .dataio import (
    SamplePlan,
    _dump_canonical,
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
from .rules import names_in
from .searchspace import SearchSpace

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SUSPENDED = 3

#: The optimizer sections of a run config, each with its field table.
_OPTIMIZER_SECTIONS = {"tpe": dataio.TPE_FIELDS, "greedy": dataio.GREEDY_FIELDS}
#: The rules of the flags of ``analyze``, as a field table.
_ANALYZE_FLAGS = {
    **dict.fromkeys(("table", "run", "space"), (str, dataio.FILE_RULE)),
    "metric": (str, dataio.METRIC_RULE), "bins": (int, analysis.BIN_COUNT_RULE),
}
#: The flag of each setting whose flag is not ``--<setting>``.
_FLAGS = {"grid_table": "--grid", "qa_fraction": "--fraction", "noise_ratio": "--noise"}


def _check_flags(args: argparse.Namespace, fields: dict) -> None:
    """Check each flag given for a field of ``fields`` by the field's rule, naming the flag."""
    for key, spec in fields.items():
        value, rule = getattr(args, key, None), dataio.spec_parts(spec)[2]
        if value is not None and rule is not None:
            rule.check(value, _FLAGS.get(key, f"--{key}"))


def _load_config(args: argparse.Namespace) -> dict:
    """The settings of a run: the run config of ``--config``, checked whole, then the flags given.

    Every field and section of the config, an empty one without ``--config``,
    is checked, whatever the command uses of it, and its defaults are filled
    in; a ``grid_table`` or ``space`` path must name a file, and a
    ``dataset`` path a directory. Then each flag that was given is checked
    by its field's rule and replaces the config's value. The settings come
    back built: ``space`` a :class:`SearchSpace`, ``objective`` an
    :class:`Objective`, ``sample`` a :class:`SamplePlan` or None, and
    ``endpoints`` a :class:`ServiceEndpoint` or None per route.
    """
    where = str(args.config)
    if args.config is not None:
        dataio.FILE_RULE.check(args.config, "--config")
    config = {} if args.config is None else dataio.read_json_object(Path(args.config))
    check_fields(config, "run config", dataio.RUN_CONFIG_FIELDS, where)
    for section, fields in {**_OPTIMIZER_SECTIONS, "endpoints": dataio.ENDPOINTS_FIELDS}.items():
        check_fields(config[section], section, fields, where)
    if isinstance(config["space"], dict):
        config["space"] = dataio.read_space(config["space"], where)
    if isinstance(objective := config["objective"], dict):
        check_fields(objective, "objective", dataio.OBJECTIVE_FIELDS, where)
        config["objective"] = Objective(objective["metrics"], objective["weights"])
    if (sample := config["sample"]) is not None:
        check_fields(sample, "sample", dataio.SAMPLE_FIELDS, where)
        config["sample"] = SamplePlan(*(sample[key] for key in dataio.SAMPLE_FIELDS))
    endpoints = config["endpoints"]
    config["endpoints"] = {
        name: None if endpoints[name] is None
        else ServiceEndpoint.from_dict(endpoints[name], f"{where}: endpoints.{name}")
        for name in dataio.ENDPOINTS_FIELDS
    }
    _check_flags(args, dataio.RUN_CONFIG_FIELDS)
    for key in dataio.RUN_CONFIG_FIELDS:
        if (value := getattr(args, key, None)) is not None:
            config[key] = value
    config["space"] = _load_space(config["space"])
    if not isinstance(objective := config["objective"], Objective):
        config["objective"] = Objective() if objective is None else Objective(tuple(names_in(objective)))
    return config


def _load_space(value: str | SearchSpace | None) -> SearchSpace:
    """The space of the space file at the path ``value``, or ``value``; the stock space for None."""
    if isinstance(value, str):
        return dataio.read_space(dataio.read_json_object(Path(value)), value)
    return SearchSpace.default() if value is None else value


def _seeds_flag(text: str) -> int | list[int]:
    """``--seeds``: a count ``N``, or a comma-separated list of seeds ``1,2,3``."""
    try:
        seeds = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a count N or a list 1,2,3, got {text!r}") from None
    return seeds[0] if len(seeds) == 1 else seeds


@contextlib.contextmanager
def _live_evaluator(args, config: dict, metrics, sample=None) -> Iterator[LivePipelineEvaluator]:
    """The live evaluator of the settings ``config``, with the dataset's reply store, closed on exit.

    The store is ``<dataset dir>.replies.sqlite3``. ``metrics`` are those
    the command will score, none for the default ones; judge_ac among them
    needs a judge endpoint, and unless they are context_mrr alone, the
    command generates, so each generative model of the space needs a prompt
    template. With a :class:`SamplePlan` ``sample``, the evaluator sees the
    sampled dev split. Nothing is sent here, and the store creates its file
    only when it keeps a reply.
    """
    if (dataset_path := config["dataset"]) is None:
        raise ValueError("live backend needs --dataset (or dataset in the config)")
    dataset = load_dataset(dataset_path)
    if sample is not None:
        dataset = sample_dev(dataset, sample).dataset
        print(f"sampled dev: {len(dataset.dev)} questions, corpus {len(dataset.corpus)} docs")
    endpoints = config["endpoints"]
    if endpoints["embed"] is None or endpoints["generate"] is None:
        raise ValueError(
            f"{args.config or '--config'}: run config field 'endpoints' lacks embed or generate, "
            "which a live run (no 'grid_table') needs"
        )
    embedder = EmbeddingClient(endpoints["embed"], config["embed_batch_size"])
    generator = GenerationClient(endpoints["generate"])
    judge = JudgeClient(endpoints["judge"]) if endpoints["judge"] is not None else None
    if JUDGE_AC in metrics and judge is None:
        raise ValueError(NO_JUDGE)
    root = Path(dataset_path).resolve()
    replies = ReplyStore(root.parent / f"{root.name}.replies.sqlite3")
    try:
        evaluator = LivePipelineEvaluator(
            dataset, config["space"], embedder, generator, judge=judge, parallelism=config["parallelism"],
            replies=replies,
        )
        if set(metrics) != {CONTEXT_MRR}:
            for model in config["space"].generative_models:
                evaluator.templates.for_model(model)
        yield evaluator
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
    config = _load_config(args)
    space, objective, seeds = config["space"], config["objective"], config["seeds"]
    seeds = tuple(range(1, seeds + 1)) if isinstance(seeds, int) else tuple(seeds)
    optimizer_options = {
        f"{section}_{key}": config[section][key]
        for section, fields in _OPTIMIZER_SECTIONS.items() for key in fields if config[section][key] is not None
    }
    out = config["out"] or "run.jsonl"
    spec = harness.RunSpec(
        space=space,
        algorithm=config["algorithm"],
        objective=objective,
        budget=config["budget"],
        seeds=seeds,
        optimizer_options=optimizer_options,
    )

    if config["grid_table"]:
        record = harness.run(spec, GridReplayEvaluator(load_grid(config["grid_table"], space)))
    else:
        # An evaluation scores context_mrr and the generated metrics, and any the objective adds.
        metrics = (LEXICAL_AC, FAITHFULNESS, CONTEXT_MRR, *objective.metrics)
        with _live_evaluator(args, config, metrics, config["sample"]) as evaluator:
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
    print(f"algorithm: {spec.algorithm}  objective: {objective.describe()}")
    print(f"budget: {spec.budget} iterations x {len(seeds)} seeds")
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
    config = _load_config(args)
    space, out = config["space"], Path(config["out"] or "grid.jsonl")
    splits, metrics = names_in(config["splits"]), names_in(config["metrics"] or "")
    with _live_evaluator(args, config, metrics) as evaluator:
        if not metrics:
            metrics = [LEXICAL_AC, FAITHFULNESS, CONTEXT_MRR]
            metrics += [JUDGE_AC] if evaluator.judge is not None else []
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
    _check_flags(args, dataio.SAMPLE_FIELDS)
    dataset = load_dataset(args.dataset)
    plan = SamplePlan(args.qa_fraction, args.noise_ratio, args.seed)
    outcome = sample_dev(dataset, plan)
    out = Path(args.out)
    store_dataset(outcome.dataset, out)
    provenance = {
        "format_version": 1,
        "source": str(Path(args.dataset)),
        "source_content_sha256": dataio.dataset_content_hash(args.dataset),
        "plan": asdict(plan),
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
        raise ValueError("analyze needs --table and/or --run")
    _check_flags(args, _ANALYZE_FLAGS)
    out = Path(args.out)
    space = _load_space(args.space)

    if args.table:
        table = load_grid(args.table, space)
        extremes = analysis.grid_extremes(table, args.metric, args.split)
        bins = analysis.normalized_bins(table, args.metric, args.split, args.bins)
        marginals = analysis.marginal_means(table, args.metric, args.split)
    if args.run:
        grid_max = extremes.best_score if args.table else None
        series = analysis.convergence_series(harness.load_run(args.run), grid_max=grid_max)

    if args.table:
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

    if args.run:
        with atomic_write(out / "convergence.jsonl") as fh:
            for point in series:
                fh.write(_dump_canonical(asdict(point)) + "\n")
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
    p_sample.add_argument("--fraction", dest="qa_fraction", type=float, required=True, help="dev QA fraction")
    p_sample.add_argument("--noise", dest="noise_ratio", type=int, required=True, help="noise docs per gold doc")
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
    except (ValueError, OSError) as exc:  # a refused input, or a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ServiceFailure as exc:
        print(f"run suspended: {exc}", file=sys.stderr)
        print("re-run the same command to resume", file=sys.stderr)
        return EXIT_SUSPENDED


if __name__ == "__main__":
    sys.exit(main())
