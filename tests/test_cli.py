import argparse
import contextlib
import gc
import itertools
import json
import os
import random
import re
import shutil
import sqlite3
import struct
import subprocess
import sys
import time
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

from raghpo import analysis, cli, pipeline
from raghpo.cli import (
    EXIT_OK,
    EXIT_SUSPENDED,
    EXIT_VALIDATION,
    main,
)
from raghpo.costs import CostDelta
from raghpo.dataio import load_dataset, load_grid, store_dataset, store_grid
from raghpo.harness import load_run
from raghpo.metrics import CONTEXT_MRR, FAITHFULNESS, LEXICAL_AC
from raghpo.pipeline import LivePipelineEvaluator
from raghpo.searchspace import SearchSpace

from conftest import fill_table, is_complete, make_document, table_from_config_scores

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def no_stray_temporary_file(tmp_path):
    """Fail a test that leaves an ``atomic_write`` temporary file, ``.<name>.<pid>.tmp``, behind."""
    yield
    stray = [p for p in tmp_path.rglob(".*.tmp") if re.fullmatch(r"\..+\.[0-9]+\.tmp", p.name)]
    assert stray == [], "an atomic_write temporary file was left behind"


@pytest.fixture()
def fixture_table(tmp_path, default_space):
    rng = random.Random(2024)
    dev = [rng.random() for _ in range(162)]
    test = [rng.random() for _ in range(162)]
    mrr = [rng.random() for _ in range(162)]
    table = table_from_config_scores(default_space, dev, test_scores=test, mrr_scores=mrr)
    path = tmp_path / "grid.jsonl"
    store_grid(table, path)
    return path


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------


def test_optimize_replay_run(tmp_path, fixture_table, capsys):
    out = tmp_path / "run.jsonl"
    code = main(
        [
            "optimize",
            "--grid",
            str(fixture_table),
            "--algo",
            "greedy_m",
            "--budget",
            "10",
            "--seeds",
            "5",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "best configuration" in stdout
    assert "greedy_m" in stdout
    record = load_run(out)
    assert record.spec.budget == 10
    assert len(record.seed_runs) == 5


def test_optimize_summary_matches_golden(tmp_path, fixture_table, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(
        [
            "optimize",
            "--grid",
            str(fixture_table),
            "--algo",
            "greedy_m",
            "--budget",
            "10",
            "--seeds",
            "5",
            "--out",
            "run.jsonl",
        ]
    )
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    golden = (GOLDEN_DIR / "optimize_summary.txt").read_text(encoding="utf-8")
    assert stdout == golden


def test_optimize_is_deterministic(tmp_path, fixture_table):
    args = [
        "optimize",
        "--grid",
        str(fixture_table),
        "--algo",
        "tpe",
        "--budget",
        "8",
        "--seeds",
        "3",
    ]
    assert main(args + ["--out", str(tmp_path / "a.jsonl")]) == EXIT_OK
    assert main(args + ["--out", str(tmp_path / "b.jsonl")]) == EXIT_OK
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_optimize_unknown_algorithm_lists_choices(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["optimize", "--algo", "bohb"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    for algo in ("random", "tpe", "greedy_m", "greedy_r", "greedy_rcc"):
        assert algo in err


def test_optimize_missing_grid_is_validation_error(capsys):
    code = main(["optimize"])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: live backend needs --dataset (or dataset in the config)\n"
    )


def test_optimize_explicit_seed_list(tmp_path, fixture_table):
    out = tmp_path / "run.jsonl"
    code = main(
        ["optimize", "--grid", str(fixture_table), "--budget", "3", "--seeds", "7,9", "--out", str(out)]
    )
    assert code == EXIT_OK
    assert load_run(out).spec.seeds == (7, 9)


def test_optimize_rcc_requires_retrieval_rows(tmp_path, default_space, capsys):
    rng = random.Random(77)
    table = table_from_config_scores(default_space, [rng.random() for _ in range(162)])
    path = tmp_path / "no_mrr.jsonl"
    store_grid(table, path)
    code = main(["optimize", "--grid", str(path), "--algo", "greedy_rcc", "--budget", "5", "--seeds", "2"])
    assert code == EXIT_VALIDATION
    assert "gold document labels" in capsys.readouterr().err


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for command in ("optimize", "grid", "sample", "analyze"):
        assert command in out


def test_cli_imports_nothing_beyond_the_standard_library_and_numpy():
    probe = (
        "import sys; before = set(sys.modules); import raghpo.cli; "
        "print(*sorted({m.partition('.')[0] for m in set(sys.modules) - before}))"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    imported = set(done.stdout.split())
    assert imported - set(sys.stdlib_module_names) == {"numpy", "raghpo"}


def test_optimize_config_file_with_flag_override(tmp_path, fixture_table):
    config = {
        "grid_table": str(fixture_table),
        "algorithm": "random",
        "budget": 4,
        "seeds": [1, 2],
        "out": str(tmp_path / "cfg.jsonl"),
    }
    config_path = tmp_path / "run_config.json"
    config_path.write_text(json.dumps(config))
    code = main(["optimize", "--config", str(config_path), "--budget", "6"])
    assert code == EXIT_OK
    record = load_run(tmp_path / "cfg.jsonl")
    assert record.spec.budget == 6  # flag wins
    assert record.spec.algorithm == "random"


def test_a_file_at_the_old_checkpoint_path_is_neither_read_nor_removed(
    tmp_path, fixture_table, default_space
):
    other = tmp_path / "other.jsonl"
    store_grid(table_from_config_scores(default_space, [(i * 37 % 162) / 162 for i in range(162)]), other)
    argv = ["optimize", "--algo", "random", "--budget", "10", "--seeds", "2", "--grid"]
    clean, earlier, out = tmp_path / "clean.jsonl", tmp_path / "earlier.jsonl", tmp_path / "run.jsonl"
    assert main(argv + [str(other), "--out", str(clean)]) == EXIT_OK
    assert main(argv + [str(fixture_table), "--out", str(earlier)]) == EXIT_OK
    # The first three iterations of a run over the other table, at the path
    # beside the export that a resumed run read before re-running replaced it.
    planted = tmp_path / "run.jsonl.checkpoint"
    planted.write_text("".join(earlier.read_text().splitlines(keepends=True)[:4]))
    kept = planted.read_bytes()
    assert main(argv + [str(other), "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == clean.read_bytes()
    assert planted.read_bytes() == kept


NO_JUDGE = "judge_ac requested but no judge endpoint is configured"

STOCK_SPACE = SearchSpace.default().to_dict()
PORT_9 = {"base_url": "http://127.0.0.1:9"}


def _wrong_type(kind: str, field: str, value, where: str = "{config}") -> str:
    return f"{where}: {kind} field {field!r} has the wrong type: {value!r}"


#: case -> (command, backend, config values, message); ``{config}`` is the config file.
BAD_RUN_CONFIG_VALUES = {
    "parallelism": ("optimize", "replay", {"parallelism": "two"}, _wrong_type("run config", "parallelism", "two")),
    "parallelism integral float": (
        "optimize", "replay", {"parallelism": 2.0}, _wrong_type("run config", "parallelism", 2.0)
    ),
    "budget": ("optimize", "replay", {"budget": "ten"}, _wrong_type("run config", "budget", "ten")),
    "budget decimal string": ("optimize", "replay", {"budget": "2"}, _wrong_type("run config", "budget", "2")),
    "budget fraction": ("optimize", "replay", {"budget": 2.9}, _wrong_type("run config", "budget", 2.9)),
    "budget boolean": ("optimize", "replay", {"budget": True}, _wrong_type("run config", "budget", True)),
    "seeds": ("optimize", "replay", {"seeds": "1,x"}, _wrong_type("run config", "seeds", "1,x")),
    "seeds string": ("optimize", "replay", {"seeds": "1,2"}, _wrong_type("run config", "seeds", "1,2")),
    "seeds fraction": ("optimize", "replay", {"seeds": [1.5, 2]}, _wrong_type("run config", "seeds", [1.5, 2])),
    "seeds boolean": ("optimize", "replay", {"seeds": True}, _wrong_type("run config", "seeds", True)),
    "grid_table a number": (
        "optimize", "replay", {"grid_table": 5}, _wrong_type("run config", "grid_table", 5)
    ),
    "dataset a number": ("optimize", "live", {"dataset": 5}, _wrong_type("run config", "dataset", 5)),
    "tpe gamma": ("optimize", "replay", {"tpe": {"gamma": "x"}}, _wrong_type("tpe", "gamma", "x")),
    "tpe gamma boolean": ("optimize", "replay", {"tpe": {"gamma": True}}, _wrong_type("tpe", "gamma", True)),
    "tpe init": ("optimize", "replay", {"tpe": {"init": [2]}}, _wrong_type("tpe", "init", [2])),
    "tpe not an object": ("optimize", "replay", {"tpe": "x"}, _wrong_type("run config", "tpe", "x")),
    "greedy not an object": ("optimize", "replay", {"greedy": ["x"]}, _wrong_type("run config", "greedy", ["x"])),
    "space a list": ("optimize", "replay", {"space": [1]}, _wrong_type("run config", "space", [1])),
    "space top_k a string": (
        "optimize", "replay", {"space": {**STOCK_SPACE, "top_k": "35"}},
        _wrong_type("search space", "top_k", "35"),
    ),
    "space embedding_model numbers": (
        "optimize", "replay", {"space": {**STOCK_SPACE, "embedding_model": [1, 2]}},
        _wrong_type("search space", "embedding_model", [1, 2]),
    ),
    "space top_k boolean": (
        "optimize", "replay", {"space": {**STOCK_SPACE, "top_k": [True, 3]}},
        _wrong_type("search space", "top_k", [True, 3]),
    ),
    "space chunk_overlap decimal string": (
        "optimize", "replay", {"space": {**STOCK_SPACE, "chunk_overlap": ["0.5"]}},
        _wrong_type("search space", "chunk_overlap", ["0.5"]),
    ),
    "space chunk_size integral float": (
        "optimize", "replay", {"space": {**STOCK_SPACE, "chunk_size": [256.0, 512]}},
        _wrong_type("search space", "chunk_size", [256.0, 512]),
    ),
    "space chunk_overlap too large for a float": (
        "optimize", "replay", {"space": {**STOCK_SPACE, "chunk_overlap": [10**400]}},
        "{config}: int too large to convert to float",
    ),
    "space model a lone surrogate": (
        "optimize", "replay", {"space": {**STOCK_SPACE, "generative_model": ["g\ud800"]}},
        "{config}: search space field 'generative_model' is not valid Unicode text",
    ),
    "out a lone surrogate": (
        "optimize", "replay", {"out": "\ud800"}, "{config}: run config field 'out' is not valid Unicode text"
    ),
    "grid out a lone surrogate": (
        "grid", "live", {"out": "\ud800"}, "{config}: run config field 'out' is not valid Unicode text"
    ),
    "grid_table names no file": (
        "optimize", "replay", {"grid_table": "no/such/grid.jsonl"},
        "{config}: run config field 'grid_table' names no file: no/such/grid.jsonl",
    ),
    "space names no file": (
        "optimize", "replay", {"space": "no/such/space.json"},
        "{config}: run config field 'space' names no file: no/such/space.json",
    ),
    "grid space names no file": (
        "grid", "live", {"space": "no/such/space.json"},
        "{config}: run config field 'space' names no file: no/such/space.json",
    ),
    "objective an empty list": (
        "optimize", "replay", {"objective": []}, "{config}: run config field 'objective' names no metric"
    ),
    "objective without a metric": (
        "optimize", "replay", {"objective": {"metrics": []}}, "{config}: objective field 'metrics' names no metric"
    ),
    "live without endpoints": (
        "optimize", "live", {"endpoints": {}},
        "{config}: run config field 'endpoints' lacks embed or generate, which a live run (no 'grid_table') needs",
    ),
    "objective without metrics": (
        "optimize", "replay", {"objective": {"weights": [1]}}, "{config}: objective lacks field 'metrics'"
    ),
    "objective metrics a string": (
        "optimize", "replay", {"objective": {"metrics": "lexical_ac"}},
        _wrong_type("objective", "metrics", "lexical_ac"),
    ),
    "objective list holding a number": (
        "optimize", "replay", {"objective": ["lexical_ac", 3]},
        _wrong_type("run config", "objective", ["lexical_ac", 3]),
    ),
    "objective weight": (
        "optimize", "replay", {"objective": {"metrics": ["lexical_ac"], "weights": ["x"]}},
        _wrong_type("objective", "weights", ["x"]),
    ),
    "objective weight too large for a float": (
        "optimize", "replay", {"objective": {"metrics": ["lexical_ac"], "weights": [10**400]}},
        "weights must be numbers that a float can hold",
    ),
    "sample fraction": (
        "optimize", "live", {"sample": {"qa_fraction": "half", "noise_ratio": 1, "seed": 1}},
        _wrong_type("sample", "qa_fraction", "half"),
    ),
    "sample seed missing": (
        "optimize", "live", {"sample": {"qa_fraction": 0.5, "noise_ratio": 1}},
        "{config}: sample lacks field 'seed'",
    ),
    "endpoint auth_env a number": (
        "optimize", "live", {"endpoints": {"embed": {**PORT_9, "auth_env": 5}, "generate": PORT_9}},
        _wrong_type("endpoint", "auth_env", 5, "{config}: endpoints.embed"),
    ),
    "endpoint timeout a decimal string": (
        "grid", "live", {"endpoints": {"embed": PORT_9, "generate": {**PORT_9, "timeout": "5"}}},
        _wrong_type("endpoint", "timeout", "5", "{config}: endpoints.generate"),
    ),
    "endpoint max_attempts integral float": (
        "grid", "live", {"endpoints": {"embed": PORT_9, "generate": {**PORT_9, "max_attempts": 2.0}}},
        _wrong_type("endpoint", "max_attempts", 2.0, "{config}: endpoints.generate"),
    ),
    "grid parallelism": ("grid", "live", {"parallelism": "two"}, _wrong_type("run config", "parallelism", "two")),
    "grid embed_batch_size": (
        "grid", "live", {"embed_batch_size": "x"}, _wrong_type("run config", "embed_batch_size", "x")
    ),
    "grid embed_batch_size fraction": (
        "grid", "live", {"embed_batch_size": 31.9}, _wrong_type("run config", "embed_batch_size", 31.9)
    ),
    "grid unknown split": (
        "grid", "live", {"splits": "tset"},
        "splits: expected a comma-separated list of dev and test, got 'tset'",
    ),
    "grid no split": (
        "grid", "live", {"splits": ","},
        "splits: expected a comma-separated list of dev and test, got ','",
    ),
    "grid unknown split in a list": (
        "grid", "live", {"splits": ["dev", "tset"]},
        "splits: expected a comma-separated list of dev and test, got ['dev', 'tset']",
    ),
    "grid split list holding a number": (
        "grid", "live", {"splits": ["dev", 1]}, _wrong_type("run config", "splits", ["dev", 1])
    ),
    "grid metrics a number": ("grid", "live", {"metrics": 3}, _wrong_type("run config", "metrics", 3)),
    "grid metrics list holding a number": (
        "grid", "live", {"metrics": ["context_mrr", 3]},
        _wrong_type("run config", "metrics", ["context_mrr", 3]),
    ),
    "objective a number": ("optimize", "replay", {"objective": 3}, _wrong_type("run config", "objective", 3)),
    "grid unknown metric": (
        "grid", "live", {"metrics": "nope"},
        "unknown metric names ['nope']; expected "
        "['context_mrr', 'faithfulness', 'judge_ac', 'lexical_ac']",
    ),
    "grid judge_ac without a judge": (
        "grid", "live", {"metrics": "judge_ac"}, NO_JUDGE,
    ),
    "grid parallelism zero": (
        "grid", "live", {"parallelism": 0}, "parallelism must be >= 1, got 0"
    ),
    "live objective judge_ac without a judge": (
        "optimize", "live", {"objective": "judge_ac"}, NO_JUDGE,
    ),
    "live greedy_rcc objective judge_ac without a judge": (
        "optimize", "live", {"algorithm": "greedy_rcc", "objective": "judge_ac"}, NO_JUDGE,
    ),
    "live budget past the space": (
        "optimize", "live", {"budget": 999}, "budget 999 exceeds the space size 162"
    ),
    "live tpe gamma out of range": (
        "optimize", "live", {"algorithm": "tpe", "tpe": {"gamma": 1.5}},
        "gamma must be in (0, 1), got 1.5",
    ),
    "live greedy suffix mode": (
        "optimize", "live", {"algorithm": "greedy_m", "greedy": {"suffix_mode": "x"}},
        "suffix_mode must be 'shared' or 'per_candidate', got 'x'",
    ),
}


@pytest.mark.parametrize(
    "command, backend, values, message",
    BAD_RUN_CONFIG_VALUES.values(),
    ids=BAD_RUN_CONFIG_VALUES.keys(),
)
def test_bad_run_config_value_exits_2_naming_its_key(
    tmp_path, fixture_table, dataset_dir, capsys, command, backend, values, message
):
    out = tmp_path / "out.jsonl"
    if backend == "live":
        # Never contacted: every case fails before the first request.
        endpoint = {"base_url": "http://127.0.0.1:9"}
        config = {"dataset": str(dataset_dir), "endpoints": {"embed": endpoint, "generate": endpoint}}
    else:
        config = {"grid_table": str(fixture_table)}
    config.update({"budget": 2, "seeds": 1, "out": str(out)}, **values)
    config_path = tmp_path / "run_config.json"
    config_path.write_text(json.dumps(config))
    assert main([command, "--config", str(config_path)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message.format(config=config_path)}\n"
    assert not list(tmp_path.glob("out.jsonl*"))
    # The reply store beside the dataset creates its file only when it keeps a reply.
    assert not list(tmp_path.glob("*.replies.sqlite3*"))


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--grid", "no/such/grid.jsonl"], "grid table not found: no/such/grid.jsonl"),
        (["--space", "no/such/space.json"], "search space file not found: no/such/space.json"),
        (["--objective", ","], "objective needs at least one metric"),
    ],
    ids=["grid", "space", "objective"],
)
def test_a_bad_flag_over_a_good_config_keeps_the_flags_message(
    tmp_path, fixture_table, capsys, flags, message
):
    config_path = tmp_path / "run_config.json"
    config_path.write_text(json.dumps({"grid_table": str(fixture_table), "out": str(tmp_path / "o")}))
    assert main(["optimize", "--config", str(config_path), *flags]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message}\n"


def test_objective_list_in_a_run_config_means_the_comma_string(tmp_path, default_space):
    table = fill_table(
        default_space,
        lambda ordinal, split, metric, qid: (ordinal * 7 + len(metric) + len(qid)) % 10 / 10,
        split_metrics={"dev": (LEXICAL_AC, FAITHFULNESS), "test": (LEXICAL_AC, FAITHFULNESS)},
        qids={"dev": ("q0", "q1"), "test": ("t0",)},
    )
    store_grid(table, tmp_path / "grid.jsonl")
    exports = []
    for objective in (["lexical_ac", "faithfulness"], "lexical_ac,faithfulness"):
        out = tmp_path / f"run{len(exports)}.jsonl"
        config = {"grid_table": str(tmp_path / "grid.jsonl"), "objective": objective}
        config.update({"algorithm": "tpe", "budget": 8, "seeds": 2, "out": str(out)})
        (tmp_path / "run_config.json").write_text(json.dumps(config))
        assert main(["optimize", "--config", str(tmp_path / "run_config.json")]) == EXIT_OK
        exports.append(out.read_bytes())
        assert load_run(out).spec.objective.metrics == (LEXICAL_AC, FAITHFULNESS)
    assert exports[0] == exports[1]


def test_metric_and_split_lists_in_a_grid_config_mean_the_comma_strings(live_setup, tmp_path):
    config = json.loads(live_setup["config_path"].read_text())
    tables = []
    for metrics, splits in (([CONTEXT_MRR, LEXICAL_AC], ["dev"]), ("context_mrr,lexical_ac", "dev")):
        out = tmp_path / f"grid{len(tables)}.jsonl"
        config.update(metrics=metrics, splits=splits, out=str(out))
        (tmp_path / "grid_config.json").write_text(json.dumps(config))
        assert main(["grid", "--config", str(tmp_path / "grid_config.json")]) == EXIT_OK
        tables.append(out.read_bytes())
    assert tables[0] == tables[1]
    keys = {key[1:3] for key in load_grid(out, live_setup["space"]).scores}
    assert keys == {("dev", CONTEXT_MRR), ("dev", LEXICAL_AC)}


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


@pytest.fixture()
def dataset_dir(tmp_path):
    from raghpo.dataio import Dataset, QaPair

    corpus = tuple(make_document(f"d{i}", 6) for i in range(60))
    dev = tuple(
        QaPair(qid=f"q{i}", question=f"question {i}", gold_answer="tok1", gold_doc_ids=(f"d{i}",))
        for i in range(20)
    )
    test = (QaPair(qid="t0", question="?", gold_answer="tok2", gold_doc_ids=("d0",)),)
    path = tmp_path / "dataset"
    store_dataset(Dataset(corpus=corpus, dev=dev, test=test, name="cli-fixture"), path)
    return path


def test_sample_command_counts_and_provenance(tmp_path, dataset_dir, capsys):
    out = tmp_path / "sampled"
    code = main(
        ["sample", "--dataset", str(dataset_dir), "--out", str(out), "--fraction", "0.5", "--noise", "2", "--seed", "11"]
    )
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "sampled 10 dev questions" in stdout
    sampled = load_dataset(out)
    assert len(sampled.dev) == 10
    assert len(sampled.corpus) == 30  # 10 gold + 2 noise each
    provenance = json.loads((out / "provenance.json").read_text())
    assert provenance["plan"] == {"qa_fraction": 0.5, "noise_ratio": 2, "seed": 11}
    assert provenance["sampled_questions"] == 10
    assert provenance["noise_shortfall"] == 0


def test_sample_provenance_verifies_against_recomputation(tmp_path, dataset_dir):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    args = ["sample", "--dataset", str(dataset_dir), "--fraction", "0.5", "--noise", "2", "--seed", "11"]
    assert main(args + ["--out", str(out_a)]) == EXIT_OK
    assert main(args + ["--out", str(out_b)]) == EXIT_OK
    pa = json.loads((out_a / "provenance.json").read_text())
    pb = json.loads((out_b / "provenance.json").read_text())
    assert pa["output_content_sha256"] == pb["output_content_sha256"]
    assert pa["source_content_sha256"] == pb["source_content_sha256"]


def test_sample_requires_seed(dataset_dir, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["sample", "--dataset", str(dataset_dir), "--out", str(tmp_path / "x"), "--fraction", "0.5", "--noise", "2"])
    assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_table_outputs(tmp_path, fixture_table, capsys):
    out = tmp_path / "analysis"
    code = main(
        ["analyze", "--table", str(fixture_table), "--metric", LEXICAL_AC, "--split", "dev", "--out", str(out), "--bins", "10"]
    )
    assert code == EXIT_OK
    extremes = json.loads((out / "extremes.json").read_text())
    assert 0.0 <= extremes["worst"]["score"] <= extremes["best"]["score"] <= 1.0
    bins = json.loads((out / "bins.json").read_text())
    assert len(bins["counts"]) == 10
    assert sum(bins["counts"]) == 162
    marginals = json.loads((out / "marginal_means.json").read_text())
    assert len(marginals["rows"]) == 14


def test_analyze_run_convergence(tmp_path, fixture_table):
    run_path = tmp_path / "run.jsonl"
    main(["optimize", "--grid", str(fixture_table), "--budget", "7", "--seeds", "3", "--out", str(run_path)])
    out = tmp_path / "analysis"
    code = main(["analyze", "--run", str(run_path), "--out", str(out)])
    assert code == EXIT_OK
    lines = (out / "convergence.jsonl").read_text().strip().splitlines()
    assert len(lines) == 7
    assert lines[0].startswith('{"grid_max":null,"iteration":1,"mean_test":')
    # Canonical JSON: sorted keys, no spaces, one point a line.
    expected = "".join(
        json.dumps(
            {"iteration": p.iteration, "mean_test": p.mean_test, "se_test": p.se_test, "n": p.n,
             "grid_max": p.grid_max},
            sort_keys=True, separators=(",", ":"),
        ) + "\n"
        for p in analysis.convergence_series(load_run(run_path))
    )
    assert (out / "convergence.jsonl").read_text() == expected


def test_analyze_a_run_export_short_of_a_seed_exits_2_naming_it(tmp_path, fixture_table, capsys):
    run_path = tmp_path / "run.jsonl"
    main(["optimize", "--grid", str(fixture_table), "--algo", "random", "--budget", "3",
          "--seeds", "20", "--out", str(run_path)])
    lines = run_path.read_text().splitlines(keepends=True)
    run_path.write_text("".join(line for line in lines if '"seed":20,' not in line))
    capsys.readouterr()
    assert main(["analyze", "--run", str(run_path), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert f"{run_path}: seed 20 holds 0 of the run_header's 3 iterations" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", [["trial"], {"trial": 1}], ids=["a list", "an object"])
def test_analyze_a_run_row_whose_kind_is_not_a_string_exits_2_naming_it(
    tmp_path, fixture_table, capsys, kind
):
    run_path = tmp_path / "run.jsonl"
    main(["optimize", "--grid", str(fixture_table), "--algo", "random", "--budget", "2",
          "--seeds", "1", "--out", str(run_path)])
    lines = run_path.read_text().splitlines(keepends=True)
    lines[1] = json.dumps({**json.loads(lines[1]), "kind": kind}) + "\n"
    run_path.write_text("".join(lines))
    capsys.readouterr()
    assert main(["analyze", "--run", str(run_path), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {run_path}:2: unknown row kind {kind!r}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["flag", "config"])
@pytest.mark.parametrize("count", [10_001, 10**30])
def test_a_seed_count_past_the_bound_exits_2_naming_seeds(tmp_path, fixture_table, capsys, where, count):
    config_path = tmp_path / "run_config.json"
    config_path.write_text(json.dumps({"seeds": count} if where == "config" else {}))
    argv = ["optimize", "--config", str(config_path), "--grid", str(fixture_table),
            "--budget", "2", "--out", str(tmp_path / "run.jsonl")]
    assert main(argv + (["--seeds", str(count)] if where == "flag" else [])) == EXIT_VALIDATION
    message = f"error: seeds must be a count of at most {cli.MAX_SEEDS} or a list, got {count}\n"
    assert capsys.readouterr().err == message
    assert not list(tmp_path.glob("run.jsonl*"))


def test_a_write_that_fails_at_its_rename_leaves_no_temporary_file(
    tmp_path, fixture_table, capsys
):
    # A directory where analyze writes extremes.json: the temporary file is
    # written whole, and replacing the directory with it fails.
    target = tmp_path / "out" / "extremes.json"
    target.mkdir(parents=True)
    assert main(["analyze", "--table", str(fixture_table), "--out", str(tmp_path / "out")]) == (
        EXIT_VALIDATION
    )
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(target) in err


def test_sample_from_a_dataset_without_its_corpus_exits_2_naming_it(
    tmp_path, dataset_dir, capsys
):
    (dataset_dir / "corpus.jsonl").unlink()
    argv = ["sample", "--dataset", str(dataset_dir), "--out", str(tmp_path / "sampled"),
            "--fraction", "0.5", "--noise", "2", "--seed", "11"]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(dataset_dir / "corpus.jsonl") in err
    assert not (tmp_path / "sampled").exists()


def test_analyze_is_idempotent(tmp_path, fixture_table):
    out = tmp_path / "analysis"
    args = ["analyze", "--table", str(fixture_table), "--metric", LEXICAL_AC, "--out", str(out)]
    assert main(args) == EXIT_OK
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(args) == EXIT_OK
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def test_analyze_needs_input(capsys):
    assert main(["analyze"]) == EXIT_VALIDATION
    assert "needs --table" in capsys.readouterr().err


def test_analyze_with_no_bin_exits_2_and_writes_nothing(tmp_path, fixture_table, capsys):
    out = tmp_path / "out"
    out.mkdir()
    assert main(["analyze", "--table", str(fixture_table), "--bins", "0", "--out", str(out)]) == (
        EXIT_VALIDATION
    )
    assert capsys.readouterr().err == "error: bin_count must be >= 1, got 0\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("count", [cli.MAX_BINS + 1, 10**19])
def test_analyze_with_bins_past_the_bound_exits_2_and_writes_nothing(
    tmp_path, fixture_table, capsys, monkeypatch, count
):
    out = tmp_path / "out"
    monkeypatch.setattr(cli.analysis, "normalized_bins", None)  # refused before it is called
    argv = ["analyze", "--table", str(fixture_table), "--bins", str(count), "--out", str(out)]
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: bins must be at most {cli.MAX_BINS}, got {count}\n"
    assert not out.exists()


def test_analyze_of_a_good_table_and_a_bad_run_exits_2_and_writes_nothing(
    tmp_path, fixture_table, capsys
):
    run, out = tmp_path / "run.jsonl", tmp_path / "out"
    main(["optimize", "--grid", str(fixture_table), "--budget", "2", "--seeds", "1", "--out", str(run)])
    lines = run.read_text().splitlines(keepends=True)
    header = json.loads(lines[0])
    del header["format_version"]
    run.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
    out.mkdir()
    capsys.readouterr()
    argv = ["analyze", "--table", str(fixture_table), "--run", str(run), "--out", str(out)]
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {run}:1: run_header lacks field 'format_version'\n"
    assert list(out.iterdir()) == []


def test_analyze_incomplete_table_fails(tmp_path, default_space, capsys):
    from raghpo.dataio import GridTable

    table = GridTable(default_space)
    table.add_score(0, "dev", LEXICAL_AC, "q0", 0.5)
    path = tmp_path / "partial.jsonl"
    store_grid(table, path)
    assert main(["analyze", "--table", str(path)]) == EXIT_VALIDATION
    assert "incomplete" in capsys.readouterr().err


@pytest.mark.parametrize("bad_line", ["[1]", "{not json", '{"kind":"trial","iteration":1}'])
@pytest.mark.parametrize("flag", ["--table", "--run"])
def test_analyze_rejects_a_bad_line_with_its_location(tmp_path, fixture_table, capsys, flag, bad_line):
    if flag == "--table":
        source = fixture_table
    else:
        source = tmp_path / "run.jsonl"
        main(["optimize", "--grid", str(fixture_table), "--budget", "2", "--seeds", "1", "--out", str(source)])
    lines = source.read_text().splitlines(keepends=True)
    broken = tmp_path / "broken.jsonl"
    broken.write_text(lines[0] + bad_line + "\n" + "".join(lines[1:]))
    capsys.readouterr()
    assert main(["analyze", flag, str(broken), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert f"{broken}:2: " in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["grid table", "run export", "dataset"])
def test_invalid_utf8_exits_2_with_its_location(tmp_path, fixture_table, dataset_dir, capsys, kind):
    run = tmp_path / "run.jsonl"
    optimize = ["optimize", "--grid", str(fixture_table), "--budget", "2", "--seeds", "1", "--out", str(run)]
    if kind == "grid table":
        source, argv = fixture_table, optimize
    elif kind == "run export":
        main(optimize)
        source, argv = run, ["analyze", "--run", str(run), "--out", str(tmp_path / "out")]
    else:
        source = dataset_dir / "benchmark.jsonl"
        argv = ["sample", "--dataset", str(dataset_dir), "--out", str(tmp_path / "s"),
                "--fraction", "0.5", "--noise", "1", "--seed", "1"]
    lines = source.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1].replace(b'"', b'"\xff', 1)
    source.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {source}:2: not valid UTF-8\n"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("score", 10**400, "int too large to convert to float"),
        ("ordinal", float("inf"), "score row field 'ordinal' has the wrong type: inf"),
    ],
    ids=["score", "ordinal"],
)
def test_number_out_of_float_range_exits_2_with_its_location(
    tmp_path, fixture_table, capsys, field, value, message
):
    header = fixture_table.read_text().splitlines(keepends=True)[0]
    row = {"metric": "lexical_ac", "ordinal": 0, "qid": "q0", "score": 0.5, "split": "dev"}
    path = tmp_path / "huge.jsonl"
    path.write_text(header + json.dumps({**row, field: value}) + "\n")
    assert main(["analyze", "--table", str(path), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {path}:2: {message}\n"


@pytest.mark.parametrize(
    "kind, field, value",
    [("manifest", "corpus_file", 5), ("corpus", "text", ["x", "y"]), ("benchmark", "qid", None),
     ("grid table", "ordinal", 1.7), ("run export", "budget", True)],
)
def test_a_field_of_the_wrong_type_exits_2_naming_it_and_writes_nothing(
    tmp_path, fixture_table, dataset_dir, capsys, kind, field, value
):
    run, out = tmp_path / "run.jsonl", tmp_path / "out"
    if kind == "grid table":
        source, lineno, record = fixture_table, 2, "score row"
        argv = ["analyze", "--table", str(fixture_table), "--out", str(out)]
    elif kind == "run export":
        main(["optimize", "--grid", str(fixture_table), "--budget", "2", "--seeds", "1", "--out", str(run)])
        source, lineno, record = run, 1, "run_header"
        argv = ["analyze", "--run", str(run), "--out", str(out)]
    else:
        name = "manifest.json" if kind == "manifest" else f"{kind}.jsonl"
        source, lineno = dataset_dir / name, None if kind == "manifest" else 2
        record = "manifest" if kind == "manifest" else f"{kind} row"
        argv = ["sample", "--dataset", str(dataset_dir), "--out", str(out),
                "--fraction", "0.5", "--noise", "1", "--seed", "1"]
    lines = source.read_text().splitlines()
    i = (lineno or 1) - 1
    lines[i] = json.dumps({**json.loads(lines[i]), field: value})
    source.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(argv) == EXIT_VALIDATION
    where = source if lineno is None else f"{source}:{lineno}"
    message = f"error: {where}: {record} field {field!r} has the wrong type: {value!r}\n"
    assert capsys.readouterr().err == message
    assert not out.exists()


@pytest.mark.parametrize("kind", ["grid table", "run export", "dataset"])
def test_integer_too_long_to_convert_exits_2_with_its_location(
    tmp_path, fixture_table, dataset_dir, capsys, kind
):
    run = tmp_path / "run.jsonl"
    optimize = ["optimize", "--grid", str(fixture_table), "--budget", "2", "--seeds", "1", "--out", str(run)]
    if kind == "grid table":
        source, argv = fixture_table, optimize
    elif kind == "run export":
        main(optimize)
        source, argv = run, ["analyze", "--run", str(run), "--out", str(tmp_path / "out")]
    else:
        source = dataset_dir / "benchmark.jsonl"
        argv = ["sample", "--dataset", str(dataset_dir), "--out", str(tmp_path / "s"),
                "--fraction", "0.5", "--noise", "1", "--seed", "1"]
    lines = source.read_text().splitlines(keepends=True)
    lines[1] = lines[1].replace("{", '{"pad":' + "1" * 5000 + ",", 1)
    source.write_text("".join(lines))
    capsys.readouterr()
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"error: {source}:2: invalid JSON (")


def test_integer_too_long_in_a_space_file_exits_2_naming_it(tmp_path, fixture_table, capsys):
    path = tmp_path / "space.json"
    path.write_text('{"chunk_size": [' + "1" * 5000 + "]}")
    argv = ["optimize", "--grid", str(fixture_table), "--space", str(path), "--out", str(tmp_path / "run.jsonl")]
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"error: {path}: invalid JSON (")


@pytest.mark.parametrize("missing", ["absent", "a directory"])
@pytest.mark.parametrize(
    "argv, what",
    [
        pytest.param(["optimize", "--grid", "{path}"], "grid table", id="optimize-grid"),
        pytest.param(["analyze", "--table", "{path}"], "grid table", id="analyze-table"),
        pytest.param(["analyze", "--run", "{path}"], "run export", id="analyze-run"),
        pytest.param(["analyze", "--table", "{table}", "--run", "{path}"], "run export",
                     id="analyze-good-table-missing-run"),
    ],
)
def test_missing_input_file_exits_2_naming_it(tmp_path, fixture_table, capsys, argv, what, missing):
    path = tmp_path / "nope.jsonl"
    if missing == "a directory":
        path.mkdir()
    out = tmp_path / "out"
    argv = [a.format(path=path, table=fixture_table) for a in argv] + ["--out", str(out)]
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {what} not found: {path}\n"
    assert not out.exists()


BAD_JSON_DOCUMENTS = {
    "space array": ("space", b"[1]", "{path}: expected a JSON object"),
    "space truncated": ("space", b'{"chunk_size": [256,', "{path}:1: invalid JSON ("),
    "space bad value": (
        "space",
        json.dumps({**SearchSpace.default().to_dict(), "chunk_size": [256, "x"]}).encode(),
        "{path}: search space field 'chunk_size' has the wrong type: [256, 'x']",
    ),
    "space top_k a string": (
        "space",
        json.dumps({**SearchSpace.default().to_dict(), "top_k": "35"}).encode(),
        "{path}: search space field 'top_k' has the wrong type: '35'",
    ),
    "space without top_k": (
        "space",
        json.dumps({k: v for k, v in SearchSpace.default().to_dict().items() if k != "top_k"}).encode(),
        "{path}: search space lacks field 'top_k'",
    ),
    "space model a lone surrogate": (
        "space",
        json.dumps({**SearchSpace.default().to_dict(), "embedding_model": ["e\ud800"]}).encode(),
        "{path}: search space field 'embedding_model' is not valid Unicode text",
    ),
    "manifest array": ("manifest", b"[1]", "{path}: expected a JSON object"),
    "manifest invalid utf-8": ("manifest", b'{"name": "\xff"}', "{path}: not valid UTF-8"),
}


@pytest.mark.parametrize(
    "kind, content, message", BAD_JSON_DOCUMENTS.values(), ids=BAD_JSON_DOCUMENTS.keys()
)
def test_bad_space_or_manifest_exits_2_naming_the_file(
    tmp_path, fixture_table, dataset_dir, capsys, kind, content, message
):
    if kind == "space":
        path = tmp_path / "space.json"
        argv = ["optimize", "--grid", str(fixture_table), "--space", str(path), "--out", str(tmp_path / "run.jsonl")]
    else:
        path = dataset_dir / "manifest.json"
        argv = ["sample", "--dataset", str(dataset_dir), "--out", str(tmp_path / "s"),
                "--fraction", "0.5", "--noise", "1", "--seed", "1"]
    path.write_bytes(content)
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: " + message.format(path=path))


def test_a_cost_row_of_an_unknown_split_exits_2_with_its_line(tmp_path, fixture_table, capsys):
    path = tmp_path / "train_cost.jsonl"
    row = {"kind": "cost", "ordinal": 0, "split": "train", **CostDelta(1, 2, 3).as_dict()}
    path.write_text(fixture_table.read_text() + json.dumps(row) + "\n")
    lineno = len(path.read_text().splitlines())
    out = tmp_path / "analysis"
    assert main(["analyze", "--table", str(path), "--out", str(out)]) == EXIT_VALIDATION
    message = f"{path}:{lineno}: split must be one of ('dev', 'test'), got 'train'"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# grid (live against the loopback stub)
# ---------------------------------------------------------------------------


@pytest.fixture()
def live_setup(tmp_path, stub_service):
    space = SearchSpace(
        chunk_sizes=(8,),
        chunk_overlaps=(0.0,),
        embedding_models=("stub-emb",),
        top_ks=(2,),
        generative_models=("Granite-3.1-8B-instruct", "Llama-3.1-8B-Instruct"),
    )
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps(space.to_dict()))

    from raghpo.dataio import Dataset, QaPair

    corpus = tuple(make_document(f"d{i}", 10) for i in range(3))
    dev = tuple(
        QaPair(qid=f"q{i}", question=f"about d{i}", gold_answer="tok0 tok1", gold_doc_ids=(f"d{i}",))
        for i in range(2)
    )
    test = (QaPair(qid="t0", question="closing", gold_answer="tok2", gold_doc_ids=("d0",)),)
    dataset_path = tmp_path / "dataset"
    store_dataset(Dataset(corpus=corpus, dev=dev, test=test), dataset_path)

    endpoint = {"base_url": stub_service.base_url, "timeout": 5.0, "max_attempts": 2, "backoff_seconds": 0.01}
    config = {
        "dataset": str(dataset_path),
        "space": str(space_path),
        "endpoints": {"embed": endpoint, "generate": endpoint},
        "out": str(tmp_path / "grid.jsonl"),
    }
    config_path = tmp_path / "live.json"
    config_path.write_text(json.dumps(config))
    return {
        "space": space,
        "config_path": config_path,
        "grid_path": tmp_path / "grid.jsonl",
        "stub": stub_service,
    }


def test_grid_builds_complete_table(live_setup, capsys):
    code = main(["grid", "--config", str(live_setup["config_path"])])
    assert code == EXIT_OK
    table = load_grid(live_setup["grid_path"], live_setup["space"])
    for metric in (LEXICAL_AC, FAITHFULNESS, CONTEXT_MRR):
        assert is_complete(table, metric, "dev")
        assert is_complete(table, metric, "test")
    assert "evaluated 4 (config, split) cells" in capsys.readouterr().out


def test_grid_complete_table_is_noop(live_setup, capsys):
    assert main(["grid", "--config", str(live_setup["config_path"])]) == EXIT_OK
    capsys.readouterr()
    generate_calls = len(live_setup["stub"].calls("/generate"))
    assert main(["grid", "--config", str(live_setup["config_path"])]) == EXIT_OK
    assert "evaluated 4 (config, split) cells" in capsys.readouterr().out
    assert len(live_setup["stub"].calls("/generate")) == generate_calls


def test_grid_never_reads_the_table_at_its_out(live_setup, tmp_path):
    """A re-run after a gold answer changed writes a fresh run's table, not the old one."""
    stub, path = live_setup["stub"], live_setup["grid_path"]
    argv = ["grid", "--config", str(live_setup["config_path"])]
    assert main(argv) == EXIT_OK
    first = path.read_bytes()
    dataset_path = Path(json.loads(live_setup["config_path"].read_text())["dataset"])
    dataset = load_dataset(dataset_path)
    # The stub answers "echo: ...", so t0's lexical_ac goes from 0 to 1.
    store_dataset(replace(dataset, test=(replace(dataset.test[0], gold_answer="echo"),)), dataset_path)
    generate_calls = len(stub.calls("/generate"))
    assert main(argv) == EXIT_OK
    assert len(stub.calls("/generate")) == generate_calls
    shutil.copytree(dataset_path, tmp_path / "fresh")
    fresh = tmp_path / "fresh.jsonl"
    assert main(argv + ["--dataset", str(tmp_path / "fresh"), "--out", str(fresh)]) == EXIT_OK
    assert path.read_bytes() == fresh.read_bytes() != first


def test_grid_without_answer_tokens_completes(live_setup, tmp_path, capsys):
    # lexical_ac is undefined for a gold answer with no tokens, so that
    # question's missing row must not keep the cell incomplete.
    from raghpo.dataio import Dataset, QaPair

    dev = (
        QaPair(qid="q0", question="about d0", gold_answer="tok0 tok1", gold_doc_ids=("d0",)),
        QaPair(qid="q1", question="punctuation", gold_answer="?!", gold_doc_ids=("d1",)),
    )
    corpus = tuple(make_document(f"d{i}", 10) for i in range(2))
    store_dataset(Dataset(corpus=corpus, dev=dev, test=()), tmp_path / "punct")
    space = SearchSpace(
        chunk_sizes=(8,),
        chunk_overlaps=(0.0,),
        embedding_models=("stub-emb",),
        top_ks=(2,),
        generative_models=("Granite-3.1-8B-instruct",),
    )
    (tmp_path / "one.json").write_text(json.dumps(space.to_dict()))
    args = [
        "grid", "--config", str(live_setup["config_path"]), "--dataset", str(tmp_path / "punct"),
        "--space", str(tmp_path / "one.json"), "--splits", "dev", "--out", str(tmp_path / "g.jsonl"),
    ]
    assert main(args) == EXIT_OK
    assert "evaluated 1 (config, split) cells" in capsys.readouterr().out
    generate_calls = len(live_setup["stub"].calls("/generate"))
    assert main(args) == EXIT_OK
    assert "evaluated 1 (config, split) cells" in capsys.readouterr().out
    assert len(live_setup["stub"].calls("/generate")) == generate_calls


def test_grid_retrieval_only_metrics_skip_generation(live_setup, capsys):
    code = main(
        ["grid", "--config", str(live_setup["config_path"]), "--metrics", CONTEXT_MRR]
    )
    assert code == EXIT_OK
    assert len(live_setup["stub"].calls("/generate")) == 0
    table = load_grid(live_setup["grid_path"], live_setup["space"])
    assert is_complete(table, CONTEXT_MRR, "dev")
    assert table.slice("dev", LEXICAL_AC).qids == ()
    # Recorded costs carry no generation tokens either.
    assert all(
        c.generation_input_tokens == 0 and c.generation_output_tokens == 0
        for c in table.costs.values()
    )


def _tiny_grid(live_setup, tiny_space, tmp_path, monkeypatch):
    """tiny_space with stock generative models, its table path, and a ``run()`` of its grid.

    ``run()`` returns the IndexConfigs the grid built, in build order, and
    keeps only a weak reference to each index. Building an index while an
    earlier one is alive fails the run, and so does writing the table, or
    returning, while any index is alive, and writing the table other than
    exactly once.
    """
    space = SearchSpace.from_dict(
        {**tiny_space.to_dict(), "generative_model": list(live_setup["space"].generative_models)}
    )
    (tmp_path / "tiny.json").write_text(json.dumps(space.to_dict()))
    out = tmp_path / "tiny_grid.jsonl"
    argv = ["grid", "--config", str(live_setup["config_path"]),
            "--space", str(tmp_path / "tiny.json"), "--out", str(out)]
    built, stored = [], []
    build_original, store_original = pipeline.build_index, cli.store_grid

    def alive() -> list:
        return [index_config for index_config, ref in built if ref() is not None]

    def build_index(corpus, index_config, *args, **kwargs):
        assert alive() == [], "an earlier index is alive"
        index, embedded_tokens = build_original(corpus, index_config, *args, **kwargs)
        built.append((index_config, weakref.ref(index)))
        return index, embedded_tokens

    def store_grid(*args):
        assert alive() == [], "an index is alive after the last ordinal"
        stored.append(args)
        return store_original(*args)

    def run() -> list:
        built.clear()
        stored.clear()
        gc.disable()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(pipeline, "build_index", build_index)
                patch.setattr(cli, "store_grid", store_grid)
                assert main(argv) == EXIT_OK
        finally:
            gc.enable()
        assert alive() == []
        assert len(stored) == 1
        return [index_config for index_config, _ in built]

    return space, out, run


def _indexes_of(space: SearchSpace, ordinals) -> list:
    return list(dict.fromkeys(space.config_at(o).index for o in ordinals))


def test_grid_holds_one_index_at_a_time(live_setup, tiny_space, tmp_path, monkeypatch):
    space, out, run = _tiny_grid(live_setup, tiny_space, tmp_path, monkeypatch)
    stub = live_setup["stub"]
    assert run() == _indexes_of(space, range(space.total_size))
    requests = {route: list(stub.calls(route)) for route in ("/embed", "/generate")}
    # The stub ignores the embedding model, so both models' cells render the same
    # prompts, and the reply store answers every prompt after its first request.
    prompts = [(call["model"], call["prompt"]) for call in requests["/generate"]]
    assert len(prompts) == len(set(prompts)) == 32

    # The same cells, in the same order, through one evaluator that keeps every
    # index, over a copy of the dataset with a reply store of its own.
    stub.server.calls.clear()
    args = argparse.Namespace(config=str(live_setup["config_path"]))
    config = cli._load_config(args.config)
    config["dataset"] = str(shutil.copytree(config["dataset"], tmp_path / "kept"))
    metrics = (LEXICAL_AC, FAITHFULNESS, CONTEXT_MRR)
    with cli._live_evaluator(args, config, space, metrics, 1) as evaluator:
        for ordinal in range(space.total_size):
            for split in ("dev", "test"):
                evaluator.fill(space.config_at(ordinal), split, metrics)
    assert len(evaluator._indices) == len(_indexes_of(space, range(space.total_size)))
    store_grid(evaluator.table, tmp_path / "kept.jsonl")
    assert out.read_bytes() == (tmp_path / "kept.jsonl").read_bytes()
    assert {route: list(stub.calls(route)) for route in requests} == requests

    # A re-run rebuilds every index and the whole table from the reply store alone.
    stub.server.calls.clear()
    assert run() == _indexes_of(space, range(space.total_size))
    assert out.read_bytes() == (tmp_path / "kept.jsonl").read_bytes()
    assert not stub.calls("/embed") and not stub.calls("/generate")


def test_optimize_live_backend_end_to_end(live_setup, tmp_path, capsys):
    out = tmp_path / "live_run.jsonl"
    code = main(
        [
            "optimize",
            "--config",
            str(live_setup["config_path"]),
            "--algo",
            "random",
            "--budget",
            "2",
            "--seeds",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "best configuration" in stdout
    record = load_run(out)
    assert len(record.seed_runs[0].history) == 2
    # Real generation happened and was charged.
    assert record.seed_runs[0].iterations[-1].cost.generation_input_tokens > 0


def test_optimize_live_evaluates_each_cell_once_across_seeds(live_setup, tmp_path):
    out = tmp_path / "live_run.jsonl"
    args = ["optimize", "--config", str(live_setup["config_path"]), "--algo", "random"]
    assert main(args + ["--budget", "2", "--seeds", "2", "--out", str(out)]) == EXIT_OK
    record = load_run(out)
    dev_cells = {t.config for sr in record.seed_runs for t in sr.history}
    test_cells = {it.best_ordinal for sr in record.seed_runs for it in sr.iterations}
    # Both seeds evaluate both configs: the second seed reuses the first's results.
    assert len(dev_cells) == 2
    assert len(live_setup["stub"].calls("/generate")) == len(dev_cells) * 2 + len(test_cells) * 1
    # The accounted spend still charges the second seed for both evaluations.
    first, second = (sr.iterations[-1].cost for sr in record.seed_runs)
    assert first == second and second.generation_input_tokens > 0


def test_optimize_live_with_dev_sampling(live_setup, tmp_path, capsys):
    config = json.loads(live_setup["config_path"].read_text())
    config["sample"] = {"qa_fraction": 0.5, "noise_ratio": 1, "seed": 3}
    config["out"] = str(tmp_path / "sampled_run.jsonl")
    config_path = tmp_path / "sampled.json"
    config_path.write_text(json.dumps(config))
    code = main(["optimize", "--config", str(config_path), "--algo", "random", "--budget", "2", "--seeds", "1"])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "sampled dev: 1 questions, corpus 2 docs" in stdout
    assert load_run(tmp_path / "sampled_run.jsonl").spec.budget == 2


def test_grid_suspends_on_service_outage_then_resumes(live_setup, capsys):
    live_setup["stub"].fail_next("/generate", 1000)
    code = main(["grid", "--config", str(live_setup["config_path"])])
    assert code == EXIT_SUSPENDED
    assert "resume" in capsys.readouterr().err
    assert not list(live_setup["grid_path"].parent.glob("grid.jsonl*"))

    live_setup["stub"].fail_next("/generate", 0)
    assert main(["grid", "--config", str(live_setup["config_path"])]) == EXIT_OK
    table = load_grid(live_setup["grid_path"], live_setup["space"])
    assert is_complete(table, LEXICAL_AC, "test")


class _Killed(BaseException):
    """Stands in for the process being killed: nothing in raghpo catches it."""


def _killed_at(monkeypatch, owner, name: str, calls: int, argv: list[str]) -> None:
    """Run ``main(argv)`` and kill it at call number ``calls`` (from 0) of ``owner.name``."""
    original = getattr(owner, name)
    count = itertools.count()

    def wrapper(*args):
        if next(count) == calls:
            raise _Killed
        return original(*args)

    with monkeypatch.context() as patch:
        patch.setattr(owner, name, wrapper)
        with pytest.raises(_Killed):
            main(argv)


def _judged_config(live_setup, tmp_path) -> Path:
    """The live config with a judge on the stub as well."""
    config = json.loads(live_setup["config_path"].read_text())
    config["endpoints"]["judge"] = config["endpoints"]["generate"]
    path = tmp_path / "judged.json"
    path.write_text(json.dumps(config))
    return path


def _answered(stub) -> dict[str, list[str]]:
    """Each request the stub answered, per route: one entry per embedded text."""
    return {
        "/embed": [
            json.dumps([call["model"], text])
            for call in stub.calls("/embed")
            for text in call["texts"]
        ],
        "/generate": [json.dumps(call, sort_keys=True) for call in stub.calls("/generate")],
        "/judge": [json.dumps(call, sort_keys=True) for call in stub.calls("/judge")],
    }


# (what is killed, its call number, how many /judge requests of the killed run
# came from a cell that had not finished). The grid has 4 cells, judged with
# 2, 1, 2 and 1 requests: call 4 of JudgeClient.score is the second judge
# request of the third cell, whose first request was answered.
KILL_POINTS = {
    "after 1 cell": (LivePipelineEvaluator, "fill", 1, 0),
    "after 3 cells": (LivePipelineEvaluator, "fill", 3, 0),
    "inside a cell's judge pass": (pipeline.JudgeClient, "score", 4, 1),
}


@pytest.mark.parametrize(
    "owner, name, calls, unfinished", KILL_POINTS.values(), ids=KILL_POINTS.keys()
)
def test_grid_rerun_after_kill_matches_uninterrupted_run(
    live_setup, tmp_path, monkeypatch, owner, name, calls, unfinished
):
    """The reply store is a killed grid run's only progress: the re-run sends no request
    answered in a cell the killed run finished, and writes the uninterrupted table."""
    stub, path = live_setup["stub"], live_setup["grid_path"]
    argv = ["grid", "--config", str(_judged_config(live_setup, tmp_path)),
            "--metrics", "lexical_ac,faithfulness,context_mrr,judge_ac"]
    dataset_path = json.loads(live_setup["config_path"].read_text())["dataset"]
    shutil.copytree(dataset_path, tmp_path / "fresh")
    reference = tmp_path / "reference.jsonl"
    assert main(argv + ["--dataset", str(tmp_path / "fresh"), "--out", str(reference)]) == EXIT_OK

    stub.server.calls.clear()
    _killed_at(monkeypatch, owner, name, calls, argv)
    killed = _answered(stub)
    assert all(killed.values())
    # A killed run writes no table.
    assert not list(path.parent.glob("grid.jsonl*"))

    stub.server.calls.clear()
    assert main(argv) == EXIT_OK
    rerun = _answered(stub)
    resent = {route: [r for r in rerun[route] if r in killed[route]] for route in rerun}
    uncommitted = killed["/judge"][len(killed["/judge"]) - unfinished :]
    assert resent == {"/embed": [], "/generate": [], "/judge": uncommitted}
    assert path.read_bytes() == reference.read_bytes()


def test_an_embed_outage_in_a_later_batch_keeps_the_earlier_batches(live_setup, tmp_path, capsys):
    stub = live_setup["stub"]
    from raghpo.dataio import Dataset, QaPair

    # Four distinct one-chunk documents: one /embed call of four batches of one text.
    corpus = tuple(make_document(f"d{i}", 8, word=f"w{i}x") for i in range(4))
    dev = tuple(
        QaPair(qid=f"q{i}", question=f"about d{i}", gold_answer="w0x0", gold_doc_ids=(f"d{i}",))
        for i in range(2)
    )
    test = (QaPair(qid="t0", question="closing", gold_answer="w1x1", gold_doc_ids=("d1",)),)
    store_dataset(Dataset(corpus=corpus, dev=dev, test=test), tmp_path / "four")
    config = json.loads(live_setup["config_path"].read_text())
    config.update(embed_batch_size=1, dataset=str(tmp_path / "four"))
    (tmp_path / "batched.json").write_text(json.dumps(config))
    argv = ["grid", "--config", str(tmp_path / "batched.json")]

    # The first batch is answered; every request after it fails, both attempts of batch 2 too.
    stub.override("/embed", lambda payload: stub.fail_next("/embed", 1000))
    assert main(argv) == EXIT_SUSPENDED
    assert "suspended" in capsys.readouterr().err
    texts = [doc.text for doc in corpus]
    assert [call["texts"] for call in stub.calls("/embed")] == [texts[:1]]

    stub.server.overrides.clear()
    stub.fail_next("/embed", 0)
    stub.server.calls.clear()
    assert main(argv) == EXIT_OK
    sent = [call["texts"] for call in stub.calls("/embed")]
    assert sent[:3] == [[text] for text in texts[1:]]
    assert all(texts[0] not in batch for batch in sent)


def _vectors(make):
    """An /embed reply with ``make(i, text, batch_size)`` as the vector of each text."""
    return lambda payload: {
        "vectors": [make(i, t, len(payload["texts"])) for i, t in enumerate(payload["texts"])]
    }


# (route, reply, part of the message, embedding batch size). The corpus is 6
# chunks with 2 distinct texts, "tok0 ... tok7" and "tok8 tok9", embedded once
# each: one batch of 2, or two batches of 1.
SUSPENDING_REPLIES = {
    "embed not json": ("/embed", lambda payload: b"<html>busy</html>", "not JSON", 4),
    "embed json array": ("/embed", lambda payload: [], "not an object", 4),
    "embed ragged": ("/embed", _vectors(lambda i, t, n: [1.0] * (1 + (i == 0))), "ragged", 4),
    "embed nan": ("/embed", _vectors(lambda i, t, n: [float("nan")] * 8), "NaN", 4),
    "embed dimension changes between batches": (
        "/embed",
        _vectors(lambda i, t, n: [1.0] * (2 + t.startswith("tok8"))),
        "vectors are 3-dimensional after 2-dimensional ones",
        1,
    ),
    "question dimension differs from index": (
        "/embed",
        _vectors(lambda i, t, n: [1.0, 0.5] if t.startswith(("about", "closing")) else [0.5] * 8),
        "vectors are 2-dimensional after 8-dimensional ones",
        4,
    ),
    "generate not json": (
        "/generate", lambda payload: b"Internal error", "every generation failed", 4
    ),
}


@pytest.mark.parametrize(
    "route, reply, message, batch_size",
    SUSPENDING_REPLIES.values(),
    ids=SUSPENDING_REPLIES.keys(),
)
@pytest.mark.parametrize("command", ["grid", "optimize"])
def test_malformed_service_reply_suspends_with_exit_3(
    live_setup, tmp_path, capsys, command, route, reply, message, batch_size
):
    config = json.loads(live_setup["config_path"].read_text())
    config["embed_batch_size"] = batch_size
    config["out"] = str(tmp_path / f"{command}.jsonl")
    config_path = tmp_path / "batched.json"
    config_path.write_text(json.dumps(config))
    live_setup["stub"].override(route, reply)
    argv = [command, "--config", str(config_path)]
    if command == "optimize":
        argv += ["--algo", "random", "--budget", "2", "--seeds", "1"]
    assert main(argv) == EXIT_SUSPENDED
    err = capsys.readouterr().err
    assert "suspended" in err
    assert message in err
    # Neither command writes anything; each resumes by re-running.
    assert not list(tmp_path.glob(f"{command}.jsonl*"))


#: case -> (the generate endpoint, message); ``{config}`` is the config file.
BAD_ENDPOINTS = {
    "no scheme": (
        {"base_url": "localhost:9"},
        "{config}: endpoints.generate: base_url must be an http:// or https:// URL",
    ),
    "no base_url": ({"timeout": 5.0}, "{config}: endpoints.generate: endpoint lacks field 'base_url'"),
    "a string": (
        "http://127.0.0.1:9", _wrong_type("endpoints", "generate", "http://127.0.0.1:9")
    ),
    "timeout not a number": (
        {"base_url": "http://127.0.0.1:9", "timeout": "fast"},
        _wrong_type("endpoint", "timeout", "fast", "{config}: endpoints.generate"),
    ),
    # Each is past what a socket timeout or time.sleep accepts.
    "timeout too long": (
        {"base_url": "http://127.0.0.1:9", "timeout": 1e10},
        "{config}: endpoints.generate: timeout must be > 0 and <= 4611686018, got 10000000000.0",
    ),
    "backoff infinite": (
        {"base_url": "http://127.0.0.1:9", "backoff_seconds": float("inf")},
        "{config}: endpoints.generate: backoff_seconds must be >= 0 and <= 4611686018, got inf",
    ),
    "auth_env a lone surrogate": (
        {"base_url": "http://127.0.0.1:9", "auth_env": "\ud800"},
        "{config}: endpoints.generate: endpoint field 'auth_env' is not valid Unicode text",
    ),
}


@pytest.mark.parametrize("endpoint, message", BAD_ENDPOINTS.values(), ids=BAD_ENDPOINTS.keys())
@pytest.mark.parametrize("command", ["grid", "optimize"])
def test_bad_endpoint_exits_2_before_writing(live_setup, tmp_path, capsys, command, endpoint, message):
    config = json.loads(live_setup["config_path"].read_text())
    config["endpoints"]["generate"] = endpoint
    config["out"] = str(tmp_path / f"{command}.jsonl")
    config_path = tmp_path / "bad_endpoint.json"
    config_path.write_text(json.dumps(config))
    argv = [command, "--config", str(config_path)]
    if command == "optimize":
        argv += ["--algo", "random", "--budget", "2", "--seeds", "1"]
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"error: {message.format(config=config_path)}")
    assert not list(tmp_path.glob(f"{command}.jsonl*"))  # no table, no export
    assert _sent(live_setup["stub"]) == {"/embed": [], "/generate": []}


@pytest.mark.parametrize("command", ["grid", "optimize"])
def test_an_auth_env_that_is_not_a_string_exits_2_before_any_request(live_setup, tmp_path, capsys, command):
    config = json.loads(live_setup["config_path"].read_text())
    config["endpoints"]["embed"]["auth_env"] = 5
    config_path = tmp_path / "bad_auth_env.json"
    config_path.write_text(json.dumps(config))
    argv = [command, "--config", str(config_path)]
    if command == "optimize":
        argv += ["--algo", "random", "--budget", "2", "--seeds", "1"]
    assert main(argv) == EXIT_VALIDATION
    message = _wrong_type("endpoint", "auth_env", 5, f"{config_path}: endpoints.embed")
    assert capsys.readouterr().err == f"error: {message}\n"
    assert _sent(live_setup["stub"]) == {"/embed": [], "/generate": []}


# ---------------------------------------------------------------------------
# Reply store
# ---------------------------------------------------------------------------


def _replies_of(live_setup) -> Path:
    return Path(json.loads(live_setup["config_path"].read_text())["dataset"] + ".replies.sqlite3")


def _optimize_argv(live_setup, out: Path, seeds: int = 2) -> list[str]:
    return ["optimize", "--config", str(live_setup["config_path"]), "--algo", "random",
            "--budget", "2", "--seeds", str(seeds), "--out", str(out)]


def _sent(stub) -> dict[str, list]:
    return {route: list(stub.calls(route)) for route in ("/embed", "/generate")}


def test_second_live_optimize_sends_no_request_and_writes_the_same_export(live_setup, tmp_path):
    stub, out = live_setup["stub"], tmp_path / "run.jsonl"
    assert main(_optimize_argv(live_setup, out)) == EXIT_OK
    first = out.read_bytes()
    assert all(_sent(stub).values())
    stub.server.calls.clear()
    assert main(_optimize_argv(live_setup, out)) == EXIT_OK
    assert _sent(stub) == {"/embed": [], "/generate": []}
    assert out.read_bytes() == first
    assert _replies_of(live_setup).is_file()


def test_second_grid_into_a_fresh_out_sends_no_request(live_setup, tmp_path):
    stub = live_setup["stub"]
    argv = ["grid", "--config", str(live_setup["config_path"]), "--out"]
    assert main(argv + [str(tmp_path / "first.jsonl")]) == EXIT_OK
    stub.server.calls.clear()
    assert main(argv + [str(tmp_path / "second.jsonl")]) == EXIT_OK
    assert _sent(stub) == {"/embed": [], "/generate": []}
    assert (tmp_path / "second.jsonl").read_bytes() == (tmp_path / "first.jsonl").read_bytes()


def test_reply_store_keys_on_the_embedding_model(live_setup, tmp_path):
    stub = live_setup["stub"]
    space = SearchSpace.from_dict(
        {**live_setup["space"].to_dict(), "embedding_model": ["emb-a", "emb-b"]}
    )
    (tmp_path / "two_models.json").write_text(json.dumps(space.to_dict()))
    argv = ["grid", "--config", str(live_setup["config_path"]),
            "--space", str(tmp_path / "two_models.json"), "--metrics", "context_mrr", "--out"]
    assert main(argv + [str(tmp_path / "first.jsonl")]) == EXIT_OK
    sent = {"emb-a": [], "emb-b": []}
    for call in stub.calls("/embed"):
        sent[call["model"]] += call["texts"]
    # The stub gives both models the same vectors; each still gets every text, once.
    assert sorted(sent["emb-a"]) == sorted(set(sent["emb-a"])) == sorted(sent["emb-b"])
    stub.server.calls.clear()
    assert main(argv + [str(tmp_path / "second.jsonl")]) == EXIT_OK
    assert stub.calls("/embed") == []


def _fail_first_prompt_twice_with_500(stub):
    stub.fail_next("/generate", 2)  # both attempts of the first request
    return lambda: json.loads(stub.received("/generate")[0][1])["prompt"]


def _fail_first_prompt_with(body):
    """A ``fail`` that answers the first prompt with ``body``, every time it is sent."""

    def fail(stub):
        failed = []

        def reply(payload):
            failed[:] = failed or [payload["prompt"]]
            return body if payload["prompt"] == failed[0] else None

        stub.override("/generate", reply)
        return lambda: failed[0]

    return fail


@pytest.mark.parametrize(
    "fail",
    [
        _fail_first_prompt_twice_with_500,
        _fail_first_prompt_with(b"not json"),
        _fail_first_prompt_with({"text": "an answer", "input_tokens": -5, "output_tokens": 3}),
    ],
    ids=["HTTP 500", "not JSON", "negative token count"],
)
def test_a_failed_generation_is_not_stored_and_costs_one_request_on_rerun(
    live_setup, tmp_path, fail
):
    stub, out = live_setup["stub"], tmp_path / "run.jsonl"
    # One seed, so the run evaluates the failed question's cell only once.
    argv = _optimize_argv(live_setup, out, seeds=1)
    dataset_path = json.loads(live_setup["config_path"].read_text())["dataset"]
    shutil.copytree(dataset_path, tmp_path / "fresh")
    failed_prompt = fail(stub)
    assert main(argv) == EXIT_OK
    failed_prompt = failed_prompt()
    stub.server.overrides.clear()
    stub.server.calls.clear()
    assert main(argv) == EXIT_OK
    assert [call["prompt"] for call in stub.calls("/generate")] == [failed_prompt]
    assert stub.calls("/embed") == []
    # The rerun exports what a run that never failed does, on a store of its own.
    clean = tmp_path / "clean.jsonl"
    assert main(_optimize_argv(live_setup, clean, seeds=1) + ["--dataset", str(tmp_path / "fresh")]) == EXIT_OK
    assert out.read_bytes() == clean.read_bytes()


def _judged_optimize_argv(live_setup, tmp_path, out: Path, dataset: Path | None = None) -> list[str]:
    argv = ["optimize", "--config", str(_judged_config(live_setup, tmp_path)), "--algo", "random",
            "--budget", "2", "--seeds", "1", "--objective", "judge_ac", "--out", str(out)]
    return argv + (["--dataset", str(dataset)] if dataset else [])


def test_second_judged_optimize_sends_no_request_and_writes_the_same_export(live_setup, tmp_path):
    stub, out = live_setup["stub"], tmp_path / "run.jsonl"
    argv = _judged_optimize_argv(live_setup, tmp_path, out)
    assert main(argv) == EXIT_OK
    first = out.read_bytes()
    assert stub.calls("/judge")
    stub.server.calls.clear()
    assert main(argv) == EXIT_OK
    assert _sent(stub) == {"/embed": [], "/generate": []} and stub.calls("/judge") == []
    assert out.read_bytes() == first


def _fail_first_judge_request_twice_with_500(stub):
    stub.fail_next("/judge", 2)  # both attempts of the first request
    return lambda: json.loads(stub.received("/judge")[0][1])


def _answer_first_judge_request_with(body):
    """A ``fail`` that answers the first judge request with ``body``, every time it is sent."""

    def fail(stub):
        failed = []

        def reply(payload):
            failed[:] = failed or [payload]
            return body if payload == failed[0] else None

        stub.override("/judge", reply)
        return lambda: failed[0]

    return fail


@pytest.mark.parametrize(
    "fail",
    [
        _fail_first_judge_request_twice_with_500,
        _answer_first_judge_request_with({"score": True}),
        _answer_first_judge_request_with({"score": 1.5}),
    ],
    ids=["HTTP 500", "boolean score", "score above 1"],
)
def test_a_failed_judge_call_is_not_stored_and_is_resent_once(
    live_setup, tmp_path, fail
):
    stub, out = live_setup["stub"], tmp_path / "run.jsonl"
    dataset_path = json.loads(live_setup["config_path"].read_text())["dataset"]
    shutil.copytree(dataset_path, tmp_path / "fresh")
    argv = _judged_optimize_argv(live_setup, tmp_path, out)
    failed = fail(stub)
    assert main(argv) == EXIT_OK
    failed = failed()
    stub.server.overrides.clear()
    stub.server.calls.clear()
    assert main(argv) == EXIT_OK
    assert stub.calls("/judge") == [failed]
    assert _sent(stub) == {"/embed": [], "/generate": []}
    # The rerun exports what a run that never failed does, on a store of its own.
    clean = tmp_path / "clean.jsonl"
    assert main(_judged_optimize_argv(live_setup, tmp_path, clean, tmp_path / "fresh")) == EXIT_OK
    assert out.read_bytes() == clean.read_bytes()


def test_a_rerun_after_an_outage_sends_no_answered_request_and_exports_the_uninterrupted_run(
    live_setup, tmp_path
):
    stub, out = live_setup["stub"], tmp_path / "run.jsonl"
    argv = _optimize_argv(live_setup, out)
    dataset_path = json.loads(live_setup["config_path"].read_text())["dataset"]
    shutil.copytree(dataset_path, tmp_path / "fresh")
    # Seed 1 generates its first dev cell (2 prompts) and that cell on test (1);
    # every later prompt gets a body that is not JSON, so its second dev cell fails whole.
    answered = []
    stub.override(
        "/generate",
        lambda payload: answered.append(payload["prompt"]) if len(answered) < 3 else b"not json",
    )
    assert main(argv) == EXIT_SUSPENDED
    assert not list(tmp_path.glob(out.name + "*"))
    failed = [call["prompt"] for call in stub.calls("/generate")[3:]]
    embedded = {text for call in stub.calls("/embed") for text in call["texts"]}
    assert len(answered) == 3 and len(failed) == 2 and embedded

    stub.server.overrides.clear()
    stub.server.calls.clear()
    assert main(argv) == EXIT_OK
    assert not {text for call in stub.calls("/embed") for text in call["texts"]} & embedded
    resent = [call["prompt"] for call in stub.calls("/generate")]
    assert resent[:2] == failed and not set(resent) & set(answered)
    # The same command on a copy of the dataset, with a store of its own, never failed.
    clean = tmp_path / "clean.jsonl"
    assert main(_optimize_argv(live_setup, clean) + ["--dataset", str(tmp_path / "fresh")]) == EXIT_OK
    assert out.read_bytes() == clean.read_bytes()


@pytest.mark.parametrize(
    "body",
    [b"not json", {"vectors": [[True, False]]}, {"vectors": [["1", "2.5"]]}, {"vectors": [[True, 1.5]]}],
    ids=["not JSON", "booleans", "numeric strings", "a boolean among numbers"],
)
def test_a_failed_embed_reply_is_not_stored(live_setup, tmp_path, capsys, body):
    stub, out = live_setup["stub"], tmp_path / "run.jsonl"
    # The test question's embedding fails; the chunks' and dev questions' are stored.
    stub.override("/embed", lambda payload: body if "closing" in payload["texts"] else None)
    assert main(_optimize_argv(live_setup, out)) == EXIT_SUSPENDED
    assert "run suspended" in capsys.readouterr().err
    refused = [call for call in stub.calls("/embed") if "closing" in call["texts"]]
    assert refused and len(refused) < len(stub.calls("/embed"))
    stub.server.overrides.clear()
    stub.server.calls.clear()
    assert main(_optimize_argv(live_setup, out)) == EXIT_OK
    assert stub.calls("/embed") == refused


def _route_of(row: bytes) -> str:
    """The route whose reply a stub-made store row holds."""
    return "/generate" if row.startswith(b"[") else "/judge" if row == b"0.5" else "/embed"


#: case -> (route, what replaces the first of that route's rows)
SPOILED_ROWS = {
    "embed no bytes": ("/embed", lambda row: b""),
    "embed cut short": ("/embed", lambda row: row[:-3]),
    "embed nan": ("/embed", lambda row: row[:-8] + struct.pack("<d", float("nan"))),
    "generate string count": ("/generate", lambda row: b'["t", "x", 1, false]'),
    "generate negative count": ("/generate", lambda row: b'["t", -1, 1, false]'),
    "generate flag not a boolean": ("/generate", lambda row: b'["t", 1, 1, "yes"]'),
    "generate wrong shape": ("/generate", lambda row: b'["t", 1, 1]'),
    "judge past 1": ("/judge", lambda row: b"2.5"),
    "judge boolean": ("/judge", lambda row: b"true"),
    "judge not json": ("/judge", lambda row: b"half"),
}


@pytest.mark.parametrize("route, spoil", SPOILED_ROWS.values(), ids=SPOILED_ROWS.keys())
def test_a_spoiled_store_row_exits_2_naming_the_store_until_the_store_is_deleted(
    live_setup, tmp_path, capsys, route, spoil
):
    stub, replies = live_setup["stub"], _replies_of(live_setup)
    argv = ["grid", "--config", str(_judged_config(live_setup, tmp_path)), "--out"]
    assert main(argv + [str(tmp_path / "clean.jsonl")]) == EXIT_OK
    with contextlib.closing(sqlite3.connect(replies)) as db, db:
        key, row = next(
            (key, row) for key, row in db.execute("SELECT key, reply FROM replies ORDER BY key")
            if _route_of(row) == route
        )
        db.execute("UPDATE replies SET reply = ? WHERE key = ?", (spoil(row), key))
    stub.server.calls.clear()
    capsys.readouterr()
    assert main(argv + [str(tmp_path / "spoiled.jsonl")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: reply store {replies}: a {route} row is not a valid reply (")
    assert err.endswith("; delete the file to send its requests again\n")
    assert stub.server.calls == {}
    assert not list(tmp_path.glob("spoiled.jsonl*"))
    # Once the store is deleted, the run is the one a clean store gives.
    for path in replies.parent.glob(replies.name + "*"):
        path.unlink()
    assert main(argv + [str(tmp_path / "spoiled.jsonl")]) == EXIT_OK
    assert (tmp_path / "spoiled.jsonl").read_bytes() == (tmp_path / "clean.jsonl").read_bytes()


def test_a_store_locked_by_another_writer_exits_2_naming_it(live_setup, tmp_path, capsys):
    replies = _replies_of(live_setup)
    store = pipeline.ReplyStore(replies)
    store.put(pipeline.EMBED, "another model", ["x"], [[1.0]])
    store.close()
    out = tmp_path / "grid.jsonl"
    with contextlib.closing(sqlite3.connect(replies, isolation_level=None)) as db:
        db.execute("BEGIN IMMEDIATE")  # holds the write lock until the connection closes
        started = time.monotonic()
        code = main(["grid", "--config", str(live_setup["config_path"]), "--out", str(out)])
        waited = time.monotonic() - started
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: reply store {replies}: database is locked\n"
    assert waited < 30  # SQLite's 5 s busy timeout, not a hang
    assert not list(tmp_path.glob("grid.jsonl*"))


def _garbage(path: Path) -> None:
    path.write_bytes(b"this is not a database\n" * 64)


def _directory(path: Path) -> None:
    path.mkdir()


def _unwritable_parent(path: Path) -> None:
    if os.geteuid() == 0:
        pytest.skip("permission bits do not bind the root user")
    path.parent.chmod(0o555)


def _symlink_below_a_file(path: Path) -> None:
    # No file can be created below a regular file, whoever the user is.
    afile = path.parent / "afile"
    afile.write_text("a file, not a directory")
    path.symlink_to(afile / "x.sqlite3")


@pytest.mark.parametrize(
    "spoil", [_garbage, _directory, _unwritable_parent, _symlink_below_a_file],
    ids=["garbage bytes", "a directory in its place", "unwritable parent directory",
         "a symlink below a regular file"],
)
def test_an_unusable_reply_store_is_one_warning_and_changes_no_output(
    live_setup, tmp_path, caplog, spoil
):
    reference = tmp_path / "reference.jsonl"
    assert main(_optimize_argv(live_setup, reference)) == EXIT_OK
    replies = _replies_of(live_setup)
    for path in replies.parent.glob(replies.name + "*"):
        path.unlink()
    out = tmp_path / "out" / "run.jsonl"
    out.parent.mkdir()
    mode = replies.parent.stat().st_mode
    spoil(replies)
    spoiled = replies.read_bytes() if replies.is_file() else None
    caplog.clear()
    try:
        code = main(_optimize_argv(live_setup, out))
    finally:
        replies.parent.chmod(mode)
    assert code == EXIT_OK
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1 and str(replies) in warnings[0]
    assert out.read_bytes() == reference.read_bytes()
    if spoiled is not None:
        assert replies.read_bytes() == spoiled


@pytest.mark.parametrize("new_questions", ["one", "every"])
def test_a_stored_row_of_another_dimension_suspends_naming_the_store(
    live_setup, tmp_path, capsys, new_questions
):
    stub, out = live_setup["stub"], tmp_path / "run.jsonl"
    assert main(_optimize_argv(live_setup, out)) == EXIT_OK
    dataset_path = json.loads(live_setup["config_path"].read_text())["dataset"]
    dataset = load_dataset(dataset_path)
    # One new dev question mixes 3- and 8-dimensional rows in one split; when
    # every question is new, the 3-dimensional questions meet an 8-dimensional index.
    renamed = dataset.dev[:1] if new_questions == "one" else dataset.dev + dataset.test
    changed = {qa.qid: replace(qa, question=qa.question + " again") for qa in renamed}
    store_dataset(
        replace(
            dataset,
            dev=tuple(changed.get(qa.qid, qa) for qa in dataset.dev),
            test=tuple(changed.get(qa.qid, qa) for qa in dataset.test),
        ),
        dataset_path,
    )
    # The service now embeds in 3 dimensions; stored rows have 8.
    stub.override("/embed", _vectors(lambda i, t, n: [1.0, 0.5, 0.25]))
    capsys.readouterr()
    assert main(_optimize_argv(live_setup, out)) == EXIT_SUSPENDED
    assert str(_replies_of(live_setup)) in capsys.readouterr().err


def test_replay_and_analyze_open_no_reply_store(tmp_path, fixture_table):
    script = (
        "import sys\n"
        "from raghpo.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print('sqlite3' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    for argv in (
        ["optimize", "--grid", str(fixture_table), "--algo", "random", "--budget", "3",
         "--seeds", "1", "--out", str(tmp_path / "run.jsonl")],
        ["analyze", "--table", str(fixture_table), "--run", str(tmp_path / "run.jsonl"),
         "--out", str(tmp_path / "analysis")],
    ):
        done = subprocess.run([sys.executable, "-c", script, *argv], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"
    assert not list(tmp_path.rglob("*.replies.sqlite3*"))


def test_greedy_rcc_without_dev_gold_labels_exits_2_before_any_request(live_setup, tmp_path, capsys):
    stub = live_setup["stub"]
    dataset_path = json.loads(live_setup["config_path"].read_text())["dataset"]
    dataset = load_dataset(dataset_path)
    dev = tuple(replace(qa, gold_doc_ids=()) for qa in dataset.dev)
    store_dataset(replace(dataset, dev=dev), dataset_path)
    argv = _optimize_argv(live_setup, tmp_path / "run.jsonl") + ["--algo", "greedy_rcc"]
    assert main(argv) == EXIT_VALIDATION
    assert "greedy_rcc needs retrieval quality on the dev split" in capsys.readouterr().err
    assert _sent(stub) == {"/embed": [], "/generate": []}
    assert not list(tmp_path.rglob("*.replies.sqlite3*"))
    assert not list(tmp_path.glob("run.jsonl*"))


def _untemplated_space(live_setup, tmp_path) -> Path:
    path = tmp_path / "untemplated.json"
    path.write_text(json.dumps({**live_setup["space"].to_dict(), "generative_model": ["my-model", "other"]}))
    return path


@pytest.mark.parametrize(
    "command", [["optimize", "--algo", "random", "--budget", "2", "--seeds", "1"], ["grid", "--metrics", LEXICAL_AC]]
)
def test_a_model_with_no_prompt_template_exits_2_before_any_request(live_setup, tmp_path, capsys, command):
    out = tmp_path / "out.jsonl"
    argv = [*command, "--config", str(live_setup["config_path"]),
            "--space", str(_untemplated_space(live_setup, tmp_path)), "--out", str(out)]
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: no prompt template registered for model 'my-model'; ")
    assert _sent(live_setup["stub"]) == {"/embed": [], "/generate": []}
    assert not list(tmp_path.rglob("*.replies.sqlite3*"))
    assert not list(tmp_path.glob("out.jsonl*"))


def test_a_retrieval_only_grid_needs_no_prompt_template(live_setup, tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    argv = ["grid", "--config", str(live_setup["config_path"]), "--metrics", CONTEXT_MRR,
            "--space", str(_untemplated_space(live_setup, tmp_path)), "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert "evaluated 4 (config, split) cells" in capsys.readouterr().out
    assert live_setup["stub"].calls("/generate") == []


def test_a_live_optimize_whose_service_is_down_keeps_no_store_file(live_setup, tmp_path, capsys):
    config = json.loads(live_setup["config_path"].read_text())
    down = {"base_url": "http://127.0.0.1:9", "max_attempts": 1}
    config["endpoints"] = {"embed": down, "generate": down}
    config_path = tmp_path / "down.json"
    config_path.write_text(json.dumps(config))
    argv = ["optimize", "--config", str(config_path), "--algo", "random", "--budget", "2",
            "--seeds", "1", "--out", str(tmp_path / "run.jsonl")]
    assert main(argv) == EXIT_SUSPENDED
    assert "run suspended" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.replies.sqlite3*"))
    assert not list(tmp_path.glob("run.jsonl*"))


def test_a_lone_surrogate_in_a_dataset_exits_2_naming_its_line_and_writes_nothing(
    live_setup, tmp_path, capsys
):
    dataset_path = Path(json.loads(live_setup["config_path"].read_text())["dataset"])
    bench = dataset_path / "benchmark.jsonl"
    lines = bench.read_text().splitlines(keepends=True)
    record = json.loads(lines[1])
    record["question"] += " \ud800"
    lines[1] = json.dumps(record) + "\n"  # spelled as the escape \ud800
    bench.write_text("".join(lines))
    message = f"error: {bench}:2: benchmark row field 'question' is not valid Unicode text\n"
    sampled = tmp_path / "sampled"
    argv = ["sample", "--dataset", str(dataset_path), "--out", str(sampled),
            "--fraction", "0.5", "--noise", "1", "--seed", "1"]
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err == message
    assert not sampled.exists()
    grid_out = tmp_path / "table.jsonl"
    assert main(["grid", "--config", str(live_setup["config_path"]), "--out", str(grid_out)]) == (
        EXIT_VALIDATION
    )
    assert capsys.readouterr().err == message
    assert not list(tmp_path.glob("table.jsonl*"))
    assert not list(tmp_path.rglob("*.replies.sqlite3*"))
    assert _sent(live_setup["stub"]) == {"/embed": [], "/generate": []}
