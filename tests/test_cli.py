import gc
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

from raghpo import cli, pipeline
from raghpo.cli import EXIT_OK, EXIT_SUSPENDED, EXIT_VALIDATION, _build_live_evaluator, main
from raghpo.dataio import load_dataset, load_grid, store_dataset, store_grid
from raghpo.evaluator import GridReplayEvaluator
from raghpo.harness import load_run
from raghpo.metrics import CONTEXT_MRR, FAITHFULNESS, LEXICAL_AC
from raghpo.pipeline import LivePipelineEvaluator, ServiceFailure
from raghpo.searchspace import SearchSpace

from conftest import fill_table, is_complete, make_document, table_from_config_scores

GOLDEN_DIR = Path(__file__).parent / "golden"


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
    code = main(["optimize", "--backend", "grid-replay"])
    assert code == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err


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


def _unsuggested_ordinal(rows):
    # Rows 11 on are seed 2's, which is in flight; give its iteration 2 an
    # ordinal no row has.
    used = {row["ordinal"] for row in rows[1:]}
    rows[12]["ordinal"] = next(i for i in range(162) if i not in used)


def _old_checkpoint_object(rows):
    # The single JSON object checkpoints were before they became run exports.
    header, trials = rows[0], rows[1:]
    rows[:] = [
        {
            **header,
            "kind": "run_checkpoint",
            "completed": [{"seed": 1, "trials": [r for r in trials if r["seed"] == 1]}],
            "current": {"seed": 2, "trials": [r for r in trials if r["seed"] == 2]},
        }
    ]


DAMAGED_CHECKPOINTS = {
    "trial row without driver": (lambda rows: rows[1].pop("driver"), ":2: trial row lacks field 'driver'"),
    "ordinal the optimizer would not suggest": (
        _unsuggested_ordinal,
        ": seed 2 iteration 2: the checkpoint records ordinal",
    ),
    "duplicated iteration": (
        lambda rows: rows[2].update(iteration=1),
        ":3: seed 1: iterations must be consecutive from 1; got 1 after 1 trials",
    ),
    "old run_checkpoint object": (_old_checkpoint_object, ":1: unknown row kind 'run_checkpoint'"),
}


@pytest.mark.parametrize("damage, message", DAMAGED_CHECKPOINTS.values(), ids=DAMAGED_CHECKPOINTS.keys())
def test_damaged_checkpoint_exits_2_naming_its_path(
    tmp_path, fixture_table, capsys, monkeypatch, damage, message
):
    out = tmp_path / "run.jsonl"
    argv = ["optimize", "--grid", str(fixture_table), "--algo", "greedy_m", "--budget", "10",
            "--seeds", "3", "--out", str(out)]
    calls = itertools.count()
    original = GridReplayEvaluator.evaluate

    def evaluate(self, *args):
        if next(calls) == 18:
            raise ServiceFailure("injected outage")
        return original(self, *args)

    with monkeypatch.context() as patched:
        patched.setattr(GridReplayEvaluator, "evaluate", evaluate)
        assert main(argv) == EXIT_SUSPENDED
    checkpoint = tmp_path / "run.jsonl.checkpoint"
    rows = [json.loads(line) for line in checkpoint.read_text().splitlines()]
    assert [row["seed"] for row in rows[1:]] == [1] * 10 + [2] * (len(rows) - 11)
    assert len(rows) >= 13  # seed 2 is in flight with two rows or more
    damage(rows)
    checkpoint.write_text("".join(json.dumps(row) + "\n" for row in rows))
    capsys.readouterr()

    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: {checkpoint}")
    assert message in err
    assert not out.exists()


#: case -> (command, backend, config values, message)
BAD_RUN_CONFIG_VALUES = {
    "parallelism": ("optimize", "replay", {"parallelism": "two"}, "parallelism: expected int, got 'two'"),
    "budget": ("optimize", "replay", {"budget": "ten"}, "budget: expected int, got 'ten'"),
    "seeds": ("optimize", "replay", {"seeds": "1,x"}, "seeds: expected int, got 'x'"),
    "tpe gamma": ("optimize", "replay", {"tpe": {"gamma": "x"}}, "tpe.gamma: expected float, got 'x'"),
    "tpe init": ("optimize", "replay", {"tpe": {"init": [2]}}, "tpe.init: expected int, got [2]"),
    "tpe not an object": ("optimize", "replay", {"tpe": "x"}, "tpe: expected an object, got 'x'"),
    "greedy not an object": (
        "optimize", "replay", {"greedy": ["x"]}, "greedy: expected an object, got ['x']"
    ),
    "space a list": (
        "optimize", "replay", {"space": [1]},
        "space: expected a search-space file path or object, got [1]",
    ),
    "objective without metrics": (
        "optimize", "replay", {"objective": {"weights": [1]}},
        "objective.metrics: expected a list of metric names, got None",
    ),
    "objective metrics a string": (
        "optimize", "replay", {"objective": {"metrics": "lexical_ac"}},
        "objective.metrics: expected a list of metric names, got 'lexical_ac'",
    ),
    "objective list holding a number": (
        "optimize", "replay", {"objective": ["lexical_ac", 3]},
        "objective: expected a list of metric names, got ['lexical_ac', 3]",
    ),
    "objective weight": (
        "optimize", "replay", {"objective": {"metrics": ["lexical_ac"], "weights": ["x"]}},
        "objective.weights: expected float, got 'x'",
    ),
    "sample fraction": (
        "optimize", "live", {"sample": {"qa_fraction": "half", "noise_ratio": 1, "seed": 1}},
        "sample.qa_fraction: expected float, got 'half'",
    ),
    "sample seed missing": (
        "optimize", "live", {"sample": {"qa_fraction": 0.5, "noise_ratio": 1}},
        "sample.seed: expected int, got None",
    ),
    "grid parallelism": ("grid", "live", {"parallelism": "two"}, "parallelism: expected int, got 'two'"),
    "grid embed_batch_size": (
        "grid", "live", {"embed_batch_size": "x"}, "embed_batch_size: expected int, got 'x'"
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
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.glob("out.jsonl*"))


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
    assert all("mean_test" in line for line in lines)


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


def test_analyze_incomplete_table_fails(tmp_path, default_space, capsys):
    from raghpo.dataio import GridTable

    table = GridTable(space_fingerprint=default_space.fingerprint())
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
        ("ordinal", float("inf"), "cannot convert float infinity to integer"),
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
        "{path}: ",
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
        assert is_complete(table, metric, "dev", 2)
        assert is_complete(table, metric, "test", 2)
    assert "evaluated 4 (config, split) cells" in capsys.readouterr().out


def test_grid_complete_table_is_noop(live_setup, capsys):
    assert main(["grid", "--config", str(live_setup["config_path"])]) == EXIT_OK
    capsys.readouterr()
    generate_calls = len(live_setup["stub"].calls("/generate"))
    assert main(["grid", "--config", str(live_setup["config_path"])]) == EXIT_OK
    assert "already complete" in capsys.readouterr().out
    assert len(live_setup["stub"].calls("/generate")) == generate_calls


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
    assert "already complete" in capsys.readouterr().out
    assert len(live_setup["stub"].calls("/generate")) == generate_calls


def test_grid_retrieval_only_metrics_skip_generation(live_setup, capsys):
    code = main(
        ["grid", "--config", str(live_setup["config_path"]), "--metrics", CONTEXT_MRR]
    )
    assert code == EXIT_OK
    assert len(live_setup["stub"].calls("/generate")) == 0
    table = load_grid(live_setup["grid_path"], live_setup["space"])
    assert is_complete(table, CONTEXT_MRR, "dev", 2)
    assert table.slice("dev", LEXICAL_AC, 2).qids == ()
    # Recorded costs carry no generation tokens either.
    assert all(
        c.generation_input_tokens == 0 and c.generation_output_tokens == 0
        for c in table.costs.values()
    )


def test_grid_resume_fills_only_gaps(live_setup, capsys):
    assert main(["grid", "--config", str(live_setup["config_path"])]) == EXIT_OK
    capsys.readouterr()
    # Drop one config's dev score rows; resume must evaluate exactly that cell.
    path = live_setup["grid_path"]
    lines = path.read_text().splitlines(keepends=True)
    kept = [
        line
        for line in lines
        if not ('"ordinal":1,' in line and '"split":"dev"' in line and '"score"' in line)
    ]
    assert len(lines) - len(kept) == 6  # 3 metrics x 2 dev questions
    path.write_text("".join(kept))
    assert main(["grid", "--config", str(live_setup["config_path"])]) == EXIT_OK
    assert "evaluated 1 (config, split) cells" in capsys.readouterr().out
    restored = load_grid(path, live_setup["space"])
    assert is_complete(restored, LEXICAL_AC, "dev", 2)
    assert path.read_text() == "".join(lines)


def _tiny_grid(live_setup, tiny_space, tmp_path, monkeypatch):
    """tiny_space with stock generative models, its table path, and a ``run()`` of its grid.

    ``run()`` returns the IndexConfigs the grid built, in build order, and
    keeps only a weak reference to each index. Building an index while an
    earlier one is alive fails the run, and so does writing the table, or
    returning, while any index is alive.
    """
    space = SearchSpace.from_dict(
        {**tiny_space.to_dict(), "generative_model": list(live_setup["space"].generative_models)}
    )
    (tmp_path / "tiny.json").write_text(json.dumps(space.to_dict()))
    out = tmp_path / "tiny_grid.jsonl"
    argv = ["grid", "--config", str(live_setup["config_path"]),
            "--space", str(tmp_path / "tiny.json"), "--out", str(out)]
    built = []
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
        return store_original(*args)

    def run() -> list:
        built.clear()
        gc.disable()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(pipeline, "build_index", build_index)
                patch.setattr(cli, "store_grid", store_grid)
                assert main(argv) == EXIT_OK
        finally:
            gc.enable()
        assert alive() == []
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
    # index, with a reply store of its own.
    stub.server.calls.clear()
    config = json.loads(live_setup["config_path"].read_text())
    evaluator = _build_live_evaluator(
        config, load_dataset(config["dataset"]), space, 1, tmp_path / "kept.replies.sqlite3"
    )
    for ordinal in range(space.total_size):
        for split in ("dev", "test"):
            evaluator.fill(space.config_at(ordinal), split, (LEXICAL_AC, FAITHFULNESS, CONTEXT_MRR))
    evaluator.replies.close()
    assert len(evaluator._indices) == len(_indexes_of(space, range(space.total_size)))
    store_grid(evaluator.table, tmp_path / "kept.jsonl")
    assert out.read_bytes() == (tmp_path / "kept.jsonl").read_bytes()
    assert {route: list(stub.calls(route)) for route in requests} == requests


def test_grid_resume_builds_no_index_for_complete_cells(
    live_setup, tiny_space, tmp_path, monkeypatch
):
    space, out, run = _tiny_grid(live_setup, tiny_space, tmp_path, monkeypatch)
    run()
    complete = out.read_bytes()
    # Keep the header and every row of the first three indexes' ordinals.
    first = 3 * space.total_size // len(_indexes_of(space, range(space.total_size)))
    out.write_text(
        "".join(
            line
            for line in complete.decode().splitlines(keepends=True)
            if json.loads(line).get("ordinal", -1) < first
        )
    )
    assert run() == _indexes_of(space, range(first, space.total_size))
    assert out.read_bytes() == complete


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
    assert live_setup["grid_path"].is_file()

    live_setup["stub"].fail_next("/generate", 0)
    assert main(["grid", "--config", str(live_setup["config_path"])]) == EXIT_OK
    table = load_grid(live_setup["grid_path"], live_setup["space"])
    assert is_complete(table, LEXICAL_AC, "test", 2)


class _Killed(BaseException):
    """Stands in for the process being killed: nothing in raghpo catches it."""


def _grid_killed_after(live_setup, monkeypatch, cells: int) -> bytes:
    """Run grid from scratch until ``cells`` cells are evaluated, then kill it."""
    live_setup["grid_path"].unlink(missing_ok=True)
    original = LivePipelineEvaluator.fill
    calls = itertools.count()

    def fill(self, *args):
        if next(calls) == cells:
            raise _Killed
        return original(self, *args)

    with monkeypatch.context() as patch:
        patch.setattr(LivePipelineEvaluator, "fill", fill)
        with pytest.raises(_Killed):
            main(["grid", "--config", str(live_setup["config_path"])])
    return live_setup["grid_path"].read_bytes()


def test_grid_resume_after_kill_mid_write_matches_uninterrupted_run(
    live_setup, monkeypatch, caplog
):
    path = live_setup["grid_path"]
    assert main(["grid", "--config", str(live_setup["config_path"])]) == EXIT_OK
    reference = path.read_bytes()

    # A killed run keeps the header and every finished cell, appended in order.
    before = _grid_killed_after(live_setup, monkeypatch, 2)
    cell = _grid_killed_after(live_setup, monkeypatch, 3)[len(before):]
    lines = cell.splitlines(keepends=True)
    assert len(lines) == 7  # the third cell: a cost row and 3 metrics x 2 dev questions

    # Cut the third cell's write at and inside each of its lines.
    cuts = set()
    start = 0
    for line in lines:
        cuts.update({start, start + 1, start + len(line) // 2, start + len(line) - 1})
        start += len(line)
    for cut in sorted(cuts):
        path.write_bytes(before + cell[:cut])
        caplog.clear()
        assert main(["grid", "--config", str(live_setup["config_path"])]) == EXIT_OK
        assert path.read_bytes() == reference, f"cut at byte {cut}"
        torn = cut not in {0, *(sum(map(len, lines[:i])) for i in range(len(lines)))}
        assert ("torn final line" in caplog.text) == torn


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
        "changed between batches",
        1,
    ),
    "question dimension differs from index": (
        "/embed",
        _vectors(lambda i, t, n: [1.0, 0.5] if t.startswith(("about", "closing")) else [0.5] * 8),
        "2-dimensional question vectors",
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
    written = tmp_path / (
        "optimize.jsonl.checkpoint" if command == "optimize" else "grid.jsonl"
    )
    assert written.is_file()


BAD_ENDPOINTS = {
    "no scheme": ({"base_url": "localhost:9"}, "endpoints.generate: base_url must be an http:// or https:// URL"),
    "no base_url": ({"timeout": 5.0}, "endpoints.generate: base_url is required"),
    "a string": ("http://127.0.0.1:9", "endpoints.generate: expected an object"),
    "timeout not a number": (
        {"base_url": "http://127.0.0.1:9", "timeout": "fast"},
        "endpoints.generate: timeout must be a number, got 'fast'",
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
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not list(tmp_path.glob(f"{command}.jsonl*"))  # no table, no checkpoint


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


def _fail_first_prompt_with_bad_json(stub):
    failed = []

    def reply(payload):
        failed[:] = failed or [payload["prompt"]]
        return b"not json" if payload["prompt"] == failed[0] else None

    stub.override("/generate", reply)
    return lambda: failed[0]


@pytest.mark.parametrize(
    "fail", [_fail_first_prompt_twice_with_500, _fail_first_prompt_with_bad_json],
    ids=["HTTP 500", "not JSON"],
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


def test_a_failed_embed_reply_is_not_stored(live_setup, tmp_path):
    stub, out = live_setup["stub"], tmp_path / "run.jsonl"
    # The test question's embedding fails; the chunks' and dev questions' are stored.
    stub.override("/embed", lambda payload: b"not json" if "closing" in payload["texts"] else None)
    assert main(_optimize_argv(live_setup, out)) == EXIT_SUSPENDED
    refused = [call for call in stub.calls("/embed") if "closing" in call["texts"]]
    assert refused and len(refused) < len(stub.calls("/embed"))
    stub.server.overrides.clear()
    stub.server.calls.clear()
    assert main(_optimize_argv(live_setup, out)) == EXIT_OK
    assert stub.calls("/embed") == refused


def _garbage(path: Path) -> None:
    path.write_bytes(b"this is not a database\n" * 64)


def _directory(path: Path) -> None:
    path.mkdir()


def _unwritable_parent(path: Path) -> None:
    if os.geteuid() == 0:
        pytest.skip("permission bits do not bind the root user")
    path.parent.chmod(0o555)


@pytest.mark.parametrize(
    "spoil", [_garbage, _directory, _unwritable_parent],
    ids=["garbage bytes", "a directory in its place", "unwritable parent directory"],
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
