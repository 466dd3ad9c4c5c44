import hashlib
import io
import json
import math
import os
import random
import re
import tracemalloc
import zipfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from raghpo import dataio
from raghpo.costs import CostDelta
from raghpo.dataio import (
    Dataset,
    Document,
    FingerprintMismatchError,
    SPLITS,
    GridTable,
    IncompleteTableError,
    QaPair,
    SamplePlan,
    atomic_write,
    check_fields,
    dataset_content_hash,
    load_dataset,
    load_grid,
    sample_dev,
    store_dataset,
    store_grid,
)
from raghpo.evaluator import GridReplayEvaluator, Objective
from raghpo.harness import RUN_FORMAT_VERSION, RunSpec, export_run, load_run, run
from raghpo.metrics import CONTEXT_MRR, FAITHFULNESS, LEXICAL_AC, METRIC_NAMES
from raghpo.searchspace import SearchSpace

from conftest import fill_table, is_complete, make_document


# ---------------------------------------------------------------------------
# Dataset files
# ---------------------------------------------------------------------------


def test_dataset_store_load_roundtrip(tmp_path, tiny_dataset):
    store_dataset(tiny_dataset, tmp_path / "ds")
    loaded = load_dataset(tmp_path / "ds")
    assert loaded == tiny_dataset
    assert (loaded.name, len(loaded.corpus), len(loaded.dev), len(loaded.test)) == ("tiny", 5, 4, 2)


def test_dataset_counts_echoed(tmp_path, tiny_dataset):
    store_dataset(tiny_dataset, tmp_path / "ds")
    loaded = load_dataset(tmp_path / "ds")
    assert len(loaded.corpus) == 5
    assert len(loaded.dev) == 4
    assert len(loaded.test) == 2


def test_large_manifest_counts_surfaced(tmp_path):
    # Counts shaped like a large biomedical benchmark: the loader just
    # echoes what the files declare.
    corpus = tuple(Document(doc_id=f"d{i}", text="x") for i in range(40181))
    dev = tuple(
        QaPair(qid=f"q{i}", question="?", gold_answer="a", gold_doc_ids=(f"d{i}",))
        for i in range(1000)
    )
    test = tuple(
        QaPair(qid=f"t{i}", question="?", gold_answer="a", gold_doc_ids=(f"d{i}",))
        for i in range(150)
    )
    dataset = Dataset(corpus=corpus, dev=dev, test=test, name="bio-shaped")
    store_dataset(dataset, tmp_path / "big")
    loaded = load_dataset(tmp_path / "big")
    assert loaded.name == "bio-shaped"
    assert (len(loaded.corpus), len(loaded.dev), len(loaded.test)) == (40181, 1000, 150)


def test_dangling_gold_reference_rejected(tmp_path, tiny_dataset):
    store_dataset(tiny_dataset, tmp_path / "ds")
    bench = tmp_path / "ds" / "benchmark.jsonl"
    rows = bench.read_text().strip().splitlines()
    bad = json.loads(rows[0])
    bad["gold_doc_ids"] = ["does-not-exist"]
    rows[0] = json.dumps(bad)
    bench.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="does-not-exist"):
        load_dataset(tmp_path / "ds")


def test_duplicate_doc_id_rejected_with_location(tmp_path, tiny_dataset):
    store_dataset(tiny_dataset, tmp_path / "ds")
    corpus = tmp_path / "ds" / "corpus.jsonl"
    lines = corpus.read_text().strip().splitlines()
    lines.append(lines[0])
    corpus.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"corpus\.jsonl:6"):
        load_dataset(tmp_path / "ds")


def test_duplicate_qid_rejected(tmp_path, tiny_dataset):
    store_dataset(tiny_dataset, tmp_path / "ds")
    bench = tmp_path / "ds" / "benchmark.jsonl"
    lines = bench.read_text().strip().splitlines()
    lines.append(lines[0])
    bench.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="duplicate qid"):
        load_dataset(tmp_path / "ds")


def test_missing_field_reported_with_line(tmp_path, tiny_dataset):
    store_dataset(tiny_dataset, tmp_path / "ds")
    bench = tmp_path / "ds" / "benchmark.jsonl"
    lines = bench.read_text().strip().splitlines()
    record = json.loads(lines[2])
    del record["question"]
    lines[2] = json.dumps(record)
    bench.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"benchmark\.jsonl:3.*question"):
        load_dataset(tmp_path / "ds")


def test_unknown_split_rejected(tmp_path, tiny_dataset):
    store_dataset(tiny_dataset, tmp_path / "ds")
    bench = tmp_path / "ds" / "benchmark.jsonl"
    lines = bench.read_text().strip().splitlines()
    record = json.loads(lines[0])
    record["split"] = "validation"
    lines[0] = json.dumps(record)
    bench.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="split"):
        load_dataset(tmp_path / "ds")


# ---------------------------------------------------------------------------
# Dev sampling
# ---------------------------------------------------------------------------


def _unit_gold_dataset(n_dev: int, n_docs: int) -> Dataset:
    """Each dev question has exactly one distinct gold document."""
    corpus = tuple(make_document(f"d{i}", 4) for i in range(n_docs))
    dev = tuple(
        QaPair(qid=f"q{i}", question="?", gold_answer="a", gold_doc_ids=(f"d{i}",))
        for i in range(n_dev)
    )
    test = (QaPair(qid="t0", question="?", gold_answer="a", gold_doc_ids=("d0",)),)
    return Dataset(corpus=corpus, dev=dev, test=test)


def test_sample_fraction_counts():
    dataset = _unit_gold_dataset(n_dev=1000, n_docs=1200)
    outcome = sample_dev(dataset, SamplePlan(qa_fraction=0.1, noise_ratio=0, seed=1))
    assert len(outcome.dataset.dev) == 100


def test_sample_noise_arithmetic_and_gold_closure():
    dataset = _unit_gold_dataset(n_dev=10, n_docs=200)
    outcome = sample_dev(dataset, SamplePlan(qa_fraction=1.0, noise_ratio=9, seed=3))
    sampled = outcome.dataset
    # 10 gold docs, 9 noise each: exactly 100 documents, gold fully included.
    assert len(sampled.corpus) == 100
    doc_ids = sampled.doc_ids()
    for qa in sampled.dev:
        for gid in qa.gold_doc_ids:
            assert gid in doc_ids
    # Recount from the emitted sample.
    gold = {g for qa in sampled.dev for g in qa.gold_doc_ids}
    assert len(gold) == 10
    assert len(doc_ids - gold) == 90


def test_sample_identity_when_noise_covers_corpus():
    dataset = _unit_gold_dataset(n_dev=5, n_docs=20)
    outcome = sample_dev(dataset, SamplePlan(qa_fraction=1.0, noise_ratio=10, seed=9))
    # 5 gold + up to 50 noise requested but only 15 non-gold exist.
    assert [d.doc_id for d in outcome.dataset.corpus] == [d.doc_id for d in dataset.corpus]
    assert outcome.noise_shortfall == 50 - 15
    assert outcome.dataset.dev == dataset.dev


def test_sample_deterministic_per_seed(tmp_path):
    dataset = _unit_gold_dataset(n_dev=50, n_docs=500)
    plan = SamplePlan(qa_fraction=0.2, noise_ratio=3, seed=42)
    a = sample_dev(dataset, plan)
    b = sample_dev(dataset, plan)
    assert a == b
    store_dataset(a.dataset, tmp_path / "a")
    store_dataset(b.dataset, tmp_path / "b")
    assert dataset_content_hash(tmp_path / "a") == dataset_content_hash(tmp_path / "b")


def test_sample_differs_across_seeds():
    dataset = _unit_gold_dataset(n_dev=50, n_docs=500)
    a = sample_dev(dataset, SamplePlan(qa_fraction=0.2, noise_ratio=3, seed=1))
    b = sample_dev(dataset, SamplePlan(qa_fraction=0.2, noise_ratio=3, seed=2))
    assert a.sampled_qids != b.sampled_qids or a.noise_doc_ids != b.noise_doc_ids


def test_sample_pools_shared_gold_documents():
    # Two questions share one gold document: noise is per pooled gold count.
    corpus = tuple(make_document(f"d{i}", 4) for i in range(50))
    dev = (
        QaPair(qid="q0", question="?", gold_answer="a", gold_doc_ids=("d0",)),
        QaPair(qid="q1", question="?", gold_answer="a", gold_doc_ids=("d0",)),
    )
    dataset = Dataset(corpus=corpus, dev=dev, test=())
    outcome = sample_dev(dataset, SamplePlan(qa_fraction=1.0, noise_ratio=4, seed=5))
    assert len(outcome.gold_doc_ids) == 1
    assert len(outcome.dataset.corpus) == 1 + 4


def test_sample_gold_closure_across_seeds():
    rng = random.Random(7)
    corpus = tuple(make_document(f"d{i}", 4) for i in range(120))
    dev = tuple(
        QaPair(
            qid=f"q{i}",
            question="?",
            gold_answer="a",
            gold_doc_ids=tuple(rng.sample([f"d{j}" for j in range(120)], rng.randrange(1, 4))),
        )
        for i in range(30)
    )
    dataset = Dataset(corpus=corpus, dev=dev, test=())
    for seed in range(10):
        outcome = sample_dev(dataset, SamplePlan(qa_fraction=0.4, noise_ratio=2, seed=seed))
        ids = outcome.dataset.doc_ids()
        for qa in outcome.dataset.dev:
            assert set(qa.gold_doc_ids) <= ids
        n_gold = len(outcome.gold_doc_ids)
        assert len(outcome.dataset.corpus) == min(
            n_gold * 3, n_gold + (120 - n_gold)
        )
        assert len(outcome.dataset.dev) == math.ceil(0.4 * 30)


def test_sample_plan_validation():
    with pytest.raises(ValueError):
        SamplePlan(qa_fraction=0.0, noise_ratio=1, seed=1)
    with pytest.raises(ValueError):
        SamplePlan(qa_fraction=1.2, noise_ratio=1, seed=1)
    with pytest.raises(ValueError):
        SamplePlan(qa_fraction=0.5, noise_ratio=-1, seed=1)


# ---------------------------------------------------------------------------
# Grid tables
# ---------------------------------------------------------------------------


def test_grid_complete_fixture_row_count(default_space):
    qids = ("q0", "q1", "q2", "q3")
    table = fill_table(
        default_space,
        lambda o, s, m, q: (o % 100) / 100.0,
        split_metrics={"dev": (LEXICAL_AC,)},
        qids={"dev": qids},
    )
    assert len(table.scores) == 162 * 4
    assert is_complete(table, LEXICAL_AC, "dev")


def test_grid_roundtrip_byte_identical(tmp_path, tiny_space):
    table = fill_table(
        tiny_space,
        lambda o, s, m, q: o / 100.0,
        split_metrics={"dev": (LEXICAL_AC,), "test": (LEXICAL_AC,)},
        qids={"dev": ("q0", "q1"), "test": ("t0",)},
    )
    table.set_cost(0, "dev", CostDelta(10, 20, 30))
    path_a = tmp_path / "a.jsonl"
    path_b = tmp_path / "b.jsonl"
    store_grid(table, path_a)
    store_grid(load_grid(path_a, tiny_space), path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_grid_roundtrip_canonicalizes_row_order(tmp_path, tiny_space):
    table = fill_table(
        tiny_space,
        lambda o, s, m, q: 0.5,
        split_metrics={"dev": (LEXICAL_AC,)},
        qids={"dev": ("q0", "q1")},
    )
    path = tmp_path / "g.jsonl"
    store_grid(table, path)
    lines = path.read_text().strip().splitlines()
    shuffled = [lines[0]] + list(reversed(lines[1:]))
    path.write_text("\n".join(shuffled) + "\n")
    reloaded = load_grid(path, tiny_space)
    out = tmp_path / "canon.jsonl"
    store_grid(reloaded, out)
    assert out.read_text().strip().splitlines() == lines


def test_grid_empty_table_loads_and_reports_incomplete(tmp_path, tiny_space):
    table = GridTable(tiny_space)
    path = tmp_path / "empty.jsonl"
    store_grid(table, path)
    loaded = load_grid(path, tiny_space)
    assert not is_complete(loaded, LEXICAL_AC, "dev")
    scores = loaded.slice("dev", LEXICAL_AC)
    assert scores.qids == ()
    assert np.isnan(scores.means).all() and len(scores.means) == tiny_space.total_size
    with pytest.raises(IncompleteTableError, match="no rows"):
        scores.require_complete(range(tiny_space.total_size))


def test_grid_score_out_of_range_rejected(tiny_space):
    table = GridTable(tiny_space)
    with pytest.raises(ValueError, match="score"):
        table.add_score(0, "dev", LEXICAL_AC, "q0", 1.2)


def test_grid_duplicate_key_rejected(tiny_space):
    table = GridTable(tiny_space)
    table.add_score(0, "dev", LEXICAL_AC, "q0", 0.5)
    with pytest.raises(ValueError, match="duplicate"):
        table.add_score(0, "dev", LEXICAL_AC, "q0", 0.6)


def test_grid_unknown_metric_rejected(tiny_space):
    table = GridTable(tiny_space)
    with pytest.raises(ValueError, match="metric"):
        table.add_score(0, "dev", "bleu", "q0", 0.5)


def test_grid_fingerprint_mismatch(tmp_path, tiny_space, default_space):
    table = GridTable(tiny_space)
    path = tmp_path / "g.jsonl"
    store_grid(table, path)
    with pytest.raises(FingerprintMismatchError):
        load_grid(path, default_space)


def test_grid_bad_score_row_reports_line(tmp_path, tiny_space):
    path = tmp_path / "g.jsonl"
    header = {"format_version": 1, "space_fingerprint": tiny_space.fingerprint()}
    row = {"ordinal": 0, "split": "dev", "metric": LEXICAL_AC, "qid": "q0", "score": 2.0}
    path.write_text(json.dumps(header) + "\n" + json.dumps(row) + "\n")
    with pytest.raises(ValueError, match=":2"):
        load_grid(path, tiny_space)


@pytest.mark.parametrize("kind", ["score", "cost"])
@pytest.mark.parametrize("ordinal", [10**9, 32, -1])
def test_grid_row_outside_the_space_rejected(tmp_path, tiny_space, kind, ordinal):
    path = tmp_path / "g.jsonl"
    header = {"format_version": 1, "space_fingerprint": tiny_space.fingerprint()}
    row = {"ordinal": ordinal, "split": "dev", "metric": LEXICAL_AC, "qid": "q0", "score": 0.5}
    if kind == "cost":
        row = {"kind": "cost", "ordinal": ordinal, "split": "dev", **CostDelta(1, 2, 3).as_dict()}
    path.write_text(json.dumps(header) + "\n" + json.dumps(row) + "\n")
    with pytest.raises(ValueError, match=rf"g\.jsonl:2: ordinal {ordinal} is outside"):
        load_grid(path, tiny_space)


@pytest.mark.parametrize("ordinal", [32, 500, -1])
def test_grid_table_rejects_an_ordinal_outside_its_space(tiny_space, ordinal):
    table = GridTable(tiny_space)
    message = rf"^ordinal {ordinal} is outside the search space \[0, 32\)$"
    with pytest.raises(ValueError, match=message):
        table.add_score(ordinal, "dev", LEXICAL_AC, "q0", 0.5)
    with pytest.raises(ValueError, match=message):
        table.set_cost(ordinal, "dev", CostDelta(1, 2, 3))
    assert table.scores == {} and table.costs == {}


def test_grid_table_rejects_an_unknown_split(tiny_space):
    table = GridTable(tiny_space)
    message = r"^split must be one of \('dev', 'test'\), got 'train'$"
    with pytest.raises(ValueError, match=message):
        table.add_score(0, "train", LEXICAL_AC, "q0", 0.5)
    with pytest.raises(ValueError, match=message):
        table.set_cost(0, "train", CostDelta(1, 2, 3))
    assert table.scores == {} and table.costs == {}


def test_companion_holding_a_cost_of_an_unknown_split_is_a_miss(tmp_path, tiny_space, parses):
    table = GridTable(tiny_space)
    table.add_score(0, "dev", LEXICAL_AC, "q0", 0.5)
    table.costs[(0, "train")] = CostDelta(1, 2, 3)  # past set_cost, as earlier versions kept it
    path = tmp_path / "g.jsonl"
    store_grid(table, path)
    with pytest.raises(ValueError, match=r"g\.jsonl:3: split must be one of \('dev', 'test'\), got 'train'$"):
        load_grid(path, tiny_space)
    assert parses == [path]


def test_a_space_record_widens_its_chunk_overlaps_to_floats(default_space):
    record = {**default_space.to_dict(), "chunk_overlap": [0, 0.25]}
    space = dataio.read_space(record, "space.json")
    assert space.chunk_overlaps == (0.0, 0.25)
    assert all(type(overlap) is float for overlap in space.chunk_overlaps)
    assert space.fingerprint() == default_space.fingerprint()


def test_grid_non_object_line_rejected(tmp_path, tiny_space):
    path = tmp_path / "g.jsonl"
    header = {"format_version": 1, "space_fingerprint": tiny_space.fingerprint()}
    path.write_text(json.dumps(header) + "\n[1]\n")
    with pytest.raises(ValueError, match=r"g\.jsonl:2: expected a JSON object"):
        load_grid(path, tiny_space)


@pytest.mark.parametrize("n_configs", [162, 1])
def test_grid_means_match_a_sorted_qid_python_sum(n_configs):
    # Means are summed down the qid axis in sorted-qid order, exactly as a
    # left-to-right Python sum, so replayed scores never move by a rounding.
    rng = random.Random(n_configs)
    qids = [f"q{rng.randrange(10**6):06d}-{i}" for i in range(200)]
    rows = [(o, q, rng.random()) for o in range(n_configs) for q in qids]
    rng.shuffle(rows)
    one_config = SearchSpace((4,), (0.0,), ("e",), (1,), ("g",))
    space = {162: SearchSpace.default(), 1: one_config}[n_configs]
    table = GridTable(space)
    for ordinal, qid, score in rows:
        table.add_score(ordinal, "dev", LEXICAL_AC, qid, score)
    scores = table.slice("dev", LEXICAL_AC)
    assert scores.qids == tuple(sorted(qids))
    by_key = {(o, q): s for o, q, s in rows}
    for ordinal in range(n_configs):
        expected = sum(by_key[(ordinal, q)] for q in sorted(qids)) / len(qids)
        assert scores.means[ordinal] == expected


def test_grid_slice_means_are_nan_where_a_qid_is_missing(tiny_space):
    table = fill_table(
        tiny_space,
        lambda o, s, m, q: 0.25,
        split_metrics={"dev": (LEXICAL_AC,)},
        qids={"dev": ("q0", "q1")},
    )
    table.add_score(3, "dev", LEXICAL_AC, "q2", 0.75)
    scores = table.slice("dev", LEXICAL_AC)
    assert scores.qids == ("q0", "q1", "q2")
    assert scores.means[3] == 1.25 / 3
    assert np.isnan(np.delete(scores.means, 3)).all()
    with pytest.raises(IncompleteTableError, match=r"ordinal 0 is missing 1 of 3 .*\(qids: q2\)"):
        scores.require_complete(range(tiny_space.total_size))
    # An explicit universe counts only the qids it names.
    named = table.slice("dev", LEXICAL_AC, qids=("q0", "q1"))
    assert (named.means == 0.25).all()


def test_grid_missing_header_rejected(tmp_path, tiny_space):
    path = tmp_path / "g.jsonl"
    path.write_text("")
    with pytest.raises(ValueError, match="header"):
        load_grid(path, tiny_space)


def test_atomic_write_keeps_previous_file_on_failure(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_write(target) as fh:
            fh.write("new, cut short")
            raise RuntimeError("writer failed")
    assert target.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [target]
    with atomic_write(target) as fh:
        fh.write("new\n")
    assert target.read_text() == "new\n"
    assert list(tmp_path.iterdir()) == [target]


def test_atomic_write_syncs_the_file_before_the_rename_and_the_directory_after(
    tmp_path, monkeypatch
):
    target = tmp_path / "out.txt"
    calls = []
    fsync, replace_ = os.fsync, os.replace

    def recording_fsync(fd):
        stat = os.fstat(fd)
        calls.append(("fsync", stat.st_ino, stat.st_size))
        fsync(fd)

    def recording_replace(source, destination):
        calls.append(("replace", Path(source).stat().st_ino, Path(destination)))
        replace_(source, destination)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", recording_replace)
    with atomic_write(target) as fh:
        fh.write("new\n")
    written, directory = target.stat().st_ino, tmp_path.stat()
    assert calls == [
        ("fsync", written, len("new\n")),  # the whole file, flushed
        ("replace", written, target),
        ("fsync", directory.st_ino, directory.st_size),
    ]


def test_appended_cells_load_with_last_cost_row_winning(tmp_path, tiny_space):
    path = tmp_path / "g.jsonl"
    table = GridTable(tiny_space)
    store_grid(table, path)
    table.add_score(0, "dev", LEXICAL_AC, "q0", 0.5)
    table.set_cost(0, "dev", CostDelta(4, 5, 6))
    cost = '{"embedded_tokens":%d,"generation_input_tokens":%d,"generation_output_tokens":%d,' \
        '"kind":"cost","ordinal":0,"split":"dev"}\n'
    # Older versions appended each evaluated cell, cost row first; a cell
    # evaluated again after an interrupted write appended a second cost row.
    with path.open("a", encoding="utf-8") as fh:
        fh.write(cost % (1, 2, 3))
        fh.write('{"metric":"lexical_ac","ordinal":0,"qid":"q0","score":0.5,"split":"dev"}\n')
        fh.write(cost % (4, 5, 6))
    loaded = load_grid(path, tiny_space)
    assert loaded.scores == table.scores
    assert loaded.costs == {(0, "dev"): CostDelta(4, 5, 6)}

    # load_grid itself stays strict: a torn tail is an error, not a silent drop.
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(ValueError, match="invalid JSON"):
        load_grid(path, tiny_space)


def test_dataset_content_hash_covers_corpus_then_benchmark_bytes(tmp_path, tiny_dataset):
    store_dataset(tiny_dataset, tmp_path / "ds")
    data = (tmp_path / "ds" / "corpus.jsonl").read_bytes()
    data += (tmp_path / "ds" / "benchmark.jsonl").read_bytes()
    assert dataset_content_hash(tmp_path / "ds") == hashlib.sha256(data).hexdigest()


def _break_utf8(path, lineno=2):
    """Put a 0xff byte inside the first string of line ``lineno``."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines[lineno - 1] = lines[lineno - 1].replace(b'"', b'"\xff', 1)
    path.write_bytes(b"".join(lines))


@pytest.mark.parametrize("kind", ["grid table", "corpus", "benchmark", "run export"])
def test_invalid_utf8_is_reported_with_its_line(tmp_path, tiny_space, tiny_dataset, kind):
    if kind == "grid table":
        path = tmp_path / "g.jsonl"
        store_grid(fill_table(tiny_space, lambda *_: 0.5, split_metrics={"dev": (LEXICAL_AC,)},
                              qids={"dev": ("q0",)}), path)
        load = lambda: load_grid(path, tiny_space)  # noqa: E731
    elif kind == "run export":
        path = tmp_path / "run.jsonl"
        header = {"kind": "run_header", "format_version": RUN_FORMAT_VERSION, "algorithm": "random",
                  "objective_metrics": [LEXICAL_AC], "budget": 1, "seeds": [1],
                  "space": tiny_space.to_dict()}
        path.write_text(json.dumps(header) + '\n{"kind":"trial","note":"x"}\n')
        load = lambda: load_run(path)  # noqa: E731
    else:
        store_dataset(tiny_dataset, tmp_path / "ds")
        path = tmp_path / "ds" / f"{kind}.jsonl"
        load = lambda: load_dataset(tmp_path / "ds")  # noqa: E731
    _break_utf8(path)
    with pytest.raises(ValueError) as excinfo:
        load()
    assert str(excinfo.value) == f"{path}:2: not valid UTF-8"


@pytest.mark.parametrize(
    "kind, field",
    [("corpus", "doc_id"), ("corpus", "text"), ("corpus", "title"), ("benchmark", "qid"),
     ("benchmark", "question"), ("benchmark", "gold_answer"), ("manifest", "name")],
)
def test_a_lone_surrogate_in_a_kept_string_is_reported_with_its_line(
    tmp_path, tiny_dataset, kind, field
):
    store_dataset(tiny_dataset, tmp_path / "ds")
    if kind == "manifest":
        path = tmp_path / "ds" / "manifest.json"
        manifest = json.loads(path.read_text())
        path.write_text(json.dumps({**manifest, "name": "lone \ud800"}))
        where = str(path)
    else:
        path = tmp_path / "ds" / f"{kind}.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record[field] = "lone \ud800"
        lines[1] = json.dumps(record)  # spelled as the escape \ud800
        path.write_text("\n".join(lines) + "\n")
        where = f"{path}:2"
    with pytest.raises(ValueError) as excinfo:
        load_dataset(tmp_path / "ds")
    record_kind = kind if kind == "manifest" else f"{kind} row"
    assert str(excinfo.value) == f"{where}: {record_kind} field {field!r} is not valid Unicode text"


def test_a_lone_surrogate_in_an_ignored_field_is_accepted(tmp_path, tiny_dataset):
    store_dataset(tiny_dataset, tmp_path / "ds")
    path = tmp_path / "ds" / "benchmark.jsonl"
    lines = path.read_text().splitlines()
    lines[0] = json.dumps({**json.loads(lines[0]), "note": "lone \ud800"})
    path.write_text("\n".join(lines) + "\n")
    assert load_dataset(tmp_path / "ds") == tiny_dataset


def test_check_fields_refuses_a_lone_surrogate_in_a_later_item_of_a_text_list():
    fields = {"title": (str | None, None), "ids": list[str], "count": int}
    record = {"ids": ["é", "d\ud800"], "count": "x", "note": "\ud800"}
    with pytest.raises(ValueError) as excinfo:
        check_fields(record, "row", fields, "f.jsonl:3")
    # The first field in table order that breaks the rule is named; an unnamed field is not read.
    assert str(excinfo.value) == "f.jsonl:3: row field 'ids' is not valid Unicode text"
    assert record["title"] is None


def _rewrite_line(path, lineno, **changes):
    """Set ``changes`` in the JSON object on line ``lineno`` of ``path``."""
    lines = path.read_text().splitlines()
    lines[lineno - 1] = json.dumps({**json.loads(lines[lineno - 1]), **changes})
    path.write_text("\n".join(lines) + "\n")


def _file_of_kind(tmp_path, kind, tiny_dataset, space):
    """A valid file holding a ``kind`` of record, its loader, and the line that record is on."""
    if kind in ("manifest", "corpus row", "benchmark row"):
        # Relaxed, so a test question's gold_doc_ids need not name a document.
        store_dataset(replace(tiny_dataset, relaxed_test_closure=True), tmp_path / "ds")
        name, lineno = {"manifest": ("manifest.json", None), "corpus row": ("corpus.jsonl", 2),
                        "benchmark row": ("benchmark.jsonl", 5)}[kind]
        return tmp_path / "ds" / name, lambda: load_dataset(tmp_path / "ds"), lineno
    if kind == "run_header":
        path = tmp_path / "run.jsonl"
        table = fill_table(space, lambda *_: 0.5, split_metrics={s: (LEXICAL_AC,) for s in SPLITS},
                           qids={"dev": ("q0",), "test": ("t0",)})
        spec = RunSpec(space, "random", Objective((LEXICAL_AC,)), budget=1, seeds=(1,))
        export_run(run(spec, GridReplayEvaluator(table)), path)
        return path, lambda: load_run(path), 1
    path = tmp_path / "g.jsonl"
    row = {"metric": LEXICAL_AC, "ordinal": 0, "qid": "q0", "score": 0.5, "split": "dev"}
    if kind == "cost row":
        row = {"kind": "cost", "ordinal": 0, "split": "dev", **CostDelta(1, 2, 3).as_dict()}
    header = {"format_version": 1, "space_fingerprint": space.fingerprint()}
    path.write_text(json.dumps(header) + "\n" + json.dumps(row) + "\n")
    return path, lambda: load_grid(path, space), 1 if kind == "grid header" else 2


@pytest.mark.parametrize(
    "kind, field, value",
    [
        ("corpus row", "text", ["x", "y"]),
        ("corpus row", "doc_id", 1),
        ("corpus row", "title", {"x": 1}),
        ("benchmark row", "qid", None),
        ("benchmark row", "question", 5),
        ("benchmark row", "gold_answer", False),
        ("benchmark row", "gold_doc_ids", [1]),
        ("benchmark row", "gold_doc_ids", "d0"),
        ("manifest", "relaxed_test_closure", "false"),
        ("manifest", "corpus_file", 5),
        ("manifest", "name", 5),
        ("manifest", "format_version", True),
        ("grid header", "format_version", True),
        ("grid header", "space_fingerprint", 7),
        ("score row", "ordinal", 1.7),
        ("score row", "ordinal", 1.0),
        ("score row", "score", "0.5"),
        ("score row", "score", True),
        ("score row", "qid", None),
        ("cost row", "embedded_tokens", True),
        ("cost row", "embedded_tokens", 2.9),
        ("cost row", "embedded_tokens", "3"),
        ("run_header", "format_version", True),
        ("run_header", "budget", True),
        ("run_header", "seeds", [True]),
        ("run_header", "objective_weights", [False]),
    ],
)
def test_a_field_of_the_wrong_type_is_reported_with_its_file_line_and_name(
    tmp_path, tiny_dataset, tiny_space, kind, field, value
):
    path, load, lineno = _file_of_kind(tmp_path, kind, tiny_dataset, tiny_space)
    load()  # the file as written loads
    if lineno is None:
        path.write_text(json.dumps({**json.loads(path.read_text()), field: value}))
    else:
        _rewrite_line(path, lineno, **{field: value})
    where = str(path) if lineno is None else f"{path}:{lineno}"
    with pytest.raises(ValueError) as excinfo:
        load()
    assert str(excinfo.value) == f"{where}: {kind} field {field!r} has the wrong type: {value!r}"


@pytest.mark.parametrize(
    "kind, field",
    [("corpus row", "text"), ("benchmark row", "gold_answer"), ("manifest", "format_version"),
     ("grid header", "space_fingerprint"), ("score row", "score"), ("cost row", "split"),
     ("run_header", "seeds")],
)
def test_a_missing_field_is_reported_with_its_file_line_and_name(
    tmp_path, tiny_dataset, tiny_space, kind, field
):
    path, load, lineno = _file_of_kind(tmp_path, kind, tiny_dataset, tiny_space)
    lines = path.read_text().splitlines()
    record = json.loads(lines[(lineno or 1) - 1])
    del record[field]
    lines[(lineno or 1) - 1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    where = str(path) if lineno is None else f"{path}:{lineno}"
    with pytest.raises(ValueError) as excinfo:
        load()
    assert str(excinfo.value) == f"{where}: {kind} lacks field {field!r}"


def test_absent_optional_dataset_fields_take_their_defaults(tmp_path, tiny_dataset):
    root = tmp_path / "ds"
    store_dataset(tiny_dataset, root)  # writes no title, since every title is None
    optional = {"manifest.json": ("name", "corpus_file", "benchmark_file"),
                "benchmark.jsonl": ("gold_doc_ids",)}
    for name, fields in optional.items():
        records = [json.loads(line) for line in (root / name).read_text().splitlines()]
        (root / name).write_text("".join(
            json.dumps({k: v for k, v in record.items() if k not in fields}) + "\n"
            for record in records
        ))
    no_gold = lambda qas: tuple(replace(qa, gold_doc_ids=()) for qa in qas)  # noqa: E731
    expected = replace(tiny_dataset, dev=no_gold(tiny_dataset.dev), test=no_gold(tiny_dataset.test),
                       name=None)
    assert load_dataset(root) == expected


# ---------------------------------------------------------------------------
# Columnar companion of a grid table
# ---------------------------------------------------------------------------


def _companion(path):
    return path.with_name(path.name + ".cols.npz")


@pytest.fixture()
def parses(monkeypatch):
    """The tables that load_grid parses from JSON, in order."""
    calls = []
    real = dataio._parse_grid

    def counting(source, *args):
        calls.append(source)
        return real(source, *args)

    monkeypatch.setattr(dataio, "_parse_grid", counting)
    return calls


def _gappy_table(space, seed=0):
    """Random scores with gaps, a qid seen once, unused ordinals and cost rows."""
    rng = random.Random(seed)
    table = GridTable(space)
    rows = [
        (ordinal, split, metric, qid, rng.random())
        for split, metrics in (("dev", (LEXICAL_AC, CONTEXT_MRR)), ("test", (LEXICAL_AC,)))
        for metric in metrics
        for ordinal in range(space.total_size - 3)
        for qid in ("q0", "q1", "q2", "q10")
        if rng.random() < 0.9
    ]
    rows.append((5, "dev", FAITHFULNESS, "lonely", 1.0))
    rng.shuffle(rows)
    for row in rows:
        table.add_score(*row)
    for ordinal in range(0, space.total_size, 3):
        table.set_cost(ordinal, rng.choice(SPLITS), CostDelta(ordinal, 2 * ordinal, 7))
    return table


def _write_shuffled(table, path):
    """``table`` as an in-progress file: rows in no order, no companion."""
    store_grid(table, path)
    header, *rows = path.read_text().splitlines(keepends=True)
    random.Random(1).shuffle(rows)
    path.write_text(header + "".join(rows))
    _companion(path).unlink()


def _assert_same_table(a, b, space):
    """Equal rows and costs, and bit-identical slices of every (split, metric)."""
    assert a.space == b.space
    assert a.scores == b.scores
    assert a.costs == b.costs
    for split in SPLITS:
        for metric in sorted(METRIC_NAMES):
            for qids in (None, ("q1", "absent", "q0")):
                x = a.slice(split, metric, qids)
                y = b.slice(split, metric, qids)
                assert x.qids == y.qids
                assert x.matrix.tobytes() == y.matrix.tobytes()
                assert x.means.tobytes() == y.means.tobytes()


def test_companion_hit_equals_a_parse(tmp_path, tiny_space, parses):
    path = tmp_path / "g.jsonl"
    _write_shuffled(_gappy_table(tiny_space), path)
    parsed = load_grid(path, tiny_space)
    assert parses == [path] and _companion(path).is_file()
    hit = load_grid(path, tiny_space)
    assert parses == [path]
    _assert_same_table(hit, parsed, tiny_space)
    # Both paths store the same canonical bytes.
    store_grid(parsed, tmp_path / "from_parse.jsonl")
    store_grid(hit, tmp_path / "from_hit.jsonl")
    canonical = (tmp_path / "from_parse.jsonl").read_bytes()
    assert (tmp_path / "from_hit.jsonl").read_bytes() == canonical
    # A table rebuilt from a companion still takes new rows, as a resumed grid adds them.
    for table in (parsed, hit):
        table.add_score(tiny_space.total_size - 1, "test", LEXICAL_AC, "q99", 0.25)
    _assert_same_table(hit, parsed, tiny_space)


def test_stored_table_loads_without_a_parse(tmp_path, tiny_space, parses):
    table = _gappy_table(tiny_space)
    path = tmp_path / "g.jsonl"
    store_grid(table, path)
    _assert_same_table(load_grid(path, tiny_space), table, tiny_space)
    assert parses == []
    empty = GridTable(tiny_space)
    store_grid(empty, path)
    _assert_same_table(load_grid(path, tiny_space), empty, tiny_space)
    assert parses == []


def test_editing_one_byte_forces_a_parse(tmp_path, tiny_space, parses):
    table = fill_table(tiny_space, lambda *_: 0.5, split_metrics={"dev": (LEXICAL_AC,)},
                       qids={"dev": ("q0",)})
    path = tmp_path / "g.jsonl"
    store_grid(table, path)
    data = path.read_bytes()
    path.write_bytes(data.replace(b'"score":0.5', b'"score":0.6', 1))
    edited = load_grid(path, tiny_space)
    assert parses == [path]
    assert edited.slice("dev", LEXICAL_AC).matrix[0, 0] == 0.6
    # The parse replaced the companion, so the next load of the edit hits.
    _assert_same_table(load_grid(path, tiny_space), edited, tiny_space)
    assert parses == [path]


def _small_table(space):
    table = GridTable(space)
    table.add_score(3, "dev", LEXICAL_AC, "q0", 0.5)
    table.set_cost(1, "test", CostDelta(1, 2, 3))
    return table


def test_truncated_companion_is_ignored(tmp_path, tiny_space, parses):
    table = _small_table(tiny_space)
    path = tmp_path / "g.jsonl"
    store_grid(table, path)
    whole = _companion(path).read_bytes()
    for size in range(len(whole)):
        _companion(path).write_bytes(whole[:size])
        _assert_same_table(load_grid(path, tiny_space), table, tiny_space)
        assert len(parses) == size + 1
    assert _companion(path).read_bytes() == whole


def test_companion_with_a_flipped_bit_is_ignored_or_equal(tmp_path, tiny_space):
    table = _small_table(tiny_space)
    path = tmp_path / "g.jsonl"
    store_grid(table, path)
    whole = _companion(path).read_bytes()
    for offset in range(len(whole)):
        damaged = bytearray(whole)
        damaged[offset] ^= 1 << (offset % 8)
        _companion(path).write_bytes(bytes(damaged))
        _assert_same_table(load_grid(path, tiny_space), table, tiny_space)


@pytest.mark.parametrize("change", ["member deleted", "member added", "matrix narrowed"])
def test_companion_with_other_members_is_ignored(tmp_path, tiny_space, parses, change):
    table = _small_table(tiny_space)
    path = tmp_path / "g.jsonl"
    store_grid(table, path)
    with zipfile.ZipFile(_companion(path)) as source:
        members = {name: source.read(name) for name in source.namelist()}
    if change == "member deleted":
        del members["scores0.npy"]
    elif change == "member added":
        members["scores1.npy"] = members["scores0.npy"]
    else:
        narrowed = io.BytesIO()
        np.save(narrowed, np.load(io.BytesIO(members["scores0.npy"]))[:, :-1])
        members["scores0.npy"] = narrowed.getvalue()
    with zipfile.ZipFile(_companion(path), "w") as target:
        for name, data in members.items():
            target.writestr(name, data)
    _assert_same_table(load_grid(path, tiny_space), table, tiny_space)
    assert parses == [path]


def test_version_1_companion_is_ignored_and_rewritten(tmp_path, tiny_space, parses):
    table = _small_table(tiny_space)
    path = tmp_path / "g.jsonl"
    store_grid(table, path)
    current = _companion(path).read_bytes()
    with np.load(_companion(path)) as npz:
        arrays = dict(npz)
    manifest = json.loads(arrays["manifest"].tobytes())
    # Only the version differs, so it alone must make the companion a miss.
    manifest["companion_version"] = 1
    arrays["manifest"] = np.frombuffer(json.dumps(manifest).encode("ascii"), dtype=np.uint8)
    with _companion(path).open("wb") as fh:
        np.savez(fh, **arrays)
    _assert_same_table(load_grid(path, tiny_space), table, tiny_space)
    assert parses == [path]
    assert _companion(path).read_bytes() == current


def test_version_2_companion_of_a_table_that_no_longer_parses_is_a_miss(tmp_path, tiny_space):
    # Version 2 parsed a score "0.5" as 0.5 and saved a companion for those bytes.
    path = tmp_path / "g.jsonl"
    store_grid(_small_table(tiny_space), path)
    with path.open("a") as fh:
        fh.write('{"metric":"lexical_ac","ordinal":4,"qid":"q0","score":"0.5","split":"dev"}\n')
    with np.load(_companion(path)) as npz:
        arrays = dict(npz)
    manifest = json.loads(arrays["manifest"].tobytes())
    manifest["companion_version"] = 2
    manifest["table_sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
    arrays["manifest"] = np.frombuffer(json.dumps(manifest).encode("ascii"), dtype=np.uint8)
    with _companion(path).open("wb") as fh:
        np.savez(fh, **arrays)
    message = f"{path}:4: score row field 'score' has the wrong type: '0.5'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_grid(path, tiny_space)


def test_companion_hit_checks_the_fingerprint(tmp_path, tiny_space, default_space, parses):
    path = tmp_path / "g.jsonl"
    store_grid(_small_table(tiny_space), path)
    with pytest.raises(FingerprintMismatchError) as from_hit:
        load_grid(path, default_space)
    assert parses == []
    _companion(path).unlink()
    with pytest.raises(FingerprintMismatchError) as from_parse:
        load_grid(path, default_space)
    assert parses == [path]
    assert str(from_hit.value) == str(from_parse.value)


class _SameFingerprintSmaller:
    """A space that claims ``space``'s fingerprint but holds only ``size`` configurations."""

    def __init__(self, space, size):
        self.fingerprint = space.fingerprint
        self.total_size = size


@pytest.mark.parametrize("kind", ["score", "cost"])
def test_companion_reaching_outside_the_space_is_a_miss(tmp_path, tiny_space, parses, kind):
    table = GridTable(tiny_space)
    table.add_score(9 if kind == "score" else 0, "dev", LEXICAL_AC, "q0", 0.5)
    table.set_cost(9 if kind == "cost" else 0, "dev", CostDelta(1, 2, 3))
    path = tmp_path / "g.jsonl"
    store_grid(table, path)
    with pytest.raises(ValueError, match=r"g\.jsonl:\d: ordinal 9 is outside"):
        load_grid(path, _SameFingerprintSmaller(tiny_space, 8))
    assert parses == [path]


def test_malformed_table_reports_its_line_despite_a_companion(tmp_path, tiny_space):
    path = tmp_path / "g.jsonl"
    store_grid(_gappy_table(tiny_space), path)
    header, *rows = path.read_text().splitlines(keepends=True)
    # A broken copy beside a copy of the good companion, and the table broken in place.
    broken = tmp_path / "broken.jsonl"
    broken.write_text(header + "{not json\n" + "".join(rows))
    _companion(broken).write_bytes(_companion(path).read_bytes())
    path.write_text(header + rows[0].replace('"score":', '"score":9', 1) + "".join(rows[1:]))
    with pytest.raises(ValueError, match=r"broken\.jsonl:2: invalid JSON"):
        load_grid(broken, tiny_space)
    with pytest.raises(ValueError, match=r"g\.jsonl:2: score must be in \[0, 1\]"):
        load_grid(path, tiny_space)


def test_companion_keeps_qids_exactly(tmp_path, tiny_space, parses):
    qids = ["a\x00", "a", "é😀"]
    path = tmp_path / "g.jsonl"
    header = {"format_version": 1, "space_fingerprint": tiny_space.fingerprint()}
    rows = [
        {"ordinal": 0, "split": "dev", "metric": LEXICAL_AC, "qid": qid, "score": i / 4}
        for i, qid in enumerate(qids)
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in [header, *rows]))
    parsed = load_grid(path, tiny_space)
    hit = load_grid(path, tiny_space)
    assert parses == [path]
    assert hit.slice("dev", LEXICAL_AC).qids == tuple(sorted(qids))
    _assert_same_table(hit, parsed, tiny_space)
    # A lone surrogate, which no file could hold, is refused at its line, and no companion is kept.
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in [header, {**rows[0], "qid": "\ud800"}]))
    with pytest.raises(ValueError) as excinfo:
        load_grid(bad, tiny_space)
    assert str(excinfo.value) == f"{bad}:2: score row field 'qid' is not valid Unicode text"
    assert not _companion(bad).exists()


def test_unwritable_companion_returns_the_parsed_table_with_one_warning(
    tmp_path, tiny_space, caplog
):
    table = _gappy_table(tiny_space)
    path = tmp_path / "g.jsonl"
    store_grid(table, path)
    # A directory in the companion's place: it can be neither read nor replaced.
    _companion(path).unlink()
    _companion(path).mkdir()
    (_companion(path) / "keep").write_text("x")
    with caplog.at_level("WARNING", logger="raghpo.dataio"):
        _assert_same_table(load_grid(path, tiny_space), table, tiny_space)
    assert [r.levelname for r in caplog.records] == ["WARNING"]
    assert str(_companion(path)) in caplog.records[0].getMessage()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.jsonl", "g.jsonl.cols.npz"]


def test_companion_bytes_depend_only_on_the_table(tmp_path, tiny_space):
    table = _gappy_table(tiny_space)
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    store_grid(table, first)
    saved = _companion(first).read_bytes()
    # Saved again after a parse of a shuffled copy, and after a store of the loaded table.
    _write_shuffled(table, second)
    store_grid(load_grid(second, tiny_space), second)
    assert _companion(second).read_bytes() == saved
    store_grid(table, first)
    assert _companion(first).read_bytes() == saved


def test_parse_and_companion_hit_hold_the_same_columns(tmp_path, tiny_space, parses):
    table = _gappy_table(tiny_space)
    stored, path = tmp_path / "stored.jsonl", tmp_path / "g.jsonl"
    store_grid(table, stored)  # the live table's columns, copied into the companion's layout
    _write_shuffled(table, path)
    parsed = load_grid(path, tiny_space)
    hit = load_grid(path, tiny_space)
    assert parses == [path]
    assert parsed._columns.keys() == hit._columns.keys()
    for key, columns in parsed._columns.items():
        other = hit._columns[key]
        assert list(columns.rows.items()) == list(other.rows.items())
        assert list(columns.rows) == sorted(columns.rows)
        shape = (len(columns.rows), tiny_space.total_size)
        assert columns.matrix.shape == other.matrix.shape == shape
        assert columns.matrix.tobytes() == other.matrix.tobytes()
    # A companion saved after either equals the one saved for the live table.
    for name, loaded in (("from_parse.jsonl", parsed), ("from_hit.jsonl", hit)):
        store_grid(loaded, tmp_path / name)
        assert _companion(tmp_path / name).read_bytes() == _companion(stored).read_bytes()


# ---------------------------------------------------------------------------
# Differential parse of grid-table files
# ---------------------------------------------------------------------------


def _check_score_row(seen, size, ordinal, split, metric, qid, score):
    """The score-row rule, one row at a time: a ValueError saying which check a row fails.

    ``seen`` holds the keys of the rows added so far, and takes this row's.
    """
    key = (ordinal, split, metric, qid)
    if not 0 <= ordinal < size:
        raise ValueError(f"ordinal {ordinal} is outside the search space [0, {size})")
    if split not in SPLITS:
        raise ValueError(f"split must be one of {SPLITS}, got {split!r}")
    if metric not in METRIC_NAMES:
        raise ValueError(f"metric must be one of {sorted(METRIC_NAMES)}, got {metric!r}")
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"score must be in [0, 1], got {score} for "
                         f"(ordinal={ordinal}, split={split}, metric={metric}, qid={qid})")
    if key in seen:
        raise ValueError(f"duplicate row for key {key}")
    seen.add(key)


def _load_line_by_line(path, space):
    """The reference reader: one ``json.loads`` and one field check per line.

    It checks each score row itself (:func:`_check_score_row`), so the parse
    is compared with a rule it does not share, and adds the rows it checked
    to the table once the file is read.
    """
    table = None
    seen = set()
    rows = {}  # (split, metric) -> [(qid, ordinal, score)] in file order
    for lineno, raw in enumerate(path.read_bytes().split(b"\n"), start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            raise ValueError(f"{path}:{lineno}: not valid UTF-8") from None
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: invalid JSON ({exc})") from None
        if not isinstance(record, dict):
            raise ValueError(f"{path}:{lineno}: expected a JSON object")
        where = f"{path}:{lineno}"
        if table is None:
            check_fields(record, "grid header", dataio.GRID_HEADER_FIELDS, where)
            version = record["format_version"]
            if version != 1:
                raise ValueError(f"{where}: unsupported format_version {version!r}")
            dataio._check_fingerprint(path, record["space_fingerprint"], space)
            table = GridTable(space)
            continue
        cost = record.get("kind") == "cost"
        kind, fields = ("cost row", dataio.COST_FIELDS) if cost else ("score row", dataio.SCORE_FIELDS)
        check_fields(record, kind, fields, where)
        try:
            if cost:
                counts = [record[k] for k in CostDelta(0, 0, 0).as_dict()]
                table.set_cost(record["ordinal"], record["split"], CostDelta(*counts))
            else:
                key = (record["ordinal"], record["split"], record["metric"], record["qid"])
                _check_score_row(seen, space.total_size, *key, float(record["score"]))
                rows.setdefault(key[1:3], []).append((key[3], key[0], float(record["score"])))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    if table is None:
        raise ValueError(f"{path}: empty file, expected a header line")
    for (split, metric), checked in rows.items():
        table.add_scores(split, metric, *zip(*checked))
    return table


def _row(ordinal, qid, score, split="dev", metric=LEXICAL_AC):
    """A score row in the canonical layout, with ``qid`` and ``score`` spliced in as raw text."""
    return (f'{{"metric":"{metric}","ordinal":{ordinal},"qid":"{qid}",'
            f'"score":{score},"split":"{split}"}}\n').encode()


def _line_at(lines, offset):
    """The index of the line that holds byte ``offset`` of ``b"".join(lines)``."""
    end = 0
    for i, line in enumerate(lines):
        end += len(line)
        if end > offset:
            return i
    return len(lines) - 1


def _insert(lines, offset, *new):
    """``lines`` with ``new`` put in before the line that holds byte ``offset``."""
    i = _line_at(lines, offset)
    return b"".join(lines[:i] + list(new) + lines[i:])


def _straddle(lines, block, middle):
    """A new score row whose qid puts ``middle`` across the end of the second block."""
    i = _line_at(lines, 2 * block - 200)
    start = sum(map(len, lines[:i]))
    head = b'{"metric":"lexical_ac","ordinal":3,"qid":"'
    pad = b"a" * (2 * block - 1 - start - len(head))
    return b"".join(lines[:i] + [head + pad + middle + b'","score":0.5,"split":"dev"}\n'] + lines[i:])


def _dup_after(lines, offset, gap):
    """A copy of the line that holds byte ``offset``, put in ``gap`` lines after it."""
    i = _line_at(lines, offset)
    return b"".join(lines[: i + gap] + [lines[i]] + lines[i + gap:])


def _dup_across(lines, block):
    """A copy of the last line of the second block, put in after the line that crosses its end."""
    i = _line_at(lines, 2 * block)
    return b"".join(lines[: i + 1] + [lines[i - 1]] + lines[i + 1:])


def _shuffled(lines):
    """The rows shuffled among blank lines, with one cost row repeated and one rewritten."""
    rows = lines[1:] + [lines[-1], lines[-2].replace(b":7", b":8"), b"\n", b"  \t\n"] + [b"\n"] * 9
    random.Random(2).shuffle(rows)
    return b"".join([lines[0], b"\n", *rows])


def _respelled(lines):
    """Every seventh row rewritten with spaces, every other one of those in reverse key order."""
    out = []
    for i, line in enumerate(lines):
        if i % 7 == 3:
            items = list(json.loads(line).items())
            line = (json.dumps(dict(items if i % 2 else items[::-1])) + "\n").encode()
        out.append(line)
    return b"".join(out)


_MID = 1.5  # in blocks: inside the second block, away from both of its ends
_BAD_COST = b'{"kind":"cost","ordinal":1,"split":"dev"}\n'


def _one_row(*new):
    """A case that puts ``new`` lines inside the second block."""
    return lambda lines, b: _insert(lines, _MID * b, *new)


_GRID_CASES = {
    "as stored": lambda lines, b: b"".join(lines),
    "shuffled with blank lines and repeated cost rows": lambda lines, b: _shuffled(lines),
    "keys in another order or spaced": lambda lines, b: _respelled(lines),
    "crlf line endings": lambda lines, b: b"".join(line[:-1] + b"\r\n" for line in lines),
    "trailing \\x85": _one_row(_row(1, "x", 0.5)[:-1] + "\x85\n".encode()),
    "trailing \\u2028": _one_row(_row(1, "x", 0.5)[:-1] + "\u2028\n".encode()),
    "qid with an escaped quote": _one_row(_row(1, 'a\\"b', 0.5)),
    "qid e-acute raw and escaped is one qid": _one_row(
        _row(1, "é", 0.5), _row(2, "\\u00e9", 0.5), _row(2, "é", 0.25)
    ),
    "qid with a \\u0000 escape": _one_row(_row(1, "a\\u0000", 0.5)),
    "qid with a raw tab": _one_row(_row(1, "a\tb", 0.5)),
    "Arabic-Indic digit in a qid": _one_row(_row(1, "١", 0.5)),
    "Arabic-Indic digit in an ordinal": _one_row(_row("1١", "x", 0.5)),
    "Arabic-Indic digit in a score": _one_row(_row(1, "x", "0.٥")),
    **{
        f"score {text}": _one_row(_row(1, "x", text))
        for text in ("0", "1", "1E0", "5e-1", "1.00000000000000000001", "-0", "-0.0", '"0.5"',
                     "NaN", "Infinity", "1e999", "01", "0.5.5", "true")
    },
    'ordinal "3"': _one_row(_row('"3"', "x", 0.5)),
    "ordinal -1": _one_row(_row(-1, "x", 0.5)),
    "ordinal past the space": _one_row(_row(32, "x", 0.5)),
    "ordinal of 30 digits": _one_row(_row(10**29, "x", 0.5)),
    "unknown split": _one_row(_row(1, "x", 0.5, split="train")),
    "unknown metric": _one_row(_row(1, "x", 0.5, metric="bleu")),
    "duplicate row inside a block": lambda lines, b: _dup_after(lines, _MID * b, 3),
    "duplicate row across a block boundary": lambda lines, b: _dup_across(lines, b),
    "duplicate of a row of the first block": lambda lines, b: _insert(lines, _MID * b, lines[5]),
    "row repeated in a later block": lambda lines, b: _insert(lines, _MID * b, lines[-300]),
    "bad cost row before a duplicate row": lambda lines, b: _insert(lines, _MID * b, _BAD_COST, lines[5]),
    "duplicate row before a bad cost row": lambda lines, b: _insert(lines, _MID * b, lines[5], _BAD_COST),
    "line longer than a block": lambda lines, b: _insert(lines, _MID * b, _row(1, "x" * (b + 9), 0.5)),
    "valid UTF-8 across a block boundary": lambda lines, b: _straddle(lines, b, "é😀".encode()),
    "invalid UTF-8 mid-file": _one_row(_row(1, "x", 0.5).replace(b"x", b"\xff")),
    "invalid UTF-8 across a block boundary": lambda lines, b: _straddle(lines, b, b"\xe2\x82("),
    "invalid UTF-8 after a bad row of its block": _one_row(
        _row(1, "x", 2.0), _row(1, "y", 0.5).replace(b"y", b"\xff")
    ),
    "missing final newline": lambda lines, b: b"".join(lines)[:-1],
    "score row without its final newline": lambda lines, b: b"".join(lines) + _row(1, "x", 0.5)[:-1],
    "torn tail": lambda lines, b: b"".join(lines)[:-9],
    "torn score row": lambda lines, b: b"".join(lines) + _row(1, "x", 0.5)[:-9],
    "lines that join into one object": _one_row(b'{"s":"}\n', b'{","t":1}\n'),
    "a line that splits into two objects": _one_row(b'{"x":1},{"y":2}\n'),
    "a JSON array": _one_row(b"[1]\n"),
    "a score row first": lambda lines, b: b"".join(lines[1:]),
    "only blank lines": lambda lines, b: b"\n \n\n",
    "header only": lambda lines, b: lines[0],
}


@pytest.fixture()
def stored_lines(tmp_path, tiny_space):
    """A stored table of ~190 KB: 2,048 score rows in canonical order, then cost rows."""
    rng = random.Random(0)
    table = GridTable(tiny_space)
    for ordinal in range(tiny_space.total_size):
        for split in SPLITS:
            for metric in (LEXICAL_AC, CONTEXT_MRR):
                qids = [f"q{q:02d}" for q in range(16)]
                table.add_scores(split, metric, qids, [ordinal] * 16, [rng.random() for _ in qids])
        table.set_cost(ordinal, rng.choice(SPLITS), CostDelta(ordinal, 2, 7))
    store_grid(table, tmp_path / "stored.jsonl")
    return (tmp_path / "stored.jsonl").read_bytes().splitlines(keepends=True)


@pytest.mark.parametrize("block", [1 << 16, 1000])
@pytest.mark.parametrize("case", list(_GRID_CASES))
def test_grid_parse_matches_a_line_by_line_read(tmp_path, tiny_space, stored_lines, monkeypatch,
                                                case, block):
    monkeypatch.setattr(dataio, "_BLOCK_SIZE", block)
    path = tmp_path / "g.jsonl"
    path.write_bytes(_GRID_CASES[case](list(stored_lines), block))
    outcomes = []
    for load in (_load_line_by_line, load_grid):
        try:
            outcomes.append(load(path, tiny_space))
        except Exception as exc:  # noqa: BLE001 - the two readers must fail alike
            outcomes.append(exc)
    expected, actual = outcomes
    if isinstance(expected, Exception):
        assert (type(actual), str(actual)) == (type(expected), str(expected))
    else:
        assert isinstance(actual, GridTable), actual
        _assert_same_table(actual, expected, tiny_space)


#: A bad row of each kind, (ordinal, split, metric, qid, score), and its refusal.
_BAD_SCORE_ROWS = {
    "ordinal -1": ((-1, "dev", LEXICAL_AC, "x", 0.5), r"ordinal -1 is outside"),
    "ordinal past the space": ((32, "dev", LEXICAL_AC, "x", 0.5), r"ordinal 32 is outside"),
    "ordinal of 30 digits": ((10**29, "dev", LEXICAL_AC, "x", 0.5), rf"ordinal {10**29} is outside"),
    "unknown split": ((1, "train", LEXICAL_AC, "x", 0.5), r"split must be one of"),
    "unknown metric": ((1, "dev", "bleu", "x", 0.5), r"metric must be one of"),
    "score -0.1": ((1, "dev", LEXICAL_AC, "x", -0.1), r"score must be in \[0, 1\], got -0.1 "),
    "score 1.5": ((1, "dev", LEXICAL_AC, "x", 1.5), r"score must be in \[0, 1\], got 1.5 "),
    "score NaN": ((1, "dev", LEXICAL_AC, "x", math.nan), r"score must be in \[0, 1\], got nan "),
    "repeat within the batch": ((2, "dev", LEXICAL_AC, "q1", 0.5), r"duplicate row for key \(2, "),
    "repeat of a stored row": ((0, "dev", LEXICAL_AC, "q0", 0.5), r"duplicate row for key \(0, "),
}


@pytest.mark.parametrize("bad", list(_BAD_SCORE_ROWS))
def test_add_scores_refuses_a_batch_with_a_bad_row_and_stores_none(tiny_space, bad):
    table = GridTable(tiny_space)
    table.add_score(0, "dev", LEXICAL_AC, "q0", 0.25)
    before = table.scores
    (ordinal, split, metric, qid, score), message = _BAD_SCORE_ROWS[bad]
    # Good rows of the bad row's (split, metric) around it, one of them the key it may repeat.
    rows = [(1, "q0", 0.5), (2, "q1", 0.75), (ordinal, qid, score), (3, "q2", 1.0), (3, "q3", 0.0)]
    ordinals, qids, scores = zip(*rows)
    with pytest.raises(ValueError, match=message):
        table.add_scores(split, metric, qids, ordinals, scores)
    assert table.scores == before
    assert list(table._columns) == [("dev", LEXICAL_AC)]
    columns = table._columns[("dev", LEXICAL_AC)]
    assert list(columns.rows) == ["q0"]
    assert np.isnan(np.delete(columns.matrix.ravel(), 0)).all()


@pytest.mark.parametrize("block", [1 << 16, 1000])
def test_a_stored_table_parses_its_score_rows_without_the_line_path(
    tmp_path, tiny_space, stored_lines, monkeypatch, block
):
    monkeypatch.setattr(dataio, "_BLOCK_SIZE", block)
    path = tmp_path / "g.jsonl"  # no companion beside it
    path.write_bytes(b"".join(stored_lines))
    lines = []
    add_line = dataio._add_line
    monkeypatch.setattr(dataio, "_add_line", lambda *args: lines.append(args[1]) or add_line(*args))
    table = load_grid(path, tiny_space)
    assert len(table.scores) == 2048
    # Blank lines aside (the end of the file reads as one), only the header and the cost rows.
    costs = [line for line in stored_lines if b'"kind":"cost"' in line]
    assert [line.encode() + b"\n" for line in lines if line] == [stored_lines[0], *costs]


def test_grid_parse_memory_is_bounded_by_a_block(tmp_path, default_space):
    path = tmp_path / "g.jsonl"
    rng = random.Random(0)
    with path.open("w") as fh:
        fh.write(json.dumps({"format_version": 1, "space_fingerprint": default_space.fingerprint()}) + "\n")
        for ordinal in range(default_space.total_size):
            for split in SPLITS:
                for metric in (LEXICAL_AC, CONTEXT_MRR, FAITHFULNESS):
                    for q in range(48):
                        fh.write(_row(ordinal, f"q{q:02d}", rng.random(), split, metric).decode())
    size = path.stat().st_size
    assert size >= 4 << 20
    tracemalloc.start()
    try:
        load_grid(path, default_space)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < size / 2, (peak, size)
