"""What a reader accepts, its writer writes back: one property per file format.

Datasets are drawn to load, then up to two fields of any record are
dropped or replaced by any JSON value, lone surrogates included. Each
either loads and survives ``store_dataset`` -> ``load_dataset`` unchanged
or is refused with a ValueError that names the file and, for a
row, its line. Grid tables are built through ``add_score`` and
``set_cost`` and must load back equal, by a parse and by a companion hit.
Run records must survive ``export_run`` -> ``load_run``, and every valid
reply of a service route must survive the reply store's ``put`` -> ``get``.
"""

import json
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from raghpo import dataio
from raghpo.costs import CostDelta
from raghpo.dataio import (
    SPLITS,
    GridTable,
    load_dataset,
    load_grid,
    store_dataset,
    store_grid,
)
from raghpo.evaluator import Objective
from raghpo.harness import (
    AggregatePoint,
    IterationRecord,
    RunRecord,
    RunSpec,
    SeedRun,
    export_run,
    load_run,
)
from raghpo.metrics import METRIC_NAMES
from raghpo.optimizers import ALGORITHMS, DRIVER_OBJECTIVE, DRIVER_RETRIEVAL, Trial, TrialHistory
from raghpo.pipeline import EMBED, GENERATE, JUDGE, ReplyStore
from raghpo.searchspace import SearchSpace

SPACE = SearchSpace(
    chunk_sizes=(4, 8),
    chunk_overlaps=(0.0, 0.5),
    embedding_models=("emb-a", "emb-b"),
    top_ks=(1, 2),
    generative_models=("gen-a", "gen-b"),
)
METRICS = sorted(METRIC_NAMES)
FAST = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------

# Any character, lone surrogates (category Cs) included.
TEXT = st.text(st.characters(exclude_categories=()), max_size=4)
NOT_TEXT = st.none() | st.booleans() | st.integers() | st.floats() | st.lists(TEXT, max_size=2)
ANY_JSON = st.recursive(
    NOT_TEXT | TEXT,
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(TEXT, inner, max_size=2),
    max_leaves=4,
)
WORDS = st.text(max_size=4)  # no surrogate: these usually load
IDS = st.text(min_size=1, max_size=4)
FILE_NAMES = {"corpus_file": "corpus.jsonl", "benchmark_file": "benchmark.jsonl"}


@st.composite
def dataset_files(draw) -> tuple[dict, list[dict], list[dict]]:
    """A manifest and corpus and benchmark rows that usually load, with up to two fields
    of any record dropped or replaced by any JSON value."""
    manifest = {"format_version": 1}
    for key, value in (("name", WORDS | st.none()), ("relaxed_test_closure", st.booleans())):
        if draw(st.booleans()):
            manifest[key] = draw(value)
    for key, name in FILE_NAMES.items():
        if draw(st.booleans()):
            manifest[key] = name
    doc_ids = draw(st.lists(st.sampled_from(["d0", "d1"]) | IDS, max_size=4, unique=True))
    corpus = [{"doc_id": doc_id, "text": draw(IDS)} for doc_id in doc_ids]
    for row in corpus:
        if draw(st.booleans()):
            row["title"] = draw(WORDS | st.none())
    benchmark = []
    for qid in draw(st.lists(IDS, max_size=4, unique=True)):
        row = {"qid": qid, "question": draw(WORDS), "gold_answer": draw(WORDS),
               "split": draw(st.sampled_from(SPLITS))}
        if draw(st.booleans()):
            # A test question of a relaxed dataset may name a document not in the corpus.
            gold = st.sampled_from([*doc_ids, *(["gone"] if row["split"] == "test" else [])])
            row["gold_doc_ids"] = draw(st.lists(gold, max_size=2)) if doc_ids else []
        benchmark.append(row)
    records = [manifest, *corpus, *benchmark]
    for _ in range(draw(st.integers(0, 2))):
        record = draw(st.sampled_from(records))
        key = draw(st.sampled_from(sorted({*record, "title", "gold_doc_ids", "name", *FILE_NAMES})))
        if draw(st.booleans()):
            record.pop(key, None)
        else:
            # A file name that is a string must name a file that exists.
            record[key] = draw(NOT_TEXT if key in FILE_NAMES else ANY_JSON)
    return manifest, corpus, benchmark


def _write_lines(path: Path, records) -> None:
    # json.dumps escapes every non-ASCII character, so a lone surrogate is
    # written as its escape, and a line may hold NaN or Infinity.
    path.write_text("".join(json.dumps(record) + "\n" for record in records))


@FAST
@given(dataset_files())
def test_a_dataset_that_loads_is_written_back_unchanged(files):
    manifest, corpus, benchmark = files
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "ds"
        root.mkdir()
        (root / "manifest.json").write_text(json.dumps(manifest))
        _write_lines(root / "corpus.jsonl", corpus)
        _write_lines(root / "benchmark.jsonl", benchmark)
        try:
            dataset = load_dataset(root)
        except ValueError as exc:
            located = rf"{re.escape(str(root))}/(manifest\.json|(corpus|benchmark)\.jsonl:\d+): "
            assert re.match(located, str(exc)), str(exc)
            return
        store_dataset(dataset, Path(tmp) / "copy")
        assert load_dataset(Path(tmp) / "copy") == dataset


# ---------------------------------------------------------------------------
# Grid tables
# ---------------------------------------------------------------------------

ORDINALS = st.integers(-2, SPACE.total_size + 1)
SCORES = st.floats(-0.5, 1.5) | st.sampled_from([0.0, -0.0, 1.0, 5e-324, math.nan, math.inf])
COUNTS = st.integers(-1, 2**70)
SCORE_CALLS = st.tuples(
    st.just("add_score"), ORDINALS, st.sampled_from([*SPLITS, "train"]),
    st.sampled_from([*METRICS, "bleu"]), st.text(max_size=3), SCORES,
)
COST_CALLS = st.tuples(st.just("set_cost"), ORDINALS, st.sampled_from(SPLITS), COUNTS, COUNTS, COUNTS)


def _assert_same_table(a: GridTable, b: GridTable) -> None:
    assert a.space == b.space
    assert a.scores == b.scores
    assert a.costs == b.costs
    for split in SPLITS:
        for metric in METRICS:
            x, y = a.slice(split, metric), b.slice(split, metric)
            assert x.qids == y.qids
            assert x.matrix.tobytes() == y.matrix.tobytes()


@FAST
@given(st.lists(SCORE_CALLS | COST_CALLS, max_size=30))
def test_a_table_that_add_score_and_set_cost_build_loads_back_equal(calls):
    table = GridTable(SPACE)
    for name, ordinal, split, *rest in calls:
        try:
            if name == "add_score":
                table.add_score(ordinal, split, *rest)
            else:
                table.set_cost(ordinal, split, CostDelta(*rest))
        except ValueError:
            pass  # a call the table refuses leaves it as it was
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.jsonl"
        store_grid(table, path)
        with mock.patch.object(dataio, "_parse_grid", wraps=dataio._parse_grid) as parse:
            _assert_same_table(load_grid(path, SPACE), table)  # a companion hit
            assert parse.call_count == 0
            path.with_name(path.name + ".cols.npz").unlink()
            _assert_same_table(load_grid(path, SPACE), table)  # a parse
            assert parse.call_count == 1


# ---------------------------------------------------------------------------
# Run exports
# ---------------------------------------------------------------------------

OPTIONAL_SCORES = st.none() | st.floats(allow_nan=False)
TOKENS = st.builds(CostDelta, *[st.integers(0, 2**70)] * 3)


@st.composite
def run_records(draw) -> RunRecord:
    metrics = tuple(draw(st.lists(st.sampled_from(METRICS), min_size=1, max_size=2, unique=True)))
    weights = None
    if len(metrics) == 2 and draw(st.booleans()):
        weight = draw(st.floats(0, 1))
        weights = (weight, 1 - weight)
    budget = draw(st.integers(1, 4))
    seeds = draw(st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=3, unique=True))
    spec = RunSpec(SPACE, draw(st.sampled_from(ALGORITHMS)), Objective(metrics, weights), budget, seeds)
    seed_runs = []
    for seed in seeds:
        ordinals = draw(st.lists(st.integers(0, SPACE.total_size - 1), min_size=budget,
                                 max_size=budget, unique=True))
        history, iterations = TrialHistory(), []
        for iteration, ordinal in enumerate(ordinals, 1):
            history.append(Trial(
                iteration, SPACE.config_at(ordinal), draw(OPTIONAL_SCORES), draw(OPTIONAL_SCORES),
                draw(TOKENS), draw(st.sampled_from([DRIVER_OBJECTIVE, DRIVER_RETRIEVAL])),
            ))
            iterations.append(IterationRecord(
                iteration, draw(OPTIONAL_SCORES),
                draw(st.none() | st.integers(0, SPACE.total_size - 1)), draw(OPTIONAL_SCORES),
                draw(TOKENS),
            ))
        seed_runs.append(SeedRun(seed, history, tuple(iterations)))
    aggregate = tuple(
        AggregatePoint(i, draw(OPTIONAL_SCORES), draw(OPTIONAL_SCORES), draw(st.integers(0, 9)))
        for i in range(1, budget + 1)
    )
    return RunRecord(spec, tuple(seed_runs), aggregate)


@FAST
@given(run_records())
def test_a_run_record_survives_its_export(record):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.jsonl"
        export_run(record, path)
        assert load_run(path) == record


# ---------------------------------------------------------------------------
# Reply store
# ---------------------------------------------------------------------------

FLOAT_RANGE = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(10**300), 10**300)
#: Each route's requests, and its valid replies in the form its ``check`` takes.
ROUTES = {
    EMBED: (TEXT, st.lists(FLOAT_RANGE, min_size=1, max_size=5)),
    GENERATE: (
        TEXT, st.tuples(TEXT, st.integers(0, 2**70), st.integers(0, 2**70), st.booleans()).map(list)
    ),
    JUDGE: (st.tuples(TEXT, TEXT, TEXT), st.floats(0.0, 1.0) | st.integers(0, 1)),
}


@FAST
@given(st.sampled_from(list(ROUTES)), st.data())
def test_a_valid_reply_survives_the_reply_store(route, data):
    requests_, replies = ROUTES[route]
    requests = data.draw(st.lists(requests_, min_size=1, max_size=3, unique=True))
    checked = [route.check(data.draw(replies)) for _ in requests]
    store = ReplyStore()
    store.put(route, "model", requests, checked)
    got = store.get(route, "model", requests + [("never", "sent", "") if route is JUDGE else "never sent"])
    store.close()
    assert set(got) == set(requests)
    for request, reply in zip(requests, checked):
        if route is EMBED:
            assert got[request].tobytes() == reply.tobytes()
        else:
            assert got[request] == reply and type(got[request]) is type(reply)
