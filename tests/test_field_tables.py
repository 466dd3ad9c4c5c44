"""Bad-input cases derived from the field tables of :mod:`raghpo.dataio`.

For each ``*_FIELDS`` table, the record of that kind that a command reads
is written with each field dropped, and then set to each value of
:data:`VALUES`. The command runs in process. It must exit 0 or 2, print no
traceback, start no thread that outlives it, and leave nothing behind
when it refuses. A refusal of a record read from a data file names the
file, the line in a JSON-lines file, and the field, unless the refusal is
one of :data:`ELSEWHERE`. A lone surrogate in a field that takes text, a
string or a list of strings, is always refused, with the message that the
field is not valid Unicode text. A run config's settings merge with flags,
so a config value that its field table accepts but a later check refuses
is reported by that check, which need not name the config file; a
refusal that does name it names the field too. The hand-written cases in
``test_cli.py`` and ``test_dataio.py`` pin exact messages; these pin the
shape of every answer to every field.
"""

from __future__ import annotations

import io
import json
import re
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from raghpo import dataio
from raghpo.cli import EXIT_OK, EXIT_VALIDATION, main
from raghpo.dataio import Dataset, GridTable, QaPair, store_dataset, store_grid
from raghpo.costs import CostDelta
from raghpo.searchspace import SearchSpace

from conftest import make_document

#: The JSON values each field is set to, by name; every field is also dropped.
VALUES = {
    "null": None,
    "true": True,
    "false": False,
    "0": 0,
    "-1": -1,
    "1.5": 1.5,
    "a string": "x",
    "a numeric string": "1",
    "an empty list": [],
    "a list": [1],
    "an object": {},
    "a lone surrogate": "\ud800",
    "a list holding a lone surrogate": ["d", "\ud800"],
}

#: Refusals of a record read from a data file that point past the record: a
#: pattern of the message, and why.
ELSEWHERE = {
    r"grid table incomplete": "a score row moved to another qid leaves its cell short a row, "
    "and a missing row has no line",
    r"trial row seed \d+ is not one of the run_header's seeds": "a header naming fewer seeds "
    "is valid; the first trial row of a seed it lacks is refused at its own line",
    r"bad run_header: (objective needs at least one metric|weights must match metrics)": "the "
    "objective's own check names its metrics and weights",
}

#: Tables whose records only a live command reads, and the test that covers them.
COVERED_ELSEWHERE = {
    "ENDPOINTS_FIELDS": "test_cli.py::BAD_ENDPOINTS",
    "ENDPOINT_FIELDS": "test_cli.py::BAD_ENDPOINTS",
}

HANDFUL = 4  # the most threads one command may start

SPACE = SearchSpace(
    chunk_sizes=(4,), chunk_overlaps=(0.0,), embedding_models=("emb",),
    top_ks=(1, 2), generative_models=("gen",),
)
SAMPLE = ["sample", "--dataset", "dataset", "--out", "out", "--fraction", "0.5", "--noise", "1",
          "--seed", "1"]
ANALYZE_TABLE = ["analyze", "--table", "grid.jsonl", "--space", "space.json", "--out", "out"]
ANALYZE_RUN = ["analyze", "--run", "run.jsonl", "--out", "out"]
OPTIMIZE = ["optimize", "--config", "config.json"]
CONFIG = {
    "dataset": "dataset",
    "grid_table": "grid.jsonl",
    "out": "out",
    "space": SPACE.to_dict(),
    "algorithm": "random",
    "objective": {"metrics": ["lexical_ac"], "weights": [1.0]},
    "budget": 2,
    "seeds": [1, 2],
    "parallelism": 1,
    "splits": "dev,test",
    "metrics": "lexical_ac",
    "tpe": {"gamma": 0.25, "candidates": 4, "init": 1},
    "greedy": {"suffix_mode": "shared"},
    "endpoints": {},
    "sample": {"qa_fraction": 0.5, "noise_ratio": 1, "seed": 1},
    "embed_batch_size": 8,
}


@dataclass(frozen=True)
class Source:
    """Where a command reads one kind of record, and the command."""

    file: str
    argv: list[str]
    kind: str | None = None  # the ``kind`` of the row in a JSON-lines file; None for line 1
    key: str | None = None  # the record is this object field of the row or document
    config: dict = field(default_factory=dict)  # run-config values this table's runs set

    @property
    def lines(self) -> bool:
        return self.file.endswith(".jsonl")


SOURCES = {
    "MANIFEST_FIELDS": Source("dataset/manifest.json", SAMPLE),
    # The last document is no question's gold document.
    "CORPUS_FIELDS": Source("dataset/corpus.jsonl", SAMPLE, kind="last"),
    "BENCHMARK_FIELDS": Source("dataset/benchmark.jsonl", SAMPLE),
    "GRID_HEADER_FIELDS": Source("grid.jsonl", ANALYZE_TABLE),
    "COST_FIELDS": Source("grid.jsonl", ANALYZE_TABLE, kind="cost"),
    "SCORE_FIELDS": Source("grid.jsonl", ANALYZE_TABLE, kind="score"),
    "RUN_HEADER_FIELDS": Source("run.jsonl", ANALYZE_RUN),
    "TRIAL_FIELDS": Source("run.jsonl", ANALYZE_RUN, kind="trial"),
    "TRIAL_COST_FIELDS": Source("run.jsonl", ANALYZE_RUN, kind="trial", key="cost"),
    "AGGREGATE_FIELDS": Source("run.jsonl", ANALYZE_RUN, kind="aggregate"),
    "RUN_CONFIG_FIELDS": Source("config.json", OPTIMIZE),
    "OBJECTIVE_FIELDS": Source("config.json", OPTIMIZE, key="objective"),
    "SPACE_FIELDS": Source("config.json", OPTIMIZE, key="space"),
    "TPE_FIELDS": Source("config.json", OPTIMIZE, key="tpe", config={"algorithm": "tpe"}),
    "GREEDY_FIELDS": Source("config.json", OPTIMIZE, key="greedy", config={"algorithm": "greedy_m"}),
    "SAMPLE_FIELDS": Source("config.json", OPTIMIZE, key="sample"),
}


def test_every_declared_field_table_is_covered():
    declared = {name for name in vars(dataio) if name.endswith("_FIELDS")}
    assert declared == set(SOURCES) | set(COVERED_ELSEWHERE)


def _write_inputs(root: Path, config: dict) -> None:
    corpus = tuple(make_document(f"d{i}", 6) for i in range(6))
    dev = tuple(
        QaPair(qid=f"q{i}", question=f"question {i}", gold_answer="tok1", gold_doc_ids=(f"d{i}",))
        for i in range(4)
    )
    test = (QaPair(qid="t0", question="?", gold_answer="tok2", gold_doc_ids=("d0",)),)
    store_dataset(Dataset(corpus=corpus, dev=dev, test=test, name="fields"), root / "dataset")
    table = GridTable(SPACE)
    for ordinal in range(SPACE.total_size):
        for split, qids in (("dev", ("q0", "q1")), ("test", ("t0",))):
            table.set_cost(ordinal, split, CostDelta(10, 20, 30))
            for qid in qids:
                table.add_score(ordinal, split, "lexical_ac", qid, 0.25 * (ordinal + 1))
    store_grid(table, root / "grid.jsonl")
    (root / "space.json").write_text(json.dumps(SPACE.to_dict()))
    (root / "config.json").write_text(json.dumps(config))
    assert main(["optimize", "--grid", "grid.jsonl", "--space", "space.json", "--budget", "2",
                 "--seeds", "1,2", "--objective", "lexical_ac", "--out", "run.jsonl"]) == EXIT_OK


def _record_line(source: Source, lines: list[str]) -> int:
    """The index of the line that holds the record ``source`` mutates."""
    if source.kind is None:
        return 0
    if source.kind == "last":
        return len(lines) - 1
    for i, line in enumerate(lines):
        row = json.loads(line)
        if row.get("kind", "score") == source.kind and i > 0:
            return i
    raise AssertionError(f"no {source.kind} row in {source.file}")


def _mutations(fields: dict):
    for name in fields:
        yield name, "dropped", None
        for label, value in VALUES.items():
            yield name, label, value


def _lone_surrogate(value, spec) -> bool:
    """Whether ``value``, text of the type ``spec`` admits, holds a lone surrogate."""
    spec = spec[0] if isinstance(spec, tuple) else spec
    texts = value if isinstance(value, list) else [value]
    return dataio.is_a(value, spec) and any(isinstance(t, str) and "\ud800" in t for t in texts)


def _elsewhere(err: str) -> bool:
    return any(re.search(pattern, err) for pattern in ELSEWHERE)


def _snapshot(root: Path) -> set[Path]:
    return {path for path in root.rglob("*") if not path.name.endswith(".cols.npz")}


def _remove(paths) -> None:
    for path in sorted(paths, key=lambda p: len(p.parts), reverse=True):
        path.rmdir() if path.is_dir() else path.unlink()


@pytest.mark.parametrize("table", SOURCES)
def test_each_field_dropped_or_of_another_type_exits_0_or_2_naming_it(
    tmp_path, monkeypatch, capsys, table
):
    source = SOURCES[table]
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path, {**CONFIG, **source.config})
    path = tmp_path / source.file
    original = path.read_text(encoding="utf-8")
    lines = original.splitlines()
    index = _record_line(source, lines)
    before = _snapshot(tmp_path)
    threads = threading.active_count()
    started, slept = [], []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread) or start(thread))
    monkeypatch.setattr(time, "sleep", slept.append)
    capsys.readouterr()
    failures = []
    fields = getattr(dataio, table)
    for name, label, value in _mutations(fields):
        document = json.loads(lines[index]) if source.lines else json.loads(original)
        record = document[source.key] if source.key else document
        if label == "dropped":
            record.pop(name, None)
        else:
            record[name] = value
        text = json.dumps(document)
        path.write_text(
            "\n".join(lines[:index] + [text] + lines[index + 1 :]) + "\n" if source.lines else text,
            encoding="utf-8",
        )
        # A StringIO, like the interpreter's own stderr, takes the lone surrogate
        # a message may quote.
        monkeypatch.setattr(sys, "stderr", io.StringIO())
        try:
            code = main(source.argv)
        except Exception as exc:  # noqa: BLE001 - every escape is a failure to report
            code = f"{type(exc).__name__}: {exc}"
        err = sys.stderr.getvalue()
        made = _snapshot(tmp_path) - before
        case = f"{name} {label}: exit {code}: {err.strip()!r}"
        where = f"{source.file}:{index + 1}" if source.lines else source.file
        if _lone_surrogate(value, fields[name]):
            message = rf"error: {re.escape(where)}: [\w ]+ field '{name}' is not valid Unicode text\n"
            if code != EXIT_VALIDATION or not re.fullmatch(message, err):
                failures.append(f"{case} is not the text message at {where} for {name!r}")
        if code == EXIT_VALIDATION:
            named = where in err and name in err
            if source.file == "config.json":
                named = named or where not in err
            if not (err.startswith("error: ") and (named or _elsewhere(err))):
                failures.append(f"{case} does not name {where} and {name!r}")
            if made:
                failures.append(f"{case} left {sorted(str(p.relative_to(tmp_path)) for p in made)}")
        elif code != EXIT_OK:
            failures.append(case)
        if "Traceback" in err:
            failures.append(f"{case} printed a traceback")
        if len(started) > HANDFUL or threading.active_count() > threads:
            failures.append(f"{case} started {len(started)} threads")
        if slept:
            failures.append(f"{case} slept {slept}")
        started.clear()
        slept.clear()
        _remove(made)
    assert not failures, "\n".join(failures)
