"""Dataset and grid-table file formats, validation, and dev-set sampling.

Dataset on disk is a directory of three files:

* ``manifest.json`` -- ``{"format_version": 1, "name": ..., "corpus_file":
  ..., "benchmark_file": ..., "relaxed_test_closure": bool}``
* corpus file (JSON lines) -- ``{"doc_id": str, "title": str?, "text": str}``
* benchmark file (JSON lines) -- ``{"qid": str, "question": str,
  "gold_answer": str, "gold_doc_ids": [str]?, "split": "dev"|"test"}``

Every record read from a file, these, the grid-table and run-export rows,
the run config with its sections and endpoints, and the search space, is
checked against its field table (``MANIFEST_FIELDS`` and the rest) by
:func:`check_fields`, the one field checker: an optional field takes its
default, no value is converted, a boolean is never a number, text
holding a lone surrogate, which no file could hold, is refused, and a
field whose spec carries a value rule (:mod:`raghpo.rules`) is held to it.

A grid table is a JSON-lines file whose first line is a header carrying the
format version and the fingerprint of the search space it was computed
against. Remaining lines are score rows ``{"ordinal", "split", "metric",
"qid", "score"}`` plus optional per-config cost rows (``"kind": "cost"``).
In memory a table holds that search space, and each (split, metric) is a
float matrix over (qid, ordinal) with one column per configuration.
:func:`store_grid` emits rows in the canonical order (ordinal, split, metric,
qid) with canonical JSON, so store(load(x)) is byte-identical for canonical
files. A cost row may repeat, as versions that appended each cell's rows
wrote it; the last one read wins.

Each grid table is parsed from JSON once. :func:`load_grid` and
:func:`store_grid` save the in-memory columns beside the table as
``<table>.cols.npz``, keyed on the SHA-256 of the table's bytes, and a load
whose table still has those bytes rebuilds the columns from that file
(:func:`_load_companion`). The companion is a derived cache: it is safe to
delete, a failure to write it is only logged, and a damaged or stale one is
ignored, so it never changes a result or an error.
"""

from __future__ import annotations

import copy
import hashlib
import json
import logging
import itertools
import math
import operator
import os
import random
import re
import threading
import types
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .costs import ZERO_COST, CostDelta
from .metrics import METRIC_NAMES
from .optimizers import ALGORITHM_RULE, CANDIDATES_RULE, GAMMA_RULE, INIT_RULE, SUFFIX_MODE_RULE
from .rules import Choice, Interval, Rule
from .searchspace import CHUNK_OVERLAP_RULE, CHUNK_SIZE_RULE, SPACE_FORMAT_VERSION, TOP_K_RULE, SearchSpace

log = logging.getLogger(__name__)

DATASET_FORMAT_VERSION = 1
GRID_FORMAT_VERSION = 1
RUN_FORMAT_VERSION = 1

SPLITS = ("dev", "test")


class FingerprintMismatchError(ValueError):
    """Grid table was computed against a different search space."""


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str
    title: str | None = None

    def __post_init__(self) -> None:
        if not self.doc_id:
            raise ValueError("doc_id must be non-empty")
        if not self.text:
            raise ValueError(f"document {self.doc_id!r} has empty text")


@dataclass(frozen=True)
class QaPair:
    qid: str
    question: str
    gold_answer: str
    gold_doc_ids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.qid:
            raise ValueError("qid must be non-empty")
        object.__setattr__(self, "gold_doc_ids", tuple(self.gold_doc_ids))


@dataclass(frozen=True)
class Dataset:
    """A corpus plus a QA benchmark split into dev and test."""

    corpus: tuple[Document, ...]
    dev: tuple[QaPair, ...]
    test: tuple[QaPair, ...]
    name: str | None = None
    # Set on corpus-subsampled datasets: the test split may reference gold
    # documents that were dropped from the sampled corpus.
    relaxed_test_closure: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "corpus", tuple(self.corpus))
        object.__setattr__(self, "dev", tuple(self.dev))
        object.__setattr__(self, "test", tuple(self.test))

    def split(self, name: str) -> tuple[QaPair, ...]:
        if name == "dev":
            return self.dev
        if name == "test":
            return self.test
        raise ValueError(f"unknown split {name!r}; expected one of {SPLITS}")

    def doc_ids(self) -> set[str]:
        return {d.doc_id for d in self.corpus}


_BLOCK_SIZE = 1 << 16  # bytes read at a time from a JSON-lines file


def _read_blocks(path: Path, digest: hashlib._Hash | None = None) -> Iterator[tuple[int, str]]:
    """Yield (number of the first line, text) for ``path`` in blocks of whole lines.

    Lines end at ``\\n``. Each block read is fed to ``digest`` and cut after
    its last ``\\n``, the rest carried into the next, so memory is bounded by
    a block and the longest line. Invalid UTF-8 is a ValueError naming its
    line, raised once the lines before it are yielded.
    """
    lineno, carried = 1, []
    with path.open("rb") as fh:
        while True:
            block = fh.read(_BLOCK_SIZE)
            if digest is not None:
                digest.update(block)
            carried.append(block or b"\n")  # the end of the file ends the last line
            if b"\n" not in carried[-1]:
                continue
            head, _, tail = b"".join(carried).rpartition(b"\n")
            data, carried = head + b"\n", [tail]
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                start = data.rfind(b"\n", 0, exc.start) + 1
                yield lineno, data[:start].decode("utf-8")
                lineno += data.count(b"\n", 0, start)
                raise ValueError(f"{path}:{lineno}: not valid UTF-8") from None
            yield lineno, text
            lineno += text.count("\n")
            if not block:
                return


def _read_jsonl(path: Path) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) for each non-blank line; a bad line is a ValueError naming it."""
    for first, text in _read_blocks(path):
        for lineno, line in enumerate(text.split("\n")[:-1], first):
            if line := line.strip():
                yield lineno, _json_object(line, f"{path}:{lineno}")


def _json_object(line: str, where: str) -> dict:
    """The JSON object on one line; a ValueError says at ``where`` why it is not one."""
    try:
        record = json.loads(line)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long for int()
        raise ValueError(f"{where}: invalid JSON ({exc})") from None
    if not isinstance(record, dict):
        raise ValueError(f"{where}: expected a JSON object")
    return record


def read_json_object(path: Path) -> dict:
    """The single JSON object that ``path`` holds; a ValueError says why it is not one.

    The message is ``path:line: invalid JSON (msg)``, ``path: not valid
    UTF-8`` or ``path: expected a JSON object``.
    """
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not valid UTF-8") from None
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from None
    except ValueError as exc:  # an integer too long for int()
        raise ValueError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(document, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return document


_NUMBER = int | float

MAX_SEEDS = 10_000  # the most seeds of a run, as a count N (the seeds 1 to N) or a list
MAX_PARALLELISM = 64  # the most requests a live evaluator sends at once
#: The longest endpoint timeout or backoff, in seconds: ``time.sleep`` fails once the
#: monotonic clock plus the wait passes ``threading.TIMEOUT_MAX``, so half of it leaves room.
MAX_WAIT = int(threading.TIMEOUT_MAX / 2)


def _are_seeds(seeds: int | Sequence[int]) -> bool:
    """Whether ``seeds`` is a count from 1 to MAX_SEEDS, or a list of that many distinct seeds."""
    count = seeds if isinstance(seeds, int) else len(seeds) if len(set(seeds)) == len(seeds) else 0
    return 1 <= count <= MAX_SEEDS


def _are_weights(weights: Sequence[float]) -> bool:
    """Whether ``weights`` are numbers >= 0 that sum to 1 within 1e-9.

    A weight above 2 cannot, and is refused before the sum, which a number
    too large for a float would overflow.
    """
    return all(0 <= w <= 2 for w in weights) and abs(sum(map(float, weights)) - 1.0) <= 1e-9


#: The value rules whose owners this module does not import, beside the field tables that carry them.
SPLITS_RULE = Choice(SPLITS, several=True)
METRIC_RULE = Choice(sorted(METRIC_NAMES))
METRICS_RULE = Choice(METRIC_RULE.choices, several=True)
WEIGHTS_RULE = Rule("numbers >= 0 that sum to 1", _are_weights)
BUDGET_RULE = Interval(1)
SEEDS_RULE = Rule(f"a count from 1 to {MAX_SEEDS}, or a list of 1 to {MAX_SEEDS} distinct seeds", _are_seeds)
PARALLELISM_RULE = Interval(1, MAX_PARALLELISM)
EMBED_BATCH_SIZE_RULE = Interval(1)
QA_FRACTION_RULE = Interval(0, 1, "(]")
NOISE_RATIO_RULE = Interval(0)
TIMEOUT_RULE = Interval(0, MAX_WAIT, "(]")
MAX_ATTEMPTS_RULE = Interval(1)
BACKOFF_RULE = Interval(0, MAX_WAIT)
FILE_RULE = Rule("the path of a file", lambda path: Path(path).is_file())
DIRECTORY_RULE = Rule("the path of a directory", lambda path: Path(path).is_dir())

#: The fields of each kind of record read from a file, by name. A field's
#: spec is its type: a type, a union of types or ``list[item]``; or a tuple
#: of the type, then for an optional field the value it takes when a record
#: lacks it, then the field's value :class:`~raghpo.rules.Rule`, if any. A
#: default of None that the type does not admit leaves the setting unset, to
#: a flag or to the default of the code that uses it. A JSON boolean is only
#: ever a ``bool``, never a number.
MANIFEST_FIELDS = {
    "format_version": int,
    "name": (str | None, None),
    "corpus_file": (str, "corpus.jsonl"),
    "benchmark_file": (str, "benchmark.jsonl"),
    "relaxed_test_closure": (bool, False),
}
CORPUS_FIELDS = {"doc_id": str, "text": str, "title": (str | None, None)}
BENCHMARK_FIELDS = {
    "qid": str,
    "question": str,
    "gold_answer": str,
    "gold_doc_ids": (list[str], []),
    "split": str,
}
GRID_HEADER_FIELDS = {"format_version": int, "space_fingerprint": str}
SCORE_FIELDS = {"ordinal": int, "split": str, "metric": str, "qid": str, "score": _NUMBER}
COST_FIELDS = {"ordinal": int, "split": str, **dict.fromkeys(ZERO_COST.as_dict(), int)}
OBJECTIVE_FIELDS = {
    "metrics": (list[str], METRICS_RULE), "weights": (list[_NUMBER] | None, None, WEIGHTS_RULE)
}
RUN_HEADER_FIELDS = {
    "format_version": (int, Choice([RUN_FORMAT_VERSION])),
    "space": dict,
    "algorithm": (str, ALGORITHM_RULE),
    "objective_metrics": OBJECTIVE_FIELDS["metrics"],
    "objective_weights": OBJECTIVE_FIELDS["weights"],
    "budget": (int, BUDGET_RULE),
    "seeds": (list[int], SEEDS_RULE),
    "optimizer_options": (dict, {}),
}
TRIAL_FIELDS = {
    "seed": int,
    "iteration": int,
    "ordinal": int,
    "objective_score": _NUMBER | None,
    "retrieval_score": _NUMBER | None,
    "driver": str,
    "cost": dict,
    "best_dev": _NUMBER | None,
    "best_ordinal": int | None,
    "test_of_best": _NUMBER | None,
    "cum_embedded_tokens": int,
    "cum_generation_input_tokens": int,
    "cum_generation_output_tokens": int,
}
TRIAL_COST_FIELDS = dict.fromkeys(ZERO_COST.as_dict(), int)
AGGREGATE_FIELDS = {
    "iteration": int, "mean_test": _NUMBER | None, "se_test": _NUMBER | None, "n": int
}
SPACE_FIELDS = {
    "format_version": (int, SPACE_FORMAT_VERSION, Choice([SPACE_FORMAT_VERSION])),
    "chunk_size": (list[int], CHUNK_SIZE_RULE), "chunk_overlap": (list[_NUMBER], CHUNK_OVERLAP_RULE),
    "embedding_model": list[str], "top_k": (list[int], TOP_K_RULE), "generative_model": list[str],
}
RUN_CONFIG_FIELDS = {
    "dataset": (str | None, None, DIRECTORY_RULE), "out": (str | None, None),
    "grid_table": (str | None, None, FILE_RULE),
    "space": (str | dict | None, None, FILE_RULE),
    "algorithm": (str, "random", ALGORITHM_RULE),
    "objective": (str | list[str] | dict | None, None, METRICS_RULE),
    "budget": (int, 10, BUDGET_RULE), "seeds": (int | list[int], 10, SEEDS_RULE),
    "parallelism": (int, 1, PARALLELISM_RULE), "embed_batch_size": (int, 32, EMBED_BATCH_SIZE_RULE),
    "splits": (str | list[str], "dev,test", SPLITS_RULE),
    "metrics": (str | list[str] | None, None, METRICS_RULE),
    "tpe": (dict, {}), "greedy": (dict, {}), "endpoints": (dict, {}),
    "sample": (dict | None, None),
}
TPE_FIELDS = {
    "gamma": (_NUMBER, None, GAMMA_RULE), "candidates": (int, None, CANDIDATES_RULE),
    "init": (int, None, INIT_RULE),
}
GREEDY_FIELDS = {"suffix_mode": (str, None, SUFFIX_MODE_RULE)}
SAMPLE_FIELDS = {"qa_fraction": (_NUMBER, QA_FRACTION_RULE), "noise_ratio": (int, NOISE_RATIO_RULE), "seed": int}
ENDPOINTS_FIELDS = dict.fromkeys(("embed", "generate", "judge"), (dict | None, None))
ENDPOINT_FIELDS = {
    "base_url": str, "auth_env": (str | None, None), "max_attempts": (int, None, MAX_ATTEMPTS_RULE),
    "timeout": (_NUMBER, None, TIMEOUT_RULE), "backoff_seconds": (_NUMBER, None, BACKOFF_RULE),
}


def is_a(value, spec) -> bool:
    """Whether a JSON value is of ``spec``: a type, a union of them, or ``list[item]``.

    A list's items are matched by exact type, which for JSON values is the
    same test and runs at C speed: ``item`` is a type or a union of them.
    """
    if isinstance(spec, types.UnionType):
        return any(is_a(value, member) for member in spec.__args__)
    if isinstance(spec, types.GenericAlias):
        item = spec.__args__[0]
        allowed = set(item.__args__) if isinstance(item, types.UnionType) else {item}
        return isinstance(value, list) and set(map(type, value)) <= allowed
    return isinstance(value, spec) and (spec is bool or not isinstance(value, bool))


#: A lone surrogate: JSON can spell one (``"\\ud800"``), but UTF-8 cannot encode it.
_SURROGATE = re.compile("[\ud800-\udfff]")


def spec_parts(spec) -> tuple:
    """A field's spec as (type, ``[default]`` or ``[]`` for a required field, rule or None)."""
    spec, *rest = spec if isinstance(spec, tuple) else (spec,)
    rule = rest.pop() if rest and isinstance(rest[-1], Rule) else None
    return spec, rest, rule


def check_fields(record: dict, kind: str, fields: dict, where: str) -> None:
    """Check ``record``, a ``kind`` of record, against its field table ``fields``.

    Each optional field that ``record`` lacks is set to a copy of its
    default. The first field that it otherwise lacks, holds a value of the
    wrong type, holds text with a lone surrogate, which no file that a run
    writes could hold, or holds a value its rule refuses, is a ValueError at
    ``where``. A rule judges a value that is neither null nor an object (a
    record of its own), and a rule with ``each`` judges each item of a list.
    No value is converted, and fields that ``fields`` does not name are left
    as they are.
    """
    for name, spec in fields.items():
        spec, default, rule = spec_parts(spec) if isinstance(spec, tuple) else (spec, (), None)
        if name not in record:
            if not default:
                raise ValueError(f"{where}: {kind} lacks field {name!r}")
            record[name] = copy.copy(default[0])
            continue
        value = record[name]
        if not is_a(value, spec):
            raise ValueError(f"{where}: {kind} field {name!r} has the wrong type: {value!r}")
        texts = [value] if isinstance(value, str) else value if isinstance(value, list) else ()
        if texts and any(isinstance(t, str) and not t.isascii() and _SURROGATE.search(t) for t in texts):
            raise ValueError(f"{where}: {kind} field {name!r} is not valid Unicode text")
        if rule is not None and value is not None and not isinstance(value, dict):
            for item in value if rule.each and isinstance(value, list) else [value]:
                rule.check(item, f"{where}: {kind} field {name!r}")


def read_space(record: dict, where: str) -> SearchSpace:
    """The search space of a space record: a space file's, a run config's or a run header's.

    Each ``chunk_overlap`` is widened to float, so ``0`` and ``0.0`` give one
    space. A bad record, or one :class:`SearchSpace` refuses, is a ValueError at ``where``.
    """
    check_fields(record, "search space", SPACE_FIELDS, where)
    try:
        overlaps = [float(value) for value in record["chunk_overlap"]]
        return SearchSpace.from_dict({**record, "chunk_overlap": overlaps})
    except ValueError as exc:  # an empty value list, or one with duplicates
        raise ValueError(f"{where}: {exc}") from None


def _read_manifest(root: Path) -> dict:
    """The manifest of the dataset directory ``root``, checked, its defaults filled in."""
    path = root / "manifest.json"
    if not path.is_file():
        raise ValueError(f"{path}: manifest not found")
    manifest = read_json_object(path)
    check_fields(manifest, "manifest", MANIFEST_FIELDS, str(path))
    if (version := manifest["format_version"]) != DATASET_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format_version {version!r}")
    for name in ("corpus_file", "benchmark_file"):
        if not (file := root / manifest[name]).is_file():
            raise ValueError(f"{path}: manifest field {name!r} names no file: {file}")
    return manifest


def load_dataset(path: str | Path) -> Dataset:
    """Load and validate a dataset directory.

    A field of the wrong type, duplicate ids, dangling gold references,
    unknown splits and kept strings that UTF-8 cannot encode are rejected
    with the offending file and line number.
    """
    root = Path(path)
    manifest = _read_manifest(root)
    corpus_path = root / manifest["corpus_file"]
    benchmark_path = root / manifest["benchmark_file"]
    relaxed = manifest["relaxed_test_closure"]

    corpus: list[Document] = []
    seen_docs: set[str] = set()
    for lineno, record in _read_jsonl(corpus_path):
        where = f"{corpus_path}:{lineno}"
        check_fields(record, "corpus row", CORPUS_FIELDS, where)
        doc_id = record["doc_id"]
        if doc_id in seen_docs:
            raise ValueError(f"{where}: duplicate doc_id {doc_id!r}")
        seen_docs.add(doc_id)
        try:
            doc = Document(doc_id=doc_id, text=record["text"], title=record["title"])
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        corpus.append(doc)

    dev: list[QaPair] = []
    test: list[QaPair] = []
    seen_qids: set[str] = set()
    for lineno, record in _read_jsonl(benchmark_path):
        where = f"{benchmark_path}:{lineno}"
        check_fields(record, "benchmark row", BENCHMARK_FIELDS, where)
        qid, split = record["qid"], record["split"]
        if qid in seen_qids:
            raise ValueError(f"{where}: duplicate qid {qid!r}")
        seen_qids.add(qid)
        if split not in SPLITS:
            raise ValueError(f"{where}: split must be one of {SPLITS}, got {split!r}")
        if split == "dev" or not relaxed:
            for gid in record["gold_doc_ids"]:
                if gid not in seen_docs:
                    raise ValueError(
                        f"{where}: gold_doc_ids references missing doc_id {gid!r}"
                    )
        try:
            qa = QaPair(qid, record["question"], record["gold_answer"], record["gold_doc_ids"])
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        (dev if split == "dev" else test).append(qa)

    return Dataset(corpus, dev, test, manifest["name"], relaxed)


def _dump_canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


@contextmanager
def atomic_write(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """Open ``path`` for writing so that readers see the old file or the whole new one.

    The handle takes UTF-8 text, or bytes when ``binary``. What is written
    goes to a temporary file in the same directory, which replaces ``path``
    only when the block exits normally; on an exception the temporary file
    is removed and ``path`` is left as it was. A process killed mid-write
    leaves at most a stray ``.tmp`` file beside ``path``. The temporary file
    is fsynced before it replaces ``path``, and the directory after, so a
    power loss once the block has exited keeps the new file whole.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    temp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with temp.open("wb") if binary else temp.open("w", encoding="utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(temp, target)
        directory = os.open(target.parent, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
    finally:
        temp.unlink(missing_ok=True)


def store_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset directory in the canonical on-disk layout, each file atomically.

    The directory as a whole is not replaced at once: a process killed
    between two files leaves some files new and others as they were.
    """
    root = Path(path)
    manifest = {
        "format_version": DATASET_FORMAT_VERSION,
        "corpus_file": "corpus.jsonl",
        "benchmark_file": "benchmark.jsonl",
    }
    if dataset.name is not None:
        manifest["name"] = dataset.name
    if dataset.relaxed_test_closure:
        manifest["relaxed_test_closure"] = True
    with atomic_write(root / "manifest.json") as fh:
        fh.write(_dump_canonical(manifest) + "\n")
    with atomic_write(root / "corpus.jsonl") as fh:
        for doc in dataset.corpus:
            record = {"doc_id": doc.doc_id, "text": doc.text}
            if doc.title is not None:
                record["title"] = doc.title
            fh.write(_dump_canonical(record) + "\n")
    with atomic_write(root / "benchmark.jsonl") as fh:
        for split in SPLITS:
            for qa in dataset.split(split):
                fh.write(
                    _dump_canonical(
                        {
                            "qid": qa.qid,
                            "question": qa.question,
                            "gold_answer": qa.gold_answer,
                            "gold_doc_ids": list(qa.gold_doc_ids),
                            "split": split,
                        }
                    )
                    + "\n"
                )


def dataset_content_hash(path: str | Path) -> str:
    """SHA-256 over the corpus and benchmark file bytes, for provenance records."""
    root = Path(path)
    manifest = _read_manifest(root)
    return _sha256_file(root / manifest["corpus_file"], root / manifest["benchmark_file"])


def _sha256_file(*paths: Path) -> str:
    """SHA-256 over the bytes of ``paths`` in turn, read in 1 MB blocks."""
    digest = hashlib.sha256()
    for path in paths:
        with path.open("rb") as fh:
            while block := fh.read(1 << 20):
                digest.update(block)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Dev-set sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SamplePlan:
    """Sampling parameters: QA fraction, noise docs per gold doc, RNG seed."""

    qa_fraction: float
    noise_ratio: int
    seed: int

    def __post_init__(self) -> None:
        QA_FRACTION_RULE.check(self.qa_fraction, "qa_fraction")
        NOISE_RATIO_RULE.check(self.noise_ratio, "noise_ratio")


@dataclass(frozen=True)
class SampleOutcome:
    """Result of :func:`sample_dev` plus accounting for provenance records."""

    dataset: Dataset
    sampled_qids: tuple[str, ...]
    gold_doc_ids: tuple[str, ...]
    noise_doc_ids: tuple[str, ...]
    noise_shortfall: int


def sample_dev(dataset: Dataset, plan: SamplePlan) -> SampleOutcome:
    """Subsample the dev benchmark and shrink the corpus around it.

    Draws ceil(qa_fraction * |dev|) dev questions uniformly without
    replacement, keeps every gold document of the sample, and adds
    ``noise_ratio`` non-gold documents per pooled gold document, drawn
    uniformly without replacement from the rest of the corpus. Questions
    sharing gold documents do not double-count. The test split passes
    through unchanged (its gold documents may reference the source corpus,
    so the result is marked ``relaxed_test_closure``).

    Deterministic per seed: questions are drawn by ``random.Random(seed)``
    over the dev list in stored order, then noise over non-gold documents in
    corpus order; emitted lists keep the source ordering.
    """
    rng = random.Random(plan.seed)
    n_sample = math.ceil(plan.qa_fraction * len(dataset.dev))
    picked_idx = sorted(rng.sample(range(len(dataset.dev)), n_sample))
    sampled = [dataset.dev[i] for i in picked_idx]

    gold_ids = sorted({gid for qa in sampled for gid in qa.gold_doc_ids})
    gold_set = set(gold_ids)
    non_gold = [d.doc_id for d in dataset.corpus if d.doc_id not in gold_set]
    requested = plan.noise_ratio * len(gold_ids)
    take = min(requested, len(non_gold))
    shortfall = requested - take
    if shortfall:
        log.warning(
            "noise shortfall: requested %d non-gold documents, only %d available",
            requested,
            len(non_gold),
        )
    noise_ids = set(rng.sample(non_gold, take))

    keep = gold_set | noise_ids
    corpus = tuple(d for d in dataset.corpus if d.doc_id in keep)
    sampled_dataset = Dataset(
        corpus=corpus,
        dev=tuple(sampled),
        test=dataset.test,
        name=dataset.name,
        relaxed_test_closure=True,
    )
    return SampleOutcome(
        dataset=sampled_dataset,
        sampled_qids=tuple(qa.qid for qa in sampled),
        gold_doc_ids=tuple(gold_ids),
        noise_doc_ids=tuple(sorted(noise_ids)),
        noise_shortfall=shortfall,
    )


# ---------------------------------------------------------------------------
# Grid tables
# ---------------------------------------------------------------------------

GridKey = tuple[int, str, str, str]  # (ordinal, split, metric, qid)


class IncompleteTableError(ValueError):
    """A configuration lacks rows of the qid universe that a replay or analysis needs."""


@dataclass(frozen=True, eq=False)
class ScoreSlice:
    """One (split, metric) of a grid table over every configuration of its space."""

    split: str
    metric: str
    qids: tuple[str, ...]  # the qid universe, one matrix row each
    matrix: np.ndarray  # [qid x ordinal], NaN where a row is missing
    means: np.ndarray  # [ordinal], NaN where any qid of the universe is missing

    def missing(self, ordinal: int) -> list[str]:
        """The qids of the universe that lack a row for ``ordinal``, in universe order."""
        if not math.isnan(self.means[ordinal]):
            return []
        return [q for q, v in zip(self.qids, self.matrix[:, ordinal].tolist()) if math.isnan(v)]

    def require_complete(self, ordinals: Iterable[int]) -> None:
        """Raise :class:`IncompleteTableError` for the first of ``ordinals`` that lacks a qid."""
        if not self.qids:
            raise IncompleteTableError(
                f"grid table has no rows for metric {self.metric!r} on split {self.split!r}"
            )
        for ordinal in ordinals:
            gaps = self.missing(ordinal)
            if gaps:
                shown = ", ".join(gaps[:5]) + ("..." if len(gaps) > 5 else "")
                raise IncompleteTableError(
                    f"grid table incomplete: config ordinal {ordinal} is missing {len(gaps)} "
                    f"of {len(self.qids)} {self.metric!r}/{self.split!r} rows (qids: {shown})"
                )


class _Columns:
    """The rows of one (split, metric) as added: qid -> matrix row, and a [qid x ordinal] matrix.

    The matrix has one column per configuration of the space from the start,
    and grows by rows only. NaN marks a missing row.
    """

    def __init__(self, size: int) -> None:
        self.rows: dict[str, int] = {}
        self.matrix = np.full((8, size), np.nan)

    def layout(self) -> tuple[list[str], np.ndarray]:
        """The qids sorted, and the matrix with exactly their rows, in that order.

        A matrix already in that layout is returned as it is, not copied.
        """
        qids = sorted(self.rows)
        if list(self.rows) == qids and len(self.matrix) == len(qids):
            return qids, self.matrix
        return qids, self.matrix[[self.rows[q] for q in qids]]

    def compact(self) -> None:
        """Put the rows in :meth:`layout`, dropping the capacity that growth left."""
        qids, self.matrix = self.layout()
        self.rows = {qid: row for row, qid in enumerate(qids)}

    def _fit(self, row: int) -> None:
        """Grow the matrix to hold ``row``, at least doubling its rows."""
        n_rows, size = self.matrix.shape
        if row >= n_rows:
            grown = np.full((max(2 * n_rows, row + 1), size), np.nan)
            grown[:n_rows] = self.matrix
            self.matrix = grown


@dataclass(eq=False)
class GridTable:
    """Per-(config, question, metric, split) scores, the replay oracle, plus per-cell costs.

    A table is bound to its search space, the full grid: its ordinals are
    exactly ``range(space.total_size)``, and its file header carries the
    space's fingerprint. Each (split, metric) is held as columns: a float
    matrix over (qid, ordinal) with one column per configuration and NaN
    for a missing row. :meth:`slice` is the one query over them; ``scores``
    rebuilds the row dict on each access.
    """

    space: SearchSpace
    costs: dict[tuple[int, str], CostDelta] = field(default_factory=dict)
    _columns: dict[tuple[str, str], _Columns] = field(
        default_factory=dict, init=False, repr=False
    )

    def _check_cell(self, ordinal: int, split: str) -> None:
        """Refuse an ordinal that names no configuration of the table's space, or an unknown split."""
        size = self.space.total_size
        if not 0 <= ordinal < size:
            raise ValueError(f"ordinal {ordinal} is outside the search space [0, {size})")
        if split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}, got {split!r}")

    def add_score(
        self, ordinal: int, split: str, metric: str, qid: str, score: float
    ) -> None:
        self.add_scores(split, metric, [qid], [ordinal], [score])

    def add_scores(
        self,
        split: str,
        metric: str,
        qids: Sequence[str],
        ordinals: Sequence[int],
        scores: Sequence[float],
    ) -> None:
        """Add the rows ``(ordinal, split, metric, qid) -> score``, all of them or none.

        The one rule for a score row: its ordinal names a configuration of
        the space, its split and metric are known, its score lies in [0, 1]
        (NaN does not), and no row of its key is stored or earlier in the
        batch. The first row in batch order that breaks the rule raises
        ValueError, checked in that order, and nothing is stored.
        """
        if not qids:
            return
        size = self.space.total_size
        n = len(qids)
        try:
            ords = np.fromiter(ordinals, np.intp, n)
        except OverflowError:  # an ordinal too large for an intp, so outside the space
            ords = np.array([o if 0 <= o < size else -1 for o in ordinals], np.intp)
        values = np.fromiter(scores, np.float64, n)
        columns = self._columns.get((split, metric)) or _Columns(size)
        known = len(columns.rows)
        unseen = (q for q in dict.fromkeys(qids) if q not in columns.rows)
        new = {q: known + i for i, q in enumerate(unseen)}
        index = {**columns.rows, **new} if new else columns.rows
        rows = np.fromiter(map(index.__getitem__, qids), np.intp, n)
        cols = ords % size  # a column of the matrix; an ordinal outside the space is refused
        cells = rows * size + cols
        order = np.argsort(cells, kind="stable")
        repeated = np.zeros(n, bool)
        repeated[order[1:][cells[order[1:]] == cells[order[:-1]]]] = True
        columns._fit(known + len(new) - 1)  # room for the new qids' rows, all NaN
        scored = (values >= 0) & (values <= 1)
        bad = (cols != ords) | repeated | ~np.isnan(columns.matrix[rows, cols]) | ~scored
        bad[0] |= split not in SPLITS or metric not in METRIC_NAMES
        if bad.any():  # the first bad row's message, by the first check it fails
            i = int(bad.argmax())
            ordinal, qid = ordinals[i], qids[i]
            self._check_cell(ordinal, split)
            if metric not in METRIC_NAMES:
                raise ValueError(
                    f"metric must be one of {sorted(METRIC_NAMES)}, got {metric!r}"
                )
            if not scored[i]:
                raise ValueError(
                    f"score must be in [0, 1], got {scores[i]} for "
                    f"(ordinal={ordinal}, split={split}, metric={metric}, qid={qid})"
                )
            raise ValueError(f"duplicate row for key {(ordinal, split, metric, qid)}")
        columns.rows.update(new)
        columns.matrix[rows, ords] = values
        self._columns[(split, metric)] = columns

    def set_cost(self, ordinal: int, split: str, cost: CostDelta) -> None:
        self._check_cell(ordinal, split)
        self.costs[(ordinal, split)] = cost

    def cost_for(self, ordinal: int, split: str) -> CostDelta | None:
        return self.costs.get((ordinal, split))

    def slice(self, split: str, metric: str, qids: Iterable[str] | None = None) -> ScoreSlice:
        """Scores of every configuration over a qid universe, with each one's mean.

        The universe defaults to every qid with a row for (split, metric),
        sorted; a configuration missing any of them gets a NaN mean.
        """
        size = self.space.total_size
        columns = self._columns.get((split, metric))
        rows = columns.rows if columns else {}
        universe = tuple(sorted(rows) if qids is None else qids)
        matrix = np.full((len(universe), size), np.nan)
        present = [(i, rows[q]) for i, q in enumerate(universe) if q in rows]
        if present:
            into, source = (list(t) for t in zip(*present))
            matrix[into] = columns.matrix[source]
        # Row by row down the qid axis: the order of a left-to-right Python sum
        # over the universe, matched bit for bit. ``matrix.sum(axis=0)`` would
        # switch to pairwise summation for a single column.
        total = np.zeros(size)
        for row in matrix:
            total += row
        means = total / len(universe) if universe else np.full(size, np.nan)
        return ScoreSlice(split, metric, universe, matrix, means)

    def _rows(self) -> Iterator[tuple[GridKey, float]]:
        """Every present row in canonical (ordinal, split, metric, qid) order."""
        slices = [self.slice(*key) for key in sorted(self._columns)]
        by_ordinal = [(sl.split, sl.metric, sl.qids, sl.matrix.T.tolist()) for sl in slices]
        for ordinal in range(self.space.total_size):
            for split, metric, qids, columns in by_ordinal:
                for qid, score in zip(qids, columns[ordinal]):
                    if not math.isnan(score):
                        yield (ordinal, split, metric, qid), score

    @property
    def scores(self) -> dict[GridKey, float]:
        """Every present row by (ordinal, split, metric, qid); rebuilt on each access."""
        return dict(self._rows())


def load_grid(path: str | Path, space: SearchSpace) -> GridTable:
    """Load a grid table computed against ``space``.

    The table is bound to ``space``, and a row whose ordinal lies outside
    it is rejected with its line.
    The bytes of a table are parsed once: the parsed columns are saved
    beside it (:func:`_save_companion`), and a later load of the same bytes
    rebuilds the table from them without reading the JSON.
    """
    source = Path(path)
    table = _load_companion(source, space)
    if table is None:
        digest = hashlib.sha256()
        table = _parse_grid(source, space, digest)
        _save_companion(table, source, digest.hexdigest())
    return table


def _check_fingerprint(source: Path, fingerprint: str, space: SearchSpace) -> None:
    if fingerprint != space.fingerprint():
        raise FingerprintMismatchError(
            f"{source}:1: grid header field 'space_fingerprint' {fingerprint[:12]!r}... does not "
            f"match the active search space {space.fingerprint()[:12]}..."
        )


# A score row exactly as _score_line writes it (groups 1-5: metric, ordinal,
# qid, score, split) or any other line (group 6). Strings take no escape or
# control character, numbers no sign and ordinals at most 18 digits, so each
# group is the text json.loads reads a value from and an ordinal fits an intp.
_STRING = r'"([^"\\\x00-\x1f]*)"'
_LINE = re.compile(
    rf'^(?:\{{"metric":{_STRING},"ordinal":(0|[1-9][0-9]{{0,17}}),"qid":{_STRING},'
    rf'"score":((?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?),"split":{_STRING}\}}$|(.*)$)',
    re.MULTILINE,
)


def _parse_grid(source: Path, space: SearchSpace, digest: hashlib._Hash) -> GridTable:
    """Parse a grid-table file, feeding ``digest`` every byte read.

    Each run of consecutive canonical score rows of one (split, metric) goes
    in with one :meth:`GridTable.add_scores`. Other lines go in one at a
    time (:func:`_add_line`), and so does a run that ``add_scores`` refuses,
    re-read line by line so that the first bad line raises as a line-by-line
    read would. Each (split, metric) then gets the companion's layout
    (:meth:`_Columns.compact`): rows in sorted qid order and exactly ``qids x
    configurations`` scores, so the table keeps none of the capacity that
    growth by doubling left and :func:`_save_companion` writes its matrices
    without copying them.
    """
    table = None
    for first, text in _read_blocks(source, digest):
        found = _LINE.findall(text, 0, len(text) - 1)
        start = 0
        for end in [i for i, row in enumerate(found) if not row[1]] + [len(found)]:
            for _, group in itertools.groupby(found[start:end], operator.itemgetter(4, 0)):
                run = list(group)
                if not _add_run(table, run):
                    lines = text.split("\n")[start : start + len(run)]
                    for lineno, line in enumerate(lines, first + start):
                        table = _add_line(table, line, source, lineno, space)
                start += len(run)
            if end < len(found):
                table = _add_line(table, found[end][5], source, first + end, space)
            start = end + 1
    if table is None:
        raise ValueError(f"{source}: empty file, expected a header line")
    for columns in table._columns.values():
        columns.compact()
    return table


def _add_run(table: GridTable | None, run: list[tuple[str, ...]]) -> bool:
    """Whether ``table`` took a run of canonical score rows of one (split, metric) at once.

    False, adding none, before the header or when :meth:`GridTable.add_scores` refuses a row.
    """
    if table is None:
        return False
    metrics, ordinals, qids, scores, splits, _ = zip(*run)
    try:
        table.add_scores(splits[0], metrics[0], qids, [*map(int, ordinals)], [*map(float, scores)])
    except ValueError:
        return False
    return True


def _add_line(
    table: GridTable | None, line: str, source: Path, lineno: int, space: SearchSpace
) -> GridTable | None:
    """Apply one line: nothing if blank, the header if ``table`` is None, else a row.

    ``space`` is the one the header must name; the table it starts checks each row's ordinal.
    """
    if not (line := line.strip()):
        return table
    where = f"{source}:{lineno}"
    record = _json_object(line, where)
    if table is None:
        check_fields(record, "grid header", GRID_HEADER_FIELDS, where)
        if (version := record["format_version"]) != GRID_FORMAT_VERSION:
            raise ValueError(f"{where}: unsupported format_version {version!r}")
        _check_fingerprint(source, record["space_fingerprint"], space)
        return GridTable(space)
    cost = record.get("kind") == "cost"
    if cost:
        check_fields(record, "cost row", COST_FIELDS, where)
    else:
        check_fields(record, "score row", SCORE_FIELDS, where)
    try:
        if cost:
            counts = (record[name] for name in ZERO_COST.as_dict())
            table.set_cost(record["ordinal"], record["split"], CostDelta(*counts))
        else:
            key = (record["ordinal"], record["split"], record["metric"], record["qid"])
            table.add_score(*key, float(record["score"]))
    except (ValueError, OverflowError) as exc:  # out of range, or an int too large for a float
        raise ValueError(f"{where}: {exc}") from None
    return table


COMPANION_VERSION = 3
# What reading a damaged or foreign companion can raise; each is a miss.
_COMPANION_ERRORS = (
    OSError,
    ValueError,
    KeyError,
    TypeError,
    EOFError,
    zipfile.BadZipFile,
    NotImplementedError,
    RuntimeError,
)


def _companion_path(source: Path) -> Path:
    return source.with_name(source.name + ".cols.npz")


def _save_companion(table: GridTable, source: Path, table_sha256: str) -> None:
    """Save ``table``'s columns beside ``source``, keyed on the SHA-256 of its bytes.

    The ``.npz`` holds one float64 matrix ``scores<i>`` per (split, metric),
    in sorted key order with rows in sorted qid order and one column per
    configuration, and a ``manifest``: ASCII JSON in a uint8 array with the
    companion and table format versions, the digest, the space fingerprint,
    each matrix's split, metric and qids, and the cost rows. Its bytes
    depend on nothing else, so equal tables give equal files. A matrix
    already in that layout, as a parsed or loaded table's is, is written as
    it is; a live table's is copied into it. A failed write is logged, not
    raised.
    """
    columns, arrays = [], {}
    for i, (split, metric) in enumerate(sorted(table._columns)):
        qids, arrays[f"scores{i}"] = table._columns[(split, metric)].layout()
        columns.append([split, metric, qids])
    manifest = {
        "companion_version": COMPANION_VERSION,
        "format_version": GRID_FORMAT_VERSION,
        "table_sha256": table_sha256,
        "space_fingerprint": table.space.fingerprint(),
        "columns": columns,
        "costs": [
            [ordinal, split, *table.costs[(ordinal, split)].as_dict().values()]
            for ordinal, split in sorted(table.costs)
        ],
    }
    # ASCII JSON keeps every qid exactly, NULs included. A lone surrogate, which
    # check_fields refuses in every record read, can reach only a table built in code.
    text = json.dumps(manifest, ensure_ascii=True)
    arrays["manifest"] = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    target = _companion_path(source)
    try:
        # A file handle, not a path: given a path, np.savez appends ".npz".
        with atomic_write(target, binary=True) as fh:
            np.savez(fh, **arrays)
    except OSError as exc:
        log.warning("%s: could not save the parsed grid table (%s); loads will parse it", target, exc)


def _load_companion(source: Path, space: SearchSpace) -> GridTable | None:
    """The table saved beside ``source`` by :func:`_save_companion`, or None to parse it.

    The companion is trusted only when it is keyed on the current bytes of
    ``source`` and whole: its members are exactly those its manifest names,
    and each matrix has one row per qid that the manifest lists and one
    column per configuration of ``space``. Any error reading it, a cost
    ordinal outside ``space`` among them, is a miss. A fingerprint other
    than ``space``'s raises as a parse of the table would.
    """
    try:
        with np.load(_companion_path(source), allow_pickle=False) as npz:
            manifest = json.loads(npz["manifest"].tobytes())
            if (
                manifest["companion_version"] != COMPANION_VERSION
                or manifest["format_version"] != GRID_FORMAT_VERSION
                or manifest["table_sha256"] != _sha256_file(source)
            ):
                return None
            _check_fingerprint(source, manifest["space_fingerprint"], space)
            names = [f"scores{i}" for i in range(len(manifest["columns"]))]
            if sorted(npz.files) != sorted(["manifest", *names]):
                return None
            table = GridTable(space)
            for (split, metric, qids), name in zip(manifest["columns"], names):
                columns = table._columns[(split, metric)] = _Columns(space.total_size)
                columns.rows = {qid: row for row, qid in enumerate(qids)}
                columns.matrix = npz[name]
                if not (
                    columns.matrix.dtype == np.float64
                    and columns.matrix.shape == (len(columns.rows), space.total_size)
                    and len(qids) == len(columns.rows) > 0
                ):
                    return None
            for ordinal, split, *counts in manifest["costs"]:
                table.set_cost(ordinal, split, CostDelta(*counts))
    except FingerprintMismatchError:
        raise
    except _COMPANION_ERRORS:
        return None
    return table


def _score_line(key: GridKey, score: float) -> str:
    ordinal, split, metric, qid = key
    return _dump_canonical(
        {"ordinal": ordinal, "split": split, "metric": metric, "qid": qid, "score": score}
    ) + "\n"


def _cost_line(ordinal: int, split: str, cost: CostDelta) -> str:
    record = {"kind": "cost", "ordinal": ordinal, "split": split}
    record.update(cost.as_dict())
    return _dump_canonical(record) + "\n"


def store_grid(table: GridTable, path: str | Path) -> None:
    """Write a grid table atomically in canonical row order (ordinal, split, metric, qid).

    Its columns are saved beside it as :func:`load_grid` saves a parsed
    table's, so the next load of the file need not parse it.
    """
    digest = hashlib.sha256()
    with atomic_write(path, binary=True) as fh:

        def write(text: str) -> None:
            data = text.encode("utf-8")
            digest.update(data)
            fh.write(data)

        write(
            _dump_canonical(
                {
                    "format_version": GRID_FORMAT_VERSION,
                    "space_fingerprint": table.space.fingerprint(),
                }
            )
            + "\n"
        )
        for key, score in table._rows():
            write(_score_line(key, score))
        for (ordinal, split) in sorted(table.costs):
            write(_cost_line(ordinal, split, table.costs[(ordinal, split)]))
    _save_companion(table, Path(path), digest.hexdigest())

