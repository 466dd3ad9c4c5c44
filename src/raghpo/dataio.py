"""Dataset and grid-table file formats, validation, and dev-set sampling.

Dataset on disk is a directory of three files:

* ``manifest.json`` -- ``{"format_version": 1, "name": ..., "corpus_file":
  ..., "benchmark_file": ..., "relaxed_test_closure": bool}``
* corpus file (JSON lines) -- ``{"doc_id": str, "title": str?, "text": str}``
* benchmark file (JSON lines) -- ``{"qid": str, "question": str,
  "gold_answer": str, "gold_doc_ids": [str], "split": "dev"|"test"}``

A grid table is a JSON-lines file whose first line is a header carrying the
format version and the fingerprint of the search space it was computed
against. Remaining lines are score rows ``{"ordinal", "split", "metric",
"qid", "score"}`` plus optional per-config cost rows (``"kind": "cost"``).
In memory each (split, metric) is a float matrix over (qid, ordinal).
:func:`store_grid` emits rows in the canonical order (ordinal, split, metric,
qid) with canonical JSON, so store(load(x)) is byte-identical for canonical
files. While a grid is being computed, each cell's rows are appended to the
file as they are produced (:func:`grid_cell_text`), so an in-progress table
is in no particular order and may end with a row torn by a killed writer
(:func:`drop_torn_tail`).

Each grid table is parsed from JSON once. :func:`load_grid` and
:func:`store_grid` save the in-memory columns beside the table as
``<table>.cols.npz``, keyed on the SHA-256 of the table's bytes, and a load
whose table still has those bytes rebuilds the columns from that file
(:func:`_load_companion`). The companion is a derived cache: it is safe to
delete, a failure to write it is only logged, and a damaged or stale one is
ignored, so it never changes a result or an error.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import random
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

from .costs import CostDelta
from .metrics import METRIC_NAMES
from .searchspace import SearchSpace

log = logging.getLogger(__name__)

DATASET_FORMAT_VERSION = 1
GRID_FORMAT_VERSION = 1

SPLITS = ("dev", "test")


class DatasetFormatError(ValueError):
    """Schema violation, duplicate id, or dangling reference in dataset files."""


class GridFormatError(ValueError):
    """Schema violation in a grid-table file."""


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

    def validate(self) -> None:
        """Check id uniqueness, split disjointness and gold-doc referential integrity."""
        seen_docs: set[str] = set()
        for doc in self.corpus:
            if doc.doc_id in seen_docs:
                raise DatasetFormatError(f"duplicate doc_id {doc.doc_id!r}")
            seen_docs.add(doc.doc_id)
        seen_qids: set[str] = set()
        for qa in self.dev + self.test:
            if qa.qid in seen_qids:
                raise DatasetFormatError(f"duplicate qid {qa.qid!r}")
            seen_qids.add(qa.qid)
        for qa in self.dev:
            for gid in qa.gold_doc_ids:
                if gid not in seen_docs:
                    raise DatasetFormatError(
                        f"question {qa.qid!r} references missing doc_id {gid!r}"
                    )
        if not self.relaxed_test_closure:
            for qa in self.test:
                for gid in qa.gold_doc_ids:
                    if gid not in seen_docs:
                        raise DatasetFormatError(
                            f"question {qa.qid!r} references missing doc_id {gid!r}"
                        )

    def summary(self) -> dict:
        return {
            "name": self.name,
            "documents": len(self.corpus),
            "dev": len(self.dev),
            "test": len(self.test),
        }


def _read_jsonl(
    path: Path, error: type[ValueError], digest: hashlib._Hash | None = None
) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) for each non-blank line; ``error`` names a bad line.

    Lines end at ``\\n`` and are decoded one at a time, so invalid UTF-8 is
    reported with its line. ``digest``, when given, is fed every byte read.
    """
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if digest is not None:
                digest.update(raw)
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                raise error(f"{path}:{lineno}: not valid UTF-8") from None
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise error(f"{path}:{lineno}: invalid JSON ({exc})") from None
            if not isinstance(record, dict):
                raise error(f"{path}:{lineno}: expected a JSON object")
            yield lineno, record


def read_json_object(path: Path, error: type[Exception]) -> dict:
    """The single JSON object that ``path`` holds; ``error`` says why it is not one.

    The message is ``path:line: invalid JSON (msg)``, ``path: not valid
    UTF-8`` or ``path: expected a JSON object``.
    """
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError:
        raise error(f"{path}: not valid UTF-8") from None
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from None
    if not isinstance(document, dict):
        raise error(f"{path}: expected a JSON object")
    return document


def _require(record: dict, key: str, path: Path, lineno: int) -> object:
    if key not in record:
        raise DatasetFormatError(f"{path}:{lineno}: missing required field {key!r}")
    return record[key]


def load_dataset(path: str | Path) -> Dataset:
    """Load and validate a dataset directory.

    Duplicate ids, dangling gold references, unknown splits and malformed
    records are rejected with the offending file and line number.
    """
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise DatasetFormatError(f"{manifest_path}: manifest not found")
    manifest = read_json_object(manifest_path, DatasetFormatError)
    version = manifest.get("format_version")
    if version != DATASET_FORMAT_VERSION:
        raise DatasetFormatError(
            f"{manifest_path}: unsupported format_version {version!r}"
        )
    corpus_path = root / manifest.get("corpus_file", "corpus.jsonl")
    benchmark_path = root / manifest.get("benchmark_file", "benchmark.jsonl")
    relaxed = bool(manifest.get("relaxed_test_closure", False))

    corpus: list[Document] = []
    seen_docs: set[str] = set()
    for lineno, record in _read_jsonl(corpus_path, DatasetFormatError):
        doc_id = str(_require(record, "doc_id", corpus_path, lineno))
        if doc_id in seen_docs:
            raise DatasetFormatError(f"{corpus_path}:{lineno}: duplicate doc_id {doc_id!r}")
        seen_docs.add(doc_id)
        try:
            corpus.append(
                Document(
                    doc_id=doc_id,
                    text=str(_require(record, "text", corpus_path, lineno)),
                    title=record.get("title"),
                )
            )
        except ValueError as exc:
            raise DatasetFormatError(f"{corpus_path}:{lineno}: {exc}") from None

    dev: list[QaPair] = []
    test: list[QaPair] = []
    seen_qids: set[str] = set()
    for lineno, record in _read_jsonl(benchmark_path, DatasetFormatError):
        qid = str(_require(record, "qid", benchmark_path, lineno))
        if qid in seen_qids:
            raise DatasetFormatError(f"{benchmark_path}:{lineno}: duplicate qid {qid!r}")
        seen_qids.add(qid)
        split = _require(record, "split", benchmark_path, lineno)
        if split not in SPLITS:
            raise DatasetFormatError(
                f"{benchmark_path}:{lineno}: split must be one of {SPLITS}, got {split!r}"
            )
        gold_ids = record.get("gold_doc_ids", [])
        if not isinstance(gold_ids, list):
            raise DatasetFormatError(f"{benchmark_path}:{lineno}: gold_doc_ids must be a list")
        if split == "dev" or not relaxed:
            for gid in gold_ids:
                if gid not in seen_docs:
                    raise DatasetFormatError(
                        f"{benchmark_path}:{lineno}: gold_doc_ids references "
                        f"missing doc_id {gid!r}"
                    )
        qa = QaPair(
            qid=qid,
            question=str(_require(record, "question", benchmark_path, lineno)),
            gold_answer=str(_require(record, "gold_answer", benchmark_path, lineno)),
            gold_doc_ids=tuple(str(g) for g in gold_ids),
        )
        (dev if split == "dev" else test).append(qa)

    dataset = Dataset(
        corpus=tuple(corpus),
        dev=tuple(dev),
        test=tuple(test),
        name=manifest.get("name"),
        relaxed_test_closure=relaxed,
    )
    dataset.validate()
    return dataset


def _dump_canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


@contextmanager
def atomic_write(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """Open ``path`` for writing so that readers see the old file or the whole new one.

    The handle takes UTF-8 text, or bytes when ``binary``. What is written
    goes to a temporary file in the same directory, which replaces ``path``
    only when the block exits normally; on an exception the temporary file
    is removed and ``path`` is left as it was. A process killed mid-write
    leaves at most a stray ``.tmp`` file beside ``path``.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    temp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with temp.open("wb") if binary else temp.open("w", encoding="utf-8") as fh:
            yield fh
        os.replace(temp, target)
    finally:
        temp.unlink(missing_ok=True)


def store_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset directory in the canonical on-disk layout."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format_version": DATASET_FORMAT_VERSION,
        "corpus_file": "corpus.jsonl",
        "benchmark_file": "benchmark.jsonl",
    }
    if dataset.name:
        manifest["name"] = dataset.name
    if dataset.relaxed_test_closure:
        manifest["relaxed_test_closure"] = True
    (root / "manifest.json").write_text(
        _dump_canonical(manifest) + "\n", encoding="utf-8"
    )
    with (root / "corpus.jsonl").open("w", encoding="utf-8") as fh:
        for doc in dataset.corpus:
            record = {"doc_id": doc.doc_id, "text": doc.text}
            if doc.title is not None:
                record["title"] = doc.title
            fh.write(_dump_canonical(record) + "\n")
    with (root / "benchmark.jsonl").open("w", encoding="utf-8") as fh:
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
    manifest = read_json_object(root / "manifest.json", DatasetFormatError)
    return _sha256_file(
        root / manifest.get("corpus_file", "corpus.jsonl"),
        root / manifest.get("benchmark_file", "benchmark.jsonl"),
    )


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
        if not 0.0 < self.qa_fraction <= 1.0:
            raise ValueError(f"qa_fraction must be in (0, 1], got {self.qa_fraction}")
        if self.noise_ratio < 0:
            raise ValueError(f"noise_ratio must be >= 0, got {self.noise_ratio}")


@dataclass(frozen=True)
class SampleOutcome:
    """Result of :func:`sample_dev` plus accounting for provenance records."""

    dataset: Dataset
    sampled_qids: tuple[str, ...]
    gold_doc_ids: tuple[str, ...]
    noise_doc_ids: tuple[str, ...]
    noise_requested: int
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
    sampled_dataset.validate()
    return SampleOutcome(
        dataset=sampled_dataset,
        sampled_qids=tuple(qa.qid for qa in sampled),
        gold_doc_ids=tuple(gold_ids),
        noise_doc_ids=tuple(sorted(noise_ids)),
        noise_requested=requested,
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
    """One (split, metric) of a grid table over ``range(size)`` configurations."""

    split: str
    metric: str
    qids: tuple[str, ...]  # the qid universe, one matrix row each
    matrix: np.ndarray  # [qid x ordinal], NaN where a row is missing
    means: np.ndarray  # [ordinal], NaN where any qid of the universe is missing

    def require_complete(self, ordinals: Iterable[int]) -> None:
        """Raise :class:`IncompleteTableError` for the first of ``ordinals`` that lacks a qid."""
        if not self.qids:
            raise IncompleteTableError(
                f"grid table has no rows for metric {self.metric!r} on split {self.split!r}"
            )
        for ordinal in ordinals:
            if math.isnan(self.means[ordinal]):
                gaps = [
                    q for q, v in zip(self.qids, self.matrix[:, ordinal].tolist()) if math.isnan(v)
                ]
                shown = ", ".join(gaps[:5]) + ("..." if len(gaps) > 5 else "")
                raise IncompleteTableError(
                    f"grid table incomplete: config ordinal {ordinal} is missing {len(gaps)} "
                    f"of {len(self.qids)} {self.metric!r}/{self.split!r} rows (qids: {shown})"
                )


class _Columns:
    """The rows of one (split, metric) as added: qid -> matrix row, and a growable matrix."""

    def __init__(self) -> None:
        self.rows: dict[str, int] = {}
        self.matrix = np.full((8, 8), np.nan)  # [qid x ordinal] capacity, NaN = missing
        self.width = 0  # 1 + the largest ordinal with a row

    def add(self, ordinal: int, qid: str, score: float) -> bool:
        """Store a score; False, storing nothing, when the row is already present."""
        row = self.rows.setdefault(qid, len(self.rows))
        try:
            if not math.isnan(self.matrix[row, ordinal]):
                return False
        except IndexError:
            n_rows, n_cols = self.matrix.shape
            grown = np.full((max(n_rows, 2 * row + 1), max(n_cols, 2 * ordinal + 1)), np.nan)
            grown[:n_rows, :n_cols] = self.matrix
            self.matrix = grown
        self.matrix[row, ordinal] = score
        if ordinal >= self.width:
            self.width = ordinal + 1
        return True


@dataclass(eq=False)
class GridTable:
    """Per-(config, question, metric, split) scores, the replay oracle, plus per-cell costs.

    Each (split, metric) is held as columns: a float matrix over (qid,
    ordinal) with NaN for a missing row. :meth:`slice` is the one query over
    them; ``scores`` rebuilds the row dict on each access.
    """

    space_fingerprint: str
    costs: dict[tuple[int, str], CostDelta] = field(default_factory=dict)
    format_version: int = GRID_FORMAT_VERSION
    _columns: dict[tuple[str, str], _Columns] = field(
        default_factory=dict, init=False, repr=False
    )

    def add_score(
        self, ordinal: int, split: str, metric: str, qid: str, score: float
    ) -> None:
        if split not in SPLITS:
            raise GridFormatError(f"split must be one of {SPLITS}, got {split!r}")
        if metric not in METRIC_NAMES:
            raise GridFormatError(
                f"metric must be one of {sorted(METRIC_NAMES)}, got {metric!r}"
            )
        if ordinal < 0:
            raise GridFormatError(f"ordinal must be >= 0, got {ordinal}")
        if not 0.0 <= score <= 1.0:
            raise GridFormatError(
                f"score must be in [0, 1], got {score} for "
                f"(ordinal={ordinal}, split={split}, metric={metric}, qid={qid})"
            )
        columns = self._columns.get((split, metric))
        if columns is None:
            columns = self._columns[(split, metric)] = _Columns()
        if not columns.add(ordinal, qid, score):
            raise GridFormatError(f"duplicate row for key {(ordinal, split, metric, qid)}")

    def set_cost(self, ordinal: int, split: str, cost: CostDelta) -> None:
        self.costs[(ordinal, split)] = cost

    def cost_for(self, ordinal: int, split: str) -> CostDelta | None:
        return self.costs.get((ordinal, split))

    def slice(
        self, split: str, metric: str, size: int, qids: Iterable[str] | None = None
    ) -> ScoreSlice:
        """Scores of configurations ``range(size)`` over a qid universe, with each one's mean.

        The universe defaults to every qid with a row for (split, metric),
        sorted; a configuration missing any of them gets a NaN mean.
        """
        columns = self._columns.get((split, metric), _Columns())
        universe = tuple(sorted(columns.rows) if qids is None else qids)
        matrix = np.full((len(universe), size), np.nan)
        present = [(i, columns.rows[q]) for i, q in enumerate(universe) if q in columns.rows]
        if present:
            width = min(size, columns.width)
            into, source = (list(t) for t in zip(*present))
            matrix[into, :width] = columns.matrix[source, :width]
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
        width = max((c.width for c in self._columns.values()), default=0)
        slices = [self.slice(*key, width) for key in sorted(self._columns)]
        by_ordinal = [(sl.split, sl.metric, sl.qids, sl.matrix.T.tolist()) for sl in slices]
        for ordinal in range(width):
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

    A row whose ordinal lies outside ``space`` is rejected with its line.
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
            f"{source}: table fingerprint {fingerprint[:12]}... does not "
            f"match the active search space {space.fingerprint()[:12]}..."
        )


def _parse_grid(source: Path, space: SearchSpace, digest: hashlib._Hash) -> GridTable:
    """Parse a grid-table file line by line, feeding ``digest`` every byte read."""
    size = space.total_size
    table: GridTable | None = None
    for lineno, record in _read_jsonl(source, GridFormatError, digest):
        if table is None:
            version = record.get("format_version")
            if version != GRID_FORMAT_VERSION:
                raise GridFormatError(
                    f"{source}:{lineno}: unsupported format_version {version!r}"
                )
            fingerprint = record.get("space_fingerprint")
            if not fingerprint:
                raise GridFormatError(f"{source}:{lineno}: header missing space_fingerprint")
            _check_fingerprint(source, fingerprint, space)
            table = GridTable(space_fingerprint=fingerprint)
            continue
        try:
            ordinal = int(record["ordinal"])
            split = str(record["split"])
            if not 0 <= ordinal < size:
                raise GridFormatError(
                    f"ordinal {ordinal} is outside the search space [0, {size})"
                )
            if record.get("kind") == "cost":
                table.set_cost(
                    ordinal,
                    split,
                    CostDelta(
                        embedded_tokens=int(record["embedded_tokens"]),
                        generation_input_tokens=int(record["generation_input_tokens"]),
                        generation_output_tokens=int(record["generation_output_tokens"]),
                    ),
                )
            else:
                table.add_score(
                    ordinal, split, str(record["metric"]), str(record["qid"]), float(record["score"])
                )
        except KeyError as exc:
            raise GridFormatError(f"{source}:{lineno}: missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise GridFormatError(f"{source}:{lineno}: {exc}") from None
    if table is None:
        raise GridFormatError(f"{source}: empty file, expected a header line")
    return table


COMPANION_VERSION = 1
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
    in sorted key order with rows in sorted qid order, and a ``manifest``:
    ASCII JSON in a uint8 array with the companion and table format
    versions, the digest, the space fingerprint, each matrix's key, width
    and qids, and the cost rows. Its bytes depend on nothing else, so equal
    tables give equal files. A failed write is logged, not raised.
    """
    columns, arrays = [], {}
    for i, (split, metric) in enumerate(sorted(table._columns)):
        col = table._columns[(split, metric)]
        qids = sorted(col.rows)
        arrays[f"scores{i}"] = col.matrix[[col.rows[q] for q in qids], : col.width]
        columns.append([split, metric, col.width, qids])
    manifest = {
        "companion_version": COMPANION_VERSION,
        "format_version": table.format_version,
        "table_sha256": table_sha256,
        "space_fingerprint": table.space_fingerprint,
        "columns": columns,
        "costs": [
            [ordinal, split, *table.costs[(ordinal, split)].as_dict().values()]
            for ordinal, split in sorted(table.costs)
        ],
    }
    # ASCII JSON keeps every qid exactly, NULs and lone surrogates included.
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
    each matrix has the width and one row per qid that the manifest lists,
    and every ordinal lies inside ``space``. Any error reading it is a miss.
    A fingerprint other than ``space``'s raises as a parse of the table would.
    """
    size = space.total_size
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
            table = GridTable(space_fingerprint=manifest["space_fingerprint"])
            for (split, metric, width, qids), name in zip(manifest["columns"], names):
                columns = table._columns[(split, metric)] = _Columns()
                columns.rows = {qid: row for row, qid in enumerate(qids)}
                columns.matrix = npz[name]
                columns.width = width
                if not (
                    columns.matrix.dtype == np.float64
                    and columns.matrix.shape == (len(columns.rows), width)
                    and len(qids) == len(columns.rows) > 0
                    and 0 < width <= size
                ):
                    return None
            for ordinal, split, *counts in manifest["costs"]:
                if not 0 <= ordinal < size:
                    return None
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
                    "format_version": table.format_version,
                    "space_fingerprint": table.space_fingerprint,
                }
            )
            + "\n"
        )
        for key, score in table._rows():
            write(_score_line(key, score))
        for (ordinal, split) in sorted(table.costs):
            write(_cost_line(ordinal, split, table.costs[(ordinal, split)]))
    _save_companion(table, Path(path), digest.hexdigest())


def grid_cell_text(
    table: GridTable, ordinal: int, split: str, rows: Iterable[tuple[GridKey, float]]
) -> str:
    """One evaluated cell's rows, to append to a table file: its cost row, then ``rows``.

    The cost row goes first so that a write cut short never keeps a cell's
    scores without its cost: whatever is lost leaves the cell incomplete, so
    a resumed run evaluates it again and appends a new cost row, which
    :func:`load_grid` takes over the earlier one.
    """
    parts = [_cost_line(ordinal, split, table.costs[(ordinal, split)])]
    parts.extend(_score_line(key, score) for key, score in rows)
    return "".join(parts)


def drop_torn_tail(path: str | Path) -> None:
    """Cut a final line that lacks its newline, left by a writer killed mid-row.

    Every row is written with its newline, so such a line is incomplete; a
    warning names the file and the bytes dropped. Only the tail is read:
    the last byte, then blocks backwards to the last newline.
    """
    source = Path(path)
    with source.open("rb+") as fh:
        size = fh.seek(0, os.SEEK_END)
        if size == 0:
            return
        fh.seek(size - 1)
        if fh.read(1) == b"\n":
            return
        keep, end = 0, size
        while end > 0:
            start = max(0, end - (1 << 16))
            fh.seek(start)
            cut = fh.read(end - start).rfind(b"\n")
            if cut >= 0:
                keep = start + cut + 1
                break
            end = start
        fh.truncate(keep)
    log.warning(
        "%s: dropped a torn final line (%d bytes) left by an interrupted write",
        source,
        size - keep,
    )
