"""Lexical per-question metrics and their benchmark-level aggregation.

Three metrics share one tokenizer: retrieval quality as reciprocal rank of
the first chunk from a gold document, answer faithfulness as token precision
against the retrieved contexts, and answer correctness as token recall
against the gold answer. Token overlap uses bag (multiset) semantics, so
repeating a matching token in a degenerate answer does not inflate recall.

A fourth metric name, ``judge_ac``, identifies remote-judge answer
correctness; it is never computed here, only ingested from grid tables or a
judge service.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

# Any change to tokenize() shifts every lexical score; bump this when the
# normalization rules change.
TOKENIZER_VERSION = 1

LEXICAL_AC = "lexical_ac"
FAITHFULNESS = "faithfulness"
CONTEXT_MRR = "context_mrr"
JUDGE_AC = "judge_ac"

#: Metric names allowed in grid tables and objectives.
METRIC_NAMES = frozenset({LEXICAL_AC, FAITHFULNESS, CONTEXT_MRR, JUDGE_AC})


class MetricUndefinedError(ValueError):
    """Raised when an aggregate is requested but no question defines the metric."""


class _PunctToSpace(dict):
    """``str.translate`` table mapping Unicode punctuation (category P*) to a space.

    Filled lazily, one code point at a time: building it for all of Unicode
    up front costs about a third of a second per process.
    """

    def __missing__(self, code: int) -> int | str:
        value = " " if unicodedata.category(chr(code)).startswith("P") else code
        self[code] = value
        return value


_PUNCT_TO_SPACE = _PunctToSpace()


def tokenize(text: str) -> list[str]:
    """Lowercase, replace Unicode punctuation with spaces, split on whitespace.

    >>> tokenize("Abraham Lincoln.")
    ['abraham', 'lincoln']
    """
    return text.lower().translate(_PUNCT_TO_SPACE).split()


@dataclass(frozen=True)
class RetrievedChunk:
    """One retrieval hit: where it came from, its 1-based rank, and its text."""

    source_doc_id: str
    rank: int
    text: str

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")


def context_correctness_mrr(
    retrieved: Sequence[RetrievedChunk], gold_doc_ids: Iterable[str]
) -> float | None:
    """Reciprocal rank of the first chunk drawn from any gold document.

    Labeling is at the document level, so any chunk of a gold document
    counts as correct. Returns 0.0 when no retrieved chunk is from a gold
    document, and None when the question has no gold documents (the metric
    is undefined and the question is excluded from averages).
    """
    gold = set(gold_doc_ids)
    if not gold:
        return None
    best_rank: int | None = None
    for chunk in retrieved:
        if chunk.source_doc_id in gold:
            if best_rank is None or chunk.rank < best_rank:
                best_rank = chunk.rank
    return 0.0 if best_rank is None else 1.0 / best_rank


def faithfulness_precision(
    generated_answer: str, retrieved: Sequence[RetrievedChunk]
) -> float:
    """Token precision of the answer against the pooled retrieved contexts.

    The contexts form one bag of tokens; each answer token can match at most
    one remaining context token. An answer with no tokens scores 0.
    """
    answer_tokens = tokenize(generated_answer)
    if not answer_tokens:
        return 0.0
    context_bag: Counter[str] = Counter()
    for chunk in retrieved:
        context_bag.update(tokenize(chunk.text))
    matched = sum((Counter(answer_tokens) & context_bag).values())
    return matched / len(answer_tokens)


def lexical_answer_correctness(generated_answer: str, gold_answer: str) -> float | None:
    """Token recall of the generated answer against the gold answer.

    Returns None (undefined) when the gold answer has no tokens.
    """
    gold_tokens = tokenize(gold_answer)
    if not gold_tokens:
        return None
    matched = sum((Counter(gold_tokens) & Counter(tokenize(generated_answer))).values())
    return matched / len(gold_tokens)


@dataclass(frozen=True)
class AggregateResult:
    """Mean over defined per-question scores plus exclusion accounting."""

    mean: float
    defined: int
    excluded: int


def aggregate(scores: Iterable[float | None]) -> AggregateResult:
    """Arithmetic mean over defined scores; undefined (None) entries excluded.

    Raises MetricUndefinedError when every entry is undefined.
    """
    defined: list[float] = []
    excluded = 0
    for s in scores:
        if s is None:
            excluded += 1
        else:
            defined.append(s)
    if not defined:
        raise MetricUndefinedError("metric undefined for every question")
    return AggregateResult(
        mean=sum(defined) / len(defined), defined=len(defined), excluded=excluded
    )
