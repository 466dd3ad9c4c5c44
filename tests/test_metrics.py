import random
import sys
import unicodedata

import pytest
from hypothesis import example, given, strategies as st

from raghpo.metrics import (
    MetricUndefinedError,
    RetrievedChunk,
    aggregate,
    context_correctness_mrr,
    faithfulness_precision,
    lexical_answer_correctness,
    tokenize,
)


def chunk(doc_id: str, rank: int, text: str = "") -> RetrievedChunk:
    return RetrievedChunk(source_doc_id=doc_id, rank=rank, text=text)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------


def test_tokenize_strips_punctuation_and_lowercases():
    assert tokenize("Abraham Lincoln.") == ["abraham", "lincoln"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_rule_table():
    # Apostrophes, hyphens and periods all act as separators.
    assert tokenize("IBM's Granite-3.1") == ["ibm", "s", "granite", "3", "1"]


def reference_tokenize(text: str) -> list[str]:
    """The per-character tokenizer that ``tokenize`` must match exactly."""
    lowered = text.lower()
    cleaned = "".join(
        " " if unicodedata.category(ch).startswith("P") else ch for ch in lowered
    )
    return cleaned.split()


def test_tokenize_matches_reference_on_every_code_point():
    # Each code point on both sides of a cased letter and a sigma, so case
    # mapping that depends on context (final sigma) is exercised too.
    mismatched = []
    for code in range(sys.maxunicode + 1):
        if 0xD800 <= code <= 0xDFFF:  # surrogates are not characters
            continue
        text = chr(code) + "a\u03a3" + chr(code)
        if tokenize(text) != reference_tokenize(text):
            mismatched.append(hex(code))
    assert mismatched == []


@example("\u0130stanbul")  # dotted capital I lowercases to two code points
@example("\u039f\u0394\u039f\u03a3 \u03a3")  # final and lone sigma
@example("a\u00a0b")  # no-break space
@example("a\u2028b")  # line separator, which str.split splits on
@example("don\u2019t")  # right single quotation mark
@example("\u4f60\u597d\u3002\u300c\u4e16\u754c\u300d\uff0c\u3001")  # CJK punctuation
@given(st.text())
def test_tokenize_matches_reference_on_random_text(text):
    assert tokenize(text) == reference_tokenize(text)


def test_tokenize_is_deterministic():
    text = "Mixed, CASE text -- with punctuation!"
    assert tokenize(text) == tokenize(text)


# ---------------------------------------------------------------------------
# Context correctness (reciprocal rank)
# ---------------------------------------------------------------------------


def test_mrr_first_chunk_gold():
    retrieved = [chunk("g", 1), chunk("x", 2)]
    assert context_correctness_mrr(retrieved, ["g"]) == 1.0


def test_mrr_no_gold_in_topk():
    retrieved = [chunk("a", 1), chunk("b", 2)]
    assert context_correctness_mrr(retrieved, ["g"]) == 0.0


def test_mrr_gold_at_rank_three():
    retrieved = [chunk("a", 1), chunk("b", 2), chunk("g", 3)]
    assert context_correctness_mrr(retrieved, ["g"]) == pytest.approx(1 / 3)


def test_mrr_undefined_without_gold_labels():
    assert context_correctness_mrr([chunk("a", 1)], []) is None


def test_mrr_ignores_chunk_text():
    a = [chunk("g", 2, text="something"), chunk("x", 1, text="else")]
    b = [chunk("g", 2, text="entirely different"), chunk("x", 1, text="words")]
    assert context_correctness_mrr(a, ["g"]) == context_correctness_mrr(b, ["g"])


def test_mrr_chunk_below_first_gold_is_irrelevant():
    base = [chunk("x", 1), chunk("g", 2)]
    extended = base + [chunk("y", 3)]
    assert context_correctness_mrr(base, ["g"]) == context_correctness_mrr(extended, ["g"])


def test_mrr_chunk_above_first_gold_strictly_decreases():
    # Inserting an irrelevant chunk at rank 1 pushes the gold chunk down.
    before = [chunk("g", 1)]
    after = [chunk("x", 1), chunk("g", 2)]
    assert context_correctness_mrr(after, ["g"]) < context_correctness_mrr(before, ["g"])


# ---------------------------------------------------------------------------
# Faithfulness (token precision against contexts)
# ---------------------------------------------------------------------------


def test_faithfulness_verbatim_copy():
    text = "the quick brown fox"
    assert faithfulness_precision(text, [chunk("d", 1, text=text)]) == 1.0


def test_faithfulness_disjoint():
    assert faithfulness_precision("alpha beta", [chunk("d", 1, text="gamma delta")]) == 0.0


def test_faithfulness_bag_semantics_single_context_copy():
    # Answer tokens [a, b, c, c]; contexts supply one a and one c: 2/4 matched.
    assert faithfulness_precision("a b c c", [chunk("d", 1, text="a c")]) == 0.5


def test_faithfulness_bag_semantics_repeated_context_tokens():
    # Contexts [a, c, c, d] supply a and both c's: 3/4 matched.
    assert faithfulness_precision("a b c c", [chunk("d", 1, text="a c c d")]) == 0.75


def test_faithfulness_empty_answer_is_zero():
    assert faithfulness_precision("", [chunk("d", 1, text="a b")]) == 0.0


def test_faithfulness_invariant_to_chunk_order():
    chunks = [chunk("d1", 1, text="alpha beta"), chunk("d2", 2, text="gamma")]
    reordered = [chunk("d2", 1, text="gamma"), chunk("d1", 2, text="alpha beta")]
    answer = "alpha gamma delta"
    assert faithfulness_precision(answer, chunks) == faithfulness_precision(answer, reordered)


# ---------------------------------------------------------------------------
# Lexical answer correctness (token recall)
# ---------------------------------------------------------------------------


def test_lexical_ac_identical():
    assert lexical_answer_correctness("The printing press", "the printing press") == 1.0


def test_lexical_ac_disjoint():
    assert lexical_answer_correctness("alpha beta", "gamma delta") == 0.0


def test_lexical_ac_partial_recall():
    score = lexical_answer_correctness(
        "gutenberg invented the press", "the printing press"
    )
    assert score == pytest.approx(2 / 3)


def test_lexical_ac_undefined_for_empty_gold():
    assert lexical_answer_correctness("anything", "") is None
    assert lexical_answer_correctness("anything", "...") is None


def test_lexical_ac_symmetric_under_reordering():
    assert lexical_answer_correctness("press the printing", "printing press the") == 1.0


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def test_aggregate_mean():
    assert aggregate([1.0, 0.0]).mean == 0.5


def test_aggregate_single():
    result = aggregate([0.37])
    assert result.mean == 0.37
    assert result.defined == 1
    assert result.excluded == 0


def test_aggregate_excludes_undefined():
    result = aggregate([1 / 3, 1.0, 0.0, None])
    assert result.mean == pytest.approx(4 / 9)
    assert result.defined == 3
    assert result.excluded == 1


def test_aggregate_all_undefined_raises():
    with pytest.raises(MetricUndefinedError):
        aggregate([None, None])


# ---------------------------------------------------------------------------
# Properties and brute-force cross-checks
# ---------------------------------------------------------------------------

_token = st.text(alphabet="abcde", min_size=1, max_size=3)


@given(st.lists(_token, max_size=20), st.lists(_token, min_size=1, max_size=20))
def test_lexical_ac_in_unit_interval(gen_tokens, gold_tokens):
    score = lexical_answer_correctness(" ".join(gen_tokens), " ".join(gold_tokens))
    assert 0.0 <= score <= 1.0


@given(st.lists(_token, max_size=20), st.lists(_token, max_size=20))
def test_faithfulness_in_unit_interval(answer_tokens, ctx_tokens):
    score = faithfulness_precision(
        " ".join(answer_tokens), [chunk("d", 1, text=" ".join(ctx_tokens))]
    )
    assert 0.0 <= score <= 1.0


def _bag_overlap(a: list[str], b: list[str]) -> int:
    # Reference bag intersection by explicit removal, independent of Counter.
    pool = list(b)
    matched = 0
    for token in a:
        if token in pool:
            pool.remove(token)
            matched += 1
    return matched


def _ref_mrr(retrieved, gold_ids):
    gold = set(gold_ids)
    if not gold:
        return None
    for c in sorted(retrieved, key=lambda c: c.rank):
        if c.source_doc_id in gold:
            return 1.0 / c.rank
    return 0.0


def test_randomized_brute_force_cross_check():
    rng = random.Random(20240815)
    vocab = [f"w{i}" for i in range(12)]
    for _ in range(200):
        gen = [rng.choice(vocab) for _ in range(rng.randrange(0, 30))]
        gold = [rng.choice(vocab) for _ in range(rng.randrange(1, 30))]
        ctx = [rng.choice(vocab) for _ in range(rng.randrange(0, 50))]
        ctx_chunk = chunk("d", 1, text=" ".join(ctx))

        expected_recall = _bag_overlap(gold, gen) / len(gold)
        assert lexical_answer_correctness(" ".join(gen), " ".join(gold)) == expected_recall

        expected_precision = _bag_overlap(gen, ctx) / len(gen) if gen else 0.0
        assert faithfulness_precision(" ".join(gen), [ctx_chunk]) == expected_precision

        n = rng.randrange(1, 8)
        retrieved = [chunk(rng.choice("abcd"), rank) for rank in range(1, n + 1)]
        gold_docs = rng.sample("abcd", rng.randrange(0, 3))
        assert context_correctness_mrr(retrieved, gold_docs) == _ref_mrr(retrieved, gold_docs)
