"""Categorical search space over RAG pipeline configurations.

A configuration assigns a value to each of five pipeline parameters. The
first three (chunk size, chunk overlap, embedding model) determine how the
corpus is indexed; the last two (top-k, generative model) determine how
questions are answered. Index settings are factored out into their own type
because several configurations can share one index, which matters for cost
accounting.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from operator import attrgetter

from .rules import Interval


class ParamName(str, Enum):
    """The five tunable pipeline parameters."""

    CHUNK_SIZE = "chunk_size"
    CHUNK_OVERLAP = "chunk_overlap"
    EMBEDDING_MODEL = "embedding_model"
    TOP_K = "top_k"
    GENERATIVE_MODEL = "generative_model"


# Canonical mixed-radix digit order for config ordinals, slowest-varying
# first. Replay files and seeded runs depend on this order staying fixed.
ORDINAL_ORDER: tuple[ParamName, ...] = (
    ParamName.CHUNK_SIZE,
    ParamName.CHUNK_OVERLAP,
    ParamName.EMBEDDING_MODEL,
    ParamName.TOP_K,
    ParamName.GENERATIVE_MODEL,
)

SPACE_FORMAT_VERSION = 1

#: The value rules of the three numeric parameters, for a configuration and each value of a space.
CHUNK_SIZE_RULE = Interval(1)
CHUNK_OVERLAP_RULE = Interval(0, 1, "[)")
TOP_K_RULE = Interval(1)
_RULES = {ParamName.CHUNK_SIZE: CHUNK_SIZE_RULE, ParamName.CHUNK_OVERLAP: CHUNK_OVERLAP_RULE,
          ParamName.TOP_K: TOP_K_RULE}

# Where each parameter lives: its value on a RagConfig, its value list on a SearchSpace.
_CONFIG_FIELD = {
    ParamName.CHUNK_SIZE: attrgetter("index.chunk_size"),
    ParamName.CHUNK_OVERLAP: attrgetter("index.chunk_overlap"),
    ParamName.EMBEDDING_MODEL: attrgetter("index.embedding_model"),
    ParamName.TOP_K: attrgetter("answer.top_k"),
    ParamName.GENERATIVE_MODEL: attrgetter("answer.generative_model"),
}
_SPACE_FIELD = {
    ParamName.CHUNK_SIZE: "chunk_sizes",
    ParamName.CHUNK_OVERLAP: "chunk_overlaps",
    ParamName.EMBEDDING_MODEL: "embedding_models",
    ParamName.TOP_K: "top_ks",
    ParamName.GENERATIVE_MODEL: "generative_models",
}


@dataclass(frozen=True)
class IndexConfig:
    """Settings that determine a vector index: chunking plus embedding model.

    Equality over all three fields drives index reuse detection, so two
    configurations sharing an IndexConfig are charged for one index build.
    """

    chunk_size: int
    chunk_overlap: float
    embedding_model: str

    def __post_init__(self) -> None:
        CHUNK_SIZE_RULE.check(self.chunk_size, "chunk_size")
        CHUNK_OVERLAP_RULE.check(self.chunk_overlap, "chunk_overlap")


@dataclass(frozen=True)
class AnswerConfig:
    """Settings for the answering stage: retrieval depth and generator."""

    top_k: int
    generative_model: str

    def __post_init__(self) -> None:
        TOP_K_RULE.check(self.top_k, "top_k")


@dataclass(frozen=True)
class RagConfig:
    """One point in the five-parameter search space."""

    index: IndexConfig
    answer: AnswerConfig

    @classmethod
    def from_values(
        cls,
        chunk_size: int,
        chunk_overlap: float,
        embedding_model: str,
        top_k: int,
        generative_model: str,
    ) -> "RagConfig":
        """Build a config from its five values, given in ``ORDINAL_ORDER``."""
        return cls(
            index=IndexConfig(chunk_size, chunk_overlap, embedding_model),
            answer=AnswerConfig(top_k, generative_model),
        )

    def values(self) -> tuple:
        """The five values in ``ORDINAL_ORDER``, as :meth:`from_values` takes them."""
        return (
            self.index.chunk_size,
            self.index.chunk_overlap,
            self.index.embedding_model,
            self.answer.top_k,
            self.answer.generative_model,
        )

    def value_of(self, param: ParamName):
        try:
            return _CONFIG_FIELD[param](self)
        except KeyError:
            raise ValueError(f"unknown parameter {param!r}") from None

    def replace(self, param: ParamName, value) -> "RagConfig":
        """Return a copy with one parameter set to ``value``."""
        return RagConfig.from_values(
            *(value if p == param else v for p, v in zip(ORDINAL_ORDER, self.values()))
        )

    def as_dict(self) -> dict:
        return {p.value: self.value_of(p) for p in ORDINAL_ORDER}


@dataclass(frozen=True)
class SearchSpace:
    """Ordered value lists for each parameter.

    Value lists are kept in declaration order; that order is the tie-break
    order used by greedy commits and the digit order of config ordinals.
    """

    chunk_sizes: tuple[int, ...]
    chunk_overlaps: tuple[float, ...]
    embedding_models: tuple[str, ...]
    top_ks: tuple[int, ...]
    generative_models: tuple[str, ...]

    def __post_init__(self) -> None:
        # Accept any sequence; store tuples so the space is hashable.
        for name in _SPACE_FIELD.values():
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for param in ParamName:
            values = self.values_of(param)
            if not values:
                raise ValueError(f"value list for {param.value} is empty")
            if len(set(values)) != len(values):
                raise ValueError(f"value list for {param.value} has duplicates: {values}")
        for param, rule in _RULES.items():
            for value in self.values_of(param):
                rule.check(value, param.value)

    @classmethod
    def default(cls) -> "SearchSpace":
        """The stock 162-configuration space (18 index x 9 answering)."""
        return cls(
            chunk_sizes=(256, 384, 512),
            chunk_overlaps=(0.0, 0.25),
            embedding_models=(
                "multilingual-e5-large",
                "bge-large-en-v1.5",
                "granite-embedding-125M-english",
            ),
            top_ks=(3, 5, 10),
            generative_models=(
                "Llama-3.1-8B-Instruct",
                "Mistral-Nemo-Instruct-2407",
                "Granite-3.1-8B-instruct",
            ),
        )

    def values_of(self, param: ParamName) -> tuple:
        try:
            return getattr(self, _SPACE_FIELD[param])
        except KeyError:
            raise ValueError(f"unknown parameter {param!r}") from None

    @cached_property
    def _value_lists(self) -> tuple[tuple, ...]:
        return tuple(self.values_of(p) for p in ORDINAL_ORDER)

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        """Value-list lengths in ``ORDINAL_ORDER``: the radices of config ordinals."""
        return tuple(map(len, self._value_lists))

    @cached_property
    def total_size(self) -> int:
        return math.prod(self.sizes)

    def contains(self, config: RagConfig) -> bool:
        return all(config.value_of(p) in self.values_of(p) for p in ParamName)

    def ordinals_at(self, columns) -> list[int]:
        """Ordinals of many configs, given one column of value indices per parameter.

        Columns are in ``ORDINAL_ORDER``; row ``i`` of them is config ``i``.
        """
        ordinals = [0] * len(columns[0])
        for column, size in zip(columns, self.sizes):
            ordinals = [ordinal * size + digit for ordinal, digit in zip(ordinals, column)]
        return ordinals

    # One shared RagConfig per ordinal, built on first use by config_at, so
    # ordinal_of answers for those objects by identity. Entries are keyed by
    # id() and checked with ``is``, so a stale key (in a copied space, say)
    # never matches another object.
    @cached_property
    def _interned(self) -> dict[int, RagConfig]:
        return {}

    @cached_property
    def _ordinals_by_id(self) -> dict[int, tuple[RagConfig, int]]:
        return {}

    def ordinal_of(self, config: RagConfig) -> int:
        """Dense ordinal of a config under the canonical mixed-radix order."""
        known = self._ordinals_by_id.get(id(config))
        if known is not None and known[0] is config:
            return known[1]
        ordinal = 0
        for param, values, value in zip(ORDINAL_ORDER, self._value_lists, config.values()):
            try:
                ordinal = ordinal * len(values) + values.index(value)
            except ValueError:
                raise ValueError(f"{param.value}={value!r} is not in this space") from None
        return ordinal

    def digits_at(self, ordinal: int) -> tuple[int, ...]:
        """Value indices, in ``ORDINAL_ORDER``, of the config at ``ordinal``."""
        if not 0 <= ordinal < self.total_size:
            raise IndexError(f"ordinal {ordinal} out of range [0, {self.total_size})")
        digits = []
        for size in reversed(self.sizes):
            ordinal, digit = divmod(ordinal, size)
            digits.append(digit)
        return tuple(reversed(digits))

    def config_at(self, ordinal: int) -> RagConfig:
        """Inverse of :meth:`ordinal_of`: the same object on every call for one ordinal."""
        config = self._interned.get(ordinal)
        if config is None:
            values = (v[d] for v, d in zip(self._value_lists, self.digits_at(ordinal)))
            config = self._interned.setdefault(ordinal, RagConfig.from_values(*values))
            self._ordinals_by_id[id(config)] = (config, ordinal)
        return config

    def enumerate(self) -> list[RagConfig]:
        """All configurations in ordinal order."""
        return [self.config_at(i) for i in range(self.total_size)]

    def neighbors_fixing(self, config: RagConfig, free_param: ParamName) -> list[RagConfig]:
        """One config per value of ``free_param``, all other fields copied.

        The input config itself is among the results.
        """
        return [config.replace(free_param, v) for v in self.values_of(free_param)]

    def to_dict(self) -> dict:
        return {
            "format_version": SPACE_FORMAT_VERSION,
            "chunk_size": list(self.chunk_sizes),
            "chunk_overlap": list(self.chunk_overlaps),
            "embedding_model": list(self.embedding_models),
            "top_k": list(self.top_ks),
            "generative_model": list(self.generative_models),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SearchSpace":
        """The space of a record that :func:`raghpo.dataio.read_space` checked."""
        return cls(**{_SPACE_FIELD[param]: data[param.value] for param in ParamName})

    def fingerprint(self) -> str:
        """Stable hash of the canonical serialization.

        Stored in grid-table headers so a table cannot be replayed against a
        mismatched space.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
