"""Token-count cost records shared by the evaluator, grid files and ledger."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CostDelta:
    """Token counts incurred by a single evaluation.

    ``embedded_tokens`` is the cost of building the config's index (sum of
    chunk token lengths) and is reported by every evaluation that uses the
    index; deduplication across evaluations sharing an index happens in the
    cost ledger, not here.
    """

    embedded_tokens: int = 0
    generation_input_tokens: int = 0
    generation_output_tokens: int = 0

    def __post_init__(self) -> None:
        for name, count in self.as_dict().items():
            if count < 0:
                raise ValueError(f"{name} must be non-negative, got {count}")

    def as_dict(self) -> dict:
        return {
            "embedded_tokens": self.embedded_tokens,
            "generation_input_tokens": self.generation_input_tokens,
            "generation_output_tokens": self.generation_output_tokens,
        }


ZERO_COST = CostDelta()
