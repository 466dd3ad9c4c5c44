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
        if self.embedded_tokens < 0:
            raise ValueError(f"embedded_tokens must be non-negative, got {self.embedded_tokens}")
        if self.generation_input_tokens < 0:
            raise ValueError(
                f"generation_input_tokens must be non-negative, got {self.generation_input_tokens}"
            )
        if self.generation_output_tokens < 0:
            raise ValueError(
                f"generation_output_tokens must be non-negative, got {self.generation_output_tokens}"
            )

    def as_dict(self) -> dict:
        return {
            "embedded_tokens": self.embedded_tokens,
            "generation_input_tokens": self.generation_input_tokens,
            "generation_output_tokens": self.generation_output_tokens,
        }


ZERO_COST = CostDelta()
