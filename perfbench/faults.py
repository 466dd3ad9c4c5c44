"""Faults the smoke check plants in a round, to show the output checks catch them.

Each fault is a monkeypatch applied after the warm-up and before the timed
commands; the files under ``src`` are never touched.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import raghpo.evaluator
import raghpo.pipeline


def _wrong_score() -> None:
    """Replay reports a slightly wrong objective score for one configuration."""
    cls = raghpo.evaluator.GridReplayEvaluator
    original = cls.evaluate

    def evaluate(self, config, split, objective):
        result = original(self, config, split, objective)
        if split == "dev" and self.space.ordinal_of(config) == 77:
            return dataclasses.replace(result, objective_score=result.objective_score * 0.999)
        return result

    cls.evaluate = evaluate


def _model_blind_embed_cache() -> None:
    """An embedding cache keyed on the text alone, ignoring the model."""
    cls = raghpo.pipeline.EmbeddingClient
    original = cls.embed
    cache: dict[str, list] = {}

    def embed(self, model, texts):
        missing = [t for t in dict.fromkeys(texts) if t not in cache]
        if missing:
            cache.update(zip(missing, original(self, model, missing).tolist()))
        return np.asarray([cache[t] for t in texts], dtype=float)

    cls.embed = embed


def _answer_blind_eval_cache() -> None:
    """An evaluation cache keyed on (index settings, split), ignoring top_k and generator."""
    cls = raghpo.pipeline.LivePipelineEvaluator
    original = cls.evaluate
    cache: dict = {}

    def evaluate(self, config, split, objective):
        key = (config.index, split, objective)
        if key not in cache:
            cache[key] = original(self, config, split, objective)
        return dataclasses.replace(cache[key], config=config)

    cls.evaluate = evaluate


FAULTS = {
    "wrong-score": _wrong_score,
    "model-blind-embed-cache": _model_blind_embed_cache,
    "answer-blind-eval-cache": _answer_blind_eval_cache,
}


def plant(name: str) -> None:
    FAULTS[name]()
