"""Spans around raghpo's public functions, recorded from outside the package.

Each function is wrapped at the name its caller looks it up by: a module
attribute for functions imported by name into the calling module (for
example ``raghpo.pipeline.faithfulness_precision``), a class attribute for
methods. A span records its name, start, end, parent span and evaluation id;
spans stay in memory and are reduced to per-layer figures at the end.

Self time is a span's duration minus the part of it covered by its child
spans (the union of their intervals, so children running in parallel worker
threads are not counted twice). Spans opened on a thread with no open span
of its own (the live evaluator's generation workers) take the open
evaluation span as parent: the benchmark drives one evaluation at a time.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from collections import defaultdict
from math import ceil
from pathlib import Path
from time import perf_counter

import numpy as np

import raghpo.analysis
import raghpo.cli
import raghpo.evaluator
import raghpo.harness
import raghpo.metrics
import raghpo.optimizers
import raghpo.pipeline
import raghpo.searchspace


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, int | None]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.keys: dict[str, set] = defaultdict(set)
        self.store_rows: list[int] = []
        self._ids = itertools.count()
        self._evals = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open_eval: tuple[int, int] | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, after=None, evaluation: bool = False) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``after(args, result)`` runs outside the span to update counters.
        ``evaluation`` opens a new evaluation id for the span's subtree.
        """
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._open_eval
            sid = next(tracer._ids)
            eval_id = next(tracer._evals) if evaluation else (parent[1] if parent else None)
            stack.append((sid, eval_id))
            if evaluation:
                tracer._open_eval = (sid, eval_id)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if evaluation:
                    tracer._open_eval = None
                tracer.spans.append((sid, name, start, end, parent[0] if parent else None, eval_id))
            if after is not None:
                with tracer._lock:
                    after(args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        """One JSON line per span: [id, name, start, end, parent id, evaluation id]."""
        with path.open("w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(span) + "\n" for span in self.spans)

    # -- reduction -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        totals: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _, _ in self.spans:
            covered = 0.0
            reach = start
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, reach), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            totals[name] += (end - start) - covered
        return totals

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for _, name, *_ in self.spans:
            out[name] += 1
        return out

    def inclusive(self, name: str) -> list[float]:
        return [end - start for _, n, start, end, _, _ in self.spans if n == name]


def _share(keys: set, calls: int) -> float:
    return len(keys) / calls if calls else 1.0


def install(tracer: Tracer) -> None:
    """Wrap every traced raghpo entry point."""
    cli, pipeline, metrics = raghpo.cli, raghpo.pipeline, raghpo.metrics
    count, keys = tracer.counts, tracer.keys

    def on_store(args, result):
        table = args[0]
        tracer.store_rows.append(len(table.scores) + len(table.costs))

    def on_chunk(args, result):
        count["pipeline.chunks"] += len(result)

    def on_embed(args, result):
        client, model, texts = args
        count["pipeline.embed.texts"] += len(texts)
        count["pipeline.embed.batches"] += ceil(len(texts) / client.batch_size)
        keys["pipeline.embed"].update(hash((model, t)) for t in texts)

    def on_search(args, result):
        count["pipeline.search.rows"] += len(args[0])

    def on_generate(args, result):
        keys["pipeline.generate"].add(hash((args[1], args[2])))

    def on_tokenize(args, result):
        count["metrics.tokenize.chars"] += len(args[0])
        keys["metrics.tokenize"].add(hash(args[0]))

    def on_evaluate(args, result):
        # (config, split, objective) for full evaluations, (config, split)
        # for retrieval-only ones: the inputs an evaluation's result depends on.
        keys["evaluator.evaluate"].add(tuple(args[1:]))

    # Module attributes, looked up by name in the calling module.
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "load_grid", "dataio.load_grid")
    tracer.wrap(cli, "store_grid", "dataio.store_grid", after=on_store)
    tracer.wrap(cli, "load_dataset", "dataio.load_dataset")
    tracer.wrap(raghpo.harness, "run", "harness.run")
    tracer.wrap(raghpo.harness, "load_run", "harness.load_run")
    tracer.wrap(raghpo.harness, "export_run", "harness.export_run")
    for fn in ("grid_extremes", "normalized_bins", "marginal_means", "convergence_series"):
        tracer.wrap(raghpo.analysis, fn, f"analysis.{fn}")
    tracer.wrap(pipeline, "chunk_document", "pipeline.chunk", after=on_chunk)
    tracer.wrap(pipeline, "build_index", "pipeline.index_build")
    tracer.wrap(pipeline, "faithfulness_precision", "metrics.faithfulness")
    tracer.wrap(pipeline, "context_correctness_mrr", "metrics.other")
    tracer.wrap(pipeline, "lexical_answer_correctness", "metrics.other")
    tracer.wrap(metrics, "tokenize", "metrics.tokenize", after=on_tokenize)

    # Methods, looked up on the instance's class.
    space = raghpo.searchspace.SearchSpace
    for fn in ("ordinal_of", "config_at", "contains", "neighbors_fixing", "fingerprint"):
        tracer.wrap(space, fn, f"searchspace.{fn}")
    for cls in vars(raghpo.optimizers).values():
        if isinstance(cls, type) and issubclass(cls, raghpo.optimizers.Optimizer) \
                and "suggest" in cls.__dict__ and cls is not raghpo.optimizers.Optimizer:
            tracer.wrap(cls, "suggest", "optimizers.suggest")
    for cls in (raghpo.evaluator.GridReplayEvaluator, pipeline.LivePipelineEvaluator):
        tracer.wrap(cls, "evaluate", "evaluator.evaluate", after=on_evaluate, evaluation=True)
        tracer.wrap(cls, "evaluate_retrieval_only", "evaluator.evaluate",
                    after=on_evaluate, evaluation=True)
    tracer.wrap(raghpo.evaluator.GridReplayEvaluator, "replay_objective",
                "evaluator.replay_objective")
    tracer.wrap(pipeline.EmbeddingClient, "embed", "pipeline.embed", after=on_embed)
    tracer.wrap(pipeline.VectorIndex, "search", "pipeline.search", after=on_search)
    tracer.wrap(pipeline.PromptTemplate, "render", "pipeline.prompt")
    tracer.wrap(pipeline.GenerationClient, "generate", "pipeline.generate", after=on_generate)


def layer_metrics(tracer: Tracer, service: dict) -> dict[str, float]:
    """Per-layer figures from the recorded spans and the stub's counters."""
    self_s = tracer.self_times()
    calls = tracer.calls()
    count = tracer.counts

    def s(*names: str) -> float:
        return sum(self_s.get(n, 0.0) for n in names)

    def prefixed(prefix: str) -> float:
        return sum(v for n, v in self_s.items() if n.startswith(prefix))

    evaluate_ms = np.array(tracer.inclusive("evaluator.evaluate")) * 1000.0
    store_rows = tracer.store_rows
    embed_generate_s = sum(tracer.inclusive("pipeline.embed")) + sum(
        tracer.inclusive("pipeline.generate"))
    requests = service["requests"]
    logical_requests = count["pipeline.embed.batches"] + calls.get("pipeline.generate", 0)
    return {
        "dataio.load_grid.s": s("dataio.load_grid"),
        "dataio.store_grid.calls": calls.get("dataio.store_grid", 0),
        "dataio.store_grid.s": s("dataio.store_grid"),
        "dataio.store_grid.rows": sum(store_rows),
        "dataio.store_grid.rows_per_final_row":
            sum(store_rows) / store_rows[-1] if store_rows and store_rows[-1] else 0.0,
        "dataio.load_dataset.s": s("dataio.load_dataset"),
        "searchspace.ordinal_of.calls": calls.get("searchspace.ordinal_of", 0),
        "searchspace.s": prefixed("searchspace."),
        "optimizers.suggest.calls": calls.get("optimizers.suggest", 0),
        "optimizers.suggest.s": s("optimizers.suggest"),
        "evaluator.evaluate.calls": len(evaluate_ms),
        "evaluator.evaluate.s": s("evaluator.evaluate", "evaluator.replay_objective"),
        "evaluator.evaluate.ms.p50": float(np.percentile(evaluate_ms, 50)) if len(evaluate_ms) else 0.0,
        "evaluator.evaluate.ms.p90": float(np.percentile(evaluate_ms, 90)) if len(evaluate_ms) else 0.0,
        "evaluator.distinct_share": _share(tracer.keys["evaluator.evaluate"], len(evaluate_ms)),
        "pipeline.chunk.s": s("pipeline.chunk"),
        "pipeline.chunks": count["pipeline.chunks"],
        "pipeline.embed.calls": calls.get("pipeline.embed", 0),
        "pipeline.embed.texts": count["pipeline.embed.texts"],
        "pipeline.embed.s": s("pipeline.embed"),
        "pipeline.embed.distinct_share":
            _share(tracer.keys["pipeline.embed"], count["pipeline.embed.texts"]),
        "pipeline.index_build.count": calls.get("pipeline.index_build", 0),
        "pipeline.index_build.s": s("pipeline.index_build"),
        "pipeline.search.calls": calls.get("pipeline.search", 0),
        "pipeline.search.rows": count["pipeline.search.rows"],
        "pipeline.search.s": s("pipeline.search"),
        "pipeline.prompt.s": s("pipeline.prompt"),
        "pipeline.generate.calls": calls.get("pipeline.generate", 0),
        "pipeline.generate.s": s("pipeline.generate"),
        "pipeline.generate.distinct_share":
            _share(tracer.keys["pipeline.generate"], calls.get("pipeline.generate", 0)),
        "pipeline.http.overhead_s": embed_generate_s - sum(service["busy_s"].values()),
        "metrics.faithfulness.calls": calls.get("metrics.faithfulness", 0),
        "metrics.faithfulness.s": s("metrics.faithfulness"),
        "metrics.tokenize.calls": calls.get("metrics.tokenize", 0),
        "metrics.tokenize.s": s("metrics.tokenize"),
        "metrics.tokenize.chars": count["metrics.tokenize.chars"],
        "metrics.tokenize.distinct_share":
            _share(tracer.keys["metrics.tokenize"], calls.get("metrics.tokenize", 0)),
        "metrics.other.s": s("metrics.other"),
        "harness.self_s": s("harness.run", "harness.load_run"),
        "harness.export_run.s": s("harness.export_run"),
        "analysis.s": prefixed("analysis."),
        "cli.self_s": s("cli.main"),
        "service.requests.embed": requests["/embed"],
        "service.requests.generate": requests["/generate"],
        "service.busy_s": sum(service["busy_s"].values()),
        "service.retries": sum(requests.values()) - logical_requests,
    }
