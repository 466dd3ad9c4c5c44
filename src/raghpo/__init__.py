"""raghpo: hyper-parameter optimization engine for RAG pipelines.

Searches a categorical five-parameter configuration space (chunk size,
chunk overlap, embedding model, top-k, generative model) with five
algorithms, scores configurations with lexical metrics or an external
judge, and tracks dev-to-test generalization plus token spend per
iteration. Runs either against precomputed grid-result tables (exact,
offline) or a live pipeline backed by external model services.
"""

from .costs import CostDelta
from .dataio import (
    Dataset,
    Document,
    GridTable,
    QaPair,
    SamplePlan,
    load_dataset,
    load_grid,
    sample_dev,
    store_dataset,
    store_grid,
)
from .evaluator import EvalResult, GridReplayEvaluator, Objective, best_so_far
from .harness import CostLedger, RunRecord, RunSpec, export_run, load_run, run
from .metrics import (
    CONTEXT_MRR,
    FAITHFULNESS,
    JUDGE_AC,
    LEXICAL_AC,
    RetrievedChunk,
    aggregate,
    context_correctness_mrr,
    faithfulness_precision,
    lexical_answer_correctness,
    tokenize,
)
from .optimizers import (
    ALGORITHMS,
    Suggestion,
    Trial,
    TrialHistory,
    create_optimizer,
)
from .pipeline import LivePipelineEvaluator, TemplateStore, chunk_document
from .searchspace import (
    AnswerConfig,
    IndexConfig,
    ParamName,
    RagConfig,
    SearchSpace,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "AnswerConfig",
    "CONTEXT_MRR",
    "CostDelta",
    "CostLedger",
    "Dataset",
    "Document",
    "EvalResult",
    "FAITHFULNESS",
    "GridReplayEvaluator",
    "GridTable",
    "IndexConfig",
    "JUDGE_AC",
    "LEXICAL_AC",
    "LivePipelineEvaluator",
    "Objective",
    "ParamName",
    "QaPair",
    "RagConfig",
    "RetrievedChunk",
    "RunRecord",
    "RunSpec",
    "SamplePlan",
    "SearchSpace",
    "Suggestion",
    "TemplateStore",
    "Trial",
    "TrialHistory",
    "aggregate",
    "best_so_far",
    "chunk_document",
    "context_correctness_mrr",
    "create_optimizer",
    "export_run",
    "faithfulness_precision",
    "lexical_answer_correctness",
    "load_dataset",
    "load_grid",
    "load_run",
    "run",
    "sample_dev",
    "store_dataset",
    "store_grid",
    "tokenize",
]
