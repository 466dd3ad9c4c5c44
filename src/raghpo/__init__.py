"""raghpo: hyper-parameter optimization engine for RAG pipelines.

Searches a categorical five-parameter configuration space (chunk size,
chunk overlap, embedding model, top-k, generative model) with five
algorithms, scores configurations with lexical metrics or an external
judge, and tracks dev-to-test generalization plus token spend per
iteration. Runs either against precomputed grid-result tables (exact,
offline) or a live pipeline backed by external model services.
"""

__version__ = "0.1.0"
