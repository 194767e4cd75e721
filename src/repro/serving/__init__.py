"""Build/serve layer split (see ``docs/architecture.md``).

:class:`~repro.serving.substrate.SubstrateStore` is the mutable build
layer (index, vectors, graph, paper sets, scores, revision counter);
:class:`~repro.serving.view.ServingView` is the immutable-per-refresh
serve layer (memoised engines + LRU result cache) the pipeline swaps
atomically; :class:`~repro.serving.service.SearchService` puts the view
behind HTTP search endpoints with admission control (``repro serve``).
"""

from repro.serving.analytics import ShadowScorer, summarize_queries
from repro.serving.service import (
    AdmissionController,
    AdmissionRejected,
    SearchService,
)
from repro.serving.substrate import SubstrateStore
from repro.serving.view import SearchResultCache, ServingView

__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "SearchService",
    "ShadowScorer",
    "SubstrateStore",
    "SearchResultCache",
    "ServingView",
    "summarize_queries",
]
