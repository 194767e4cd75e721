"""HITS-based citation prestige (the road not taken in section 3.1).

The paper describes both PageRank and HITS as candidate citation-based
prestige functions and chooses PageRank, citing the high correlation
between the two in earlier experiments [11].  This class implements the
HITS alternative -- prestige = per-context *authority* score -- so the
choice can be tested rather than assumed (see
``benchmarks/bench_ablation_hits.py``).
"""

from __future__ import annotations

from typing import Dict

from repro.citations.graph import CitationGraph
from repro.citations.hits import hits_scores
from repro.core.context import Context
from repro.scoring.base import PrestigeScoreFunction


class HitsPrestige(PrestigeScoreFunction):
    """Per-context HITS authority prestige.

    A paper's authority is high when the context's good *hubs* cite it --
    for citation graphs, hubs are survey-like papers with rich reference
    lists inside the context.
    """

    name = "hits"
    #: Authority scores have a meaningful zero (never cited in-context),
    #: so normalisation preserves it like the other citation flavour.
    normalization = "max"

    def __init__(self, graph: CitationGraph, max_iterations: int = 100) -> None:
        self.graph = graph
        self.max_iterations = max_iterations

    def score_context(self, context: Context) -> Dict[str, float]:
        if not context.paper_ids:
            return {}
        subgraph = self.graph.subgraph(context.paper_ids)
        result = hits_scores(subgraph, max_iterations=self.max_iterations)
        return result.authorities
