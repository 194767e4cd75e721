"""Citation-based prestige (section 3.1).

Per context: take the induced citation subgraph over the context's papers
("only citation information between papers in the given context") and run
the paper's PageRank variant on it.  Papers in sparse subgraphs collapse
to few unique scores -- the separability weakness figures 5.4/5.7 report.
"""

from __future__ import annotations

from typing import Dict

from repro.citations.graph import CitationGraph
from repro.citations.pagerank import TeleportKind, pagerank
from repro.core.context import Context
from repro.scoring.base import PrestigeScoreFunction


class CitationPrestige(PrestigeScoreFunction):
    """Per-context PageRank prestige.

    Parameters
    ----------
    graph:
        The corpus-wide citation graph; each context scores against its
        induced subgraph.
    teleport:
        E1 (constant) or E2 (uniform redistribution) from section 3.1.
    d:
        Teleport probability (1 - damping).
    """

    name = "citation"
    #: PageRank's teleport floor is a real baseline: papers tied at it are
    #: equally (somewhat) important, not all worthless, so per-context
    #: normalisation divides by the max instead of subtracting the min.
    normalization = "max"

    def __init__(
        self,
        graph: CitationGraph,
        teleport: TeleportKind = TeleportKind.E2_UNIFORM,
        d: float = 0.15,
        max_iterations: int = 100,
    ) -> None:
        self.graph = graph
        self.teleport = teleport
        self.d = d
        self.max_iterations = max_iterations

    def score_context(self, context: Context) -> Dict[str, float]:
        if not context.paper_ids:
            return {}
        subgraph = self.graph.subgraph(context.paper_ids)
        result = pagerank(
            subgraph,
            teleport=self.teleport,
            d=self.d,
            max_iterations=self.max_iterations,
        )
        return result.scores
