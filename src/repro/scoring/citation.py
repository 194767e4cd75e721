"""Citation-based prestige (section 3.1).

Per context: take the induced citation subgraph over the context's papers
("only citation information between papers in the given context") and run
the paper's PageRank variant on it.  Papers in sparse subgraphs collapse
to few unique scores -- the separability weakness figures 5.4/5.7 report.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.citations.graph import CitationGraph
from repro.citations.pagerank import TeleportKind, pagerank_arrays
from repro.core.context import Context
from repro.scoring.base import PrestigeScoreFunction


class CitationPrestige(PrestigeScoreFunction):
    """Per-context PageRank prestige.

    A context's subgraph is :meth:`CitationGraph.induced` on its members:
    the out-list slices of the members' rows, cut to member targets, with
    members the graph lacks as isolated nodes in context order.  Sources
    ascend, so each destination sums its sources in node order, as the
    in-lists of ``graph.subgraph(context.paper_ids)`` have them: the
    scores are the floats :func:`~repro.citations.pagerank.pagerank` gives
    that subgraph, in the same key order.

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
    #: normalisation divides by the max, which keeps that floor.
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
        return self.score_batch([context])[0]

    def score_batch(self, contexts: Iterable[Context]) -> List[Dict[str, float]]:
        results: List[Dict[str, float]] = []
        for context in contexts:
            if not context.paper_ids:
                results.append({})
                continue
            ids, sources, targets = self.graph.induced(context.paper_ids)
            scores = pagerank_arrays(
                len(ids), sources, targets,
                teleport=self.teleport,
                d=self.d,
                max_iterations=self.max_iterations,
            )[0]
            results.append(dict(zip(ids, scores.tolist())))
        return results
