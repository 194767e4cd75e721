"""Section-7 future-work extension: weighted cross-context relationships.

The baseline citation score (section 3.1) drops every citation edge whose
other endpoint lies outside the context.  Section 7 proposes keeping those
edges at *graded weights* instead:

- the other paper is also in the context        -> highest weight (1.0);
- its contexts are hierarchically related to c1 -> higher weight;
- unrelated                                     -> smallest weight.

This module implements that proposal: the scored graph is the context's
papers plus their 1-hop citation boundary, with edge weights from the
schedule above, run through a weighted PageRank.  Scores are reported for
context papers only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.citations.graph import CitationGraph
from repro.core.context import Context, ContextPaperSet
from repro.ontology.ontology import Ontology
from repro.ontology.semantic import lin_similarity
from repro.scoring.base import PrestigeScoreFunction


@dataclass(frozen=True)
class CrossContextWeights:
    """The graded edge-weight schedule of section 7."""

    within: float = 1.0
    related: float = 0.6
    unrelated: float = 0.2

    def validate(self) -> None:
        if not self.within >= self.related >= self.unrelated >= 0.0:
            raise ValueError(
                "weights must satisfy within >= related >= unrelated >= 0, got "
                f"{self.within} / {self.related} / {self.unrelated}"
            )


def weighted_pagerank(
    nodes: List[str],
    weighted_edges: Dict[Tuple[str, str], float],
    d: float = 0.15,
    max_iterations: int = 100,
    tolerance: float = 1e-10,
) -> Dict[str, float]:
    """PageRank over a weighted directed graph (weights >= 0).

    Out-flow of a node is split proportionally to edge weights; dangling
    nodes donate uniformly; teleport is the uniform E2 form, so scores sum
    to 1.
    """
    if not 0.0 < d < 1.0:
        raise ValueError(f"teleport probability d must be in (0, 1), got {d}")
    n = len(nodes)
    if n == 0:
        return {}
    index = {node: i for i, node in enumerate(nodes)}
    out_weight = np.zeros(n)
    incoming: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
    for (source, target), weight in weighted_edges.items():
        if weight <= 0.0 or source == target:
            continue
        s, t = index[source], index[target]
        out_weight[s] += weight
        incoming[t].append((s, weight))
    p = np.full(n, 1.0 / n)
    damping = 1.0 - d
    for _ in range(max_iterations):
        share = np.where(out_weight > 0, p / np.maximum(out_weight, 1e-300), 0.0)
        flowed = np.array(
            [sum(share[s] * w for s, w in sources) for sources in incoming],
            dtype=float,
        )
        dangling_mass = p[out_weight == 0].sum() / n
        new_p = damping * (flowed + dangling_mass) + d / n
        residual = float(np.abs(new_p - p).sum())
        p = new_p
        if residual < tolerance:
            break
    return {node: float(p[index[node]]) for node in nodes}


class CrossContextCitationPrestige(PrestigeScoreFunction):
    """Citation prestige with graded cross-context edges (section 7).

    Parameters
    ----------
    graph:
        The corpus-wide citation graph.
    paper_set:
        Needed to look up the contexts of boundary papers when grading
        their relationship to the scored context.
    weights:
        The within/related/unrelated schedule.
    grading:
        ``"binary"`` (default) uses the paper's three-way schedule:
        hierarchically related contexts get ``weights.related``, everything
        else ``weights.unrelated``.  ``"lin"`` grades continuously by the
        best Lin semantic similarity between the scored context and the
        boundary paper's contexts:
        ``unrelated + (within - unrelated) * lin`` -- the natural refinement
        the paper's "close relative" phrasing hints at.
    """

    name = "citation-xctx"
    normalization = "max"  # same floor semantics as CitationPrestige

    def __init__(
        self,
        graph: CitationGraph,
        ontology: Ontology,
        paper_set: ContextPaperSet,
        weights: Optional[CrossContextWeights] = None,
        d: float = 0.15,
        grading: str = "binary",
    ) -> None:
        if grading not in ("binary", "lin"):
            raise ValueError(f"grading must be 'binary' or 'lin', got {grading!r}")
        self.graph = graph
        self.ontology = ontology
        self.paper_set = paper_set
        self.weights = weights if weights is not None else CrossContextWeights()
        self.weights.validate()
        self.d = d
        self.grading = grading

    def score_context(self, context: Context) -> Dict[str, float]:
        members: Set[str] = set(context.paper_ids)
        if not members:
            return {}
        boundary = self._boundary_papers(members)
        nodes = sorted(members | boundary)
        edges: Dict[Tuple[str, str], float] = {}
        for node in nodes:
            for target in self.graph.out_neighbors(node):
                if target not in members and node not in members:
                    continue  # edges entirely outside the context are irrelevant
                if target in members or node in members:
                    weight = self._edge_weight(context.term_id, node, target, members)
                    if weight > 0.0:
                        edges[(node, target)] = weight
        scores = weighted_pagerank(nodes, edges, d=self.d)
        return {pid: scores[pid] for pid in context.paper_ids if pid in scores}

    # -- internals ----------------------------------------------------------------

    def _boundary_papers(self, members: Set[str]) -> Set[str]:
        """Papers one citation hop outside the context."""
        boundary: Set[str] = set()
        for paper_id in members:
            if paper_id not in self.graph:
                continue
            boundary.update(self.graph.out_neighbors(paper_id))
            boundary.update(self.graph.in_neighbors(paper_id))
        return boundary - members

    def _edge_weight(
        self, context_id: str, source: str, target: str, members: Set[str]
    ) -> float:
        """Grade one edge by the outside endpoint's context relationship."""
        if source in members and target in members:
            return self.weights.within
        outside = target if source in members else source
        outside_contexts = self.paper_set.contexts_of_paper(outside)
        if not outside_contexts:
            return self.weights.unrelated
        if self.grading == "lin":
            best = max(
                lin_similarity(self.ontology, context_id, other)
                for other in outside_contexts
            )
            return self.weights.unrelated + (
                self.weights.within - self.weights.unrelated
            ) * best
        for other_context in outside_contexts:
            if self.ontology.are_hierarchically_related(context_id, other_context):
                return self.weights.related
        return self.weights.unrelated
