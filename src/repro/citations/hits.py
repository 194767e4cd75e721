"""Kleinberg's HITS algorithm (paper reference [9]).

Section 3.1 describes authorities and hubs; the paper chose PageRank after
earlier experiments [11] showed HITS and PageRank scores to be highly
correlated on the ACM SIGMOD Anthology.  We implement HITS both for
completeness and to reproduce that correlation claim as an ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.citations.graph import CitationGraph
from repro.obs import get_logger, get_registry

logger = get_logger(__name__)


@dataclass
class HitsResult:
    """Converged authority and hub scores (each L2-normalised)."""

    authorities: Dict[str, float]
    hubs: Dict[str, float]
    iterations: int
    converged: bool


def hits_scores(
    graph: CitationGraph,
    max_iterations: int = 100,
    tolerance: float = 1e-10,
) -> HitsResult:
    """Iterate authority/hub mutual reinforcement to a fixed point.

    authority(v) ∝ Σ hub(u) over citing papers u;
    hub(u)       ∝ Σ authority(v) over papers v cited by u.

    Graphs with no edges return uniform scores immediately (the iteration
    has nothing to reinforce and any normalised vector is a fixed point).
    """
    nodes = graph.nodes()
    n = len(nodes)
    if n == 0:
        return HitsResult(authorities={}, hubs={}, iterations=0, converged=True)
    if graph.n_edges == 0:
        uniform = 1.0 / np.sqrt(n)
        flat = {node: float(uniform) for node in nodes}
        return HitsResult(authorities=dict(flat), hubs=dict(flat), iterations=0,
                          converged=True)

    # authority(v) sums its citers' hubs in in-list order, hub(u) its
    # references' authorities in out-list order: one bincount each.
    cited = np.repeat(np.arange(n), np.diff(graph.in_indptr))
    citing = np.repeat(np.arange(n), np.diff(graph.out_indptr))

    authority = np.full(n, 1.0 / np.sqrt(n))
    hub = np.full(n, 1.0 / np.sqrt(n))
    iterations = 0
    converged = False
    delta = float("inf")
    for iterations in range(1, max_iterations + 1):
        new_authority = np.bincount(cited, weights=hub[graph.in_sources], minlength=n)
        norm = np.linalg.norm(new_authority)
        if norm > 0:
            new_authority /= norm
        new_hub = np.bincount(
            citing, weights=new_authority[graph.out_targets], minlength=n
        )
        norm = np.linalg.norm(new_hub)
        if norm > 0:
            new_hub /= norm
        delta = float(
            np.abs(new_authority - authority).sum() + np.abs(new_hub - hub).sum()
        )
        authority, hub = new_authority, new_hub
        if delta < tolerance:
            converged = True
            break

    registry = get_registry()
    registry.counter("citations.hits.runs").inc()
    registry.histogram("citations.hits.iterations").observe(iterations)
    registry.histogram("citations.hits.graph_size").observe(n)
    registry.gauge("citations.hits.residual").set(delta)
    if not converged:
        registry.counter("citations.hits.unconverged").inc()
        logger.warning(
            "hits hit the iteration cap without converging",
            iterations=iterations,
            delta=delta,
            tolerance=tolerance,
            nodes=n,
        )
    return HitsResult(
        authorities=dict(zip(nodes, authority.tolist())),
        hubs=dict(zip(nodes, hub.tolist())),
        iterations=iterations,
        converged=converged,
    )
