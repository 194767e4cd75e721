"""The paper's PageRank variant.

Section 3.1 defines the iteration

    ``P_{i+1} = (1 - d) * M^T * P_i + E``

where ``M`` is the row-normalised citation adjacency matrix of the
*per-context* graph, ``d`` is the probability of jumping to a random paper,
and ``E`` is a teleport term with two published choices:

- ``E1 = d``          -- a constant added to every component (the original
  Brin & Page formulation, where scores sum to N rather than 1);
- ``E2 = (d/N) 1 1^T P_i`` -- redistribute mass uniformly, keeping the
  score vector a probability distribution.

Note the paper swaps the conventional role of ``d``: here ``d`` is the
*teleport* probability (their text: "(1-d) is the probability that he/she
will next read a random paper" is inverted relative to their formula; we
follow the formula, which is also the standard reading with
``damping = 1 - d``).  Dangling papers (no outgoing citations) donate their
mass uniformly, the standard stochastic fix-up, so E2 iterations preserve
``sum(P) = 1`` exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.citations.graph import CitationGraph
from repro.obs import get_logger, get_registry

logger = get_logger(__name__)


class TeleportKind(str, enum.Enum):
    """Which teleport term ``E`` from section 3.1 to use."""

    E1_CONSTANT = "e1"
    E2_UNIFORM = "e2"


@dataclass
class PageRankResult:
    """Converged PageRank scores plus convergence diagnostics."""

    scores: Dict[str, float]
    iterations: int
    converged: bool
    residual: float


def pagerank(
    graph: CitationGraph,
    teleport: TeleportKind = TeleportKind.E2_UNIFORM,
    d: float = 0.15,
    max_iterations: int = 200,
    tolerance: float = 1e-10,
    initial: Optional[Dict[str, float]] = None,
) -> PageRankResult:
    """Run the section-3.1 iteration until the L1 residual drops below tolerance.

    Parameters
    ----------
    graph:
        The (per-context) citation graph.  ``u -> v`` means u cites v, so
        score flows from citing papers to cited papers.
    teleport:
        ``E1_CONSTANT`` adds ``d`` to every component each step (scores are
        then divided by their maximum by consumers); ``E2_UNIFORM`` keeps
        a probability distribution.
    d:
        Teleport probability; ``1 - d`` is the damping factor.  The classic
        web value is d = 0.15.
    initial:
        Optional starting vector (defaults to uniform).  Exposed so tests
        can verify invariance to the starting point.

    An empty graph yields an empty score map; a single node gets score 1.
    The edges go to :func:`pagerank_arrays` as the graph's in-CSR: grouped
    by destination in node order, each destination's sources in in-list
    order.
    """
    nodes = graph.nodes()
    edge_dst = np.repeat(np.arange(len(nodes)), np.diff(graph.in_indptr))
    start = None
    if initial is not None:
        start = np.array([float(initial.get(node, 0.0)) for node in nodes])
    p, iterations, converged, residual = pagerank_arrays(
        len(nodes), graph.in_sources, edge_dst,
        teleport=teleport, d=d, max_iterations=max_iterations,
        tolerance=tolerance, initial=start,
    )
    return PageRankResult(
        scores=dict(zip(nodes, p.tolist())),
        iterations=iterations,
        converged=converged,
        residual=residual,
    )


def pagerank_arrays(
    n: int,
    edge_src: np.ndarray,
    edge_dst: np.ndarray,
    teleport: TeleportKind = TeleportKind.E2_UNIFORM,
    d: float = 0.15,
    max_iterations: int = 200,
    tolerance: float = 1e-10,
    initial: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, int, bool, float]:
    """:func:`pagerank` over nodes ``0 .. n-1`` and edges ``src -> dst``.

    Returns ``(scores, iterations, converged, residual)``.  Each step sums
    the score flowing into a node in the order its edges appear, and the
    dangling mass in node order, so the floats depend on both orders.
    ``initial`` (length ``n``) is rescaled to sum to 1.
    """
    if not 0.0 < d < 1.0:
        raise ValueError(f"teleport probability d must be in (0, 1), got {d}")
    if n == 0:
        return np.zeros(0), 0, True, 0.0

    # Column-stochastic transition built from M^T: entry [v, u] = 1/outdeg(u)
    # for each edge u -> v, applied as one gather plus one scatter-add.
    out_degree = np.bincount(edge_src, minlength=n).astype(float)
    dangling = out_degree == 0.0
    divisor = np.maximum(out_degree, 1.0)

    if initial is None:
        p = np.full(n, 1.0 / n)
    else:
        p = initial
        total = p.sum()
        if total <= 0.0:
            raise ValueError("initial vector must have positive mass")
        p = p / total

    damping = 1.0 - d
    iterations = 0
    residual = float("inf")
    for iterations in range(1, max_iterations + 1):
        spread = np.where(dangling, 0.0, p / divisor)
        flowed = np.bincount(
            edge_dst, weights=spread[edge_src], minlength=n
        ).astype(float, copy=False)
        # Dangling papers donate uniformly so no mass leaks.
        dangling_mass = p[dangling].sum() / n
        flowed += dangling_mass
        if teleport is TeleportKind.E2_UNIFORM:
            new_p = damping * flowed + d / n
        else:  # E1: constant d added to each component (unnormalised variant)
            new_p = damping * flowed + d
        residual = float(np.abs(new_p - p).sum())
        p = new_p
        if teleport is TeleportKind.E2_UNIFORM and residual < tolerance:
            break
        if teleport is TeleportKind.E1_CONSTANT:
            # The E1 recurrence converges to a fixed point too (same linear
            # operator, shifted); compare against scaled tolerance.
            if residual < tolerance * max(p.sum(), 1.0):
                break

    converged = residual < tolerance * (
        1.0 if teleport is TeleportKind.E2_UNIFORM else max(float(p.sum()), 1.0)
    )
    registry = get_registry()
    registry.counter("citations.pagerank.runs").inc()
    registry.histogram("citations.pagerank.iterations").observe(iterations)
    registry.histogram("citations.pagerank.graph_size").observe(n)
    registry.gauge("citations.pagerank.residual").set(residual)
    if not converged:
        registry.counter("citations.pagerank.unconverged").inc()
        logger.warning(
            "pagerank hit the iteration cap without converging",
            iterations=iterations,
            residual=residual,
            tolerance=tolerance,
            nodes=n,
            teleport=teleport.value,
        )
    return p, iterations, converged, residual
