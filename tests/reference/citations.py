"""Naive references for the citation prestige (section 3.1).

:func:`reference_pagerank` is PageRank as it ran before its inner loop
became a CSR ``bincount``: a Python sum over each node's in-neighbour
list per iteration, with dangling mass spread uniformly.
"""

import random

import numpy as np

from repro.citations.graph import CitationGraph
from repro.citations.pagerank import TeleportKind


def random_graph(seed, n=30, p=0.12):
    """``n`` nodes, each ordered pair an edge with probability ``p``."""
    rng = random.Random(seed)
    graph = CitationGraph()
    for i in range(n):
        graph.add_node(f"N{i}")
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < p:
                graph.add_edge(f"N{i}", f"N{j}")
    return graph


def reference_pagerank(graph, teleport, d=0.15, max_iterations=200, tolerance=1e-10):
    """The section-3.1 recurrence as a Python loop over in-neighbour lists."""
    nodes = graph.nodes()
    n = len(nodes)
    index = {node: position for position, node in enumerate(nodes)}
    out_degree = np.array(
        [graph.out_degree(node) for node in nodes], dtype=float
    )
    dangling = out_degree == 0.0
    in_lists = [
        [index[u] for u in graph.in_neighbors(node)] for node in nodes
    ]
    p = np.full(n, 1.0 / n)
    damping = 1.0 - d
    for _ in range(1, max_iterations + 1):
        spread = np.where(dangling, 0.0, p / np.maximum(out_degree, 1.0))
        flowed = np.array(
            [sum(spread[u] for u in sources) for sources in in_lists],
            dtype=float,
        )
        flowed += p[dangling].sum() / n
        if teleport is TeleportKind.E2_UNIFORM:
            new_p = damping * flowed + d / n
        else:
            new_p = damping * flowed + d
        residual = float(np.abs(new_p - p).sum())
        p = new_p
        if teleport is TeleportKind.E2_UNIFORM and residual < tolerance:
            break
        if teleport is TeleportKind.E1_CONSTANT and residual < tolerance * max(
            p.sum(), 1.0
        ):
            break
    return {node: float(p[index[node]]) for node in nodes}
