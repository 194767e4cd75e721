"""Naive references for the citation prestige (section 3.1).

:func:`reference_pagerank` is PageRank as it ran before its inner loop
became a CSR ``bincount``: a Python sum over each node's in-neighbour
list per iteration, with dangling mass spread uniformly.
:func:`reference_hits` is HITS as the same kind of loop, over in- and
out-neighbour lists.
"""

import random

import numpy as np

from repro.citations.graph import CitationGraph
from repro.citations.pagerank import TeleportKind


def random_graph(seed, n=30, p=0.12):
    """``n`` nodes, each ordered pair an edge with probability ``p``."""
    rng = random.Random(seed)
    nodes = [f"N{i}" for i in range(n)]
    edges = [
        (source, target)
        for source in nodes
        for target in nodes
        if source != target and rng.random() < p
    ]
    return CitationGraph(edges=edges, nodes=nodes)


def reference_pagerank(graph, teleport, d=0.15, max_iterations=200, tolerance=1e-10):
    """The section-3.1 recurrence as a Python loop over in-neighbour lists."""
    nodes = graph.nodes()
    n = len(nodes)
    index = {node: position for position, node in enumerate(nodes)}
    out_degree = np.array(
        [len(graph.out_neighbors(node)) for node in nodes], dtype=float
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


def reference_hits(graph, max_iterations=100, tolerance=1e-10):
    """``(authorities, hubs)``: HITS as Python sums over neighbour lists."""
    nodes = graph.nodes()
    n = len(nodes)
    index = {node: position for position, node in enumerate(nodes)}
    in_lists = [[index[u] for u in graph.in_neighbors(node)] for node in nodes]
    out_lists = [[index[v] for v in graph.out_neighbors(node)] for node in nodes]
    authority = np.full(n, 1.0 / np.sqrt(n))
    hub = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(max_iterations):
        new_authority = np.array(
            [sum(hub[u] for u in sources) for sources in in_lists], dtype=float
        )
        norm = np.linalg.norm(new_authority)
        if norm > 0:
            new_authority /= norm
        new_hub = np.array(
            [sum(new_authority[v] for v in targets) for targets in out_lists],
            dtype=float,
        )
        norm = np.linalg.norm(new_hub)
        if norm > 0:
            new_hub /= norm
        delta = float(
            np.abs(new_authority - authority).sum() + np.abs(new_hub - hub).sum()
        )
        authority, hub = new_authority, new_hub
        if delta < tolerance:
            break
    return (
        {node: float(authority[index[node]]) for node in nodes},
        {node: float(hub[index[node]]) for node in nodes},
    )
