"""Citation-based prestige (section 3.1).

Per context: take the induced citation subgraph over the context's papers
("only citation information between papers in the given context") and run
the paper's PageRank variant on it.  Papers in sparse subgraphs collapse
to few unique scores -- the separability weakness figures 5.4/5.7 report.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from repro.citations.graph import CitationGraph
from repro.citations.pagerank import TeleportKind, pagerank_arrays
from repro.core.context import Context, csr_positions
from repro.scoring.base import PrestigeScoreFunction


class CitationPrestige(PrestigeScoreFunction):
    """Per-context PageRank prestige.

    A batch of contexts reads one CSR of the graph's out-lists
    (:meth:`CitationGraph.out_rows`).  A context's edges are the rows of
    its members cut to member targets, handed to
    :func:`~repro.citations.pagerank.pagerank_arrays` in the order
    :func:`~repro.citations.pagerank.pagerank` walks
    ``graph.subgraph(context.paper_ids)``, so the scores are the same
    floats, in the same key order.

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
        contexts = list(contexts)
        nodes, indptr, targets = self.graph.out_rows()
        position = {node: i for i, node in enumerate(nodes)}
        # local[g]: graph node g's position in the current context, or -1.
        local = np.full(len(nodes), -1, dtype=np.int64)
        results: List[Dict[str, float]] = []
        for context in contexts:
            if not context.paper_ids:
                results.append({})
                continue
            wanted = dict.fromkeys(context.paper_ids)
            rows = np.array(
                sorted(position[pid] for pid in wanted if pid in position),
                dtype=np.int64,
            )
            # The subgraph's nodes: members in graph order, then members
            # the graph lacks (isolated) in context order.
            ids = [nodes[row] for row in rows.tolist()]
            ids.extend(pid for pid in wanted if pid not in position)
            local[rows] = np.arange(len(rows))
            edges, counts = csr_positions(indptr, rows)
            dst = local[targets[edges]]
            local[rows] = -1
            # Sources ascend, so each destination sums its sources in
            # node order, as the subgraph's in-lists have them.
            src = np.repeat(np.arange(len(rows)), counts)
            kept = dst >= 0
            scores = pagerank_arrays(
                len(ids), src[kept], dst[kept],
                teleport=self.teleport,
                d=self.d,
                max_iterations=self.max_iterations,
            )[0]
            results.append(dict(zip(ids, scores.tolist())))
        return results
