"""Citation graphs and per-context subgraphs.

The citation-based score function (paper section 3.1) deliberately uses
"only citation information between papers in the given context", so the
central operation here is restricting a corpus-wide citation graph to an
arbitrary node subset while keeping edge direction: an edge ``u -> v``
means *u cites v*.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.corpus.corpus import Corpus


class CitationGraph:
    """A directed citation graph over paper ids (``u -> v`` = u cites v)."""

    def __init__(self, edges: Optional[Iterable[Tuple[str, str]]] = None,
                 nodes: Optional[Iterable[str]] = None) -> None:
        self._out: Dict[str, List[str]] = {}
        self._in: Dict[str, List[str]] = {}
        if nodes is not None:
            for node in nodes:
                self.add_node(node)
        if edges is not None:
            for source, target in edges:
                self.add_edge(source, target)

    @classmethod
    def from_corpus(cls, corpus: Corpus) -> "CitationGraph":
        """Build the corpus-wide graph from resolvable references."""
        graph = cls()
        for paper in corpus:
            graph.add_node(paper.paper_id)
        for paper in corpus:
            for reference in corpus.references_of(paper.paper_id):
                graph.add_edge(paper.paper_id, reference)
        return graph

    # -- construction -------------------------------------------------------------

    def add_node(self, node: str) -> None:
        """Ensure ``node`` exists (idempotent)."""
        if node not in self._out:
            self._out[node] = []
            self._in[node] = []

    def add_edge(self, source: str, target: str) -> None:
        """Add a citation edge; self-loops and duplicates are ignored.

        Self-citations of the *same paper record* cannot occur in a clean
        corpus and would distort PageRank; duplicate edges would silently
        double-weight one reference list entry.
        """
        self.add_node(source)
        self.add_node(target)
        if source == target:
            return
        if target not in self._out[source]:
            self._out[source].append(target)
            self._in[target].append(source)

    # -- access --------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._out)

    def __contains__(self, node: str) -> bool:
        return node in self._out

    def nodes(self) -> List[str]:
        """All node ids in insertion order."""
        return list(self._out)

    def edges(self) -> Iterator[Tuple[str, str]]:
        """Iterate all ``(citing, cited)`` pairs."""
        for source, targets in self._out.items():
            for target in targets:
                yield source, target

    @property
    def n_edges(self) -> int:
        return sum(len(targets) for targets in self._out.values())

    def out_neighbors(self, node: str) -> List[str]:
        """Papers cited by ``node``."""
        return list(self._out.get(node, ()))

    def in_neighbors(self, node: str) -> List[str]:
        """Papers citing ``node``."""
        return list(self._in.get(node, ()))

    def out_degree(self, node: str) -> int:
        return len(self._out.get(node, ()))

    def in_degree(self, node: str) -> int:
        return len(self._in.get(node, ()))

    def out_rows(self) -> Tuple[List[str], np.ndarray, np.ndarray]:
        """``(nodes, indptr, targets)``: the out-lists as CSR rows.

        ``targets[indptr[i]:indptr[i + 1]]`` are the positions in
        ``nodes`` (insertion order) of the papers ``nodes[i]`` cites, in
        out-list order.
        """
        nodes = list(self._out)
        position = {node: i for i, node in enumerate(nodes)}
        lists = self._out.values()
        indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter(map(len, lists), dtype=np.int64, count=len(nodes)),
            out=indptr[1:],
        )
        targets = np.fromiter(
            map(position.__getitem__, chain.from_iterable(lists)),
            dtype=np.int64,
            count=int(indptr[-1]),
        )
        return nodes, indptr, targets

    def density(self) -> float:
        """Edge density |E| / (|V| (|V|-1)); 0.0 for graphs with < 2 nodes.

        The paper's explanation for citation-score weakness is per-context
        graph *sparsity*; experiments report this directly.
        """
        n = len(self)
        if n < 2:
            return 0.0
        return self.n_edges / (n * (n - 1))

    # -- subgraphs -------------------------------------------------------------------

    def subgraph(self, nodes: Iterable[str]) -> "CitationGraph":
        """The induced subgraph on ``nodes`` (unknown ids become isolated nodes).

        This is the "only citations between papers in the given context"
        restriction of section 3.1: edges with either endpoint outside the
        context are dropped.  Nodes keep this graph's order; unknown ids
        follow, once each, in ``nodes`` order.
        """
        wanted = list(dict.fromkeys(nodes))
        keep: Set[str] = set(wanted)
        result = CitationGraph()
        for node in self._out:
            if node in keep:
                result.add_node(node)
        for node in wanted:
            if node not in self._out:
                result.add_node(node)
        for source in result.nodes():
            for target in self._out.get(source, ()):
                if target in keep:
                    result.add_edge(source, target)
        return result

    def within_path_length(
        self, sources: Iterable[str], max_hops: int, directed: bool = False
    ) -> Set[str]:
        """Nodes reachable from ``sources`` within ``max_hops`` citation steps.

        AC-answer-set citation expansion (paper section 2) collects "papers
        in the citation path of length at most 2 from the initial paper
        set"; with ``directed=False`` both citing and cited directions are
        followed, which is the inclusive reading used here.
        """
        if max_hops < 0:
            raise ValueError(f"max_hops must be >= 0, got {max_hops}")
        frontier: Set[str] = {node for node in sources if node in self._out}
        reached: Set[str] = set(frontier)
        for _ in range(max_hops):
            next_frontier: Set[str] = set()
            for node in frontier:
                next_frontier.update(self._out.get(node, ()))
                if not directed:
                    next_frontier.update(self._in.get(node, ()))
            next_frontier -= reached
            if not next_frontier:
                break
            reached |= next_frontier
            frontier = next_frontier
        return reached

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CitationGraph({len(self)} nodes, {self.n_edges} edges)"
