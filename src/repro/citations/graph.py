"""Citation graphs and per-context subgraphs.

The citation-based score function (paper section 3.1) deliberately uses
"only citation information between papers in the given context", so the
central operation here is restricting a corpus-wide citation graph to an
arbitrary node subset while keeping edge direction: an edge ``u -> v``
means *u cites v*.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

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

    def remove_node(self, node: str) -> None:
        """Remove ``node`` and every incident edge; unknown nodes are an error.

        Neighbour adjacency lists keep their relative order, so removal is
        indistinguishable from the node never having been added.
        """
        if node not in self._out:
            raise KeyError(f"unknown node {node!r}")
        for target in self._out.pop(node):
            self._in[target].remove(node)
        for source in self._in.pop(node):
            self._out[source].remove(node)

    def apply_corpus_delta(
        self,
        corpus: Corpus,
        added_ids: Sequence[str],
        removed_ids: Sequence[str],
    ) -> None:
        """Splice a corpus delta into the graph, canonically.

        ``corpus`` must be the *final* corpus (removals and additions
        already applied); ``added_ids``/``removed_ids`` list the papers
        that changed, with added papers appended at the end of corpus
        insertion order.  The result is byte-identical -- node order,
        adjacency-list order, everything -- to ``from_corpus(corpus)``:

        - removed nodes disappear from neighbour lists in place (relative
          order of survivors is unchanged, as if never added);
        - new nodes land at the end of the node map, matching their
          position in corpus order;
        - old papers whose previously-dangling references now resolve get
          their out-lists recomputed from the corpus so the new targets
          sit at their canonical reference-order positions;
        - in-lists of touched targets are rebuilt in corpus-order of the
          citing papers, which is exactly the order ``from_corpus``
          produces.
        """
        added = [pid for pid in added_ids if pid in corpus]
        added_set = set(added)
        for node in removed_ids:
            if node in self._out:
                self.remove_node(node)
        for node in added:
            self.add_node(node)
        # Old citers whose dangling references now resolve to a new paper:
        # recompute their out-lists from the corpus so the resurrected
        # targets appear at reference-order positions, not appended.
        old_citers: Dict[str, None] = {}
        for pid in added:
            for citer in corpus.citations_of(pid):
                if citer not in added_set:
                    old_citers.setdefault(citer)
        for citer in old_citers:
            self._out[citer] = list(dict.fromkeys(corpus.references_of(citer)))
        for pid in added:
            self._out[pid] = list(dict.fromkeys(corpus.references_of(pid)))
            for target in self._out[pid]:
                if target not in added_set and pid not in self._in[target]:
                    self._in[target].append(pid)
        for pid in added:
            self._in[pid] = list(dict.fromkeys(corpus.citations_of(pid)))

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
        context are dropped.
        """
        keep: Set[str] = set(nodes)
        result = CitationGraph()
        for node in self._out:
            if node in keep:
                result.add_node(node)
        for node in keep - set(self._out):
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

    # -- (de)serialisation ----------------------------------------------------------

    def to_payload(self) -> Dict[str, List]:
        """JSON-able snapshot: node list (insertion order) + edge list."""
        return {
            "nodes": self.nodes(),
            "edges": [[source, target] for source, target in self.edges()],
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "CitationGraph":
        """Rebuild from :meth:`to_payload` output (orders preserved)."""
        return cls(
            nodes=payload["nodes"],
            edges=[(source, target) for source, target in payload["edges"]],
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CitationGraph({len(self)} nodes, {self.n_edges} edges)"
