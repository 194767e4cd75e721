"""Citation graphs and per-context subgraphs.

The citation-based score function (paper section 3.1) deliberately uses
"only citation information between papers in the given context", so the
central operation here is restricting a corpus-wide citation graph to an
arbitrary node subset while keeping edge direction: an edge ``u -> v``
means *u cites v*.

A graph is immutable: a node table (:class:`~repro.corpus.rows.PaperRows`)
and its edges as two CSRs over the table's rows, one of out-lists and one
of in-lists.  The corpus-wide graph (:meth:`CitationGraph.from_corpus`)
uses the corpus's own ``paper_rows`` as its node table, so its rows are
the rows every other paper column indexes.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.corpus.corpus import Corpus
from repro.corpus.rows import PaperRows, csr_positions, indptr_of


class CitationGraph:
    """A directed citation graph over paper ids (``u -> v`` = u cites v).

    ``paper_rows`` is the node table.  ``out_targets[out_indptr[r]:
    out_indptr[r + 1]]`` are the rows node ``r`` cites and ``in_sources``
    (over ``in_indptr``) the rows citing it.  Both lists follow the order
    in which the edges were first given: a repeated edge keeps its first
    occurrence, and a self-loop is dropped but its node kept.  Self-loops
    cannot occur in a clean corpus and would distort PageRank; a repeated
    edge would double-weight one reference list entry.
    """

    __slots__ = ("paper_rows", "out_indptr", "out_targets", "in_indptr", "in_sources")

    def __init__(self, edges: Optional[Iterable[Tuple[str, str]]] = None,
                 nodes: Optional[Iterable[str]] = None) -> None:
        """Nodes are ``nodes``, then edge endpoints in first-seen order."""
        edges = list(edges) if edges is not None else []
        ids = dict.fromkeys(nodes if nodes is not None else ())
        ids.update(dict.fromkeys(chain.from_iterable(edges)))
        paper_rows = PaperRows(ids)
        pairs = paper_rows.rows(chain.from_iterable(edges)).reshape(-1, 2)
        self._index(paper_rows, pairs[:, 0], pairs[:, 1])

    @classmethod
    def from_corpus(cls, corpus: Corpus) -> "CitationGraph":
        """The corpus-wide graph of resolvable references, over
        ``corpus.paper_rows`` itself."""
        paper_rows = corpus.paper_rows
        references = [corpus.references_of(pid) for pid in paper_rows.ids]
        counts = np.fromiter(map(len, references), dtype=np.intp, count=len(references))
        sources = np.repeat(np.arange(len(paper_rows)), counts)
        return cls._over(
            paper_rows, sources, paper_rows.rows(chain.from_iterable(references))
        )

    @classmethod
    def _over(
        cls, paper_rows: PaperRows, sources: np.ndarray, targets: np.ndarray
    ) -> "CitationGraph":
        graph = cls.__new__(cls)
        graph._index(paper_rows, sources, targets)
        return graph

    def _index(
        self, paper_rows: PaperRows, sources: np.ndarray, targets: np.ndarray
    ) -> None:
        """Set the node table and both CSRs of the edges ``sources[i] ->
        targets[i]`` (rows of ``paper_rows``)."""
        n = len(paper_rows)
        loop = sources == targets
        sources, targets = sources[~loop], targets[~loop]
        first = np.sort(np.unique(sources * n + targets, return_index=True)[1])
        sources, targets = sources[first], targets[first]
        self.paper_rows = paper_rows
        self.out_indptr = indptr_of(np.bincount(sources, minlength=n))
        self.out_targets = targets[np.argsort(sources, kind="stable")]
        self.in_indptr = indptr_of(np.bincount(targets, minlength=n))
        self.in_sources = sources[np.argsort(targets, kind="stable")]

    # -- access --------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.paper_rows)

    def __contains__(self, node: str) -> bool:
        return node in self.paper_rows.row_of

    def nodes(self) -> List[str]:
        """All node ids in row order."""
        return list(self.paper_rows.ids)

    def edges(self) -> Iterator[Tuple[str, str]]:
        """Iterate all ``(citing, cited)`` pairs, by source row, then out-list."""
        ids = self.paper_rows.ids
        sources = np.repeat(np.arange(len(ids)), np.diff(self.out_indptr))
        return zip(
            map(ids.__getitem__, sources.tolist()),
            map(ids.__getitem__, self.out_targets.tolist()),
        )

    @property
    def n_edges(self) -> int:
        return len(self.out_targets)

    def out_neighbors(self, node: str) -> List[str]:
        """Papers cited by ``node``."""
        return self._neighbors(node, self.out_indptr, self.out_targets)

    def in_neighbors(self, node: str) -> List[str]:
        """Papers citing ``node``."""
        return self._neighbors(node, self.in_indptr, self.in_sources)

    def _neighbors(self, node: str, indptr: np.ndarray, column: np.ndarray) -> List[str]:
        row = self.paper_rows.row_of.get(node)
        if row is None:
            return []
        ids = self.paper_rows.ids
        return [ids[r] for r in column[indptr[row]:indptr[row + 1]].tolist()]

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

    def induced(self, nodes: Iterable[str]) -> Tuple[List[str], np.ndarray, np.ndarray]:
        """The subgraph on ``nodes`` as ``(ids, sources, targets)``.

        ``ids`` are the known ``nodes`` in row order, then unknown ids once
        each in ``nodes`` order; the edges are the ones between known nodes,
        as positions in ``ids``, by source, then out-list order.
        """
        wanted = dict.fromkeys(nodes)
        row_of = self.paper_rows.row_of
        rows = np.array(sorted(row_of[n] for n in wanted if n in row_of), dtype=np.intp)
        ids = list(map(self.paper_rows.ids.__getitem__, rows.tolist()))
        ids.extend(n for n in wanted if n not in row_of)
        positions, counts = csr_positions(self.out_indptr, rows)
        targets = self.out_targets[positions]
        local = np.searchsorted(rows, targets)
        kept = rows[np.minimum(local, len(rows) - 1)] == targets
        sources = np.repeat(np.arange(len(rows)), counts)
        return ids, sources[kept], local[kept]

    def subgraph(self, nodes: Iterable[str]) -> "CitationGraph":
        """The induced subgraph on ``nodes`` (unknown ids become isolated nodes).

        This is the "only citations between papers in the given context"
        restriction of section 3.1: edges with either endpoint outside the
        context are dropped.  Nodes keep this graph's order; unknown ids
        follow, once each, in ``nodes`` order.
        """
        ids, sources, targets = self.induced(nodes)
        return CitationGraph._over(PaperRows(ids), sources, targets)

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
        row_of = self.paper_rows.row_of
        frontier = np.unique(
            np.fromiter((row_of[n] for n in sources if n in row_of), dtype=np.intp)
        )
        reached = np.zeros(len(self), dtype=bool)
        reached[frontier] = True
        lists = [(self.out_indptr, self.out_targets)]
        if not directed:
            lists.append((self.in_indptr, self.in_sources))
        for _ in range(max_hops):
            frontier = np.unique(np.concatenate([
                column[csr_positions(indptr, frontier)[0]] for indptr, column in lists
            ]))
            frontier = frontier[~reached[frontier]]
            if not len(frontier):
                break
            reached[frontier] = True
        return set(map(self.paper_rows.ids.__getitem__, np.flatnonzero(reached).tolist()))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CitationGraph({len(self)} nodes, {self.n_edges} edges)"
