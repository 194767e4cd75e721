"""Contexts and context paper sets.

A *context* is an ontology term plus the set of papers assigned to it.
A :class:`ContextPaperSet` is a full assignment of a corpus into contexts
-- the artefact the two pre-processing builders of section 4 produce and
every score function consumes.

:class:`ContextColumns` is the same assignment laid out as arrays (CSR
rows over a dense paper index) for the context search kernel in
:mod:`repro.core.search`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.ontology.ontology import Ontology


@dataclass(frozen=True)
class Context:
    """One context: an ontology term with its assigned papers.

    Attributes
    ----------
    term_id:
        The ontology term this context represents.
    paper_ids:
        Papers assigned to the context, in assignment order.
    training_paper_ids:
        Annotation-evidence papers used to build patterns / pick the
        representative.  Subset of the corpus, not necessarily of
        ``paper_ids``.
    inherited_from:
        If the context had no papers of its own and inherited its closest
        ancestor's paper set (section 4, pattern-based builder), the
        ancestor's term id; otherwise None.
    decay:
        RateOfDecay applied to scores of inherited papers (1.0 when not
        inherited).
    """

    term_id: str
    paper_ids: Tuple[str, ...]
    training_paper_ids: Tuple[str, ...] = ()
    inherited_from: Optional[str] = None
    decay: float = 1.0

    @property
    def size(self) -> int:
        return len(self.paper_ids)

    @cached_property
    def paper_id_set(self) -> frozenset:
        """Membership set, built once (``paper_ids`` stays the ordered view)."""
        return frozenset(self.paper_ids)

    def __contains__(self, paper_id: str) -> bool:
        return paper_id in self.paper_id_set


class ContextColumns:
    """A context paper set as CSR rows over a dense paper index.

    Attributes
    ----------
    context_ids:
        Context ids in paper-set iteration order; position = context row.
    paper_ids:
        Every distinct member paper, sorted by id; position = paper row.
        Sorting makes paper-row order the ``paper_id`` tie-break.
    indptr / members:
        Forward CSR: ``members[indptr[c]:indptr[c + 1]]`` are context
        ``c``'s paper rows in assignment order (``int32``).
    paper_indptr / paper_contexts:
        Reverse CSR: the context rows holding paper ``p``, in context
        order (a stable argsort of ``members``).
    sqrt_sizes:
        ``max(size ** 0.5, 1.0)`` per context row, as probe selection
        normalises by it.

    Built once per :class:`ContextPaperSet`; both are immutable (corpus
    deltas build a new set), so the arrays never need invalidation.
    """

    def __init__(self, contexts: List[Context]) -> None:
        self.context_ids: Tuple[str, ...] = tuple(c.term_id for c in contexts)
        self.context_row: Dict[str, int] = {
            cid: row for row, cid in enumerate(self.context_ids)
        }
        #: Each row's ``paper_ids`` tuple (shared with the contexts).
        self.row_paper_ids: Tuple[Tuple[str, ...], ...] = tuple(
            c.paper_ids for c in contexts
        )
        self.paper_ids: Tuple[str, ...] = tuple(
            sorted(set(chain.from_iterable(self.row_paper_ids)))
        )
        self.paper_row: Dict[str, int] = {
            pid: row for row, pid in enumerate(self.paper_ids)
        }
        sizes = np.fromiter(
            map(len, self.row_paper_ids), dtype=np.int64, count=len(contexts)
        )
        self.indptr = np.zeros(len(contexts) + 1, dtype=np.int64)
        np.cumsum(sizes, out=self.indptr[1:])
        total = int(self.indptr[-1])
        self.members = np.fromiter(
            map(self.paper_row.__getitem__, chain.from_iterable(self.row_paper_ids)),
            dtype=np.int32,
            count=total,
        )
        context_of_member = np.repeat(
            np.arange(len(contexts), dtype=np.int32), sizes
        )
        self.paper_contexts = context_of_member[
            np.argsort(self.members, kind="stable")
        ]
        self.paper_indptr = np.zeros(len(self.paper_ids) + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(self.members, minlength=len(self.paper_ids)),
            out=self.paper_indptr[1:],
        )
        self.sqrt_sizes = np.fromiter(
            (max(len(pids) ** 0.5, 1.0) for pids in self.row_paper_ids),
            dtype=np.float64,
            count=len(contexts),
        )

    def __len__(self) -> int:
        return len(self.context_ids)


def csr_positions(
    indptr: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Entry positions of CSR ``rows``, concatenated in ``rows`` order.

    Returns ``(positions, counts)``; ``counts[i]`` is row ``i``'s length.
    """
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    offsets = np.cumsum(counts) - counts
    positions = np.arange(int(counts.sum()), dtype=np.int64) + np.repeat(
        starts - offsets, counts
    )
    return positions, counts


class ContextPaperSet:
    """An assignment of papers to ontology contexts."""

    def __init__(self, ontology: Ontology, contexts: Iterable[Context]) -> None:
        self.ontology = ontology
        self._contexts: Dict[str, Context] = {}
        for context in contexts:
            if context.term_id not in ontology:
                raise ValueError(
                    f"context {context.term_id!r} is not an ontology term"
                )
            if context.term_id in self._contexts:
                raise ValueError(f"duplicate context {context.term_id!r}")
            self._contexts[context.term_id] = context
        self._columns: Optional[ContextColumns] = None

    # -- access ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._contexts)

    def __contains__(self, term_id: str) -> bool:
        return term_id in self._contexts

    def __iter__(self) -> Iterator[Context]:
        return iter(self._contexts.values())

    def context(self, term_id: str) -> Context:
        """The context for ``term_id`` (KeyError if absent)."""
        return self._contexts[term_id]

    def context_ids(self) -> List[str]:
        return list(self._contexts)

    @property
    def columns(self) -> ContextColumns:
        """The columnar form, built on first use.

        Concurrent first calls may each build one; the copies are equal
        and the attribute store is atomic, so callers that want a single
        build (the search engine) hold their own lock around this.
        """
        columns = self._columns
        if columns is None:
            columns = self._columns = ContextColumns(list(self._contexts.values()))
        return columns

    def contexts_of_paper(self, paper_id: str) -> Tuple[str, ...]:
        """All context ids containing ``paper_id``, in context order."""
        columns = self.columns
        row = columns.paper_row.get(paper_id)
        if row is None:
            return ()
        context_ids = columns.context_ids
        lo, hi = columns.paper_indptr[row], columns.paper_indptr[row + 1]
        return tuple(
            context_ids[c] for c in columns.paper_contexts[lo:hi].tolist()
        )

    # -- filtering / statistics ---------------------------------------------------

    def filter_small(self, min_size: int) -> "ContextPaperSet":
        """Drop contexts with fewer than ``min_size`` papers.

        The paper excludes small contexts ("<= 100 papers" at PubMed scale)
        because their prestige scores are "potentially misleading".
        """
        return ContextPaperSet(
            self.ontology,
            [c for c in self._contexts.values() if c.size >= min_size],
        )

    def contexts_at_level(self, level: int) -> List[Context]:
        """Contexts whose term sits at the given ontology level."""
        return [
            c
            for c in self._contexts.values()
            if self.ontology.level(c.term_id) == level
        ]

    def descendants_in_set(self, term_id: str) -> List[str]:
        """Context ids in this set that are strict descendants of ``term_id``.

        Used by hierarchy max-propagation of prestige scores (section 3).
        """
        return [
            tid
            for tid in self.ontology.descendants(term_id)
            if tid in self._contexts
        ]

    def size_histogram(self) -> Dict[int, int]:
        """Context count by paper-set size (diagnostics)."""
        histogram: Dict[int, int] = {}
        for context in self._contexts.values():
            histogram[context.size] = histogram.get(context.size, 0) + 1
        return histogram

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        sizes = [c.size for c in self._contexts.values()]
        mean = sum(sizes) / len(sizes) if sizes else 0.0
        return f"ContextPaperSet({len(self)} contexts, mean size {mean:.1f})"
