"""Contexts and context paper sets.

A *context* is an ontology term plus the set of papers assigned to it.
A :class:`ContextPaperSet` is a full assignment of a corpus into contexts
-- the artefact the two pre-processing builders of section 4 produce and
every score function consumes.

:class:`ContextColumns` is the same assignment laid out as arrays (CSR
rows over the corpus's :class:`~repro.corpus.rows.PaperRows`) for the
context search kernel in :mod:`repro.core.search`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.corpus.rows import PaperRows, id_rank, indptr_of
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
    representative:
        The paper that stands in for the context term (section 3.2),
        chosen by the text-based builder; None for pattern contexts.
    """

    term_id: str
    paper_ids: Tuple[str, ...]
    training_paper_ids: Tuple[str, ...] = ()
    inherited_from: Optional[str] = None
    decay: float = 1.0
    representative: Optional[str] = None

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
    """A context paper set as CSR rows over the corpus's paper rows.

    Attributes
    ----------
    context_ids:
        Context ids in paper-set iteration order; position = context row.
    id_rank:
        Each context row's position in ascending context-id order, so
        selection ranks ``(-strength, context_id)`` with one ``lexsort``.
    paper_rows:
        The :class:`PaperRows` every paper row here indexes.
    indptr / members:
        Forward CSR: ``members[indptr[c]:indptr[c + 1]]`` are context
        ``c``'s paper rows in assignment order (``int32``).
    paper_indptr / paper_contexts:
        Reverse CSR: the context rows holding paper row ``p``, in
        context order (a stable argsort of ``members``); a paper in no
        context has an empty row.
    sqrt_sizes:
        ``max(size ** 0.5, 1.0)`` per context row, as probe selection
        normalises by it.

    Built once per :class:`ContextPaperSet`; both are immutable (corpus
    deltas build a new set), so the arrays never need invalidation.
    """

    def __init__(self, contexts: List[Context], paper_rows: PaperRows) -> None:
        self.context_ids: Tuple[str, ...] = tuple(c.term_id for c in contexts)
        self.context_row: Dict[str, int] = {
            cid: row for row, cid in enumerate(self.context_ids)
        }
        self.id_rank = id_rank(self.context_ids)
        self.paper_rows = paper_rows
        row_paper_ids = [c.paper_ids for c in contexts]
        sizes = np.fromiter(map(len, row_paper_ids), np.int64, len(contexts))
        self.indptr = indptr_of(sizes)
        members = paper_rows.rows(chain.from_iterable(row_paper_ids))
        self.members = members.astype(np.int32)
        context_of_member = np.repeat(
            np.arange(len(contexts), dtype=np.int32), sizes
        )
        self.paper_contexts = context_of_member[
            np.argsort(self.members, kind="stable")
        ]
        self.paper_indptr = indptr_of(
            np.bincount(self.members, minlength=len(paper_rows))
        )
        self.sqrt_sizes = np.fromiter(
            (max(len(pids) ** 0.5, 1.0) for pids in row_paper_ids),
            dtype=np.float64,
            count=len(contexts),
        )

    def __len__(self) -> int:
        return len(self.context_ids)


def check_indptr(indptr: np.ndarray, n_rows: int, n_entries: int, what: str) -> None:
    """``ValueError`` unless ``indptr`` (int64) splits ``n_entries``
    entries into ``n_rows`` rows."""
    if (
        indptr.dtype != np.int64 or indptr.shape != (n_rows + 1,)
        or indptr[0] != 0 or (np.diff(indptr) < 0).any()
        or indptr[-1] != n_entries
    ):
        raise ValueError(f"inconsistent {what} arrays")


def check_csr(
    indptr: np.ndarray, rows: np.ndarray, n_rows: int, n_table: int, what: str
) -> None:
    """``ValueError`` unless ``indptr`` (int64) and ``rows`` (int32) are a
    CSR of ``n_rows`` rows whose entries index a table of ``n_table``."""
    if rows.dtype != np.int32 or rows.ndim != 1:
        raise ValueError(f"inconsistent {what} arrays")
    check_indptr(indptr, n_rows, len(rows), what)
    if rows.size and not 0 <= rows.min() <= rows.max() < n_table:
        raise ValueError(f"inconsistent {what} arrays")


class ContextPaperSet:
    """An assignment of papers to ontology contexts, over ``paper_rows``."""

    def __init__(
        self,
        ontology: Ontology,
        contexts: Iterable[Context],
        paper_rows: PaperRows,
    ) -> None:
        self.ontology = ontology
        self.paper_rows = paper_rows
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
            columns = self._columns = ContextColumns(
                list(self._contexts.values()), self.paper_rows
            )
        return columns

    def contexts_of_paper(self, paper_id: str) -> Tuple[str, ...]:
        """All context ids containing ``paper_id``, in context order."""
        columns = self.columns
        row = self.paper_rows.row_of.get(paper_id)
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
            self.paper_rows,
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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        sizes = [c.size for c in self._contexts.values()]
        mean = sum(sizes) / len(sizes) if sizes else 0.0
        return f"ContextPaperSet({len(self)} contexts, mean size {mean:.1f})"
