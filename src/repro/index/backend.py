"""The ``SearchBackend`` protocol: what every index form must serve.

The keyword search engine, the serving substrate, and the assigners
talk to this interface and never to a concrete index class.  Two forms
implement it: the in-memory :class:`~repro.index.inverted.InvertedIndex`
(the build form, and the form a corpus delta mutates) and the read-only
:class:`~repro.index.packed.PackedIndex` (packed postings behind
``mmap``, the form a workspace opens).

Contracts that keep rankings byte-identical across the two forms:

- :meth:`postings` returns the postings of a term **in indexing order**.
  Scoring sums float contributions in postings order, so two forms
  that return the same postings in the same order produce bit-identical
  scores.  The returned sequence must be *immutable from the caller's
  point of view* -- implementations are free to return a shared cached
  tuple, and callers must never mutate it.
- :meth:`vocabulary` returns a **stable snapshot**, never a live view of
  internal state.  Callers may add or remove papers mid-iteration (on
  the mutable form) without a ``RuntimeError``; implementations must
  therefore materialise the term list (e.g. a tuple) rather than hand
  out ``dict.keys()``.
- :attr:`revision` is a monotonic mutation counter.  Every observable
  change to the index's contents bumps it; the search engine's
  per-term cache keys on it.  The read-only form reports the revision
  frozen into its file.
- :meth:`term_run` is :meth:`postings` as columns: the same postings in
  the same order, with each paper as a row of the revision's
  :meth:`paper_table`.  The query path reads only this form, so it
  builds no :class:`~repro.index.inverted.Posting`.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.corpus.paper import Section

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.index.inverted import Posting
    from repro.text.analyze import Analyzer


class PaperTable:
    """The dense paper rows of one index revision.

    ``ids[row]`` is a row's paper and ``row_of`` the inverse;
    ``rank[row]`` is the row's position in ascending paper-id order, so
    a ``(-score, paper_id)`` ranking over rows is one ``lexsort``.  A
    table is never mutated: an index whose papers change hands out a new
    one, so holding a table pins the row space it describes.
    """

    __slots__ = ("ids", "row_of", "rank")

    def __init__(self, ids: Sequence[str]) -> None:
        self.ids: Tuple[str, ...] = tuple(ids)
        self.row_of = {paper_id: row for row, paper_id in enumerate(self.ids)}
        self.rank = np.empty(len(self.ids), dtype=np.intp)
        self.rank[sorted(range(len(self.ids)), key=self.ids.__getitem__)] = (
            np.arange(len(self.ids))
        )


class TermRun(NamedTuple):
    """One term's postings as parallel columns, in indexing order."""

    #: Each posting's paper, as a row of the index's :class:`PaperTable`.
    rows: np.ndarray
    #: Each posting's section, as a position in ``section_table``.
    sections: np.ndarray
    term_frequency: np.ndarray
    section_table: Tuple[Section, ...]


class SearchBackend(abc.ABC):
    """Abstract interface served by every index form.

    See the module docstring for the ordering, snapshot, and revision
    contracts that keep rankings identical across forms.
    """

    #: The analyzer whose term pipeline produced the indexed terms;
    #: queries must be analysed with the same one.
    analyzer: "Analyzer"

    #: Document-level mutation is an *optional capability*.  Indexes that
    #: set this True grow ``index_paper(paper_id)`` / ``remove_paper
    #: (paper_id)`` which update postings in place while preserving the
    #: postings-order contract and bumping :attr:`revision`.  Indexes
    #: that leave it False (the mmap-backed packed index) are rebuilt
    #: from the mutated corpus's token cache with ``build_index`` when a
    #: delta lands.
    supports_mutation: bool = False

    # -- corpus-level facts --------------------------------------------------------

    @property
    @abc.abstractmethod
    def n_papers(self) -> int:
        """Number of indexed papers."""

    @property
    @abc.abstractmethod
    def revision(self) -> int:
        """Monotonic mutation counter (see module docstring)."""

    # -- postings ------------------------------------------------------------------

    @abc.abstractmethod
    def postings(self, term: str) -> Sequence["Posting"]:
        """Postings of ``term`` in indexing order (empty if unseen).

        The result is an immutable snapshot the index may share across
        calls; callers must not mutate it.
        """

    @abc.abstractmethod
    def paper_table(self) -> PaperTable:
        """The current revision's paper rows (the same object until it changes)."""

    @abc.abstractmethod
    def term_run(self, term: str) -> TermRun:
        """:meth:`postings` of ``term`` as columns over :meth:`paper_table`."""

    @abc.abstractmethod
    def document_frequency(self, term: str) -> int:
        """Number of papers containing ``term`` in any section."""

    @abc.abstractmethod
    def papers_containing(self, term: str) -> List[str]:
        """Distinct paper ids containing ``term``, in indexing order."""

    # -- vocabulary ----------------------------------------------------------------

    @abc.abstractmethod
    def vocabulary(self) -> Sequence[str]:
        """All indexed terms, as a **stable snapshot** in indexing order.

        Never a live view: iterating the result stays valid across
        concurrent paper adds/removes on the mutable form (those mutate
        the internal tables, not previously returned snapshots).
        """

    @abc.abstractmethod
    def __contains__(self, term: str) -> bool:
        """Whether ``term`` is indexed."""
