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
  change to the index's contents bumps it; derived caches (per-term
  contribution caches, BM25 length tables) key on it.  The read-only
  form reports the revision frozen into its file.

Positional data (term positions, phrase queries) is an *optional
capability*: indexes without it simply do not grow the
``positions``/``phrase_frequency``/``papers_containing_phrase`` methods,
and the search engine degrades phrase handling accordingly (it already
feature-detects via ``getattr``).
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, List, Mapping, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.corpus.paper import Section
    from repro.index.inverted import Posting
    from repro.text.analyze import Analyzer


class SearchBackend(abc.ABC):
    """Abstract interface served by every index form.

    See the module docstring for the ordering, snapshot, and revision
    contracts that keep rankings identical across forms.
    """

    #: The analyzer whose term pipeline produced the indexed terms;
    #: queries must be analysed with the same one.
    analyzer: "Analyzer"

    #: Document-level mutation is an *optional capability*.  Indexes that
    #: set this True grow ``add_document(paper)`` / ``remove_document
    #: (paper_id)`` which update postings in place while preserving the
    #: postings-order contract and bumping :attr:`revision`.  Indexes
    #: that leave it False (the mmap-backed packed index) are rebuilt
    #: from the mutated corpus with ``build_index`` when a delta lands.
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

    @property
    @abc.abstractmethod
    def n_terms(self) -> int:
        """Number of distinct indexed terms."""

    # -- postings ------------------------------------------------------------------

    @abc.abstractmethod
    def postings(self, term: str) -> Sequence["Posting"]:
        """Postings of ``term`` in indexing order (empty if unseen).

        The result is an immutable snapshot the index may share across
        calls; callers must not mutate it.
        """

    @abc.abstractmethod
    def document_frequency(self, term: str) -> int:
        """Number of papers containing ``term`` in any section."""

    @abc.abstractmethod
    def papers_containing(self, term: str) -> List[str]:
        """Distinct paper ids containing ``term``, in indexing order."""

    # -- forward index -------------------------------------------------------------

    @abc.abstractmethod
    def term_frequency(
        self, paper_id: str, term: str, section: Optional["Section"] = None
    ) -> int:
        """Frequency of ``term`` in ``paper_id`` (one section or summed)."""

    @abc.abstractmethod
    def paper_section_terms(
        self, paper_id: str, section: "Section"
    ) -> Mapping[str, int]:
        """Term-count map of one paper section (empty if absent)."""

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
