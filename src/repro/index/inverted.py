"""The inverted index.

Maps analysis terms to postings ``(paper_id, section, term_frequency)``.
Sections are indexed separately so searches can weight title matches above
body matches -- the usual digital-library behaviour, and the mechanism the
context search engine reuses for its text-matching component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.corpus.paper import Section, TEXT_SECTIONS
from repro.index.backend import PaperTable, SearchBackend, TermRun
from repro.text.analyze import AnalyzedPaperCache

#: The section codes of :meth:`InvertedIndex.term_run`.
_SECTIONS: Tuple[Section, ...] = tuple(Section)
_SECTION_CODE: Dict[Section, int] = {
    section: code for code, section in enumerate(_SECTIONS)
}


@dataclass(frozen=True)
class Posting:
    """One term occurrence record."""

    paper_id: str
    section: Section
    term_frequency: int


class InvertedIndex(SearchBackend):
    """Section-aware inverted index over a corpus.

    Build once with :func:`build_index` (or incrementally with
    :meth:`index_paper`); the index reads each paper's terms from the
    corpus's token cache and also tracks the document frequencies
    TF-IDF scoring needs.  This is the build form and the mutation
    form; a workspace persists it with
    :func:`repro.index.packed.save_index`.
    """

    #: Mutates in place (see :meth:`index_paper`/:meth:`remove_paper`).
    supports_mutation = True

    def __init__(self, tokens: AnalyzedPaperCache) -> None:
        self.tokens = tokens
        self.analyzer = tokens.analyzer
        self._postings: Dict[str, List[Posting]] = {}
        self._document_frequency: Dict[str, int] = {}
        # Each paper's distinct terms: what remove_paper must visit.
        self._paper_terms: Dict[str, Tuple[str, ...]] = {}
        self._n_papers = 0
        self._revision = 0
        # Read-path snapshots handed out by vocabulary()/paper_table();
        # dropped wholesale on every mutation.
        self._vocabulary_view: Optional[Tuple[str, ...]] = None
        self._paper_table: Optional[PaperTable] = None

    def _invalidate_views(self) -> None:
        self._vocabulary_view = None
        self._paper_table = None

    # -- construction -------------------------------------------------------------

    def index_paper(self, paper_id: str) -> None:
        """Index one corpus paper across all textual sections."""
        if paper_id in self._paper_terms:
            raise ValueError(f"paper {paper_id!r} is already indexed")
        seen_terms: Dict[str, None] = {}
        for section in TEXT_SECTIONS:
            terms = self.tokens.tokens(paper_id, section)
            if not terms:
                continue
            counts: Dict[str, int] = {}
            for term in terms:
                counts[term] = counts.get(term, 0) + 1
            for term, frequency in counts.items():
                self._postings.setdefault(term, []).append(
                    Posting(paper_id, section, frequency)
                )
                seen_terms[term] = None
        for term in seen_terms:
            self._document_frequency[term] = self._document_frequency.get(term, 0) + 1
        self._paper_terms[paper_id] = tuple(seen_terms)
        self._n_papers += 1
        self._revision += 1
        self._invalidate_views()

    def remove_paper(self, paper_id: str) -> None:
        """Remove one paper from the index (ValueError if not indexed).

        Surviving postings keep their relative order, so the index is
        byte-equivalent to one that never contained the paper.

        Cost is proportional to the paper's vocabulary times those terms'
        posting-list lengths -- fine for incremental maintenance of a
        living corpus; rebuild from scratch for bulk deletions.
        """
        terms = self._paper_terms.pop(paper_id, None)
        if terms is None:
            raise ValueError(f"paper {paper_id!r} is not indexed")
        for term in terms:
            remaining = [
                posting
                for posting in self._postings.get(term, ())
                if posting.paper_id != paper_id
            ]
            if remaining:
                self._postings[term] = remaining
            else:
                self._postings.pop(term, None)
            df = self._document_frequency.get(term, 0) - 1
            if df > 0:
                self._document_frequency[term] = df
            else:
                self._document_frequency.pop(term, None)
        self._n_papers -= 1
        self._revision += 1
        self._invalidate_views()

    # -- access --------------------------------------------------------------------

    @property
    def n_papers(self) -> int:
        return self._n_papers

    @property
    def revision(self) -> int:
        """Mutation counter: bumped by every paper add/remove.

        The search engine's term cache keys on this rather than
        ``n_papers``, so replacing a paper without changing the count
        still invalidates it; :meth:`paper_table` is rebuilt after each
        bump.
        """
        return self._revision

    def postings(self, term: str) -> Sequence[Posting]:
        """All postings of ``term``, in indexing order (empty if unseen).

        Returns an immutable snapshot; later paper adds and removes do
        not change it.  The query path reads :meth:`term_run` instead.
        """
        return tuple(self._postings.get(term, ()))

    def paper_table(self) -> PaperTable:
        """Indexed papers in indexing order; built once per revision."""
        table = self._paper_table
        if table is None:
            table = self._paper_table = PaperTable(self._paper_terms)
        return table

    def term_run(self, term: str) -> TermRun:
        """:meth:`postings` of ``term`` as columns over :meth:`paper_table`."""
        row_of = self.paper_table().row_of
        postings = self._postings.get(term, ())
        count = len(postings)
        return TermRun(
            np.fromiter(
                (row_of[posting.paper_id] for posting in postings), np.intp, count
            ),
            np.fromiter(
                (_SECTION_CODE[posting.section] for posting in postings),
                np.uint8,
                count,
            ),
            np.fromiter(
                (posting.term_frequency for posting in postings), np.int64, count
            ),
            _SECTIONS,
        )

    def document_frequency(self, term: str) -> int:
        """Number of papers containing ``term`` in any section."""
        return self._document_frequency.get(term, 0)

    def papers_containing(self, term: str) -> List[str]:
        """Distinct paper ids containing ``term``, in indexing order."""
        seen: Dict[str, None] = {}
        for posting in self._postings.get(term, ()):
            seen.setdefault(posting.paper_id, None)
        return list(seen)

    def vocabulary(self) -> Sequence[str]:
        """All indexed terms, as a stable snapshot in indexing order.

        Never the live ``dict.keys()`` view: callers may add or remove
        papers while iterating the result without a ``RuntimeError``
        (the :class:`~repro.index.backend.SearchBackend` contract).
        """
        view = self._vocabulary_view
        if view is None:
            view = self._vocabulary_view = tuple(self._postings)
        return view

    def __contains__(self, term: str) -> bool:
        return term in self._postings

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"InvertedIndex({self._n_papers} papers, {len(self._postings)} terms)"


def build_index(tokens: AnalyzedPaperCache) -> InvertedIndex:
    """Index every paper of the token cache's corpus, in corpus order."""
    index = InvertedIndex(tokens)
    for paper_id in tokens.corpus.paper_ids():
        index.index_paper(paper_id)
    return index
