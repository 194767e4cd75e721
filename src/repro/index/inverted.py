"""The inverted index.

Maps analysis terms to postings ``(paper_id, section, term_frequency)``.
Sections are indexed separately so searches can weight title matches above
body matches -- the usual digital-library behaviour, and the mechanism the
context search engine reuses for its text-matching component.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.corpus.corpus import Corpus
from repro.corpus.paper import Paper, Section, TEXT_SECTIONS
from repro.index.backend import SearchBackend
from repro.text.analyze import Analyzer, default_analyzer


@dataclass(frozen=True)
class Posting:
    """One term occurrence record."""

    paper_id: str
    section: Section
    term_frequency: int


class InvertedIndex(SearchBackend):
    """Section-aware inverted index over a corpus.

    Build once with :meth:`index_corpus` (or incrementally with
    :meth:`index_paper`); the index also tracks per-section document
    frequencies and paper lengths needed for TF-IDF scoring.  This is
    the build form and the mutation form; a workspace persists it with
    :func:`repro.index.packed.save_index`.
    """

    #: Mutates in place (see :meth:`index_paper`/:meth:`remove_paper`).
    supports_mutation = True

    def __init__(self, analyzer: Optional[Analyzer] = None) -> None:
        self.analyzer = analyzer if analyzer is not None else default_analyzer()
        self._postings: Dict[str, List[Posting]] = {}
        self._document_frequency: Dict[str, int] = {}
        self._paper_terms: Dict[str, Dict[Section, Dict[str, int]]] = {}
        self._n_papers = 0
        self._revision = 0
        # Read-path snapshots handed out by postings()/vocabulary();
        # dropped wholesale on every mutation.  Sharing one immutable
        # tuple per term keeps the query hot path allocation-free.
        self._postings_views: Dict[str, Tuple[Posting, ...]] = {}
        self._vocabulary_view: Optional[Tuple[str, ...]] = None

    def _invalidate_views(self) -> None:
        self._postings_views.clear()
        self._vocabulary_view = None

    # -- construction -------------------------------------------------------------

    def index_corpus(self, corpus: Corpus) -> "InvertedIndex":
        """Index every paper in ``corpus``; returns self for chaining."""
        for paper in corpus:
            self.index_paper(paper)
        return self

    def index_paper(self, paper: Paper) -> None:
        """Index one paper across all textual sections."""
        if paper.paper_id in self._paper_terms:
            raise ValueError(f"paper {paper.paper_id!r} is already indexed")
        per_section: Dict[Section, Dict[str, int]] = {}
        seen_terms = set()
        for section in TEXT_SECTIONS:
            terms = self.analyzer.analyze(paper.section_text(section))
            if not terms:
                continue
            counts: Dict[str, int] = {}
            for term in terms:
                counts[term] = counts.get(term, 0) + 1
            per_section[section] = counts
            for term, frequency in counts.items():
                self._postings.setdefault(term, []).append(
                    Posting(paper.paper_id, section, frequency)
                )
                seen_terms.add(term)
        for term in seen_terms:
            self._document_frequency[term] = self._document_frequency.get(term, 0) + 1
        self._paper_terms[paper.paper_id] = per_section
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
        sections = self._paper_terms.pop(paper_id, None)
        if sections is None:
            raise ValueError(f"paper {paper_id!r} is not indexed")
        terms = {term for counts in sections.values() for term in counts}
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

        Derived caches (e.g. the BM25 section-length cache in the search
        engine) key on this rather than ``n_papers``, so replacing a paper
        without changing the count still invalidates them.
        """
        return self._revision

    @property
    def n_terms(self) -> int:
        return len(self._postings)

    def postings(self, term: str) -> Sequence[Posting]:
        """All postings of ``term``, in indexing order (empty if unseen).

        Returns a cached immutable tuple shared across calls -- the
        query hot path touches every query term once per search, and
        copying the hottest posting lists per call dominated its
        allocations.  The snapshot is invalidated by paper add/remove.
        """
        view = self._postings_views.get(term)
        if view is None:
            entries = self._postings.get(term)
            if entries is None:
                return ()
            view = tuple(entries)
            self._postings_views[term] = view
        return view

    def document_frequency(self, term: str) -> int:
        """Number of papers containing ``term`` in any section."""
        return self._document_frequency.get(term, 0)

    def papers_containing(self, term: str) -> List[str]:
        """Distinct paper ids containing ``term``, in indexing order."""
        seen: Dict[str, None] = {}
        for posting in self._postings.get(term, ()):
            seen.setdefault(posting.paper_id, None)
        return list(seen)

    def term_frequency(
        self, paper_id: str, term: str, section: Optional[Section] = None
    ) -> int:
        """Frequency of ``term`` in ``paper_id`` (one section or summed)."""
        sections = self._paper_terms.get(paper_id)
        if sections is None:
            return 0
        if section is not None:
            return sections.get(section, {}).get(term, 0)
        return sum(counts.get(term, 0) for counts in sections.values())

    def paper_section_terms(
        self, paper_id: str, section: Section
    ) -> Mapping[str, int]:
        """Term-count map of one paper section (empty if absent)."""
        return dict(self._paper_terms.get(paper_id, {}).get(section, {}))

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

    # -- observability -------------------------------------------------------------

    def resident_postings_bytes(self) -> int:
        """Heap bytes held by the materialised postings structures.

        Bench/observability aid: the in-memory index pays this for the
        whole corpus up front, the packed index only for its cached
        working set.
        """
        total = 0
        for entries in self._postings.values():
            total += sys.getsizeof(entries)
            for posting in entries:
                total += sys.getsizeof(posting) + sys.getsizeof(posting.__dict__)
        return total

    # -- (de)serialisation -----------------------------------------------------------

    def to_payload(self) -> Dict[str, Dict[str, Dict[str, int]]]:
        """Per-paper per-section term counts, in indexing order.

        Postings and document frequencies are fully derivable from the
        per-paper counts; :func:`repro.index.packed.save_index` replays
        them in this order to write postings in indexing order.
        """
        return {
            "papers": {
                paper_id: {
                    section.value: dict(counts)
                    for section, counts in sections.items()
                }
                for paper_id, sections in self._paper_terms.items()
            }
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"InvertedIndex({self._n_papers} papers, {self.n_terms} terms)"


def build_index(corpus: Corpus, analyzer: Optional[Analyzer] = None) -> InvertedIndex:
    """Full analyse-and-index pass over ``corpus``."""
    return InvertedIndex(analyzer=analyzer).index_corpus(corpus)
