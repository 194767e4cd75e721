"""Naive reference for the inverted index.

:class:`repro.index.inverted.InvertedIndex` is immutable and columnar.
This module keeps the dict-of-posting-lists index it replaced, mutated
one paper at a time, as the reference the index tests compare it with:
postings in indexing order, document frequencies, ``n_papers`` and
``papers_containing``, after any sequence of paper adds and removes.
"""

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.corpus.paper import Section, TEXT_SECTIONS
from repro.text.analyze import AnalyzedPaperCache


@dataclass(frozen=True)
class Posting:
    """One term occurrence record."""

    paper_id: str
    section: Section
    term_frequency: int


class ReferenceIndex:
    """Per-term posting lists over a token cache, mutated in place.

    ``index_paper`` appends a paper's postings section by section, with
    each section's terms in first-occurrence order; ``remove_paper``
    filters them out, keeping the survivors' order.
    """

    def __init__(self, tokens: AnalyzedPaperCache) -> None:
        self.tokens = tokens
        self.analyzer = tokens.analyzer
        self._postings: Dict[str, List[Posting]] = {}
        self._document_frequency: Dict[str, int] = {}
        self._paper_terms: Dict[str, Tuple[str, ...]] = {}

    @classmethod
    def of(cls, tokens: AnalyzedPaperCache) -> "ReferenceIndex":
        """Every paper of the token cache's corpus, in corpus order."""
        index = cls(tokens)
        for paper_id in tokens.corpus.paper_ids():
            index.index_paper(paper_id)
        return index

    def index_paper(self, paper_id: str) -> None:
        if paper_id in self._paper_terms:
            raise ValueError(f"paper {paper_id!r} is already indexed")
        seen_terms: Dict[str, None] = {}
        for section in TEXT_SECTIONS:
            counts: Dict[str, int] = {}
            for term in self.tokens.tokens(paper_id, section):
                counts[term] = counts.get(term, 0) + 1
            for term, frequency in counts.items():
                self._postings.setdefault(term, []).append(
                    Posting(paper_id, section, frequency)
                )
                seen_terms[term] = None
        for term in seen_terms:
            self._document_frequency[term] = self._document_frequency.get(term, 0) + 1
        self._paper_terms[paper_id] = tuple(seen_terms)

    def remove_paper(self, paper_id: str) -> None:
        terms = self._paper_terms.pop(paper_id, None)
        if terms is None:
            raise ValueError(f"paper {paper_id!r} is not indexed")
        for term in terms:
            remaining = [
                posting
                for posting in self._postings[term]
                if posting.paper_id != paper_id
            ]
            if remaining:
                self._postings[term] = remaining
            else:
                del self._postings[term]
            self._document_frequency[term] -= 1
            if not self._document_frequency[term]:
                del self._document_frequency[term]

    @property
    def n_papers(self) -> int:
        return len(self._paper_terms)

    def postings(self, term: str) -> Tuple[Posting, ...]:
        return tuple(self._postings.get(term, ()))

    def document_frequency(self, term: str) -> int:
        return self._document_frequency.get(term, 0)

    def papers_containing(self, term: str) -> List[str]:
        return list(dict.fromkeys(p.paper_id for p in self._postings.get(term, ())))

    def vocabulary(self) -> Tuple[str, ...]:
        return tuple(self._postings)


def postings(index, term: str) -> Tuple[Posting, ...]:
    """An :class:`~repro.index.inverted.InvertedIndex`'s run of ``term``
    as reference postings, through its paper and section tables."""
    run = index.term_run(term)
    paper_ids = index.paper_table().ids
    return tuple(
        Posting(paper_ids[row], run.section_table[section], tf)
        for row, section, tf in zip(
            run.rows.tolist(), run.sections.tolist(), run.term_frequency.tolist()
        )
    )


def assert_index_equals_reference(index, reference: ReferenceIndex) -> None:
    """Term by term: postings in order, df and ``papers_containing``."""
    assert index.n_papers == reference.n_papers
    assert set(index.vocabulary()) == set(reference.vocabulary())
    assert len(index.vocabulary()) == len(set(index.vocabulary()))
    for term in reference.vocabulary():
        assert postings(index, term) == reference.postings(term), term
        assert index.document_frequency(term) == reference.document_frequency(term)
        assert index.papers_containing(term) == reference.papers_containing(term)
        assert term in index
