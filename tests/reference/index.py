"""Naive reference for the inverted index and TF-IDF query evaluation.

:class:`repro.index.inverted.InvertedIndex` is immutable and columnar.
This module keeps the dict-of-posting-lists index it replaced, mutated
one paper at a time, as the reference the index tests compare it with:
postings in indexing order, document frequencies, ``n_papers`` and
``papers_containing``, after any sequence of paper adds and removes.

:func:`reference_evaluate` is ``KeywordSearchEngine.evaluate`` as it
used to run: one ``(paper_id, weight * (1 + log tf) * idf)`` pair per
posting, summed into a per-paper dict in postings order, normalised by
a bound that calls ``_idf`` per term, and ranked with ``sorted``.
"""

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.corpus.paper import Section, TEXT_SECTIONS
from repro.index.search import DEFAULT_SECTION_WEIGHTS, KeywordHit
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
    as reference postings, through its paper rows and section table."""
    run = index.term_run(term)
    paper_ids = index.paper_rows.ids
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


def reference_idf(index, term):
    df = index.document_frequency(term)
    if df == 0:
        return 0.0
    return math.log((1.0 + index.n_papers) / (1.0 + df)) + 1.0


def reference_evaluate(index, query):
    """``(scores, matched_terms, max_score, postings_scanned)`` by paper id,
    read off a :class:`ReferenceIndex`."""
    terms = list(dict.fromkeys(index.analyzer.analyze(query)))
    scores, matches, postings_scanned = {}, {}, 0
    for term in terms:
        idf = reference_idf(index, term)
        if idf == 0.0:
            continue
        seen = set()
        for posting in index.postings(term):
            postings_scanned += 1
            weight = DEFAULT_SECTION_WEIGHTS.get(posting.section, 1.0)
            tf_component = 1.0 + math.log(posting.term_frequency)
            paper_id = posting.paper_id
            scores[paper_id] = scores.get(paper_id, 0.0) + weight * tf_component * idf
            if paper_id not in seen:
                seen.add(paper_id)
                matches[paper_id] = matches.get(paper_id, 0) + 1
    total_weight = sum(DEFAULT_SECTION_WEIGHTS.values())
    max_score = sum(
        total_weight * 3.0 * reference_idf(index, term)
        for term in terms
        if reference_idf(index, term) > 0.0
    )
    normalised, matched = {}, {}
    for paper_id, raw in scores.items():
        value = min(raw / max_score, 1.0) if max_score > 0 else 0.0
        if value <= 0.0:
            continue
        normalised[paper_id] = value
        matched[paper_id] = matches[paper_id]
    return normalised, matched, max_score, postings_scanned


def reference_hits(reference, n_terms, limit, threshold, require_all_terms):
    scores, matched = reference[0], reference[1]
    hits = sorted(
        (
            KeywordHit(paper_id, score, matched[paper_id])
            for paper_id, score in scores.items()
            if score >= threshold
            and (not require_all_terms or matched[paper_id] >= n_terms)
        ),
        key=lambda hit: (-hit.score, hit.paper_id),
    )
    return hits if limit is None else hits[: max(limit, 0)]
