"""The keyword search engine (PubMed-style baseline).

Two retrieval modes, matching the two roles the baseline plays in the
paper:

- :meth:`KeywordSearchEngine.search` -- ranked TF-IDF retrieval with
  section weighting (:data:`DEFAULT_SECTION_WEIGHTS`) and an optional
  score threshold.  Scores are normalised to [0, 1] by the maximum
  achievable self-score of the query, so the "high threshold" seed step
  of AC-answer-set construction has an absolute scale to cut against.
- :meth:`KeywordSearchEngine.search_unranked` -- the PubMed behaviour the
  introduction criticises: every paper containing all query terms, listed
  in descending year/id order with *no* relevance score.

The serving fast path is :meth:`KeywordSearchEngine.evaluate`: one
postings scan produces a :class:`QueryEvaluation` holding every paper's
normalised match score, which ranked retrieval, per-paper match scoring,
context selection, and explain all share.  A single context-based search
therefore touches each posting list exactly once.
"""

from __future__ import annotations

import heapq
import math
import threading
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.corpus.corpus import Corpus
from repro.corpus.paper import Section
from repro.index.backend import SearchBackend
from repro.obs import get_registry

#: Per-section match weights: a title hit is worth more than a body
#: hit, mirroring standard digital-library ranking practice.
DEFAULT_SECTION_WEIGHTS: Mapping[Section, float] = {
    Section.TITLE: 3.0,
    Section.ABSTRACT: 2.0,
    Section.INDEX_TERMS: 2.0,
    Section.BODY: 1.0,
}


def _best_first(item: Tuple[str, float]) -> Tuple[float, str]:
    return -item[1], item[0]


def top_items(scores: Mapping[str, float], limit: int) -> List[Tuple[str, float]]:
    """The ``limit`` best ``(key, score)`` pairs, ordered by ``(-score, key)``.

    A partition finds the ``limit``-th best score, so only the pairs at
    or above it are sorted -- the same pairs, in the same order, as a
    full sort cut to ``limit``.
    """
    if limit <= 0:
        return []
    if limit < len(scores):
        values = np.fromiter(scores.values(), dtype=np.float64, count=len(scores))
        cut = float(np.partition(values, len(values) - limit)[len(values) - limit])
        items = [item for item in scores.items() if item[1] >= cut]
    else:
        items = list(scores.items())
    items.sort(key=_best_first)
    del items[limit:]
    return items


@dataclass(frozen=True)
class KeywordHit:
    """One ranked search result."""

    paper_id: str
    score: float
    matched_terms: int


@dataclass(frozen=True)
class QueryEvaluation:
    """Everything one postings scan learns about a query.

    Produced by :meth:`KeywordSearchEngine.evaluate`; shared by ranked
    retrieval (:meth:`KeywordSearchEngine.search`), per-paper match
    scoring (:meth:`KeywordSearchEngine.match_score`), and the context
    search engine's selection/scoring/explain stages, so a single search
    request never rescans the index.

    ``scores`` are normalised to [0, 1] by the query's maximum achievable
    self-score.
    """

    query: str
    #: Distinct analysed scoring terms, in query order.
    terms: Tuple[str, ...]
    #: Normalised match score per paper (papers scoring 0 are absent).
    scores: Mapping[str, float]
    #: Distinct query terms matched per paper (same key set as scores).
    matched_terms: Mapping[str, int]
    #: The normalisation bound (0.0 when no term is in the vocabulary).
    max_score: float
    #: Postings touched by the scan (observability).
    postings_scanned: int

    def score(self, paper_id: str) -> float:
        """Normalised match score of one paper (0.0 when not matched)."""
        return self.scores.get(paper_id, 0.0)

    def hits(
        self,
        limit: Optional[int] = None,
        threshold: float = 0.0,
        require_all_terms: bool = False,
    ) -> List[KeywordHit]:
        """Materialise ranked :class:`KeywordHit` rows from the scan."""
        n_terms = len(self.terms)
        hits = [
            KeywordHit(
                paper_id=paper_id,
                score=score,
                matched_terms=self.matched_terms[paper_id],
            )
            for paper_id, score in self.scores.items()
            if score >= threshold
            and (not require_all_terms or self.matched_terms[paper_id] >= n_terms)
        ]
        if limit is not None and limit < len(hits):
            # Partial selection beats sorting every match when only the
            # head of the ranking is wanted (probe selection, top-k UIs).
            return heapq.nsmallest(
                limit, hits, key=lambda hit: (-hit.score, hit.paper_id)
            )
        hits.sort(key=lambda hit: (-hit.score, hit.paper_id))
        return hits

    def top_scores(self, limit: int) -> List[Tuple[str, float]]:
        """The ``limit`` best ``(paper_id, score)`` pairs, best first.

        Same ranking as :meth:`hits` without materialising a
        :class:`KeywordHit` per matched paper -- the cheap form consumers
        on the hot path (probe selection) want.
        """
        return top_items(self.scores, limit)


class KeywordSearchEngine:
    """Ranked keyword search over any :class:`SearchBackend`.

    Scores are sublinear tf x smoothed idf, weighted per section by
    :data:`DEFAULT_SECTION_WEIGHTS`.
    """

    def __init__(self, index: SearchBackend) -> None:
        self.index = index
        # Per-term contribution cache: ``weight * tf_component * idf`` is
        # query-independent, so the per-posting contributions of a term
        # (and its distinct matched papers) are computed once per index
        # revision and replayed on later queries in the same order --
        # scores stay bitwise identical to a fresh scan.
        self._contrib_cache: Dict[
            str, Optional[Tuple[List[Tuple[str, float]], List[str]]]
        ] = {}
        self._contrib_revision: Optional[int] = None
        self._contrib_lock = threading.Lock()

    # -- the single-scan evaluation ------------------------------------------------

    def evaluate(self, query: str) -> QueryEvaluation:
        """Scan the postings of every query term exactly once.

        The returned :class:`QueryEvaluation` answers every downstream
        question about the query -- ranked hits, per-paper match scores,
        probe selection -- without touching the index again.
        """
        distinct_terms = list(dict.fromkeys(self.index.analyzer.analyze(query)))
        scores: Dict[str, float] = {}
        matches: Dict[str, int] = {}
        postings_scanned = 0
        for term in distinct_terms:
            entry = self._term_contributions(term)
            if entry is None:
                continue
            contributions, matched_papers = entry
            postings_scanned += len(contributions)
            for paper_id, contribution in contributions:
                scores[paper_id] = scores.get(paper_id, 0.0) + contribution
            for paper_id in matched_papers:
                matches[paper_id] = matches.get(paper_id, 0) + 1
        if distinct_terms:
            registry = get_registry()
            registry.counter("index.keyword.queries").inc()
            registry.counter("index.keyword.postings_scanned").inc(postings_scanned)

        max_score = self._max_possible_score(distinct_terms)
        normalised: Dict[str, float] = {}
        matched: Dict[str, int] = {}
        for paper_id, raw in scores.items():
            value = min(raw / max_score, 1.0) if max_score > 0 else 0.0
            if value <= 0.0:
                continue
            normalised[paper_id] = value
            matched[paper_id] = matches[paper_id]
        return QueryEvaluation(
            query=query,
            terms=tuple(distinct_terms),
            scores=normalised,
            matched_terms=matched,
            max_score=max_score,
            postings_scanned=postings_scanned,
        )

    # -- ranked retrieval ----------------------------------------------------------

    def search(
        self,
        query: str,
        limit: Optional[int] = None,
        threshold: float = 0.0,
        require_all_terms: bool = False,
    ) -> List[KeywordHit]:
        """Ranked TF-IDF retrieval.

        Parameters
        ----------
        query:
            Free-text query; analysed with the index's analyzer.
        limit:
            Return at most this many hits (None = all).
        threshold:
            Drop hits scoring below this value (scores are in [0, 1]).
        require_all_terms:
            If True, keep only papers matching *every* distinct query term
            (boolean AND semantics, like PubMed).
        """
        evaluation = self.evaluate(query)
        if not evaluation.terms:
            return []
        return evaluation.hits(
            limit=limit, threshold=threshold, require_all_terms=require_all_terms
        )

    # -- scoring components ----------------------------------------------------------

    def _term_contributions(
        self, term: str
    ) -> Optional[Tuple[List[Tuple[str, float]], List[str]]]:
        """Cached per-posting score contributions of one term.

        Returns ``(contributions, matched_papers)`` where
        ``contributions`` holds one ``(paper_id, weight * tf * idf)`` pair
        per posting in postings order and ``matched_papers`` the distinct
        paper ids in first-posting order; ``None`` when the term is out of
        vocabulary (idf 0).  Cached per index revision, so repeat queries
        replay the same float additions a fresh scan would perform.
        """
        revision = getattr(self.index, "revision", None)
        with self._contrib_lock:
            if self._contrib_revision != revision:
                self._contrib_cache = {}
                self._contrib_revision = revision
            cached = self._contrib_cache.get(term, False)
        if cached is not False:
            return cached
        idf = self._idf(term)
        if idf == 0.0:
            entry = None
        else:
            contributions: List[Tuple[str, float]] = []
            matched_papers: List[str] = []
            seen: set = set()
            for posting in self.index.postings(term):
                weight = DEFAULT_SECTION_WEIGHTS.get(posting.section, 1.0)
                tf_component = 1.0 + math.log(posting.term_frequency)
                paper_id = posting.paper_id
                contributions.append(
                    (paper_id, weight * tf_component * idf)
                )
                if paper_id not in seen:
                    seen.add(paper_id)
                    matched_papers.append(paper_id)
            entry = (contributions, matched_papers)
        with self._contrib_lock:
            if self._contrib_revision == revision:
                self._contrib_cache[term] = entry
        return entry

    def match_score(self, query: str, paper_id: str) -> float:
        """Text-matching score of one (query, paper) pair in [0, 1].

        This is the ``text_matching_score(p, q)`` component of the
        relevancy formula in section 3.  Identical by construction to the
        score :meth:`search` would give the paper (both read the same
        :class:`QueryEvaluation`).
        """
        return self.evaluate(query).score(paper_id)

    # -- PubMed-style unranked retrieval --------------------------------------------

    def search_unranked(self, query: str, corpus: Corpus) -> List[str]:
        """Boolean-AND retrieval listed by descending (year, id) -- no scores.

        Reproduces the PubMed behaviour described in the introduction:
        "PubMed simply lists search results in descending order of their
        PubMed ids or publication years."  Within one year, higher
        (later-assigned) paper ids come first.
        """
        query_terms = list(dict.fromkeys(self.index.analyzer.analyze(query)))
        if not query_terms:
            return []
        candidate_sets = [set(self.index.papers_containing(t)) for t in query_terms]
        if not candidate_sets or any(not s for s in candidate_sets):
            return []
        result = set.intersection(*candidate_sets)
        return sorted(
            result,
            key=lambda pid: (corpus.paper(pid).year, pid),
            reverse=True,
        )

    # -- internals --------------------------------------------------------------------

    def _idf(self, term: str) -> float:
        df = self.index.document_frequency(term)
        if df == 0:
            return 0.0
        return math.log((1.0 + self.index.n_papers) / (1.0 + df)) + 1.0

    def _max_possible_score(self, distinct_terms: Sequence[str]) -> float:
        """Upper bound: every term matched in every section at a saturating tf.

        Using a shared bound for all papers keeps scores comparable across
        papers and bounded by 1 without per-paper renormalisation.  A tf
        of e^2 (~7 occurrences) is treated as saturation.
        """
        total_weight = sum(DEFAULT_SECTION_WEIGHTS.values())
        return sum(
            total_weight * 3.0 * self._idf(term)
            for term in distinct_terms
            if self._idf(term) > 0.0
        )
