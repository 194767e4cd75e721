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

The scan is columnar.  The engine caches each queried term's paper
rows (the corpus's :class:`~repro.corpus.rows.PaperRows` rows), its
per-posting contributions ``weight * (1 + log tf) * idf``, its distinct
rows and its idf.  A query concatenates its terms' arrays and sums them
with one ``np.bincount``, which adds in postings order from 0.0 -- the float
sums of a per-posting dict loop (``tests/reference/index.py`` keeps that
loop as the reference).  The evaluation is arrays over those rows, so
its consumers index them and never map paper ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.corpus.corpus import Corpus
from repro.corpus.paper import Section
from repro.corpus.rows import PaperRows
from repro.index.inverted import InvertedIndex
from repro.obs import get_registry

#: Per-section match weights: a title hit is worth more than a body
#: hit, mirroring standard digital-library ranking practice.
DEFAULT_SECTION_WEIGHTS: Mapping[Section, float] = {
    Section.TITLE: 3.0,
    Section.ABSTRACT: 2.0,
    Section.INDEX_TERMS: 2.0,
    Section.BODY: 1.0,
}


@dataclass(frozen=True)
class KeywordHit:
    """One ranked search result."""

    paper_id: str
    score: float
    matched_terms: int


@dataclass(frozen=True, eq=False)
class QueryEvaluation:
    """Everything one postings scan learns about a query.

    Produced by :meth:`KeywordSearchEngine.evaluate`; shared by ranked
    retrieval (:meth:`KeywordSearchEngine.search`), per-paper match
    scoring (:meth:`score`), and the context
    search engine's selection/scoring/explain stages, so a single search
    request never rescans the index.

    Columnar: ``papers`` are the matched rows of ``table`` (the index's
    :class:`~repro.corpus.rows.PaperRows`), ascending, and
    ``scores``/``matched_terms`` are parallel to them.  ``scores`` are
    normalised to [0, 1] by the query's maximum achievable self-score.
    """

    query: str
    #: Distinct analysed scoring terms, in query order.
    terms: Tuple[str, ...]
    #: The paper rows ``papers`` index.
    table: PaperRows
    #: Matched paper rows, ascending (papers scoring 0 are absent).
    papers: np.ndarray
    #: Normalised match score per matched row (float64).
    scores: np.ndarray
    #: Distinct query terms matched per matched row.
    matched_terms: np.ndarray
    #: The normalisation bound (0.0 when no term is in the vocabulary).
    max_score: float
    #: Postings touched by the scan (observability).
    postings_scanned: int

    def score(self, paper_id: str) -> float:
        """Normalised match score of one paper (0.0 when not matched): the
        ``text_matching_score(p, q)`` of section 3's relevancy."""
        row = self.table.row_of.get(paper_id, -1)
        at = int(np.searchsorted(self.papers, row))
        if at < len(self.papers) and self.papers[at] == row:
            return float(self.scores[at])
        return 0.0

    def ranked(self, limit: Optional[int] = None) -> np.ndarray:
        """Positions in ``papers``, best first by ``(-score, paper_id)``.

        With a ``limit`` below the match count, a partition finds the
        ``limit``-th best score, so only the positions at or above it
        are sorted -- the same positions, in the same order, as a full
        sort cut to ``limit``.
        """
        negated = -self.scores
        positions = np.arange(len(negated))
        if limit is not None:
            limit = max(limit, 0)
            if limit < len(negated):
                if limit == 0:
                    return positions[:0]
                cut = np.partition(negated, limit - 1)[limit - 1]
                positions = np.flatnonzero(negated <= cut)
        order = positions[
            np.lexsort((self.table.rank[self.papers[positions]], negated[positions]))
        ]
        return order[:limit]

    def hits(
        self,
        limit: Optional[int] = None,
        threshold: float = 0.0,
        require_all_terms: bool = False,
    ) -> List[KeywordHit]:
        """Materialise ranked :class:`KeywordHit` rows from the scan."""
        keep = self.scores >= threshold
        if require_all_terms:
            keep &= self.matched_terms >= len(self.terms)
        kept = replace(
            self,
            papers=self.papers[keep],
            scores=self.scores[keep],
            matched_terms=self.matched_terms[keep],
        )
        positions = kept.ranked(limit)
        paper_ids = self.table.ids
        return [
            KeywordHit(paper_id=paper_ids[row], score=score, matched_terms=matched)
            for row, score, matched in zip(
                kept.papers[positions].tolist(),
                kept.scores[positions].tolist(),
                kept.matched_terms[positions].tolist(),
            )
        ]


@dataclass(frozen=True)
class _TermEntry:
    """One term's query-independent share of every evaluation.

    ``contributions[i]`` is ``weight * (1 + log tf) * idf`` of posting
    ``i``, over paper ``rows[i]``; ``matched`` holds the distinct rows.
    """

    idf: float
    rows: np.ndarray
    contributions: np.ndarray
    matched: np.ndarray


class KeywordSearchEngine:
    """Ranked keyword search over an :class:`InvertedIndex`.

    Scores are sublinear tf x smoothed idf, weighted per section by
    :data:`DEFAULT_SECTION_WEIGHTS`.
    """

    def __init__(self, index: InvertedIndex) -> None:
        self.index = index
        # Per-term cache: a term's contributions are query-independent
        # and the index never changes, so each is computed once and
        # replayed on later queries in the same order -- scores stay
        # bitwise identical to a fresh scan.
        self._terms: Dict[str, Optional[_TermEntry]] = {}

    # -- the single-scan evaluation ------------------------------------------------

    def evaluate(self, query: str) -> QueryEvaluation:
        """Scan the postings of every query term exactly once.

        The query's term runs, concatenated in term order, feed one
        ``np.bincount``: it adds each paper's contributions one by one
        from 0.0, in postings order, so every score is the float sum a
        per-posting loop computes.  The returned :class:`QueryEvaluation`
        answers every downstream question about the query -- ranked hits,
        per-paper match scores, probe selection -- without touching the
        index again.
        """
        distinct_terms = list(dict.fromkeys(self.index.analyzer.analyze(query)))
        entries = [
            entry
            for entry in map(self._term_entry, distinct_terms)
            if entry is not None
        ]
        postings_scanned = sum(len(entry.rows) for entry in entries)
        if distinct_terms:
            registry = get_registry()
            registry.counter("index.keyword.queries").inc()
            registry.counter("index.keyword.postings_scanned").inc(postings_scanned)

        max_score = self._max_possible_score(entries)
        papers = np.empty(0, dtype=np.intp)
        scores = np.empty(0, dtype=np.float64)
        matched = np.empty(0, dtype=np.intp)
        table = self.index.paper_rows
        if entries:
            n_rows = len(table)
            raw = np.bincount(
                np.concatenate([entry.rows for entry in entries]),
                weights=np.concatenate([entry.contributions for entry in entries]),
                minlength=n_rows,
            )
            counts = np.bincount(
                np.concatenate([entry.matched for entry in entries]),
                minlength=n_rows,
            )
            papers = np.flatnonzero(counts)
            scores = np.minimum(raw[papers] / max_score, 1.0)
            # Not ``> 0.0``: a NaN score is kept, as ``<= 0.0`` drops one.
            keep = ~(scores <= 0.0)
            papers, scores = papers[keep], scores[keep]
            matched = counts[papers]
        return QueryEvaluation(
            query=query,
            terms=tuple(distinct_terms),
            table=table,
            papers=papers,
            scores=scores,
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

    def _term_entry(self, term: str) -> Optional[_TermEntry]:
        """Cached :class:`_TermEntry` of one term; None out of vocabulary.

        Each contribution is the scalar expression a per-posting loop
        evaluates, ``weight * (1 + log tf) * idf``, as float64 products
        in that order (``math.log`` once per distinct tf).
        """
        try:
            return self._terms[term]
        except KeyError:
            pass
        idf = self._idf(term)
        entry = None
        if idf != 0.0:
            run = self.index.term_run(term)
            weights = np.array(
                [DEFAULT_SECTION_WEIGHTS.get(s, 1.0) for s in run.section_table]
            )[run.sections]
            tfs, tf_of = np.unique(run.term_frequency, return_inverse=True)
            tf_components = np.array(
                [1.0 + math.log(tf) for tf in tfs.tolist()]
            )[tf_of]
            entry = _TermEntry(
                idf=idf,
                rows=run.rows,
                contributions=weights * tf_components * idf,
                matched=np.unique(run.rows),
            )
        # setdefault: racing first callers all keep the first entry stored.
        return self._terms.setdefault(term, entry)

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

    @staticmethod
    def _max_possible_score(entries: Sequence[_TermEntry]) -> float:
        """Upper bound: every term matched in every section at a saturating tf.

        Using a shared bound for all papers keeps scores comparable across
        papers and bounded by 1 without per-paper renormalisation.  A tf
        of e^2 (~7 occurrences) is treated as saturation.  ``entries``
        are the in-vocabulary query terms, in query order.
        """
        total_weight = sum(DEFAULT_SECTION_WEIGHTS.values())
        return sum(total_weight * 3.0 * entry.idf for entry in entries)
