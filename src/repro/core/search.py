"""The context-based search engine (tasks 3-5 of the paradigm).

Search proceeds exactly as section 5.1 describes:

1. *select contexts automatically based on the search term* -- contexts
   are ranked by how strongly their papers respond to a keyword probe of
   the query (weighted by hit score), with a bonus for query words
   appearing in the context term name;
2. *search within selected contexts* -- each paper in a selected context
   gets the section-3 relevancy score
       R(p, q, ci) = w_prestige * prestige(p, ci) + w_matching * match(p, q)
   and papers below the relevancy threshold are dropped;
3. *merge search results from different contexts into a single result
   set* -- a paper appearing in several contexts keeps its best relevancy.

Serving fast path: each query is analysed into one
:class:`~repro.index.search.QueryEvaluation` (a single postings scan)
that probe selection, relevancy scoring, grouped results, and
:meth:`ContextSearchEngine.explain` all share -- the index is never
scanned twice for one request.

Selection, scoring and merging run as array operations over the paper
set's :class:`~repro.core.context.ContextColumns` (CSR rows over the
corpus's :class:`~repro.corpus.rows.PaperRows`) and the prestige values
aligned with them.  The evaluation is arrays over the same paper rows,
so its rows index the columns directly, and the query stays in row
space from the postings scan to the returned hits:

- each strategy yields parallel ``(context rows, strengths)`` arrays;
  probe selection takes the evaluation's top rows with one ``lexsort``
  and sums their scores into the contexts of their reverse-CSR rows
  with a weighted ``np.bincount``, in probe order.  The top
  ``max_contexts`` are cut with ``np.partition`` (ties kept) and ranked
  by ``(-strength, context id)`` over the columns' ``id_rank``;
- scoring scatters the evaluation into a match vector, gathers the
  selected CSR rows, keeps the members the query matched at or above
  the threshold, and computes ``w_prestige * p + w_matching * m`` with
  the same float64 operations a scalar loop performs;
- merging first cuts the scored pairs to those that can still reach
  the top ``limit`` papers: ``np.fmax.at`` takes each paper's best
  relevancy (skipping NaN) and ``np.partition`` finds the ``limit``-th
  best, and pairs below it are dropped (ties kept).  Two ``lexsort``
  passes then keep each surviving paper's best relevancy (the earliest
  selected context on a tie) and rank by ``(-relevancy, paper_id)``
  over the rows' id ``rank``.  Paper and context ids, prestige and
  matching are gathered, and :class:`SearchHit` objects built, only
  for the returned pairs.

Rankings are bit-identical to the per-paper loop they replace
(``tests/reference/search.py`` keeps that loop as the reference).

Thread safety: HTTP handler threads call :meth:`ContextSearchEngine.search`
on shared engines.  The arrays are built once per engine under its lock
(:meth:`ContextSearchEngine.warm`) and only read afterwards; every
per-query array is local to the call.  Paper sets and prestige scores
are immutable -- a corpus delta builds new ones -- so nothing is ever
invalidated.  An evaluation, the paper set and the prestige scores must
hold the same :class:`~repro.corpus.rows.PaperRows` object; a request
that mixes two corpus revisions raises ``ValueError``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.context import ContextPaperSet
from repro.core.cosine import TermMajor, VectorRows, dot_pairs, finish_cosines
from repro.core.vectors import PaperVectorStore
from repro.corpus.rows import check_same_rows, csr_positions
from repro.index.search import KeywordSearchEngine, QueryEvaluation
from repro.obs import get_registry, span
from repro.ontology.ontology import Ontology
from repro.scoring.base import PrestigeScores

#: Available context-selection strategies (task 3 of the paradigm):
#: - "probe": rank contexts by how strongly their papers respond to a
#:   keyword probe of the query (weighted by hit score) plus a term-name
#:   bonus -- the default, works for any paper set;
#: - "name": rank purely by overlap between query terms and the context
#:   term's name words -- cheapest, mirrors GoPubMed-style term lookup;
#: - "representative": rank by cosine similarity between the query vector
#:   and each context representative's full-text vector -- needs a vector
#:   store and a representatives map.
SELECTION_STRATEGIES = ("probe", "name", "representative")

#: A strategy's answer: parallel context rows and strengths.
_Strengths = Tuple[np.ndarray, np.ndarray]
#: The answer when a strategy reaches no context.
_NO_ROWS = np.zeros(0, dtype=np.intp)
_NO_STRENGTHS = np.zeros(0)


@dataclass(frozen=True)
class SearchHit:
    """One merged search result."""

    paper_id: str
    context_id: str
    relevancy: float
    prestige: float
    matching: float


@dataclass(frozen=True)
class ContextSelection:
    """One selected context with its selection strength (diagnostics)."""

    context_id: str
    strength: float


@dataclass(frozen=True)
class ContextResultGroup:
    """Search results of one context, before cross-context merging.

    This is the presentation the paradigm actually envisions -- "search
    results in each context are ranked by their relevancy scores" -- with
    merging (:meth:`ContextSearchEngine.search`) as the flattened view.
    """

    context_id: str
    selection_strength: float
    hits: Tuple[SearchHit, ...]

    def __len__(self) -> int:
        return len(self.hits)


@dataclass(frozen=True)
class _RepresentativeView:
    """Context representatives' unit rows, and the same entries by term.

    ``context_rows[i]`` is the context row of representative row ``i`` of
    ``rows`` (contexts in paper-set order, those with a representative).
    ``terms`` is ``rows.by_term()``; ``term_bounds`` is its ``indptr`` as
    a list, so a query term's lookup costs two list reads.
    """

    context_rows: np.ndarray
    rows: VectorRows
    terms: TermMajor
    term_bounds: List[int]

    @classmethod
    def build(
        cls,
        vectors: PaperVectorStore,
        context_ids: Sequence[str],
        representatives: Mapping[str, str],
    ) -> "_RepresentativeView":
        chosen = [
            (row, representatives[cid])
            for row, cid in enumerate(context_ids)
            if cid in representatives
        ]
        context_rows = np.array([row for row, _ in chosen], dtype=np.intp)
        rows = vectors.full_rows.take(vectors.paper_rows.rows(rep for _, rep in chosen))
        terms = rows.by_term()
        return cls(context_rows, rows, terms, terms.indptr.tolist())


def _check_limit(name: str, limit: Optional[int]) -> None:
    """Reject a negative result limit, which slicing would read from the end."""
    if limit is not None and limit < 0:
        raise ValueError(f"{name} must be non-negative, got {limit}")


@dataclass(frozen=True)
class _Scored:
    """Scored (context, paper) pairs as parallel arrays.

    ``order`` is the context's position in the selection, ``papers`` the
    paper's :class:`~repro.corpus.rows.PaperRows` row and ``positions``
    the pair's forward-CSR entry, which indexes the aligned prestige.
    """

    order: np.ndarray
    papers: np.ndarray
    relevancy: np.ndarray
    positions: np.ndarray

    def __len__(self) -> int:
        return len(self.papers)

    def merge(
        self, rank: np.ndarray, limit: Optional[int]
    ) -> Tuple[np.ndarray, int, int]:
        """Merge step: each paper's best pair, ranked, at most ``limit``.

        A paper selected through several contexts keeps its best
        relevancy; on a tie the earliest selected context wins.  Papers
        rank by ``(-relevancy, id rank)``, ``rank`` being the paper rows'
        id rank; a NaN relevancy sorts last.  When more than ``limit``
        papers were scored, the pairs are first cut to those at or above
        the ``limit``-th best per-paper relevancy (ties kept), so the two
        sorts run on the few pairs that can still be returned.
        ``np.fmax.at`` takes each paper's best skipping NaN, as the sort
        does; a NaN cut (fewer than ``limit`` finite bests) cuts nothing.

        Returns ``(pairs, deduped, kept)``: ``pairs`` indexes the returned
        pairs, best first; ``deduped`` counts every pair beyond its
        paper's first, ``kept`` the pairs left after the cut.
        """
        kept = None
        if limit is not None and len(self) > limit:
            touched = np.zeros(len(rank), dtype=bool)
            touched[self.papers] = True
            n_papers = int(np.count_nonzero(touched))
            if n_papers > limit and limit == 0:
                kept = np.zeros(0, dtype=np.intp)
            elif n_papers > limit:
                paper_best = np.full(len(rank), np.nan)
                np.fmax.at(paper_best, self.papers, self.relevancy)
                cut = -np.partition(-paper_best[touched], limit - 1)[limit - 1]
                if not np.isnan(cut):
                    kept = np.flatnonzero(self.relevancy >= cut)
        order, papers, relevancy = (
            (self.order, self.papers, self.relevancy) if kept is None
            else (self.order[kept], self.papers[kept], self.relevancy[kept])
        )
        by_paper = np.lexsort((order, -relevancy, papers))
        sorted_papers = papers[by_paper]
        first = np.ones(len(papers), dtype=bool)
        first[1:] = sorted_papers[1:] != sorted_papers[:-1]
        best = by_paper[first]
        # Uncut, every paper has its pair in ``best``.
        deduped = len(self) - (len(best) if kept is None else n_papers)
        ranked = best[np.lexsort((rank[papers[best]], -relevancy[best]))]
        if limit is not None:
            ranked = ranked[:limit]
        return (ranked if kept is None else kept[ranked]), deduped, len(papers)


class ContextSearchEngine:
    """Context-based search over one context paper set + prestige scores.

    Parameters
    ----------
    w_prestige / w_matching:
        The relevancy mixture weights of section 3.  Defaults split evenly;
        experiments sweep them.
    probe_depth:
        How many keyword hits feed context selection.
    name_bonus:
        Additive bonus per query word found in a context's term name
        during selection.
    """

    def __init__(
        self,
        ontology: Ontology,
        paper_set: ContextPaperSet,
        prestige: PrestigeScores,
        keyword_engine: KeywordSearchEngine,
        w_prestige: float = 0.5,
        w_matching: float = 0.5,
        probe_depth: int = 200,
        name_bonus: float = 0.1,
        selection_strategy: str = "probe",
        vectors: "PaperVectorStore | None" = None,
        representatives: "dict | None" = None,
    ) -> None:
        if w_prestige < 0 or w_matching < 0 or (w_prestige + w_matching) == 0:
            raise ValueError(
                "w_prestige and w_matching must be >= 0 and not both zero"
            )
        if selection_strategy not in SELECTION_STRATEGIES:
            raise ValueError(
                f"selection_strategy must be one of {SELECTION_STRATEGIES}, "
                f"got {selection_strategy!r}"
            )
        if selection_strategy == "representative" and (
            vectors is None or not representatives
        ):
            raise ValueError(
                "the 'representative' strategy needs vectors and a "
                "non-empty representatives map"
            )
        self.ontology = ontology
        self.paper_set = paper_set
        self.prestige = prestige
        self.keyword_engine = keyword_engine
        self.w_prestige = w_prestige
        self.w_matching = w_matching
        self.probe_depth = probe_depth
        self.name_bonus = name_bonus
        self.selection_strategy = selection_strategy
        self.vectors = vectors
        self.representatives = dict(representatives) if representatives else {}
        self._warm_lock = threading.Lock()
        self._warmed = False
        self._rep_view: Optional[_RepresentativeView] = None

    # -- engine warm-up ----------------------------------------------------------------

    def warm(self) -> "ContextSearchEngine":
        """Build the engine's arrays up front; harmless to call twice.

        Every query path calls it, so the first query builds whatever a
        prior call did not: the paper set's :class:`ContextColumns`, the
        prestige values aligned with them, the analysed term ->
        context-rows map of context names, and for the representative
        strategy the term-major view of the representatives' rows.  HTTP
        handler threads share engines, so the lock makes concurrent first
        callers run one build between them; afterwards the arrays are
        only read.
        """
        if self._warmed:
            return self
        with self._warm_lock:
            if self._warmed:
                return self
            columns = self.paper_set.columns
            self._prestige_values = self.prestige.aligned(columns)
            analyzer = self.keyword_engine.index.analyzer
            name_rows: Dict[str, List[int]] = {}
            for row, context_id in enumerate(columns.context_ids):
                name = self.ontology.term(context_id).name
                for term in set(analyzer.analyze(name)):
                    name_rows.setdefault(term, []).append(row)
            self._name_rows = {
                term: np.array(rows, dtype=np.intp)
                for term, rows in name_rows.items()
            }
            self._columns = columns
            if self.selection_strategy == "representative":
                self._rep_view = _RepresentativeView.build(
                    self.vectors, columns.context_ids, self.representatives
                )
            self._warmed = True
        return self

    def _name_overlap(self, query_terms: frozenset) -> np.ndarray:
        """Per context row, how many of ``query_terms`` its term name holds."""
        shared = np.zeros(len(self._columns))
        for term in query_terms:
            rows = self._name_rows.get(term)
            if rows is not None:
                shared[rows] += 1.0
        return shared

    # -- task 3: context selection ---------------------------------------------------

    def select_contexts(
        self, query: str, max_contexts: int = 5
    ) -> List[ContextSelection]:
        """Rank contexts for the query with the configured strategy."""
        evaluation = (
            self.keyword_engine.evaluate(query)
            if self.selection_strategy == "probe"
            else None
        )
        rows, strengths = self._select_contexts(query, max_contexts, evaluation)
        context_ids = self._columns.context_ids
        return [
            ContextSelection(context_id=context_ids[row], strength=strength)
            for row, strength in zip(rows.tolist(), strengths.tolist())
        ]

    def _select_contexts(
        self,
        query: str,
        max_contexts: int,
        evaluation: Optional[QueryEvaluation],
    ) -> _Strengths:
        """Selection core: the chosen ``(context rows, strengths)``, best first.

        ``evaluation`` is the request's shared scan.  At most
        ``max_contexts`` rows are kept: ``np.partition`` finds the
        ``max_contexts``-th best strength, the rows at or above it (ties
        kept) are ranked by ``(-strength, context id)``, then cut.
        ``probed`` counts the contexts the strategy computed a strength
        for, not the whole paper set: the probe strategy only reaches the
        contexts of its top hits.
        """
        with span("search.select", strategy=self.selection_strategy) as trace:
            if self.selection_strategy == "name":
                rows, strengths = self._name_strengths(query)
            elif self.selection_strategy == "representative":
                rows, strengths = self._representative_strengths(query)
            else:
                assert evaluation is not None
                rows, strengths = self._probe_strengths(evaluation)
            probed = len(rows)
            limit = max(max_contexts, 0)
            if 0 < limit < probed:
                cut = np.partition(strengths, probed - limit)[probed - limit]
                chosen = strengths >= cut
                rows, strengths = rows[chosen], strengths[chosen]
            ranked = np.lexsort((self._columns.id_rank[rows], -strengths))[:limit]
            rows, strengths = rows[ranked], strengths[ranked]
            trace.set(probed=probed, selected=len(rows))
        registry = get_registry()
        registry.counter("search.context.contexts_probed").inc(probed)
        registry.counter("search.context.contexts_selected").inc(len(rows))
        return rows, strengths

    def _probe_strengths(self, evaluation: QueryEvaluation) -> _Strengths:
        """Strength by keyword-probe response plus term-name overlap.

        Only the top ``probe_depth`` hits are walked: their reverse-CSR
        rows give the contexts they reach, and a weighted ``np.bincount``
        sums each hit's score into those contexts in probe order -- the
        order a per-hit loop would add them in.  Papers outside the set
        still take probe slots; their reverse-CSR rows are empty.
        """
        self.warm()
        columns = self._columns
        probe = evaluation.ranked(self.probe_depth)
        if not len(probe):
            return _NO_ROWS, _NO_STRENGTHS
        check_same_rows(evaluation.table, columns.paper_rows)
        positions, counts = csr_positions(columns.paper_indptr, evaluation.papers[probe])
        reached = columns.paper_contexts[positions]
        totals = np.bincount(
            reached,
            weights=np.repeat(evaluation.scores[probe], counts),
            minlength=len(columns),
        )
        touched = np.flatnonzero(np.bincount(reached, minlength=len(columns)))
        # Normalise by context size so huge contexts don't always win.
        strengths = totals[touched] / columns.sqrt_sizes[touched]
        query_terms = frozenset(evaluation.terms)
        if query_terms:
            strengths = strengths + self.name_bonus * self._name_overlap(
                query_terms
            )[touched]
        return touched, strengths

    def _name_strengths(self, query: str) -> _Strengths:
        """Strength by query-term overlap with context term names only.

        The GoPubMed-style lookup the related-work section describes:
        cheap, but blind to contexts whose names share no word with the
        query.
        """
        self.warm()
        analyzer = self.keyword_engine.index.analyzer
        query_terms = frozenset(analyzer.analyze(query))
        if not query_terms:
            return _NO_ROWS, _NO_STRENGTHS
        shared = self._name_overlap(query_terms)
        named = np.flatnonzero(shared)
        return named, shared[named] / len(query_terms)

    def _representative_strengths(self, query: str) -> _Strengths:
        """Strength by cosine similarity to each context's representative.

        The query vector (the cosine's ``self``) is usually the shorter
        one, so the dot product walks its terms in insertion order: each
        term adds its products into every representative holding it,
        read from the term-major view :meth:`warm` builds.
        Representatives shorter than the query are walked instead,
        through :func:`~repro.core.cosine.dot_pairs`.
        """
        assert self.vectors is not None
        self.warm()
        query_vector = self.vectors.query_vector(query)
        if not query_vector:
            return _NO_ROWS, _NO_STRENGTHS
        view = self._rep_view
        dots = np.zeros(len(view.rows))
        bounds = view.term_bounds
        last = len(bounds) - 1
        reps, weights = view.terms.rows, view.terms.weights
        for term, weight in query_vector.weights.items():
            if term < last:
                a, b = bounds[term], bounds[term + 1]
                if a != b:
                    dots[reps[a:b]] += weight * weights[a:b]
        short = np.flatnonzero(view.rows.lengths < len(query_vector))
        if len(short):
            dots[short] = dot_pairs(
                VectorRows.of_vectors([query_vector]),
                np.zeros(len(short), dtype=np.int64),
                view.rows,
                short,
            )
        similarities = finish_cosines(
            dots,
            np.full(len(dots), query_vector.norm),
            view.rows.norms,
            lambda i: query_vector.cosine(view.rows.vector(i)),
        )
        positive = np.flatnonzero(similarities > 0.0)
        return view.context_rows[positive], similarities[positive]

    # -- tasks 4 & 5: search and rank -------------------------------------------------

    def search(
        self,
        query: str,
        max_contexts: int = 5,
        threshold: float = 0.0,
        limit: Optional[int] = None,
        contexts: Optional[Sequence[str]] = None,
    ) -> List[SearchHit]:
        """Full context-based search: select, score, threshold, merge.

        ``contexts`` overrides automatic selection (used by experiments
        that fix the context of interest); a repeated id counts once.
        The whole request shares one :class:`QueryEvaluation`, so the
        inverted index is scanned exactly once per call.  A negative
        ``limit`` raises ``ValueError``.
        """
        _check_limit("limit", limit)
        with span("search.run", query=query, threshold=threshold) as trace:
            self.warm()
            evaluation = self.keyword_engine.evaluate(query)
            if contexts is None:
                rows, _ = self._select_contexts(query, max_contexts, evaluation)
            else:
                context_row = self._columns.context_row
                rows = np.array(
                    [context_row[cid] for cid in dict.fromkeys(contexts)
                     if cid in context_row],
                    dtype=np.intp,
                )
            registry = get_registry()
            registry.counter("search.context.queries").inc()
            if not len(rows):
                trace.set(selected=0, hits=0)
                return []
            with span("search.score", contexts=len(rows)) as score_trace:
                match = self._match_vector(evaluation)
                scored, papers_scored = self._score(rows, match, threshold)
                papers_dropped = papers_scored - len(scored)
                score_trace.set(
                    papers_scored=papers_scored, papers_dropped=papers_dropped
                )
            with span("search.merge") as merge_trace:
                pairs, merge_deduped, kept = scored.merge(
                    self._columns.paper_rows.rank, limit
                )
                hits = self._hits(scored, pairs, rows, match)
                merge_trace.set(deduped=merge_deduped, kept=kept, hits=len(hits))
            trace.set(hits=len(hits))
            registry.counter("search.context.papers_scored").inc(papers_scored)
            registry.counter("search.context.papers_dropped").inc(papers_dropped)
            registry.counter("search.context.merge_deduped").inc(merge_deduped)
            return hits

    def _score(
        self, rows: np.ndarray, match: np.ndarray, threshold: float
    ) -> Tuple[_Scored, int]:
        """Score the context ``rows``; ``(pairs at or above threshold, scored)``.

        Gathers the CSR rows in selection order and scores the members
        with a positive match score (``match`` is :meth:`_match_vector`):
        a paper with no textual response to the query is not a search
        result, however prestigious.  Relevancy is ``w_prestige * p +
        w_matching * m``, two products and a sum in float64, exactly as a
        scalar loop computes it.  ``scored`` counts the matched pairs
        before the threshold.
        """
        columns = self._columns
        positions, counts = csr_positions(columns.indptr, rows)
        papers = columns.members[positions]
        matching = match[papers]
        matched = matching > 0.0
        relevancy = (
            self.w_prestige * self._prestige_values[positions]
            + self.w_matching * matching
        )
        # Not ``>=``: a NaN relevancy is kept, as ``relevancy < threshold``
        # is what drops a pair.
        kept = np.flatnonzero(matched & ~(relevancy < threshold))
        scored = _Scored(
            order=np.repeat(np.arange(len(rows)), counts)[kept],
            papers=papers[kept],
            relevancy=relevancy[kept],
            positions=positions[kept],
        )
        return scored, int(np.count_nonzero(matched))

    def _match_vector(self, evaluation: QueryEvaluation) -> np.ndarray:
        """Match score by paper row; 0.0 for papers the query missed."""
        paper_rows = self._columns.paper_rows
        check_same_rows(evaluation.table, paper_rows)
        vector = np.zeros(len(paper_rows))
        vector[evaluation.papers] = evaluation.scores
        return vector

    def _hits(
        self, scored: _Scored, pairs: np.ndarray, rows: np.ndarray, match: np.ndarray
    ) -> List[SearchHit]:
        """One :class:`SearchHit` per pair in ``pairs``, in that order.

        ``rows`` are the selected context rows ``scored.order`` indexes;
        ids, prestige and matching are gathered for these pairs only.
        """
        columns = self._columns
        paper_ids, context_ids = columns.paper_rows.ids, columns.context_ids
        papers = scored.papers[pairs]
        return [
            SearchHit(
                paper_id=paper_ids[paper],
                context_id=context_ids[row],
                relevancy=relevancy,
                prestige=prestige,
                matching=matching,
            )
            for paper, row, relevancy, prestige, matching in zip(
                papers.tolist(),
                rows[scored.order[pairs]].tolist(),
                scored.relevancy[pairs].tolist(),
                self._prestige_values[scored.positions[pairs]].tolist(),
                match[papers].tolist(),
            )
        ]

    @staticmethod
    def _context_matches(context, match_scores):
        """(paper_id, matching) pairs of one context with a positive match.

        The per-pair view of what :meth:`_score` gathers for one context.
        The query path does not call it; the end-to-end benchmark's
        frozen tracer patches this name, so it stays defined.
        """
        for paper_id in context.paper_ids:
            matching = match_scores.get(paper_id, 0.0)
            if matching > 0.0:
                yield paper_id, matching

    def search_many(
        self, queries: Sequence[str], **kwargs
    ) -> List[List[SearchHit]]:
        """Run independent queries in input order under one batch span.

        A plain loop over :meth:`search`.  ``kwargs`` are passed through
        to :meth:`search`.
        """
        queries = list(queries)
        if not queries:
            return []
        registry = get_registry()
        registry.counter("search.batch.queries").inc(len(queries))
        with span("search.batch.run", queries=len(queries)), registry.timer(
            "search.batch.seconds"
        ):
            return [self.search(query, **kwargs) for query in queries]

    def search_grouped(
        self,
        query: str,
        max_contexts: int = 5,
        threshold: float = 0.0,
        per_context_limit: Optional[int] = None,
    ) -> List[ContextResultGroup]:
        """Search and return results *grouped by context* (unmerged).

        Groups come back in selection-strength order; a paper appearing in
        several selected contexts appears in each group with that
        context's prestige.  Empty groups (no paper cleared the threshold)
        are dropped.  Shares one :class:`QueryEvaluation` between
        selection and scoring, like :meth:`search`.  A negative
        ``per_context_limit`` raises ``ValueError``.
        """
        _check_limit("per_context_limit", per_context_limit)
        self.warm()
        evaluation = self.keyword_engine.evaluate(query)
        rows, strengths = self._select_contexts(query, max_contexts, evaluation)
        if not len(rows):
            return []
        match = self._match_vector(evaluation)
        scored, _ = self._score(rows, match, threshold)
        # Selection order first, then the per-context ranking.
        rank = self._columns.paper_rows.rank
        pairs = np.lexsort((rank[scored.papers], -scored.relevancy, scored.order))
        bounds = np.searchsorted(scored.order[pairs], np.arange(len(rows) + 1))
        context_ids = self._columns.context_ids
        groups: List[ContextResultGroup] = []
        for order, (row, strength) in enumerate(
            zip(rows.tolist(), strengths.tolist())
        ):
            group = pairs[bounds[order]:bounds[order + 1]][:per_context_limit]
            if len(group):
                groups.append(
                    ContextResultGroup(
                        context_id=context_ids[row],
                        selection_strength=strength,
                        hits=tuple(self._hits(scored, group, rows, match)),
                    )
                )
        return groups

    def result_ids(self, query: str, **kwargs) -> List[str]:
        """Convenience: just the merged paper ids, best first."""
        return [hit.paper_id for hit in self.search(query, **kwargs)]

    # -- explanation -------------------------------------------------------------------

    def explain(
        self, query: str, paper_id: str, max_contexts: int = 5
    ) -> "RankingExplanation":
        """Why (or why not) ``paper_id`` ranks for ``query``.

        Returns the matching score, the paper's prestige in every selected
        context that contains it, the winning context, and the resulting
        relevancy -- the decomposition a relevance engineer needs when a
        ranking surprises them.  Selection and matching read the same
        single-scan evaluation, so the explanation shows exactly the
        scores :meth:`search` would use (quoted-phrase filters included).
        """
        evaluation = self.keyword_engine.evaluate(query)
        rows, _ = self._select_contexts(query, max_contexts, evaluation)
        selected = [self._columns.context_ids[row] for row in rows.tolist()]
        matching = evaluation.score(paper_id)
        per_context: List[Tuple[str, float, float]] = []
        for context_id in selected:
            if paper_id not in self.paper_set.context(context_id):
                continue
            prestige = self.prestige.score(context_id, paper_id)
            relevancy = self.w_prestige * prestige + self.w_matching * matching
            per_context.append((context_id, prestige, relevancy))
        per_context.sort(key=lambda row: (-row[2], row[0]))
        return RankingExplanation(
            query=query,
            paper_id=paper_id,
            matching=matching,
            selected_context_ids=tuple(selected),
            in_selected_contexts=tuple(per_context),
            best_relevancy=per_context[0][2] if per_context else None,
        )


@dataclass(frozen=True)
class RankingExplanation:
    """Relevancy decomposition for one (query, paper) pair."""

    query: str
    paper_id: str
    matching: float
    #: Every context the selector chose for this query.
    selected_context_ids: Tuple[str, ...]
    #: (context_id, prestige, relevancy) for selected contexts holding
    #: the paper, best first.
    in_selected_contexts: Tuple[Tuple[str, float, float], ...]
    #: Relevancy in the winning context; None when the paper is in no
    #: selected context (it cannot appear in results at all).
    best_relevancy: Optional[float]

    @property
    def retrievable(self) -> bool:
        """Could this paper appear in the merged results for the query?"""
        return self.best_relevancy is not None and self.matching > 0.0

    def format(self) -> str:
        lines = [
            f"query={self.query!r} paper={self.paper_id}",
            f"  text matching score: {self.matching:.3f}",
            f"  selected contexts:   {', '.join(self.selected_context_ids) or '(none)'}",
        ]
        if not self.in_selected_contexts:
            lines.append("  paper is in NO selected context -> never returned")
        for context_id, prestige, relevancy in self.in_selected_contexts:
            lines.append(
                f"  in {context_id}: prestige={prestige:.3f} -> relevancy={relevancy:.3f}"
            )
        if not self.retrievable:
            lines.append("  verdict: not retrievable for this query")
        return "\n".join(lines)
