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
set's :class:`~repro.core.context.ContextColumns` (CSR rows over a dense
paper index sorted by id) and the prestige values aligned with them:

- probe selection sums the top hits' scores into the contexts of their
  reverse-CSR rows with ``np.add.at``, in probe order;
- scoring gathers the selected rows, masks the members the query
  matched, and computes ``w_prestige * p + w_matching * m`` with the
  same float64 operations a scalar loop performs;
- merging keeps each paper's best relevancy (the earliest selected
  context on a tie) and ranks by ``(-relevancy, paper_id)`` with
  ``lexsort``; :class:`SearchHit` objects are built only for the
  returned rows.

Rankings are bit-identical to the per-paper loop they replace
(``tests/test_context_kernel_reference.py`` keeps that loop as the
reference).

Thread safety: HTTP handler threads call :meth:`ContextSearchEngine.search`
on shared engines.  The arrays are built once per engine under its lock
(:meth:`ContextSearchEngine.warm`) and only read afterwards; every
per-query array is local to the call.  Paper sets and prestige scores
are immutable -- a corpus delta builds new ones -- so nothing is ever
invalidated.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.context import ContextPaperSet, csr_positions
from repro.core.scores.base import PrestigeScores
from repro.core.vectors import PaperVectorStore
from repro.index.search import (
    KeywordSearchEngine,
    QueryEvaluation,
    top_items,
)
from repro.obs import get_registry, span
from repro.ontology.ontology import Ontology

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
class _Scored:
    """Scored (context, paper) pairs as parallel arrays.

    ``order`` is the context's position in the selection, ``papers`` the
    paper's row in the set's :class:`~repro.core.context.ContextColumns`.
    """

    order: np.ndarray
    papers: np.ndarray
    relevancy: np.ndarray
    prestige: np.ndarray
    matching: np.ndarray

    def __len__(self) -> int:
        return len(self.papers)

    def take(self, index: np.ndarray) -> _Scored:
        """The rows at ``index`` (an integer or boolean array)."""
        return _Scored(
            self.order[index],
            self.papers[index],
            self.relevancy[index],
            self.prestige[index],
            self.matching[index],
        )


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

    # -- engine warm-up ----------------------------------------------------------------

    def warm(self) -> "ContextSearchEngine":
        """Build the engine's arrays up front; harmless to call twice.

        Every query path calls it, so the first query builds whatever a
        prior call did not: the paper set's :class:`ContextColumns`, the
        prestige values aligned with them, and the analysed term ->
        context-rows map of context names.  HTTP handler threads share
        engines, so the lock makes concurrent first callers run one
        build between them; afterwards the arrays are only read.
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
        return self._select_contexts(query, max_contexts, evaluation)

    def _select_contexts(
        self,
        query: str,
        max_contexts: int,
        evaluation: Optional[QueryEvaluation],
    ) -> List[ContextSelection]:
        """Selection core; ``evaluation`` is the request's shared scan.

        ``probed`` counts the contexts the strategy computed a strength
        for, not the whole paper set: the probe strategy only reaches the
        contexts of its top hits.
        """
        with span("search.select", strategy=self.selection_strategy) as trace:
            if self.selection_strategy == "name":
                strengths = self._name_strengths(query)
            elif self.selection_strategy == "representative":
                strengths = self._representative_strengths(query)
            else:
                assert evaluation is not None
                strengths = self._probe_strengths(evaluation)
            ranked = top_items(strengths, max_contexts)
            selections = [
                ContextSelection(context_id=cid, strength=value)
                for cid, value in ranked
            ]
            trace.set(probed=len(strengths), selected=len(selections))
        registry = get_registry()
        registry.counter("search.context.contexts_probed").inc(len(strengths))
        registry.counter("search.context.contexts_selected").inc(len(selections))
        return selections

    def _probe_strengths(self, evaluation: QueryEvaluation) -> Dict[str, float]:
        """Strength by keyword-probe response plus term-name overlap.

        Only the top ``probe_depth`` hits are walked: their reverse-CSR
        rows give the contexts they reach, and ``np.add.at`` sums each
        hit's score into those contexts in probe order -- the order a
        per-hit loop would add them in.  Papers outside the set still
        take probe slots; they just reach no context.
        """
        self.warm()
        columns = self._columns
        probe = evaluation.top_scores(self.probe_depth)
        if not probe:
            return {}
        paper_ids, scores = zip(*probe)
        rows = np.fromiter(
            map(columns.paper_row.get, paper_ids, repeat(-1)),
            dtype=np.int64,
            count=len(probe),
        )
        inside = rows >= 0
        positions, counts = csr_positions(columns.paper_indptr, rows[inside])
        reached = columns.paper_contexts[positions]
        totals = np.zeros(len(columns))
        np.add.at(
            totals, reached, np.repeat(np.array(scores)[inside], counts)
        )
        touched = np.flatnonzero(np.bincount(reached, minlength=len(columns)))
        # Normalise by context size so huge contexts don't always win.
        strengths = totals[touched] / columns.sqrt_sizes[touched]
        query_terms = frozenset(evaluation.terms)
        if query_terms:
            strengths = strengths + self.name_bonus * self._name_overlap(
                query_terms
            )[touched]
        return self._by_context_id(touched, strengths)

    def _name_strengths(self, query: str) -> Dict[str, float]:
        """Strength by query-term overlap with context term names only.

        The GoPubMed-style lookup the related-work section describes:
        cheap, but blind to contexts whose names share no word with the
        query.
        """
        self.warm()
        analyzer = self.keyword_engine.index.analyzer
        query_terms = frozenset(analyzer.analyze(query))
        if not query_terms:
            return {}
        shared = self._name_overlap(query_terms)
        named = np.flatnonzero(shared)
        return self._by_context_id(named, shared[named] / len(query_terms))

    def _by_context_id(
        self, rows: np.ndarray, values: np.ndarray
    ) -> Dict[str, float]:
        """``context_id -> value`` for parallel context rows and values."""
        context_ids = self._columns.context_ids
        return dict(
            zip([context_ids[row] for row in rows.tolist()], values.tolist())
        )

    def _representative_strengths(self, query: str) -> Dict[str, float]:
        """Strength by cosine similarity to each context's representative."""
        assert self.vectors is not None
        query_vector = self.vectors.query_vector(query)
        strengths: Dict[str, float] = {}
        if not query_vector:
            return strengths
        for context in self.paper_set:
            representative = self.representatives.get(context.term_id)
            if representative is None:
                continue
            similarity = query_vector.cosine(
                self.vectors.full_vector(representative)
            )
            if similarity > 0.0:
                strengths[context.term_id] = similarity
        return strengths

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
        inverted index is scanned exactly once per call.
        """
        with span("search.run", query=query, threshold=threshold) as trace:
            self.warm()
            evaluation = self.keyword_engine.evaluate(query)
            if contexts is None:
                selected = [
                    s.context_id
                    for s in self._select_contexts(query, max_contexts, evaluation)
                ]
            else:
                selected = [
                    cid for cid in dict.fromkeys(contexts) if cid in self.paper_set
                ]
            if not selected:
                trace.set(selected=0, hits=0)
                return []
            with span("search.score", contexts=len(selected)) as score_trace:
                scored, papers_scored = self._score(
                    selected, evaluation.scores, threshold
                )
                papers_dropped = papers_scored - len(scored)
                score_trace.set(
                    papers_scored=papers_scored, papers_dropped=papers_dropped
                )
            with span("search.merge") as merge_trace:
                # Merge step: a paper selected through several contexts
                # keeps its best relevancy; on a tie the earliest
                # selected context wins.
                by_paper = np.lexsort(
                    (scored.order, -scored.relevancy, scored.papers)
                )
                papers = scored.papers[by_paper]
                first = np.ones(len(papers), dtype=bool)
                first[1:] = papers[1:] != papers[:-1]
                best = scored.take(by_paper[first])
                merge_deduped = len(scored) - len(best)
                ranked = np.lexsort((best.papers, -best.relevancy))
                if limit is not None:
                    ranked = ranked[:limit]
                hits = self._hits(best.take(ranked), selected)
                merge_trace.set(deduped=merge_deduped, hits=len(hits))
            trace.set(hits=len(hits))
            registry = get_registry()
            registry.counter("search.context.queries").inc()
            registry.counter("search.context.papers_scored").inc(papers_scored)
            registry.counter("search.context.papers_dropped").inc(papers_dropped)
            registry.counter("search.context.merge_deduped").inc(merge_deduped)
            return hits

    def _score(
        self,
        selected: Sequence[str],
        match_scores: Mapping[str, float],
        threshold: float,
    ) -> Tuple[_Scored, int]:
        """Score the selected contexts; ``(rows at or above threshold, scored)``.

        Gathers the selected CSR rows in selection order and scores the
        members with a positive match score: a paper with no textual
        response to the query is not a search result, however
        prestigious.  Relevancy is ``w_prestige * p + w_matching * m``,
        two products and a sum in float64, exactly as a scalar loop
        computes it.  ``scored`` counts the pairs before the threshold.
        """
        columns = self._columns
        rows = np.fromiter(
            map(columns.context_row.__getitem__, selected),
            dtype=np.int64,
            count=len(selected),
        )
        positions, counts = csr_positions(columns.indptr, rows)
        papers = columns.members[positions]
        matching = self._match_vector(match_scores)[papers]
        matched = matching > 0.0
        positions = positions[matched]
        matching = matching[matched]
        prestige = self._prestige_values[positions]
        scored = _Scored(
            order=np.repeat(np.arange(len(rows)), counts)[matched],
            papers=papers[matched],
            relevancy=self.w_prestige * prestige + self.w_matching * matching,
            prestige=prestige,
            matching=matching,
        )
        # Not ``>=``: a NaN relevancy is kept, as ``relevancy < threshold``
        # is what drops a pair.
        return scored.take(~(scored.relevancy < threshold)), len(scored)

    def _match_vector(self, match_scores: Mapping[str, float]) -> np.ndarray:
        """Match score by paper row; 0.0 for members the query missed."""
        columns = self._columns
        rows = np.fromiter(
            map(columns.paper_row.get, match_scores, repeat(-1)),
            dtype=np.int64,
            count=len(match_scores),
        )
        values = np.fromiter(
            match_scores.values(), dtype=np.float64, count=len(match_scores)
        )
        inside = rows >= 0
        vector = np.zeros(len(columns.paper_ids))
        vector[rows[inside]] = values[inside]
        return vector

    def _hits(self, scored: _Scored, selected: Sequence[str]) -> List[SearchHit]:
        """One :class:`SearchHit` per scored row, in row order."""
        paper_ids = self._columns.paper_ids
        return [
            SearchHit(
                paper_id=paper_ids[paper],
                context_id=selected[order],
                relevancy=relevancy,
                prestige=prestige,
                matching=matching,
            )
            for paper, order, relevancy, prestige, matching in zip(
                scored.papers.tolist(),
                scored.order.tolist(),
                scored.relevancy.tolist(),
                scored.prestige.tolist(),
                scored.matching.tolist(),
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
        selection and scoring, like :meth:`search`.
        """
        self.warm()
        evaluation = self.keyword_engine.evaluate(query)
        selections = self._select_contexts(query, max_contexts, evaluation)
        if not selections:
            return []
        selected = [selection.context_id for selection in selections]
        scored, _ = self._score(selected, evaluation.scores, threshold)
        # Selection order first, then the per-context ranking.
        scored = scored.take(
            np.lexsort((scored.papers, -scored.relevancy, scored.order))
        )
        bounds = np.searchsorted(scored.order, np.arange(len(selected) + 1))
        groups: List[ContextResultGroup] = []
        for order, selection in enumerate(selections):
            rows = np.arange(bounds[order], bounds[order + 1])
            if per_context_limit is not None:
                rows = rows[:per_context_limit]
            if len(rows):
                groups.append(
                    ContextResultGroup(
                        context_id=selection.context_id,
                        selection_strength=selection.strength,
                        hits=tuple(self._hits(scored.take(rows), selected)),
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
        selections = self._select_contexts(query, max_contexts, evaluation)
        matching = evaluation.score(paper_id)
        per_context: List[Tuple[str, float, float]] = []
        for selection in selections:
            context = self.paper_set.context(selection.context_id)
            if paper_id not in context:
                continue
            prestige = self.prestige.score(selection.context_id, paper_id)
            relevancy = self.w_prestige * prestige + self.w_matching * matching
            per_context.append((selection.context_id, prestige, relevancy))
        per_context.sort(key=lambda row: (-row[2], row[0]))
        return RankingExplanation(
            query=query,
            paper_id=paper_id,
            matching=matching,
            selected_context_ids=tuple(s.context_id for s in selections),
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
