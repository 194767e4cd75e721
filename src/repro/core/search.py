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
scanned twice for one request.  Independent queries can be batched
through :meth:`ContextSearchEngine.search_many`.  HTTP handler threads
call :meth:`ContextSearchEngine.search` concurrently; the registry and
the engine's lazy caches are thread-safe.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.context import ContextPaperSet
from repro.core.scores.base import PrestigeScores
from repro.core.vectors import PaperVectorStore
from repro.index.search import KeywordSearchEngine, QueryEvaluation
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
        self._name_terms: Dict[str, frozenset] = {}
        self._sqrt_size: Dict[str, float] = {}
        self._warm_lock = threading.Lock()
        self._warmed = False

    # -- engine warm-up ----------------------------------------------------------------

    def warm(self) -> "ContextSearchEngine":
        """Build the engine's lazy per-query caches up front.

        Called implicitly by :meth:`search_many`.  The engine is shared
        by HTTP handler threads, so the lock lets concurrent callers run
        one build between them; harmless to call twice.
        """
        with self._warm_lock:
            if self._warmed:
                return self
            analyzer = self.keyword_engine.index.analyzer
            for context in self.paper_set:
                self._name_terms[context.term_id] = frozenset(
                    analyzer.analyze(self.ontology.term(context.term_id).name)
                )
                self._sqrt_size[context.term_id] = max(context.size ** 0.5, 1.0)
                _ = context.paper_id_set
            # Force the paper -> contexts reverse map (lazy in the set).
            self.paper_set.contexts_of_paper("")
            self._warmed = True
        return self

    def _context_name_terms(self, context_id: str) -> frozenset:
        terms = self._name_terms.get(context_id)
        if terms is None:
            analyzer = self.keyword_engine.index.analyzer
            terms = frozenset(
                analyzer.analyze(self.ontology.term(context_id).name)
            )
            self._name_terms[context_id] = terms
        return terms

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
            ranked = heapq.nsmallest(
                max_contexts, strengths.items(),
                key=lambda item: (-item[1], item[0]),
            )
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

        Rather than walking every context's full member list, the probe
        walks only its top hits and accumulates strength through the
        paper-set's reverse (paper -> contexts) map -- O(probe_depth x
        avg contexts per paper) instead of O(total memberships).
        """
        probe = evaluation.top_scores(self.probe_depth)
        strengths: Dict[str, float] = {}
        contexts_of_paper = self.paper_set.contexts_of_paper
        for paper_id, score in probe:
            for context_id in contexts_of_paper(paper_id):
                strengths[context_id] = strengths.get(context_id, 0.0) + score
        query_terms = frozenset(evaluation.terms)
        for context_id in list(strengths):
            # Normalise by context size so huge contexts don't always win.
            sqrt_size = self._sqrt_size.get(context_id)
            if sqrt_size is None:
                size = self.paper_set.context(context_id).size
                sqrt_size = max(size ** 0.5, 1.0)
                self._sqrt_size[context_id] = sqrt_size
            strength = strengths[context_id] / sqrt_size
            if query_terms:
                name_terms = self._context_name_terms(context_id)
                strength += self.name_bonus * len(query_terms & name_terms)
            strengths[context_id] = strength
        return strengths

    def _name_strengths(self, query: str) -> Dict[str, float]:
        """Strength by query-term overlap with context term names only.

        The GoPubMed-style lookup the related-work section describes:
        cheap, but blind to contexts whose names share no word with the
        query.
        """
        analyzer = self.keyword_engine.index.analyzer
        query_terms = set(analyzer.analyze(query))
        strengths: Dict[str, float] = {}
        if not query_terms:
            return strengths
        for context in self.paper_set:
            name_terms = self._context_name_terms(context.term_id)
            shared = query_terms & name_terms
            if shared:
                strengths[context.term_id] = len(shared) / len(query_terms)
        return strengths

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
        that fix the context of interest).  The whole request shares one
        :class:`QueryEvaluation`, so the inverted index is scanned
        exactly once per call.
        """
        with span("search.run", query=query, threshold=threshold) as trace:
            evaluation = self.keyword_engine.evaluate(query)
            if contexts is None:
                selected = [
                    s.context_id
                    for s in self._select_contexts(query, max_contexts, evaluation)
                ]
            else:
                selected = [cid for cid in contexts if cid in self.paper_set]
            if not selected:
                trace.set(selected=0, hits=0)
                return []
            registry = get_registry()
            papers_scored = 0
            papers_dropped = 0
            merge_deduped = 0
            best: Dict[str, SearchHit] = {}
            with span("search.score", contexts=len(selected)) as score_trace:
                match_scores = evaluation.scores
                for context_id in selected:
                    context = self.paper_set.context(context_id)
                    context_prestige = self.prestige.of(context_id)
                    for paper_id, matching in self._context_matches(
                        context, match_scores
                    ):
                        # A paper with no textual response to the query is
                        # not a search result, however prestigious.
                        papers_scored += 1
                        prestige = context_prestige.get(paper_id, 0.0)
                        relevancy = (
                            self.w_prestige * prestige + self.w_matching * matching
                        )
                        if relevancy < threshold:
                            papers_dropped += 1
                            continue
                        current = best.get(paper_id)
                        if current is not None:
                            # Merge step: a paper already seen through an
                            # earlier context keeps its best relevancy.
                            merge_deduped += 1
                            if relevancy <= current.relevancy:
                                continue
                        best[paper_id] = SearchHit(
                            paper_id=paper_id,
                            context_id=context_id,
                            relevancy=relevancy,
                            prestige=prestige,
                            matching=matching,
                        )
                score_trace.set(
                    papers_scored=papers_scored, papers_dropped=papers_dropped
                )
            with span("search.merge") as merge_trace:
                hits = sorted(
                    best.values(), key=lambda h: (-h.relevancy, h.paper_id)
                )
                if limit is not None:
                    hits = hits[:limit]
                merge_trace.set(deduped=merge_deduped, hits=len(hits))
            trace.set(hits=len(hits))
            registry.counter("search.context.queries").inc()
            registry.counter("search.context.papers_scored").inc(papers_scored)
            registry.counter("search.context.papers_dropped").inc(papers_dropped)
            registry.counter("search.context.merge_deduped").inc(merge_deduped)
            return hits

    @staticmethod
    def _context_matches(context, match_scores):
        """(paper_id, matching) pairs of one context, iterating the smaller side.

        When the context is larger than the query's match set, walking the
        match set and testing membership is cheaper than walking every
        member; both directions yield each matched (paper, score) pair
        exactly once, so metrics and merge results are identical.
        """
        if len(context.paper_ids) <= len(match_scores):
            for paper_id in context.paper_ids:
                matching = match_scores.get(paper_id, 0.0)
                if matching > 0.0:
                    yield paper_id, matching
        else:
            members = context.paper_id_set
            for paper_id, matching in match_scores.items():
                if matching > 0.0 and paper_id in members:
                    yield paper_id, matching

    def search_many(
        self, queries: Sequence[str], **kwargs
    ) -> List[List[SearchHit]]:
        """Run independent queries in input order under one batch span.

        A plain loop over :meth:`search`: selection and scoring are
        pure-Python dict work, so threads would only contend for the
        interpreter lock.  ``kwargs`` are passed through to :meth:`search`.
        """
        queries = list(queries)
        if not queries:
            return []
        self.warm()
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
        evaluation = self.keyword_engine.evaluate(query)
        selections = self._select_contexts(query, max_contexts, evaluation)
        if not selections:
            return []
        match_scores = evaluation.scores
        groups: List[ContextResultGroup] = []
        for selection in selections:
            context = self.paper_set.context(selection.context_id)
            context_prestige = self.prestige.of(selection.context_id)
            hits = []
            for paper_id, matching in self._context_matches(context, match_scores):
                prestige = context_prestige.get(paper_id, 0.0)
                relevancy = (
                    self.w_prestige * prestige + self.w_matching * matching
                )
                if relevancy < threshold:
                    continue
                hits.append(
                    SearchHit(
                        paper_id=paper_id,
                        context_id=selection.context_id,
                        relevancy=relevancy,
                        prestige=prestige,
                        matching=matching,
                    )
                )
            hits.sort(key=lambda h: (-h.relevancy, h.paper_id))
            if per_context_limit is not None:
                hits = hits[:per_context_limit]
            if hits:
                groups.append(
                    ContextResultGroup(
                        context_id=selection.context_id,
                        selection_strength=selection.strength,
                        hits=tuple(hits),
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
