"""End-to-end pipeline wiring: the one-stop user-facing API.

:class:`Pipeline` is a thin façade over the three layers of the system
(see ``docs/architecture.md``):

1. the **scoring registry** (:mod:`repro.scoring`) -- every prestige
   score function, declared once, driving dispatch/CLI/workspace/sweeps;
2. the **build layer** (:class:`~repro.serving.substrate.SubstrateStore`)
   -- index, vectors, token cache, citation graph, the two context paper
   sets, representatives, memoised scores, and a mutation revision;
3. the **serve layer** (:class:`~repro.serving.view.ServingView`) -- an
   immutable-per-refresh snapshot of memoised search engines plus the
   LRU result cache, swapped atomically by :meth:`Pipeline.refresh` so
   concurrent searches never observe a half-invalidated cache.

Build one from your own data or call :func:`build_demo_pipeline` for a
seeded synthetic dataset.

Typical use::

    pipeline = build_demo_pipeline(seed=7, n_papers=800)
    hits = pipeline.search("dna repair kinase", limit=10)
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.citations.graph import CitationGraph
from repro.core.assignment import PatternContextAssigner
from repro.core.context import ContextPaperSet
from repro.core.patterns import AnalyzedPaperCache
from repro.core.scores import PrestigeScores
from repro.core.search import ContextSearchEngine, RankingExplanation, SearchHit
from repro.core.vectors import PaperVectorStore
from repro.corpus.corpus import Corpus
from repro.datagen.corpus_gen import CorpusGenerator, GeneratedDataset
from repro.datagen.ontology_gen import OntologyGenerator
from repro.index.backend import SearchBackend
from repro.index.search import KeywordSearchEngine
from repro.obs import get_registry, get_telemetry, span
from repro.obs.quality import (
    DriftExceeded,
    DriftReport,
    evaluate_drift,
    export_drift_gauges,
)
from repro.ontology.ontology import Ontology
from repro.serving import SearchResultCache, ServingView, SubstrateStore

__all__ = ["Pipeline", "SearchResultCache", "build_demo_pipeline"]


class Pipeline:
    """Lazily-built artefact graph over one corpus + ontology + training map.

    Parameters
    ----------
    corpus / ontology / training_papers:
        The raw inputs (training papers are the per-term annotation
        evidence driving representatives and patterns).
    text_similarity_threshold:
        Membership bar for the text-based context paper set.
    min_context_size:
        Contexts smaller than this are dropped from the *experiment* view
        (the paper excludes small contexts); search still uses all.
    result_cache_size:
        Capacity of the serving-side LRU result cache (entries);
        ``0`` disables result caching entirely.
    """

    def __init__(
        self,
        corpus: Corpus,
        ontology: Ontology,
        training_papers: Mapping[str, Sequence[str]],
        text_similarity_threshold: float = 0.10,
        min_context_size: int = 5,
        w_prestige: float = 0.7,
        w_matching: float = 0.3,
        result_cache_size: int = 256,
    ) -> None:
        self.min_context_size = min_context_size
        self.w_prestige = w_prestige
        self.w_matching = w_matching
        self.result_cache_size = result_cache_size
        self._store = SubstrateStore(
            corpus,
            ontology,
            training_papers,
            text_similarity_threshold=text_similarity_threshold,
        )
        self._serving = ServingView(
            self._store,
            self._store.revision,
            w_prestige=w_prestige,
            w_matching=w_matching,
            result_cache_size=result_cache_size,
        )
        # Reload drift detection (configure_drift): a pinned probe-query
        # baseline, the threshold an *enforced* refresh refuses above,
        # and the substrate revision a refused swap pinned the old view
        # against (None = no refusal in effect).
        self._drift_config: Optional[dict] = None
        self._drift_baseline: Optional[Dict[str, Dict[str, tuple]]] = None
        self._drift_hold_revision: Optional[int] = None
        self.last_drift_report: Optional[DriftReport] = None

    @classmethod
    def from_dataset(cls, dataset: GeneratedDataset, **kwargs) -> "Pipeline":
        """Build from a :class:`GeneratedDataset` (synthetic testbed)."""
        return cls(
            corpus=dataset.corpus,
            ontology=dataset.ontology,
            training_papers=dataset.training_papers,
            **kwargs,
        )

    @classmethod
    def from_directory(cls, data_dir, **kwargs) -> "Pipeline":
        """Build from a data directory using the standard file layout.

        Expects ``corpus.jsonl`` (one Paper per line), ``ontology.obo``,
        and ``training.json`` (``{term_id: [paper_id, ...]}``) -- the
        layout ``repro generate`` writes and the layout to use for real
        data.  Raises ``FileNotFoundError`` naming the first missing file.
        """
        import json
        from pathlib import Path

        from repro.corpus.io import read_corpus_jsonl
        from repro.ontology.obo import read_obo

        data = Path(data_dir)
        for name in ("corpus.jsonl", "ontology.obo", "training.json"):
            if not (data / name).exists():
                raise FileNotFoundError(
                    f"{data / name} not found (run `repro generate` or place "
                    f"your own data there)"
                )
        corpus = read_corpus_jsonl(data / "corpus.jsonl")
        ontology = read_obo(data / "ontology.obo")
        training_path = data / "training.json"
        with open(training_path, "r", encoding="utf-8") as handle:
            try:
                training = json.load(handle)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{training_path}: corrupt JSON ({error})"
                ) from error
        return cls(
            corpus=corpus, ontology=ontology, training_papers=training, **kwargs
        )

    # -- layer access ---------------------------------------------------------------

    @property
    def substrates(self) -> SubstrateStore:
        """The build layer owning every heavy substrate."""
        return self._store

    @property
    def serving_view(self) -> ServingView:
        """The current serve-layer snapshot (auto-refreshed when stale)."""
        return self._view()

    def _view(self) -> ServingView:
        view = self._serving
        if view.revision != self._store.revision:
            if self._drift_hold_revision == self._store.revision:
                # A drift-gated refresh refused this revision: keep
                # serving the pinned old view until an operator forces
                # the swap or the substrate moves again.
                return view
            try:
                return self.refresh(enforce_drift=True)
            except DriftExceeded:
                # The automatic staleness refresh hit the armed drift
                # gate; refresh() pinned the hold, so keep serving the
                # old view.  Only an explicit forced reload swaps now.
                return view
        return view

    def refresh(self, enforce_drift: bool = False) -> ServingView:
        """Swap in a fresh :class:`ServingView` (atomic reference swap).

        Drops memoised search engines and cached search results in one
        step; in-flight requests holding the previous view finish against
        its still-consistent engine/cache pair.  Called automatically
        whenever the substrate revision moves (artifact installation),
        and available for explicit use after hand-mutating pipeline
        state.

        When drift detection is configured (:meth:`configure_drift`),
        the pinned probe queries run against the *candidate* view before
        the swap and the comparison against the pinned baseline is
        exported as ``serving.reload.drift.*`` gauges.  With
        ``enforce_drift=True`` (the ``POST /admin/reload`` path) and a
        configured ``max_drift``, churn above the threshold raises
        :class:`~repro.obs.quality.DriftExceeded` *without* swapping --
        the old view keeps serving, and automatic staleness refreshes
        hold it pinned until a forced reload or another substrate
        change.
        """
        view = ServingView(
            self._store,
            self._store.revision,
            w_prestige=self.w_prestige,
            w_matching=self.w_matching,
            result_cache_size=self.result_cache_size,
        )
        candidate_rankings: Optional[Dict[str, Dict[str, tuple]]] = None
        if self._drift_config is not None and self._drift_baseline is not None:
            config = self._drift_config
            with span("serving.reload.drift", functions=len(config["functions"])):
                candidate_rankings = self._probe_rankings(view)
                report = evaluate_drift(
                    self._drift_baseline, candidate_rankings, k=config["k"]
                )
            self.last_drift_report = report
            export_drift_gauges(report)
            get_registry().counter("serving.reload.drift.checks").inc()
            max_drift = config["max_drift"]
            if (
                enforce_drift
                and max_drift is not None
                and report.exceeds(max_drift)
            ):
                get_registry().counter("serving.reload.drift.refused").inc()
                self._drift_hold_revision = self._store.revision
                raise DriftExceeded(report, max_drift)
        self._serving = view
        self._drift_hold_revision = None
        if candidate_rankings is not None:
            # The swap went through: the candidate's rankings become the
            # pinned baseline the *next* reload is compared against.
            self._drift_baseline = candidate_rankings
        get_registry().counter("serving.view.refresh").inc()
        return view

    # -- reload drift detection ------------------------------------------------------

    def configure_drift(
        self,
        probe_queries: Sequence[str],
        functions: Sequence[str] = ("text",),
        paper_set_name: str = "text",
        selection_strategy: str = "probe",
        k: int = 10,
        max_drift: Optional[float] = None,
    ) -> DriftReport:
        """Pin a probe-query set for reload drift detection.

        Runs every probe query through the *current* serving view for
        every listed score function and pins the rankings as the
        baseline future :meth:`refresh` calls are compared against
        (``serving.reload.drift.*`` gauges; per-function mean
        Jaccard@k / Kendall tau and result-set churn).  ``max_drift``
        in ``[0, 1]`` arms the gate: an *enforced* refresh whose worst
        per-query churn exceeds it is refused.  Returns the zero-drift
        report of the baseline against itself (shape documentation for
        callers).
        """
        from repro import scoring

        probes = [query for query in probe_queries if query and query.strip()]
        if not probes:
            raise ValueError("need at least one non-empty probe query")
        registered = scoring.function_names()
        unknown = [fn for fn in functions if fn not in registered]
        if unknown:
            raise ValueError(
                f"unknown probe function(s) {unknown}; registered: "
                f"{tuple(registered)}"
            )
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if max_drift is not None and not 0.0 <= max_drift <= 1.0:
            raise ValueError(
                f"max_drift must be in [0, 1], got {max_drift}"
            )
        self._drift_config = {
            "probe_queries": tuple(probes),
            "functions": tuple(dict.fromkeys(functions)),
            "paper_set_name": paper_set_name,
            "selection_strategy": selection_strategy,
            "k": k,
            "max_drift": max_drift,
        }
        self._drift_baseline = self._probe_rankings(self._view())
        self._drift_hold_revision = None
        report = evaluate_drift(self._drift_baseline, self._drift_baseline, k=k)
        self.last_drift_report = report
        return report

    def _probe_rankings(
        self, view: ServingView
    ) -> Dict[str, Dict[str, tuple]]:
        """``{function: {query: top-k ids}}`` straight off a view's engines.

        Bypasses the result cache and request telemetry on purpose:
        probe traffic is synthetic and must neither warm the serving
        cache nor count into live query analytics.
        """
        config = self._drift_config
        assert config is not None
        rankings: Dict[str, Dict[str, tuple]] = {}
        for function in config["functions"]:
            engine = view.engine(
                function, config["paper_set_name"],
                config["selection_strategy"],
            )
            rankings[function] = {
                query: tuple(
                    hit.paper_id
                    for hit in engine.search(query, limit=config["k"])
                )
                for query in config["probe_queries"]
            }
        return rankings

    # -- incremental corpus updates ---------------------------------------------------

    def add_papers(self, papers: Sequence["Paper"]):
        """Add papers to the corpus, delta-updating every built substrate.

        The incremental counterpart of rebuilding the pipeline on an
        extended corpus: the index, vectors, citation graph, and context
        assignments update in place (see
        :meth:`~repro.serving.substrate.SubstrateStore.apply_delta`), and
        prestige is recomputed only for contexts whose paper sets
        changed.  Returns the
        :class:`~repro.serving.substrate.DeltaReport`.

        The substrate revision bumps once, so the next search observes a
        fresh serving view (stale result-cache entries and engine memos
        are unreachable); an armed drift gate applies exactly as it does
        for any other substrate change.
        """
        return self._store.apply_delta(added_papers=papers)

    def remove_papers(self, paper_ids: Sequence[str]):
        """Remove papers from the corpus, delta-updating built substrates.

        See :meth:`add_papers`; removals and additions can be combined in
        one atomic delta via ``substrates.apply_delta``.
        """
        return self._store.apply_delta(removed_ids=paper_ids)

    # -- raw inputs (delegated to the substrate store) ------------------------------

    @property
    def corpus(self) -> Corpus:
        return self._store.corpus

    @property
    def ontology(self) -> Ontology:
        return self._store.ontology

    @property
    def training_papers(self) -> Dict[str, List[str]]:
        return self._store.training_papers

    @property
    def text_similarity_threshold(self) -> float:
        return self._store.text_similarity_threshold

    # -- shared substrates ----------------------------------------------------------

    @property
    def index(self) -> SearchBackend:
        return self._store.index

    @property
    def vectors(self) -> PaperVectorStore:
        return self._store.vectors

    @property
    def tokens(self) -> AnalyzedPaperCache:
        return self._store.tokens

    @property
    def citation_graph(self) -> CitationGraph:
        return self._store.citation_graph

    @property
    def keyword_engine(self) -> KeywordSearchEngine:
        """The PubMed-style baseline search engine."""
        return self._store.keyword_engine

    # -- context paper sets ---------------------------------------------------------

    @property
    def text_paper_set(self) -> ContextPaperSet:
        """The text-based context paper set (section 4, first builder)."""
        return self._store.text_paper_set

    @property
    def representatives(self) -> Dict[str, str]:
        """Representative paper per context of the text paper set."""
        return self._store.representatives

    @property
    def pattern_paper_set(self) -> ContextPaperSet:
        """The pattern-based context paper set (section 4, second builder)."""
        return self._store.pattern_paper_set

    @property
    def pattern_assigner(self) -> PatternContextAssigner:
        """The pattern assigner, running pattern construction on first use."""
        return self._store.pattern_assigner

    def paper_set(self, paper_set_name: str) -> ContextPaperSet:
        """The context paper set named by ``paper_set_name``."""
        return self._store.paper_set(paper_set_name)

    # -- workspace (artifact graph) -------------------------------------------------

    @classmethod
    def open_workspace(
        cls, data_dir, workspace_dir=None, strict: bool = True, **kwargs
    ) -> "Pipeline":
        """Open a data directory and hydrate every cache from its workspace.

        A workspace built by ``repro build`` (see :mod:`repro.workspace`)
        holds *all* heavy substrates -- index, vectors, token cache,
        citation graph, paper sets, representatives, prestige scores --
        so a fully-built workspace opens with zero rebuilds.

        ``workspace_dir`` defaults to ``<data_dir>/workspace``.  With
        ``strict=True`` any missing or stale artifact raises
        :class:`~repro.workspace.builder.StaleWorkspaceError`; with
        ``strict=False`` stale artifacts are skipped and rebuilt lazily
        on first use.
        """
        from pathlib import Path

        from repro.workspace import open_workspace as _open

        pipeline = cls.from_directory(data_dir, **kwargs)
        if workspace_dir is None:
            workspace_dir = Path(data_dir) / "workspace"
        _open(pipeline, workspace_dir, strict=strict)
        return pipeline

    def build_workspace(
        self, workspace_dir, only=None, force: bool = False
    ):
        """Build (incrementally) the on-disk workspace for this pipeline.

        Returns the :class:`~repro.workspace.builder.BuildReport` listing
        what was built and what was already fresh.
        """
        from repro.workspace import WorkspaceBuilder

        return WorkspaceBuilder(self, workspace_dir).build(only=only, force=force)

    # -- prestige scores ------------------------------------------------------------

    def prestige(self, function: str, paper_set_name: str = "text") -> PrestigeScores:
        """Memoised prestige scores.

        ``function`` is any score function registered with
        :mod:`repro.scoring` (``repro.scoring.function_names()`` lists
        them); ``paper_set_name`` selects the context paper set, matching
        section 4's two experiment arms.  Concurrent cold lookups of the
        same key compute the scores exactly once (single-flight).
        """
        return self._store.prestige(function, paper_set_name)

    # -- search ---------------------------------------------------------------------

    def search_engine(
        self,
        function: str = "text",
        paper_set_name: str = "text",
        selection_strategy: str = "probe",
    ) -> ContextSearchEngine:
        """A context search engine over the chosen paper set + prestige.

        Engines are memoised per (function, paper set, selection
        strategy) on the current serving view; see
        :meth:`~repro.serving.view.ServingView.engine`.
        """
        return self._view().engine(function, paper_set_name, selection_strategy)

    def search(
        self,
        query: str,
        function: str = "text",
        paper_set_name: str = "text",
        limit: Optional[int] = 10,
        threshold: float = 0.0,
        selection_strategy: str = "probe",
        use_cache: bool = True,
        contexts: Optional[Sequence[str]] = None,
    ) -> List[SearchHit]:
        """One-call context-based search with sensible defaults.

        Results are served from a bounded LRU cache when an identical
        request (same query, function, paper set, strategy, limit,
        threshold, explicit contexts) was answered since the last
        artifact change; pass ``use_cache=False`` to force a fresh
        evaluation.  ``contexts`` overrides automatic context selection
        (the HTTP service's ``context`` parameter); it participates in
        the cache key, so a restricted search never shares an entry
        with an automatically-selected one.

        Runs inside a request-scoped telemetry context (query id, root
        span, sampling, SLO event) -- see :mod:`repro.obs.request`.
        """
        view = self._view()
        cache = view.result_cache
        caching = use_cache and cache.enabled
        # A repeated context id selects that context once, in the engine
        # and in the cache key alike.
        contexts = tuple(dict.fromkeys(contexts)) if contexts is not None else None
        key = self._cache_key(
            query, function, paper_set_name, selection_strategy, limit,
            threshold, contexts,
        )
        with get_telemetry().request(
            "search", query=query, function=function, paper_set=paper_set_name
        ) as request, span(
            "pipeline.search",
            query=query,
            function=function,
            paper_set=paper_set_name,
        ) as trace:
            if caching:
                cached = cache.get(key)
                request.cache(hit=cached is not None)
                if cached is not None:
                    trace.set(cache="hit", hits=len(cached))
                    # Hit count and top score land on the record either
                    # way -- the analytics aggregator must see cache
                    # hits too, or the zero-result rate would only
                    # reflect cache misses.
                    request.set(hits=len(cached))
                    if cached:
                        request.set(top_score=cached[0].relevancy)
                    return cached
            engine = view.engine(function, paper_set_name, selection_strategy)
            hits = engine.search(
                query, threshold=threshold, limit=limit, contexts=contexts
            )
            if caching:
                trace.set(cache="miss")
                cache.put(key, hits)
            request.set(hits=len(hits))
            if hits:
                request.set(top_score=hits[0].relevancy)
            return hits

    @staticmethod
    def _cache_key(
        query: str,
        function: str,
        paper_set_name: str,
        selection_strategy: str,
        limit: Optional[int],
        threshold: float,
        contexts: Optional[tuple] = None,
    ) -> tuple:
        """The full query identity every result-cache entry is keyed on.

        One constructor for both :meth:`search` and :meth:`search_many`,
        so a batch miss populates exactly the entry a later single-query
        call will look up (``contexts`` is part of the identity; batch
        search never restricts contexts, hence ``None``).
        """
        return (
            query, function, paper_set_name, selection_strategy, limit,
            threshold, contexts,
        )

    def search_many(
        self,
        queries: Sequence[str],
        function: str = "text",
        paper_set_name: str = "text",
        limit: Optional[int] = 10,
        threshold: float = 0.0,
        selection_strategy: str = "probe",
        use_cache: bool = True,
    ) -> List[List[SearchHit]]:
        """Batch search: answer independent queries in one request.

        Cached queries are answered from the result cache; the misses
        run through :meth:`ContextSearchEngine.search_many`.  The
        returned list is index-aligned with ``queries``, and each miss
        populates the result cache.  The whole batch is served from one
        :class:`ServingView` snapshot, so a concurrent :meth:`refresh`
        cannot tear it.
        """
        queries = list(queries)
        view = self._view()
        cache = view.result_cache
        caching = use_cache and cache.enabled
        with get_telemetry().request(
            "search_many",
            query=f"[batch of {len(queries)}]",
            queries=max(len(queries), 1),
            function=function,
            paper_set=paper_set_name,
        ) as request, span(
            "pipeline.search_many",
            queries=len(queries),
            function=function,
            paper_set=paper_set_name,
        ) as trace:
            results: List[Optional[List[SearchHit]]] = [None] * len(queries)
            misses: List[int] = []
            for position, query in enumerate(queries):
                key = self._cache_key(
                    query, function, paper_set_name, selection_strategy,
                    limit, threshold,
                )
                cached = cache.get(key) if caching else None
                if cached is not None:
                    results[position] = cached
                else:
                    misses.append(position)
            if caching:
                request.cache_batch(
                    hits=len(queries) - len(misses), lookups=len(queries)
                )
            trace.set(cached=len(queries) - len(misses))
            if misses:
                engine = view.engine(function, paper_set_name, selection_strategy)
                fresh = engine.search_many(
                    [queries[i] for i in misses],
                    threshold=threshold,
                    limit=limit,
                )
                for position, hits in zip(misses, fresh):
                    results[position] = hits
                    if caching:
                        key = self._cache_key(
                            queries[position], function, paper_set_name,
                            selection_strategy, limit, threshold,
                        )
                        cache.put(key, hits)
            return [hits if hits is not None else [] for hits in results]

    def search_grouped(
        self,
        query: str,
        function: str = "text",
        paper_set_name: str = "text",
        max_contexts: int = 5,
        threshold: float = 0.0,
        per_context_limit: Optional[int] = 10,
        selection_strategy: str = "probe",
    ):
        """Search with results *grouped by context* (unmerged).

        Pipeline-level counterpart of
        :meth:`~repro.core.search.ContextSearchEngine.search_grouped`,
        resolved against the current serving view's memoised engine and
        wrapped in the same request-scoped telemetry as :meth:`search`
        (kind ``search_grouped``; grouped results are not result-cached
        -- the cache holds merged rankings only).
        """
        view = self._view()
        with get_telemetry().request(
            "search_grouped", query=query, function=function,
            paper_set=paper_set_name,
        ) as request, span(
            "pipeline.search_grouped",
            query=query,
            function=function,
            paper_set=paper_set_name,
        ):
            engine = view.engine(function, paper_set_name, selection_strategy)
            groups = engine.search_grouped(
                query,
                max_contexts=max_contexts,
                threshold=threshold,
                per_context_limit=per_context_limit,
            )
            request.set(groups=len(groups))
            return groups

    def explain(
        self,
        query: str,
        paper_id: str,
        function: str = "text",
        paper_set_name: str = "text",
        selection_strategy: str = "probe",
        max_contexts: int = 5,
    ) -> RankingExplanation:
        """Why (or why not) ``paper_id`` ranks for ``query``.

        Pipeline-level counterpart of
        :meth:`~repro.core.search.ContextSearchEngine.explain`, resolved
        against the current serving view's memoised engine and wrapped in
        the same request-scoped telemetry as :meth:`search` (kind
        ``explain``).
        """
        view = self._view()
        with get_telemetry().request(
            "explain", query=query, function=function, paper_set=paper_set_name
        ), span(
            "pipeline.explain",
            query=query,
            paper=paper_id,
            function=function,
        ):
            engine = view.engine(function, paper_set_name, selection_strategy)
            return engine.explain(query, paper_id, max_contexts=max_contexts)

    # -- experiment views -----------------------------------------------------------

    def experiment_paper_set(self, paper_set_name: str = "text") -> ContextPaperSet:
        """The paper set with small contexts excluded (experiment view)."""
        return self._store.paper_set(paper_set_name).filter_small(
            self.min_context_size
        )


def build_demo_pipeline(
    seed: int = 0,
    n_papers: int = 800,
    n_terms: int = 120,
    max_depth: int = 6,
    **pipeline_kwargs,
) -> Pipeline:
    """Generate a seeded synthetic dataset and wrap it in a Pipeline."""
    generator = CorpusGenerator(
        n_papers=n_papers,
        ontology_generator=OntologyGenerator(n_terms=n_terms, max_depth=max_depth),
    )
    dataset = generator.generate(seed=seed)
    return Pipeline.from_dataset(dataset, **pipeline_kwargs)
