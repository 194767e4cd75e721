"""The build layer: a :class:`SubstrateStore` owning every heavy artefact.

The store holds the raw inputs (corpus, ontology, training papers) and
the substrates derived from them -- inverted index, vector store, token
cache, citation graph, the two context paper sets, representatives, and
memoised prestige scores.  Substrates build lazily on first access and
can be *installed* directly (workspace hydration); every installation
bumps a monotonically increasing **revision**, which the serving layer
(:class:`~repro.serving.view.ServingView`) compares against to know
when its memoised engines and result cache are stale.

Prestige computation is single-flighted per ``function/paper_set`` key:
concurrent cold lookups of the same scores block on one per-key lock and
compute exactly once, while lookups of *different* keys proceed in
parallel.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro import scoring
from repro.citations.graph import CitationGraph
from repro.core.assignment import PatternContextAssigner, TextContextAssigner
from repro.core.context import ContextPaperSet
from repro.core.patterns import AnalyzedPaperCache
from repro.core.scores import PrestigeScores
from repro.core.scores.base import propagate_max_over_descendants
from repro.core.vectors import PaperVectorStore
from repro.corpus.corpus import Corpus, CorpusError
from repro.corpus.paper import Paper
from repro.index.backend import SearchBackend
from repro.index.inverted import build_index
from repro.index.search import KeywordSearchEngine
from repro.obs import get_registry, span
from repro.ontology.ontology import Ontology


@dataclass(frozen=True)
class DeltaReport:
    """What one :meth:`SubstrateStore.apply_delta` call actually did."""

    #: Paper ids added / removed, in application order.
    added: Tuple[str, ...]
    removed: Tuple[str, ...]
    #: Per paper-set name, the context ids whose paper sets changed
    #: (only paper sets that were built and diffed appear here).
    changed_contexts: Dict[str, Tuple[str, ...]]
    #: Memoised score keys patched in place vs dropped for lazy recompute.
    scores_patched: Tuple[str, ...]
    scores_dropped: Tuple[str, ...]
    #: True when a read-only (packed) index was rebuilt from the corpus.
    index_rebuilt: bool
    #: Substrate revision after the delta (unchanged for a no-op).
    revision: int

    @property
    def is_noop(self) -> bool:
        return not self.added and not self.removed

    def to_dict(self) -> Dict[str, object]:
        """JSON-able summary (CLI output, the /admin/ingest response)."""
        return {
            "added": list(self.added),
            "removed": list(self.removed),
            "changed_contexts": {
                name: list(ids) for name, ids in self.changed_contexts.items()
            },
            "scores_patched": list(self.scores_patched),
            "scores_dropped": list(self.scores_dropped),
            "index_rebuilt": self.index_rebuilt,
            "revision": self.revision,
        }


class SubstrateStore:
    """Mutable build-layer state shared by every serving view.

    Thread safety: lazy builds are serialised by a reentrant build lock
    (substrate builds nest -- e.g. the text paper set needs vectors and
    the index); prestige computation single-flights per key; installs
    and the revision counter share a small mutation lock.
    """

    def __init__(
        self,
        corpus: Corpus,
        ontology: Ontology,
        training_papers: Mapping[str, Sequence[str]],
        text_similarity_threshold: float = 0.10,
    ) -> None:
        self.corpus = corpus
        self.ontology = ontology
        self.training_papers = {k: list(v) for k, v in training_papers.items()}
        self.text_similarity_threshold = text_similarity_threshold
        self._index: Optional[SearchBackend] = None
        self._vectors: Optional[PaperVectorStore] = None
        self._tokens: Optional[AnalyzedPaperCache] = None
        self._graph: Optional[CitationGraph] = None
        self._keyword_engine: Optional[KeywordSearchEngine] = None
        self._text_assigner: Optional[TextContextAssigner] = None
        self._pattern_assigner: Optional[PatternContextAssigner] = None
        self._text_paper_set: Optional[ContextPaperSet] = None
        self._pattern_paper_set: Optional[ContextPaperSet] = None
        self._representatives: Optional[Dict[str, str]] = None
        self._scores: Dict[str, PrestigeScores] = {}
        self._build_lock = threading.RLock()
        self._mutation_lock = threading.Lock()
        self._prestige_locks: Dict[str, threading.Lock] = {}
        self._revision = 0

    # -- revision -------------------------------------------------------------------

    @property
    def revision(self) -> int:
        """Mutation counter; serving views compare it to detect staleness."""
        with self._mutation_lock:
            return self._revision

    def _bump(self) -> None:
        with self._mutation_lock:
            self._revision += 1
            revision = self._revision
        get_registry().gauge("serving.substrate.revision").set(revision)

    # -- lazily built substrates ----------------------------------------------------

    @property
    def index(self) -> SearchBackend:
        if self._index is None:
            with self._build_lock:
                if self._index is None:
                    with span("substrate.index.build"):
                        self._index = build_index(self.corpus)
        return self._index

    @property
    def vectors(self) -> PaperVectorStore:
        if self._vectors is None:
            with self._build_lock:
                if self._vectors is None:
                    self._vectors = PaperVectorStore(self.corpus, self.index.analyzer)
        return self._vectors

    @property
    def tokens(self) -> AnalyzedPaperCache:
        if self._tokens is None:
            with self._build_lock:
                if self._tokens is None:
                    self._tokens = AnalyzedPaperCache(self.corpus, self.index.analyzer)
        return self._tokens

    @property
    def citation_graph(self) -> CitationGraph:
        if self._graph is None:
            with self._build_lock:
                if self._graph is None:
                    self._graph = CitationGraph.from_corpus(self.corpus)
        return self._graph

    @property
    def keyword_engine(self) -> KeywordSearchEngine:
        """The PubMed-style baseline search engine."""
        if self._keyword_engine is None:
            with self._build_lock:
                if self._keyword_engine is None:
                    self._keyword_engine = KeywordSearchEngine(self.index)
        return self._keyword_engine

    @property
    def text_paper_set(self) -> ContextPaperSet:
        """The text-based context paper set (section 4, first builder)."""
        if self._text_paper_set is None:
            with self._build_lock:
                if self._text_paper_set is None:
                    self._text_assigner = TextContextAssigner(
                        self.corpus,
                        self.ontology,
                        self.vectors,
                        self.index,
                        similarity_threshold=self.text_similarity_threshold,
                    )
                    self._text_paper_set = self._text_assigner.build(
                        self.training_papers
                    )
        return self._text_paper_set

    @property
    def representatives(self) -> Dict[str, str]:
        """Representative paper per context of the text paper set.

        When the paper set was loaded from a precomputed artefact (no
        assigner ran), representatives are re-derived from the stored
        training papers -- the selection is deterministic, so this
        reproduces the original choice.
        """
        if self._representatives is None:
            with self._build_lock:
                if self._representatives is None:
                    paper_set = self.text_paper_set
                    if self._text_assigner is not None:
                        self._representatives = dict(
                            self._text_assigner.representatives
                        )
                    else:
                        from repro.core.representative import select_representatives

                        self._representatives = select_representatives(
                            self.vectors, paper_set
                        )
        return dict(self._representatives)

    @property
    def pattern_paper_set(self) -> ContextPaperSet:
        """The pattern-based context paper set (section 4, second builder)."""
        if self._pattern_paper_set is None:
            _ = self.pattern_assigner  # runs the build, which installs the set
        return self._pattern_paper_set

    @property
    def pattern_assigner(self) -> PatternContextAssigner:
        """The pattern assigner, running pattern construction on first use.

        When the pattern paper set was hydrated from a workspace, the
        assigner has not run; accessing it (only pattern-*score* builds
        do) re-runs pattern construction while keeping the loaded set.
        """
        if self._pattern_assigner is None:
            with self._build_lock:
                if self._pattern_assigner is None:
                    assigner = PatternContextAssigner(
                        self.corpus,
                        self.ontology,
                        self.index,
                        token_cache=self.tokens,
                    )
                    built = assigner.build(self.training_papers)
                    if self._pattern_paper_set is None:
                        self._pattern_paper_set = built
                    self._pattern_assigner = assigner
        return self._pattern_assigner

    def paper_set(self, paper_set_name: str) -> ContextPaperSet:
        """The context paper set registered under ``paper_set_name``."""
        if paper_set_name == "text":
            return self.text_paper_set
        if paper_set_name == "pattern":
            return self.pattern_paper_set
        raise ValueError(
            f"unknown paper set {paper_set_name!r}; expected one of "
            f"{scoring.PAPER_SET_NAMES}"
        )

    # -- prestige scores ------------------------------------------------------------

    @property
    def scores(self) -> Dict[str, PrestigeScores]:
        """The live score memo, keyed ``<function>/<paper_set>``."""
        return self._scores

    def prestige(self, function: str, paper_set_name: str = "text") -> PrestigeScores:
        """Memoised prestige scores, computed at most once per key.

        ``function`` is any registered score function (plus any key
        installed from precomputed artefacts); ``paper_set_name`` selects
        the context paper set.  Concurrent cold lookups of the same key
        single-flight on a per-key lock.
        """
        key = f"{function}/{paper_set_name}"
        scores = self._scores.get(key)
        if scores is not None:
            return scores
        with self._mutation_lock:
            lock = self._prestige_locks.setdefault(key, threading.Lock())
        with lock:
            scores = self._scores.get(key)
            if scores is not None:
                return scores
            with span(
                "pipeline.prestige", function=function, paper_set=paper_set_name
            ):
                return self._compute_prestige(function, paper_set_name, key)

    def _compute_prestige(
        self, function: str, paper_set_name: str, key: str
    ) -> PrestigeScores:
        get_registry().counter("pipeline.prestige.computed").inc()
        spec = scoring.get(function)
        paper_set = self.paper_set(paper_set_name)
        scorer = spec.factory(self)
        scores = scorer.score_all(paper_set)
        self._scores[key] = scores
        return scores

    # -- incremental corpus mutation --------------------------------------------------

    def apply_delta(
        self,
        added_papers: Iterable[Paper] = (),
        removed_ids: Iterable[str] = (),
    ) -> DeltaReport:
        """Apply a corpus delta, updating built substrates in place.

        Removals are applied before additions (so an id in both lists is
        replaced).  The delta is validated in full before anything
        mutates; an invalid delta raises :class:`CorpusError` and leaves
        the store untouched.  Substrates that were never built stay lazy
        and simply see the mutated corpus on first access.

        Built substrates update as follows:

        - **index** -- mutated in place when it declares
          ``supports_mutation`` (the in-memory index), otherwise rebuilt
          in memory from the corpus with ``build_index`` (the read-only
          packed index a workspace opens; later deltas then mutate the
          rebuilt index in place);
        - **vectors** -- fitted TF-IDF models are delta-updated exactly
          (ghost terms keep df=0); cached vectors re-weight from retained
          count maps;
        - **citation graph** -- spliced canonically (byte-identical to a
          rebuild from the final corpus);
        - **text paper set** -- reassigned with warm substrates, then
          diffed context-by-context against the previous assignment;
        - **pattern paper set** -- invalidated for lazy rebuild (pattern
          statistics couple to corpus-global coverage);
        - **prestige memos** -- functions whose spec declares
          ``delta_scope="contexts"`` are re-scored only for changed
          contexts and re-propagated; everything else is dropped for
          lazy recompute.

        A no-op delta (both lists empty) returns without bumping the
        revision, so serving views keep their caches.  Otherwise the
        revision bumps exactly once at the end -- one atomic view swap
        per delta.
        """
        added = list(added_papers)
        removed = list(dict.fromkeys(removed_ids))
        with self._build_lock:
            for pid in removed:
                self.corpus.paper(pid)  # CorpusError on unknown ids
            removed_set = set(removed)
            seen_added: set = set()
            for paper in added:
                pid = paper.paper_id
                if pid in seen_added:
                    raise CorpusError(f"duplicate paper id {pid!r} in delta")
                if pid in self.corpus and pid not in removed_set:
                    raise CorpusError(
                        f"paper id {pid!r} already in corpus (remove it in the "
                        f"same delta to replace it)"
                    )
                seen_added.add(pid)
            if not added and not removed:
                return DeltaReport((), (), {}, (), (), False, self._revision)
            registry = get_registry()
            with span(
                "substrate.delta.apply", added=len(added), removed=len(removed)
            ):
                removed_papers = [self.corpus.remove(pid) for pid in removed]
                for paper in added:
                    self.corpus.add(paper)
                added_ids = [paper.paper_id for paper in added]

                index_rebuilt = False
                if self._index is not None:
                    with span("substrate.delta.index"):
                        if self._index.supports_mutation:
                            for paper in removed_papers:
                                self._index.remove_document(paper.paper_id)
                            for paper in added:
                                self._index.add_document(paper)
                        else:
                            self._index = build_index(self.corpus)
                            index_rebuilt = True
                            registry.counter("substrate.delta.index_rebuilds").inc()
                    self._keyword_engine = None
                if self._tokens is not None:
                    for paper in removed_papers:
                        self._tokens.evict_paper(paper.paper_id)
                if self._vectors is not None:
                    with span("substrate.delta.vectors"):
                        self._vectors.apply_delta(added, removed_papers)
                if self._graph is not None:
                    with span("substrate.delta.graph"):
                        self._graph.apply_corpus_delta(
                            self.corpus, added_ids, removed
                        )

                changed_contexts: Dict[str, Tuple[str, ...]] = {}
                if self._text_paper_set is not None:
                    with span("substrate.delta.assign", paper_set="text"):
                        old_set = self._text_paper_set
                        assigner = TextContextAssigner(
                            self.corpus,
                            self.ontology,
                            self.vectors,
                            self.index,
                            similarity_threshold=self.text_similarity_threshold,
                        )
                        new_set = assigner.build(self.training_papers)
                        self._text_assigner = assigner
                        self._text_paper_set = new_set
                        self._representatives = dict(assigner.representatives)
                        changed_contexts["text"] = self._diff_contexts(
                            old_set, new_set
                        )
                if (
                    self._pattern_paper_set is not None
                    or self._pattern_assigner is not None
                ):
                    # Pattern mining reads corpus-global statistics (paper
                    # coverage, cached index lookups); rebuild lazily.
                    self._pattern_paper_set = None
                    self._pattern_assigner = None

                scores_patched: List[str] = []
                scores_dropped: List[str] = []
                with span("substrate.delta.prestige"):
                    for key, scores in list(self._scores.items()):
                        function, _, paper_set_name = key.partition("/")
                        try:
                            spec = scoring.get(function)
                        except ValueError:
                            spec = None
                        changed = changed_contexts.get(paper_set_name)
                        if (
                            spec is not None
                            and spec.delta_scope == "contexts"
                            and changed is not None
                            and scores.pre_propagation is not None
                        ):
                            self._scores[key] = self._patch_scores(
                                spec,
                                scores,
                                self.paper_set(paper_set_name),
                                changed,
                            )
                            scores_patched.append(key)
                        else:
                            del self._scores[key]
                            scores_dropped.append(key)

                registry.counter("substrate.delta.papers_added").inc(len(added))
                registry.counter("substrate.delta.papers_removed").inc(
                    len(removed_papers)
                )
                registry.counter("substrate.delta.contexts_changed").inc(
                    sum(len(ids) for ids in changed_contexts.values())
                )
                registry.counter("substrate.delta.scores_patched").inc(
                    len(scores_patched)
                )
                registry.counter("substrate.delta.scores_dropped").inc(
                    len(scores_dropped)
                )
        self._bump()
        return DeltaReport(
            added=tuple(added_ids),
            removed=tuple(removed),
            changed_contexts=changed_contexts,
            scores_patched=tuple(scores_patched),
            scores_dropped=tuple(scores_dropped),
            index_rebuilt=index_rebuilt,
            revision=self.revision,
        )

    @staticmethod
    def _diff_contexts(
        old_set: ContextPaperSet, new_set: ContextPaperSet
    ) -> Tuple[str, ...]:
        """Context ids whose paper sets differ between two assignments."""
        old = {context.term_id: context.paper_ids for context in old_set}
        new = {context.term_id: context.paper_ids for context in new_set}
        changed = [cid for cid in new if old.get(cid) != new[cid]]
        changed.extend(cid for cid in old if cid not in new)
        return tuple(changed)

    def _patch_scores(
        self,
        spec: "scoring.ScoreFunctionSpec",
        scores: PrestigeScores,
        paper_set: ContextPaperSet,
        changed_ids: Sequence[str],
    ) -> PrestigeScores:
        """Re-score only the changed contexts and re-run propagation.

        Valid only for ``delta_scope="contexts"`` functions: their
        per-context scores depend exclusively on structure induced by the
        context's own paper ids, so unchanged contexts keep their
        pre-propagation scores byte-identically.  The pre-propagation map
        is rebuilt in paper-set iteration order so the patched result is
        indistinguishable from a from-scratch ``score_all``.
        """
        scorer = spec.factory(self)
        changed = set(changed_ids)
        fresh = scorer.score_contexts(paper_set, changed)
        old_pre = scores.pre_propagation or {}
        pre: Dict[str, Dict[str, float]] = {}
        for context in paper_set:
            cid = context.term_id
            if cid in changed:
                if cid in fresh:
                    pre[cid] = fresh[cid]
            elif cid in old_pre:
                pre[cid] = old_pre[cid]
        merged = propagate_max_over_descendants(paper_set, pre)
        return PrestigeScores(
            scores.function_name, merged, pre_propagation=pre
        )

    # -- installation (workspace hydration) -----------------------------------------

    def install_index(self, index: Optional[SearchBackend]) -> None:
        with self._build_lock:
            self._index = index
            self._keyword_engine = None  # derived from the index
        self._bump()

    def install_vectors(self, vectors: Optional[PaperVectorStore]) -> None:
        with self._build_lock:
            self._vectors = vectors
        self._bump()

    def install_tokens(self, tokens: Optional[AnalyzedPaperCache]) -> None:
        with self._build_lock:
            self._tokens = tokens
        self._bump()

    def install_citation_graph(self, graph: Optional[CitationGraph]) -> None:
        with self._build_lock:
            self._graph = graph
        self._bump()

    def install_text_paper_set(self, paper_set: Optional[ContextPaperSet]) -> None:
        with self._build_lock:
            self._text_paper_set = paper_set
        self._bump()

    def install_pattern_paper_set(self, paper_set: Optional[ContextPaperSet]) -> None:
        with self._build_lock:
            self._pattern_paper_set = paper_set
        self._bump()

    def install_representatives(
        self, representatives: Optional[Mapping[str, str]]
    ) -> None:
        with self._build_lock:
            self._representatives = (
                dict(representatives) if representatives is not None else None
            )
        self._bump()

    def install_scores(self, key: str, scores: PrestigeScores) -> None:
        with self._build_lock:
            self._scores[key] = scores
        self._bump()

    #: Substrate name (as in the workspace artifact graph) -> raw slot.
    _SLOTS = {
        "index": "_index",
        "tokens": "_tokens",
        "vectors": "_vectors",
        "citation_graph": "_graph",
        "text_paper_set": "_text_paper_set",
        "pattern_paper_set": "_pattern_paper_set",
        "representatives": "_representatives",
    }

    def has(self, slot: str) -> bool:
        """Is ``slot`` built or installed?  Never triggers a lazy build.

        ``slot`` is a substrate name (``"index"``, ``"citation_graph"``,
        ...) or a ``<function>/<paper_set>`` score key.
        """
        if "/" in slot:
            return slot in self._scores
        return getattr(self, self._SLOTS[slot]) is not None
