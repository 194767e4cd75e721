"""The build layer: a :class:`SubstrateStore` owning every heavy artefact.

The store holds the raw inputs (corpus, ontology, training papers) and
the substrates derived from them -- the token cache (the corpus's one
text analysis), the inverted index and vector store read from it,
citation graph, the two context paper sets (the text set's
contexts carry their representatives) and memoised prestige scores.
Substrates build lazily on first access and can be *installed* directly
(workspace hydration); every installation bumps a monotonically
increasing **revision**, which the serving layer
(:class:`~repro.serving.view.ServingView`) compares against to know
when its memoised engines and result cache are stale.

Prestige computation is single-flighted per ``function/paper_set`` key:
concurrent cold lookups of the same scores block on one per-key lock and
compute exactly once, while lookups of *different* keys proceed in
parallel.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (
    Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple,
)

import numpy as np

from repro import scoring
from repro.citations.graph import CitationGraph
from repro.core.assignment import (
    PatternContextAssigner,
    TextContextAssigner,
    check_similarity_threshold,
)
from repro.core.context import ContextPaperSet
from repro.core.io import read_pattern_extractions
from repro.core.patterns import Extractions, PatternMemo, Sections
from repro.core.vectors import PaperVectorStore
from repro.corpus.corpus import Corpus, CorpusError
from repro.corpus.paper import Paper, TEXT_SECTIONS
from repro.corpus.rows import PaperRows, check_same_rows
from repro.index.inverted import InvertedIndex, build_index
from repro.index.search import KeywordSearchEngine
from repro.obs import get_logger, get_registry, span
from repro.ontology.ontology import Ontology
from repro.scoring.base import PrestigeScores, blend_rows, propagate_max, take_rows
from repro.text.analyze import AnalyzedPaperCache

logger = get_logger(__name__)


@dataclass(frozen=True)
class DeltaReport:
    """What one :meth:`SubstrateStore.apply_delta` call actually did."""

    #: Paper ids added / removed, in application order.
    added: Tuple[str, ...]
    removed: Tuple[str, ...]
    #: Per paper-set name, the context ids whose paper sets changed or
    #: hold an added or removed paper (only paper sets that were built
    #: and diffed appear here).
    changed_contexts: Dict[str, Tuple[str, ...]]
    #: Memoised score keys patched in place vs dropped for lazy recompute.
    scores_patched: Tuple[str, ...]
    scores_dropped: Tuple[str, ...]
    #: True when a built index was rebuilt from the mutated corpus (an
    #: index never built stays lazy).
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
    (substrate builds nest -- e.g. the text paper set needs vectors, which
    read the token cache); prestige computation single-flights per key;
    installs and the revision counter share a small mutation lock.
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
        self.text_similarity_threshold = check_similarity_threshold(
            text_similarity_threshold
        )
        self._index: Optional[InvertedIndex] = None
        self._vectors: Optional[PaperVectorStore] = None
        self._tokens: Optional[AnalyzedPaperCache] = None
        self._graph: Optional[CitationGraph] = None
        self._keyword_engine: Optional[KeywordSearchEngine] = None
        self._pattern_assigner: Optional[PatternContextAssigner] = None
        self._text_paper_set: Optional[ContextPaperSet] = None
        self._pattern_paper_set: Optional[ContextPaperSet] = None
        #: Pattern extractions, coverage counts and middle hits, kept
        #: across deltas and patched from the papers each one touches.
        self._pattern_memo = PatternMemo()
        #: An installed ``pattern_extractions`` file and its stat stamp,
        #: read into the memo by the first pattern build or delta.
        self._pattern_seed: Optional[Tuple[Path, Tuple[int, int, int]]] = None
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

    def _lazy(self, slot: str, build: Callable[[], object]):
        """``slot``'s value, built by ``build`` under the build lock if unset.

        The slot is read into a local, outside the lock and then inside
        it, and the local is returned: :meth:`apply_delta` clears slots
        under the same lock, so a second unlocked read could see ``None``.
        """
        value = getattr(self, slot)
        if value is None:
            with self._build_lock:
                value = getattr(self, slot)
                if value is None:
                    value = build()
                    setattr(self, slot, value)
        return value

    @property
    def index(self) -> InvertedIndex:
        def build() -> InvertedIndex:
            with span("substrate.index.build"):
                return build_index(self.tokens)

        return self._lazy("_index", build)

    @property
    def vectors(self) -> PaperVectorStore:
        return self._lazy("_vectors", lambda: PaperVectorStore(self.tokens))

    @property
    def tokens(self) -> AnalyzedPaperCache:
        """Analysed token sequences, derived from the corpus, never persisted.

        The corpus's only text analysis: the index build, the vector
        fit, pattern construction and :meth:`apply_delta` (a removed
        paper's words) all read it, so each section is analysed once.
        No query does; a workspace open leaves it empty.
        """
        return self._lazy("_tokens", lambda: AnalyzedPaperCache(self.corpus))

    @property
    def citation_graph(self) -> CitationGraph:
        """Derived from the corpus, never persisted; a delta drops it.

        A graph once returned is never mutated, so a caller holding one
        keeps a snapshot of the corpus it was built from.
        """
        return self._lazy("_graph", lambda: CitationGraph.from_corpus(self.corpus))

    @property
    def keyword_engine(self) -> KeywordSearchEngine:
        """The PubMed-style baseline search engine."""
        return self._lazy("_keyword_engine", lambda: KeywordSearchEngine(self.index))

    @property
    def text_paper_set(self) -> ContextPaperSet:
        """The text-based context paper set (section 4, first builder)."""

        return self._lazy("_text_paper_set", self._assign_text)

    def _assign_text(self) -> ContextPaperSet:
        return TextContextAssigner(
            self.corpus,
            self.ontology,
            self.vectors,
            similarity_threshold=self.text_similarity_threshold,
        ).build(self.training_papers)

    @property
    def representatives(self) -> Dict[str, str]:
        """Representative paper per context of the text paper set.

        A view of the contexts' own ``representative`` fields, so a
        fresh build, a workspace open and a delta agree by construction.
        """
        return {
            context.term_id: context.representative
            for context in self.text_paper_set
            if context.representative
        }

    @property
    def pattern_paper_set(self) -> ContextPaperSet:
        """The pattern-based context paper set (section 4, second builder)."""
        paper_set = self._pattern_paper_set
        if paper_set is None:
            with self._build_lock:
                _ = self.pattern_assigner  # runs the build, which installs the set
                paper_set = self._pattern_paper_set
        return paper_set

    @property
    def pattern_assigner(self) -> PatternContextAssigner:
        """The pattern assigner, running pattern construction on first use.

        When the pattern paper set was hydrated from a workspace, the
        assigner has not run; accessing it (only pattern-*score* builds
        do) re-runs pattern construction while keeping the loaded set.
        If a ``pattern_extractions`` file is installed and no delta has
        read it yet, the build first seeds the pattern memo from it, so
        construction re-mines only the contexts the file lacks or whose
        training papers changed.
        """

        def build() -> PatternContextAssigner:
            self._seed_pattern_memo()
            assigner = PatternContextAssigner(
                self.corpus,
                self.ontology,
                self.index,
                token_cache=self.tokens,
                memo=self._pattern_memo,
            )
            built = assigner.build(self.training_papers)
            if self._pattern_paper_set is None:
                self._pattern_paper_set = built
            return assigner

        return self._lazy("_pattern_assigner", build)

    @property
    def pattern_extractions(self) -> Extractions:
        """Every context's pattern extraction, in ontology order.

        Runs the pattern build if it has not run; that build holds one
        record per ontology term in the memo, which this only reads.
        """
        with self._build_lock:
            _ = self.pattern_assigner
            extractions = self._pattern_memo.extractions
            return {
                term_id: extractions[term_id] for term_id in self.ontology.term_ids()
            }

    def _seed_pattern_memo(self) -> None:
        """Seed the pattern memo from the installed file, at most once.

        Called under the build lock.  A file replaced since it was
        installed describes another corpus, so it is skipped.
        """
        seed, self._pattern_seed = self._pattern_seed, None
        if seed is None:
            return
        path, stamp = seed
        if _stamp(path) != stamp:
            logger.warning(
                "pattern extractions file changed since open; not seeding",
                path=str(path),
            )
            return
        with span("patterns.memo.seed") as trace:
            added = self._pattern_memo.seed(read_pattern_extractions(path))
            trace.set(contexts=added, bytes=stamp[1])

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

        ``function`` is any declared score function (plus any key
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
        if spec.components:
            scores = self._derive_scores(spec, paper_set_name, paper_set)
        else:
            scores = spec.factory(self).score_all(paper_set)
        self._scores[key] = scores
        return scores

    def _derive_scores(
        self,
        spec: "scoring.ScoreFunctionSpec",
        paper_set_name: str,
        paper_set: ContextPaperSet,
    ) -> PrestigeScores:
        """A derived function's scores from its components' memoised ones.

        Blends the components' pre-propagation rows as
        ``ScoreFunctionSpec.components`` specifies, then max-propagates;
        no paper is scored again.
        """
        components = [
            (self.prestige(name, paper_set_name), weight)
            for name, weight in spec.components
        ]
        with span(f"scores.{spec.name}.derive") as trace:
            pre = blend_rows(paper_set, components)
            main = propagate_max(paper_set, pre)
            scores = PrestigeScores(spec.name, paper_set.paper_rows, main, pre)
            trace.set(contexts=len(pre.context_ids), papers=len(pre.values))
        get_registry().counter(f"scores.{spec.name}.contexts_derived").inc(
            len(pre.context_ids)
        )
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

        - **index** -- rebuilt in memory from the token cache with
          ``build_index`` (the index is immutable, so the result is a
          fresh build's whatever the delta history);
        - **vectors** -- fitted TF-IDF models are delta-updated exactly
          (ghost terms keep df=0); cached vectors re-weight from retained
          count maps;
        - **citation graph** -- dropped; the next read rebuilds it from
          the final corpus, so a graph a caller holds stays a snapshot;
        - **text paper set** -- reassigned with warm substrates, then
          diffed context-by-context against the previous assignment: a
          context changed when its paper ids differ or include a
          *touched* id (added or removed, so a paper replaced in one
          delta counts even when the ids stay the same);
        - **pattern paper set** -- invalidated for lazy rebuild (every
          pattern score reads the corpus size).  The pattern memo is
          patched instead: extractions whose training ids include a
          touched id are dropped, and each kept coverage count and
          middle's hit list moves by the touched papers containing all
          of the middle's words, read before removal and after addition.
          The rebuild then re-extracts only the dropped contexts; every
          context is re-scored and re-matched from the kept counts and
          hits, with nothing re-counted or re-scanned.  On the first
          delta after a workspace open the memo is first seeded from
          the installed ``pattern_extractions`` file, so that delta too
          re-extracts only the contexts it touched (counts and hits
          start empty and are counted by the rebuild);
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
            memo = self._pattern_memo
            with span(
                "substrate.delta.apply", added=len(added), removed=len(removed)
            ):
                # Seeded before the delta, so its touched contexts drop
                # their extractions below like those of a warm memo.
                self._seed_pattern_memo()
                # The memo's counts and hits need a removed paper's words,
                # read while the corpus and token cache still hold them; a
                # memo holding only (seeded) extractions needs its id alone.
                counted = bool(memo.coverage or memo.hits)
                old_sections = {
                    pid: self._sections(pid) if counted else () for pid in removed
                }
                # Evict before anything reads the added papers: a paper
                # replaced in this delta keeps its id.
                if self._tokens is not None:
                    for pid in removed:
                        self._tokens.evict_paper(pid)
                old_rows = self.corpus.paper_rows
                removed_papers = [self.corpus.remove(pid) for pid in removed]
                for paper in added:
                    self.corpus.add(paper)
                added_ids = [paper.paper_id for paper in added]
                touched = removed_set | seen_added
                remap = old_rows.remap(self.corpus.paper_rows, removed_set)

                index_rebuilt = self._index is not None
                if index_rebuilt:
                    with span("substrate.delta.index"):
                        self._index = build_index(self.tokens)
                    registry.counter("substrate.delta.index_rebuilds").inc()
                    self._keyword_engine = None
                if self._vectors is not None:
                    with span("substrate.delta.vectors"):
                        self._vectors.apply_delta(added, removed_papers)
                self._graph = None  # derived: rebuilt from the corpus on read

                changed_contexts: Dict[str, Tuple[str, ...]] = {}
                if self._text_paper_set is not None:
                    with span("substrate.delta.assign", paper_set="text"):
                        old_set = self._text_paper_set
                        new_set = self._text_paper_set = self._assign_text()
                        changed_contexts["text"] = self._diff_contexts(
                            old_set, new_set, touched
                        )
                if memo:
                    with span("substrate.delta.patterns"):
                        memo.apply_delta(
                            old_sections,
                            {pid: self._sections(pid) for pid in added_ids},
                        )
                if (
                    self._pattern_paper_set is not None
                    or self._pattern_assigner is not None
                ):
                    # Pattern scores read the corpus size and the
                    # assigner's index lookups; rebuild lazily.
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
                            and scores.pre is not None
                        ):
                            self._scores[key] = self._patch_scores(
                                spec,
                                scores,
                                self.paper_set(paper_set_name),
                                changed,
                                old_rows,
                                remap,
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

    def _sections(self, paper_id: str) -> Sections:
        """``paper_id``'s analysed tokens, one tuple per text section."""
        return tuple(self.tokens.tokens(paper_id, s) for s in TEXT_SECTIONS)

    @staticmethod
    def _diff_contexts(
        old_set: ContextPaperSet, new_set: ContextPaperSet, touched: Set[str]
    ) -> Tuple[str, ...]:
        """Context ids whose paper sets differ or hold a ``touched`` paper.

        A paper removed and re-added in one delta keeps its id but may
        change its text or references, so a context holding it changed
        even when its ids did not.
        """
        old = {context.term_id: context.paper_ids for context in old_set}
        new = {context.term_id: context.paper_ids for context in new_set}
        changed = [
            cid
            for cid, ids in new.items()
            if old.get(cid) != ids or not touched.isdisjoint(ids)
        ]
        changed.extend(cid for cid in old if cid not in new)
        return tuple(changed)

    def _patch_scores(
        self,
        spec: "scoring.ScoreFunctionSpec",
        scores: PrestigeScores,
        paper_set: ContextPaperSet,
        changed_ids: Sequence[str],
        old_rows: PaperRows,
        remap: np.ndarray,
    ) -> PrestigeScores:
        """Re-score only the changed contexts and re-run propagation.

        Valid only for ``delta_scope="contexts"`` functions: their
        per-context scores depend exclusively on structure induced by the
        context's own paper ids, so unchanged contexts keep their
        pre-propagation rows byte-identically, moved from ``old_rows``
        to the set's rows through ``remap`` (-1: removed, which no kept
        row may hold).  Old and fresh rows are spliced in paper-set
        order, so the result equals a from-scratch ``score_all``.
        """
        check_same_rows(scores.paper_rows, old_rows)
        changed = set(changed_ids)
        fresh = spec.factory(self).score_contexts(paper_set, changed)
        sources = (replace(scores.pre, rows=remap[scores.pre.rows]), fresh)
        picks = []
        for context in paper_set:
            source = int(context.term_id in changed)
            row = sources[source].context_row.get(context.term_id)
            if row is not None:
                picks.append((source, row))
        pre = take_rows(sources, picks)
        if (pre.rows < 0).any():
            raise RuntimeError("a kept score row holds a removed paper")
        main = propagate_max(paper_set, pre)
        return PrestigeScores(scores.function_name, paper_set.paper_rows, main, pre)

    # -- installation (workspace hydration) -----------------------------------------

    def install_index(self, index: Optional[InvertedIndex]) -> None:
        with self._build_lock:
            self._index = index
            self._keyword_engine = None  # derived from the index
        self._bump()

    def install_vectors(self, vectors: Optional[PaperVectorStore]) -> None:
        with self._build_lock:
            self._vectors = vectors
        self._bump()

    def install_text_paper_set(self, paper_set: Optional[ContextPaperSet]) -> None:
        with self._build_lock:
            self._text_paper_set = paper_set
        self._bump()

    def install_pattern_paper_set(self, paper_set: Optional[ContextPaperSet]) -> None:
        with self._build_lock:
            self._pattern_paper_set = paper_set
        self._bump()

    def install_scores(self, key: str, scores: PrestigeScores) -> None:
        with self._build_lock:
            self._scores[key] = scores
        self._bump()

    def install_pattern_extractions(self, path: Path) -> None:
        """Seed the pattern memo from ``path`` at the next build or delta.

        Reads nothing now and bumps no revision: no query reads the memo.
        """
        with self._build_lock:
            self._pattern_seed = (Path(path), _stamp(path))

    #: Substrate name (as in the workspace artifact graph) -> raw slot.
    _SLOTS = {
        "index": "_index",
        "vectors": "_vectors",
        "text_paper_set": "_text_paper_set",
        "pattern_paper_set": "_pattern_paper_set",
        "pattern_extractions": "_pattern_seed",
    }

    def has(self, slot: str) -> bool:
        """Is ``slot`` built or installed?  Never triggers a lazy build.

        ``slot`` is a substrate name (``"index"``, ``"vectors"``,
        ...) or a ``<function>/<paper_set>`` score key.
        """
        if "/" in slot:
            return slot in self._scores
        return getattr(self, self._SLOTS[slot]) is not None


def _stamp(path: Path) -> Tuple[int, int, int]:
    """Inode, size and mtime of ``path``: a rewrite changes the inode."""
    stat = os.stat(path)
    return (stat.st_ino, stat.st_size, stat.st_mtime_ns)
