"""Context paper set construction (the two builders of section 4).

**Text-based context paper set** -- papers are assigned to a context by
text similarity to the context's *representative paper*.  Only contexts
with at least one training (annotation-evidence) paper get a
representative, mirroring the 5,632-context limitation in the paper.

**Pattern-based context paper set** -- the *simplified* pattern technique
of section 4: patterns are built without extended joins, matching
considers only middle tuples, descendant contexts' papers roll up into
ancestors, and a context with zero papers inherits its closest ancestor's
paper set with the RateOfDecay informativeness discount applied to its
scores.
"""

from __future__ import annotations

import time
from itertools import chain
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.context import Context, ContextPaperSet
from repro.core.cosine import cosines_at_least
from repro.core.patterns import (
    PatternMemo,
    PatternSet,
    PatternSetBuilder,
    find_occurrences,
)
from repro.core.representative import representatives_of
from repro.core.vectors import PaperVectorStore
from repro.corpus.corpus import Corpus
from repro.corpus.rows import indptr_of
from repro.index.inverted import InvertedIndex
from repro.obs import get_logger, get_registry, span
from repro.ontology.ontology import Ontology
from repro.text.analyze import AnalyzedPaperCache

logger = get_logger(__name__)


def check_similarity_threshold(threshold: float) -> float:
    """``threshold`` if it is in (0, 1], else a ``ValueError``.

    Every paper's cosine to a representative is at least 0, so a
    threshold <= 0 would put every paper in every context.
    """
    if not 0.0 < threshold <= 1.0:  # also rejects NaN
        raise ValueError(
            f"text similarity threshold must be in (0, 1], got {threshold!r}"
        )
    return threshold


class TextContextAssigner:
    """Builds the text-based context paper set.

    A context's papers are its training papers, its representative and
    every paper whose whole-paper cosine to the representative is at
    least ``similarity_threshold`` (in (0, 1]).  Every context's
    :attr:`~repro.core.context.Context.representative` comes from one
    batched
    :func:`~repro.core.representative.representatives_of` call, and
    every (context, paper) pair is decided by one
    :func:`~repro.core.cosine.cosines_at_least` pass, exactly as the
    per-pair ``SparseVector.cosine`` would decide it.
    """

    def __init__(
        self,
        corpus: Corpus,
        ontology: Ontology,
        vectors: PaperVectorStore,
        similarity_threshold: float,
    ) -> None:
        self.corpus = corpus
        self.ontology = ontology
        self.vectors = vectors
        self.similarity_threshold = check_similarity_threshold(similarity_threshold)

    def build(self, training_papers: Mapping[str, Sequence[str]]) -> ContextPaperSet:
        """Assign papers to every context that has training evidence."""
        started = time.perf_counter()
        registry = get_registry()
        with span(
            "assignment.text.build", threshold=self.similarity_threshold
        ) as trace, registry.timer("assignment.text.seconds"):
            trained: List[Tuple[str, List[str]]] = []
            for term_id in self.ontology.term_ids():
                training = [
                    pid
                    for pid in training_papers.get(term_id, ())
                    if pid in self.corpus
                ]
                if training:
                    trained.append((term_id, training))
            chosen = representatives_of(
                self.vectors, [training for _, training in trained]
            )
            paper_rows = self.vectors.paper_rows
            n = len(paper_rows)
            hubs, members, borderline = cosines_at_least(
                self.vectors.full_rows,
                paper_rows.rows(chosen),
                self.similarity_threshold,
            )
            # Training papers and the representative always belong; list
            # every context's members in paper-id order.
            fixed = [training + [rep] for (_, training), rep in zip(trained, chosen)]
            hubs = np.concatenate(
                [hubs, np.repeat(np.arange(len(fixed)), [len(f) for f in fixed])]
            )
            members = np.concatenate(
                [members, paper_rows.rows(chain.from_iterable(fixed))]
            )
            keys = np.unique(hubs * n + paper_rows.rank[members])
            bounds = indptr_of(np.bincount(keys // n, minlength=len(fixed))).tolist()
            by_rank = np.argsort(paper_rows.rank)
            ranked = [paper_rows.ids[row] for row in by_rank[keys % n].tolist()]
            contexts = [
                Context(
                    term_id=term_id,
                    paper_ids=tuple(ranked[a:b]),
                    training_paper_ids=tuple(training),
                    representative=representative,
                )
                for (term_id, training), representative, a, b in zip(
                    trained, chosen, bounds, bounds[1:]
                )
            ]
            papers_assigned = sum(len(c.paper_ids) for c in contexts)
            trace.set(
                contexts=len(contexts),
                papers_assigned=papers_assigned,
                pairs_scored=len(trained) * n,
                borderline_pairs=borderline,
            )
        registry.counter("assignment.text.contexts_built").inc(len(contexts))
        registry.counter("assignment.text.papers_assigned").inc(papers_assigned)
        registry.counter("assignment.text.borderline_pairs").inc(borderline)
        logger.info(
            "text context paper set built",
            contexts=len(contexts),
            papers_assigned=papers_assigned,
            seconds=round(time.perf_counter() - started, 2),
            threshold=self.similarity_threshold,
        )
        return ContextPaperSet(self.ontology, contexts, paper_rows)


class PatternContextAssigner:
    """Builds the (simplified) pattern-based context paper set.

    ``memo`` is the :class:`PatternMemo` handed to the default
    :class:`PatternSetBuilder` (see its ``memo`` parameter); a caller
    passing its own ``pattern_builder`` gives it the memo there.
    """

    def __init__(
        self,
        corpus: Corpus,
        ontology: Ontology,
        index: InvertedIndex,
        token_cache: AnalyzedPaperCache,
        pattern_builder: Optional[PatternSetBuilder] = None,
        max_middle_coverage: float = 0.08,
        memo: Optional[PatternMemo] = None,
    ) -> None:
        if not max_middle_coverage >= 0:  # also rejects NaN
            raise ValueError(
                f"max_middle_coverage must be >= 0, got {max_middle_coverage}"
            )
        if pattern_builder is not None and memo is not None:
            raise ValueError("pass the memo to the pattern_builder instead")
        #: Middles occurring in more than this fraction of the corpus are
        #: too unselective to define context membership ("process" alone
        #: must not pull every paper into a context).  Their patterns still
        #: contribute to *scores* -- near-nothing, via (1/coverage)^t --
        #: but they do not decide membership.
        self.max_middle_coverage = max_middle_coverage
        self.corpus = corpus
        self.ontology = ontology
        self.index = index
        self.tokens = token_cache
        # Simplified variant: no extended patterns (section 4).
        self.pattern_builder = (
            pattern_builder
            if pattern_builder is not None
            else PatternSetBuilder(
                ontology,
                index,
                token_cache,
                build_extended=False,
                memo=memo,
            )
        )
        #: PatternSet per context, populated by build() (reused by the
        #: pattern prestige function so patterns are built exactly once).
        self.pattern_sets: Dict[str, PatternSet] = {}

    def build(self, training_papers: Mapping[str, Sequence[str]]) -> ContextPaperSet:
        """Match, roll up descendants, and apply ancestor fallback."""
        started = time.perf_counter()
        registry = get_registry()
        with span("assignment.pattern.build") as trace, registry.timer(
            "assignment.pattern.seconds"
        ):
            own_matches: Dict[str, Set[str]] = {}
            training_clean: Dict[str, List[str]] = {}
            self.pattern_sets = {}
            with span("assignment.pattern.match") as match_trace:
                for term_id in self.ontology.term_ids():
                    training = [
                        pid
                        for pid in training_papers.get(term_id, ())
                        if pid in self.corpus
                    ]
                    training_clean[term_id] = training
                    pattern_set = self.pattern_builder.build(term_id, training)
                    self.pattern_sets[term_id] = pattern_set
                    own_matches[term_id] = self._match_corpus(pattern_set)
                matched_total = sum(len(m) for m in own_matches.values())
                match_trace.set(papers_matched=matched_total)
            registry.counter("assignment.pattern.papers_matched").inc(
                matched_total
            )

            # Descendant roll-up: a context's papers include its subtree's.
            rolled: Dict[str, Set[str]] = {}
            for term_id in self.ontology.term_ids():
                papers = set(own_matches[term_id])
                for descendant in self.ontology.descendants(term_id):
                    papers.update(own_matches[descendant])
                rolled[term_id] = papers

            contexts: List[Context] = []
            for term_id in self.ontology.term_ids():
                papers = rolled[term_id]
                inherited_from: Optional[str] = None
                decay = 1.0
                if not papers:
                    ancestor = self._closest_nonempty_ancestor(term_id, rolled)
                    if ancestor is not None:
                        papers = rolled[ancestor]
                        inherited_from = ancestor
                        decay = self.ontology.rate_of_decay(ancestor, term_id)
                if not papers:
                    continue
                contexts.append(
                    Context(
                        term_id=term_id,
                        paper_ids=tuple(sorted(papers)),
                        training_paper_ids=tuple(training_clean[term_id]),
                        inherited_from=inherited_from,
                        decay=decay,
                    )
                )
            inherited = sum(1 for c in contexts if c.inherited_from is not None)
            papers_assigned = sum(len(c.paper_ids) for c in contexts)
            trace.set(
                contexts=len(contexts),
                inherited=inherited,
                papers_assigned=papers_assigned,
            )
        registry.counter("assignment.pattern.contexts_built").inc(len(contexts))
        registry.counter("assignment.pattern.contexts_inherited").inc(inherited)
        registry.counter("assignment.pattern.papers_assigned").inc(papers_assigned)
        logger.info(
            "pattern context paper set built",
            contexts=len(contexts),
            inherited=inherited,
            papers_assigned=papers_assigned,
            seconds=round(time.perf_counter() - started, 2),
        )
        return ContextPaperSet(self.ontology, contexts, self.corpus.paper_rows)

    # -- matching ------------------------------------------------------------------

    def _match_corpus(self, pattern_set: PatternSet) -> Set[str]:
        """Papers containing any pattern middle tuple (contiguously).

        Candidates come from conjunctive index lookups per middle, then
        each candidate is verified against its analysed token stream, so
        the result is exact phrase matching at index-lookup cost.  The
        stream is all sections joined, so a middle may straddle two of
        them here, although such an occurrence scores nothing.  A middle
        is cut by its kept coverage count before any lookup.
        """
        matched: Set[str] = set()
        n_papers = max(self.index.n_papers, 1)
        max_candidates = self.max_middle_coverage * n_papers
        builder = self.pattern_builder
        for middle in pattern_set.middles():
            if not middle or builder.coverage_count(middle) > max_candidates:
                continue
            candidates = builder.papers_containing_all(middle)
            for paper_id in candidates - matched:
                if len(middle) == 1:
                    matched.add(paper_id)
                    continue
                if find_occurrences(self.tokens.all_tokens(paper_id), middle):
                    matched.add(paper_id)
        return matched

    def _closest_nonempty_ancestor(
        self, term_id: str, rolled: Mapping[str, Set[str]]
    ) -> Optional[str]:
        """Nearest ancestor (by level, deepest first) with papers."""
        ancestors = sorted(
            self.ontology.ancestors(term_id),
            key=lambda tid: (-self.ontology.level(tid), tid),
        )
        for ancestor in ancestors:
            if rolled.get(ancestor):
                return ancestor
        return None
