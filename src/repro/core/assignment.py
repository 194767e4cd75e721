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
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.context import Context, ContextPaperSet
from repro.core.cosine import cosine_pairs
from repro.core.patterns import (
    AnalyzedPaperCache,
    PatternMemo,
    PatternSet,
    PatternSetBuilder,
    find_occurrences,
)
from repro.core.representative import select_representative
from repro.core.vectors import PaperVectorStore
from repro.corpus.corpus import Corpus
from repro.index.backend import SearchBackend
from repro.obs import get_logger, get_registry, span
from repro.ontology.ontology import Ontology

logger = get_logger(__name__)


class TextContextAssigner:
    """Builds the text-based context paper set.

    Parameters
    ----------
    similarity_threshold:
        Minimum whole-paper cosine similarity to the representative for a
        paper to join the context.
    candidate_terms:
        Candidate pruning width: papers are only scored if they share one
        of the representative vector's top-``candidate_terms`` terms.  A
        heuristic, not exact: a paper that shares only lower-weighted
        terms is never scored, even when its cosine clears the threshold.
    """

    def __init__(
        self,
        corpus: Corpus,
        ontology: Ontology,
        vectors: PaperVectorStore,
        index: SearchBackend,
        similarity_threshold: float = 0.18,
        candidate_terms: int = 30,
    ) -> None:
        self.corpus = corpus
        self.ontology = ontology
        self.vectors = vectors
        self.index = index
        self.similarity_threshold = similarity_threshold
        self.candidate_terms = candidate_terms
        #: Representative paper chosen per context, populated by build().
        self.representatives: Dict[str, str] = {}
        #: ``index.papers_containing`` per term, memoised for one build():
        #: contexts share candidate terms, and each lookup walks every
        #: posting of the term.
        self._papers_containing: Dict[str, List[str]] = {}

    def build(self, training_papers: Mapping[str, Sequence[str]]) -> ContextPaperSet:
        """Assign papers to every context that has training evidence."""
        started = time.perf_counter()
        registry = get_registry()
        contexts: List[Context] = []
        self.representatives = {}
        self._papers_containing = {}
        with span(
            "assignment.text.build", threshold=self.similarity_threshold
        ) as trace, registry.timer("assignment.text.seconds"):
            for term_id in self.ontology.term_ids():
                training = [
                    pid
                    for pid in training_papers.get(term_id, ())
                    if pid in self.corpus
                ]
                if not training:
                    continue
                representative = select_representative(self.vectors, training)
                if representative is None:
                    continue
                self.representatives[term_id] = representative
                members = self._assign_by_similarity(representative, training)
                contexts.append(
                    Context(
                        term_id=term_id,
                        paper_ids=tuple(members),
                        training_paper_ids=tuple(training),
                    )
                )
            papers_assigned = sum(len(c.paper_ids) for c in contexts)
            trace.set(contexts=len(contexts), papers_assigned=papers_assigned)
        self._papers_containing = {}
        registry.counter("assignment.text.contexts_built").inc(len(contexts))
        registry.counter("assignment.text.papers_assigned").inc(papers_assigned)
        logger.info(
            "text context paper set built",
            contexts=len(contexts),
            papers_assigned=papers_assigned,
            seconds=round(time.perf_counter() - started, 2),
            threshold=self.similarity_threshold,
        )
        return ContextPaperSet(self.ontology, contexts)

    def _assign_by_similarity(
        self, representative: str, training: Sequence[str]
    ) -> List[str]:
        """Papers whose similarity to the representative clears the bar."""
        rows = self.vectors.full_rows
        rep_row = self.vectors.row_of(representative)
        rep_ids, rep_weights = rows.row(rep_row)
        candidates: Set[str] = set(training)
        candidates.add(representative)
        # Rank candidate terms by weight with *term string* tie-breaking:
        # integer term ids depend on vocabulary fit order, which differs
        # between a model fitted from scratch and one reached through
        # incremental corpus deltas, while the strings do not.
        vocabulary = self.vectors.full_model.vocabulary
        ranked = sorted(
            zip(rep_weights.tolist(), map(vocabulary.term_of, rep_ids.tolist())),
            key=lambda item: (-item[0], item[1]),
        )
        for _weight, term in ranked[: self.candidate_terms]:
            papers = self._papers_containing.get(term)
            if papers is None:
                papers = self.index.papers_containing(term)
                self._papers_containing[term] = papers
            candidates.update(papers)
        fixed = set(training)
        fixed.add(representative)
        ordered = sorted(candidates)
        scored = [paper_id for paper_id in ordered if paper_id not in fixed]
        similarities = iter(
            cosine_pairs(
                rows,
                self.vectors.rows_of(scored),
                rows,
                np.full(len(scored), rep_row, dtype=np.int64),
            ).tolist()
        )
        return [
            paper_id
            for paper_id in ordered
            if paper_id in fixed or next(similarities) >= self.similarity_threshold
        ]


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
        index: SearchBackend,
        token_cache: Optional[AnalyzedPaperCache] = None,
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
        self.tokens = (
            token_cache
            if token_cache is not None
            else AnalyzedPaperCache(corpus, index.analyzer)
        )
        # Simplified variant: no extended patterns (section 4).
        self.pattern_builder = (
            pattern_builder
            if pattern_builder is not None
            else PatternSetBuilder(
                ontology,
                corpus,
                index,
                token_cache=self.tokens,
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
        return ContextPaperSet(self.ontology, contexts)

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
