"""Text-based prestige (section 3.2).

The prestige of paper PX in context C is its weighted similarity to C's
representative paper PC across six facets:

    Sim(PX, PC) = sum_i weight_i * Sim_i(PX, PC)
    i in {title, abstract, body, index terms, authors, references}

- the four textual facets use cosine TF-IDF (per-section models);
- authors use Level-0 (shared authors) and Level-1 (co-authorship via a
  third paper) overlap:
      SimAuthors = L0Weight * SimL0 + L1Weight * SimL1
- references use bibliographic coupling + co-citation:
      SimReferences = BibWeight * Sim_bib + (1 - BibWeight) * Sim_coc

The four cosine facets of every (member, representative) pair of a batch
of contexts come from one :func:`~repro.core.cosine.cosine_pairs` call
per section; the author and reference facets stay per pair.  Facets are
added in the order above, starting from 0.0, exactly as a per-pair loop
adds them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional

import numpy as np

from repro.citations.coupling import citation_similarity
from repro.citations.graph import CitationGraph
from repro.core.context import Context
from repro.core.cosine import cosine_pairs
from repro.scoring.base import PrestigeScoreFunction
from repro.core.vectors import PaperVectorStore
from repro.corpus.corpus import Corpus
from repro.corpus.paper import Section
from repro.text.similarity import overlap_coefficient


@dataclass(frozen=True)
class FacetWeights:
    """Weights of the six similarity facets plus the sub-facet splits.

    Defaults spread weight across content facets with body and abstract
    dominating (they carry most of a paper's signal), and modest weight on
    social facets -- the weighting regime the paper's earlier work [7]
    used for publication similarity.
    """

    title: float = 0.15
    abstract: float = 0.25
    body: float = 0.30
    index_terms: float = 0.10
    authors: float = 0.10
    references: float = 0.10
    #: L0Weight / L1Weight inside the author facet.
    level0_author: float = 0.7
    level1_author: float = 0.3
    #: BibWeight inside the reference facet.
    bibliographic: float = 0.5

    def validate(self) -> None:
        for name in (
            "title", "abstract", "body", "index_terms", "authors", "references",
            "level0_author", "level1_author", "bibliographic",
        ):
            value = getattr(self, name)
            if value < 0.0:
                raise ValueError(f"facet weight {name} must be >= 0, got {value}")
        if self.bibliographic > 1.0:
            raise ValueError("bibliographic weight is a fraction in [0, 1]")


class TextPrestige(PrestigeScoreFunction):
    """Multi-facet similarity to the context's representative paper."""

    name = "text"
    #: The weighted facet similarity is already a [0, 1] score -- cosine
    #: and overlap facets are bounded and the weights sum to about 1 -- so
    #: scores are used raw, exactly as Sim(PX, PC) defines them.
    normalization = "none"

    def __init__(
        self,
        corpus: Corpus,
        vectors: PaperVectorStore,
        graph: CitationGraph,
        representatives: Mapping[str, str],
        weights: Optional[FacetWeights] = None,
    ) -> None:
        self.corpus = corpus
        self.vectors = vectors
        self.graph = graph
        self.representatives = dict(representatives)
        self.weights = weights if weights is not None else FacetWeights()
        self.weights.validate()
        self._coauthor_cache: Dict[str, frozenset] = {}

    def score_context(self, context: Context) -> Dict[str, float]:
        return self.score_batch([context])[0]

    def score_batch(self, contexts: Iterable[Context]) -> List[Dict[str, float]]:
        """Sim(PX, PC) of every member of every context, in one batch.

        A context without a representative in the corpus scores ``{}``.
        """
        contexts = list(contexts)
        members: List[str] = []
        representatives: List[str] = []
        spans = []
        for context in contexts:
            representative = self.representatives.get(context.term_id)
            start = len(members)
            if representative is not None and representative in self.corpus:
                members.extend(context.paper_ids)
                representatives.extend([representative] * len(context.paper_ids))
            spans.append((start, len(members)))
        totals = self._similarities(members, representatives)
        return [
            dict(zip(members[start:end], totals[start:end]))
            for start, end in spans
        ]

    # -- the composite similarity --------------------------------------------------

    def _similarities(
        self, members: List[str], representatives: List[str]
    ) -> List[float]:
        """Sim(PX, PC) for each ``(members[i], representatives[i])`` pair."""
        w = self.weights
        member_rows = self.vectors.rows_of(members)
        rep_rows = self.vectors.rows_of(representatives)
        totals = np.zeros(len(members))
        for weight, section in (
            (w.title, Section.TITLE),
            (w.abstract, Section.ABSTRACT),
            (w.body, Section.BODY),
            (w.index_terms, Section.INDEX_TERMS),
        ):
            if weight:
                rows = self.vectors.section_rows(section)
                totals += weight * cosine_pairs(rows, member_rows, rows, rep_rows)
        result = totals.tolist()
        if w.authors or w.references:
            for i, (paper_id, representative) in enumerate(
                zip(members, representatives)
            ):
                total = result[i]
                if w.authors:
                    total += w.authors * self.author_similarity(
                        paper_id, representative
                    )
                if w.references:
                    total += w.references * citation_similarity(
                        self.graph, paper_id, representative,
                        bib_weight=w.bibliographic,
                    )
                result[i] = total
        return result

    def author_similarity(self, paper_a: str, paper_b: str) -> float:
        """SimAuthors = L0Weight * SimL0 + L1Weight * SimL1.

        Level-0: overlap of the two author lists.  Level-1: overlap
        between each paper's authors and the *co-author expansion* of the
        other's (authors who share a third paper with them).
        """
        authors_a = set(self.corpus.paper(paper_a).authors)
        authors_b = set(self.corpus.paper(paper_b).authors)
        w = self.weights
        level0 = overlap_coefficient(authors_a, authors_b)
        level1 = 0.0
        if w.level1_author:
            expanded_a = self._coauthors(paper_a)
            expanded_b = self._coauthors(paper_b)
            forward = overlap_coefficient(authors_a, expanded_b)
            backward = overlap_coefficient(authors_b, expanded_a)
            level1 = (forward + backward) / 2.0
        return w.level0_author * level0 + w.level1_author * level1

    def _coauthors(self, paper_id: str) -> frozenset:
        cached = self._coauthor_cache.get(paper_id)
        if cached is None:
            cached = frozenset(self.corpus.coauthors_of(paper_id))
            self._coauthor_cache[paper_id] = cached
        return cached
