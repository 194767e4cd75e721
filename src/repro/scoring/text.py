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
per section.  The author and reference facets are set overlaps, counted
for every pair at once over integer set rows (:class:`SetRows`): each
paper's authors, their co-author expansion, its references and its
citers.  Facets are added in the order above, starting from 0.0, with
each pair's arithmetic in the order a per-pair loop does it, so every
score is the per-pair float.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional

import numpy as np

from repro.citations.graph import CitationGraph
from repro.core.context import Context
from repro.core.cosine import cosine_pairs
from repro.obs import get_registry
from repro.scoring.base import PrestigeScoreFunction
from repro.core.vectors import PaperVectorStore
from repro.corpus.corpus import Corpus
from repro.corpus.rows import check_same_rows, csr_positions, indptr_of
from repro.corpus.paper import Section


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
    """Multi-facet similarity to the context's representative paper.

    ``graph`` must number its nodes by ``corpus.paper_rows`` (as
    :meth:`CitationGraph.from_corpus` does); another raises ``ValueError``.
    """

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
        check_same_rows(graph.paper_rows, corpus.paper_rows)
        self.corpus = corpus
        self.vectors = vectors
        self.graph = graph
        self.representatives = dict(representatives)
        self.weights = weights if weights is not None else FacetWeights()
        self.weights.validate()
        self._facet_sets: Optional[_FacetSets] = None

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
        paper_rows = self.vectors.paper_rows
        member_rows = paper_rows.rows(members)
        rep_rows = paper_rows.rows(representatives)
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
        if w.authors or w.references:
            facets = self._facets()
            check_same_rows(facets.paper_rows, paper_rows)
            if w.authors:
                totals += w.authors * facets.author_similarity(
                    member_rows, rep_rows, w
                )
            if w.references:
                totals += w.references * facets.reference_similarity(
                    member_rows, rep_rows, w.bibliographic
                )
            get_registry().counter("text.facets.pairs").inc(len(members))
        return totals.tolist()

    def _facets(self) -> "_FacetSets":
        if self._facet_sets is None:
            self._facet_sets = _FacetSets(self.corpus, self.graph)
        return self._facet_sets


class SetRows:
    """Sets of small integers as sorted CSR rows.

    Row ``r`` is ``keys[indptr[r]:indptr[r + 1]] - r * bound``: each entry
    is stored as the key ``r * bound + item``, so the keys of all rows
    form one sorted array that a probe for ``(row, item)`` can
    ``searchsorted``.  ``items`` must lie in ``[0, bound)``.
    """

    def __init__(
        self, rows: np.ndarray, items: np.ndarray, n_rows: int, bound: int
    ) -> None:
        self.bound = max(bound, 1)
        self.keys = np.unique(rows * self.bound + items)
        self.sizes = np.bincount(self.keys // self.bound, minlength=n_rows)
        self.indptr = indptr_of(self.sizes)

    def intersections(
        self, rows: np.ndarray, other: "SetRows", other_rows: np.ndarray
    ) -> np.ndarray:
        """``|self[rows[i]] & other[other_rows[i]]|`` for each ``i``.

        The two families must share an item space (equal ``bound``).
        """
        if not len(other.keys):
            return np.zeros(len(rows), dtype=np.int64)
        positions, counts = csr_positions(self.indptr, rows)
        pair = np.repeat(np.arange(len(rows)), counts)
        probes = other_rows[pair] * other.bound + self.keys[positions] % self.bound
        at = np.searchsorted(other.keys, probes)
        found = other.keys[np.minimum(at, len(other.keys) - 1)] == probes
        return np.bincount(pair[found], minlength=len(rows))


def _overlap_coefficient(
    inter: np.ndarray, size_a: np.ndarray, size_b: np.ndarray
) -> np.ndarray:
    """|A & B| / min(|A|, |B|); 0.0 when either set is empty."""
    smaller = np.minimum(size_a, size_b)
    result = np.zeros(len(inter))
    np.divide(inter, smaller, out=result, where=smaller > 0)
    return result


def _cosine_overlap(
    inter: np.ndarray, size_a: np.ndarray, size_b: np.ndarray, same: np.ndarray
) -> np.ndarray:
    """|A & B| / sqrt(|A| |B|), 0.0 when either set is empty.

    A paper paired with itself scores 1.0 if its set is non-empty.
    """
    product = size_a * size_b
    result = np.zeros(len(inter))
    np.divide(inter, np.sqrt(product), out=result, where=product > 0)
    result[same] = (size_a[same] > 0).astype(float)
    return result


class _FacetSets:
    """The author and reference facets' sets, as :class:`SetRows` families.

    Rows are the corpus's ``paper_rows``, which are the citation graph's
    node rows too.  Authors are interned to integers in first-seen order;
    references and citers are rows.
    """

    def __init__(self, corpus: Corpus, graph: CitationGraph) -> None:
        self.paper_rows = corpus.paper_rows
        check_same_rows(graph.paper_rows, self.paper_rows)
        n = len(self.paper_rows)

        author_id: Dict[str, int] = {}
        lists = [
            [author_id.setdefault(a, len(author_id)) for a in paper.authors]
            for paper in corpus
        ]
        sizes = np.fromiter(map(len, lists), dtype=np.int64, count=n)
        rows = np.repeat(np.arange(n, dtype=np.int64), sizes)
        items = np.fromiter(
            (a for ids in lists for a in ids), dtype=np.int64, count=int(sizes.sum())
        )
        n_authors = len(author_id)
        self.authors = SetRows(rows, items, n, n_authors)
        self.coauthors = self._expand(self.authors, n, n_authors)

        citing = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.out_indptr))
        self.references = SetRows(citing, graph.out_targets, n, n)
        self.citers = SetRows(graph.out_targets, citing, n, n)

    @staticmethod
    def _expand(authors: SetRows, n: int, n_authors: int) -> SetRows:
        """Each paper's co-author expansion, Level-1's "third paper" relation.

        The authors of every paper sharing an author with it, less its
        own authors.
        """
        paper_of = np.repeat(np.arange(n, dtype=np.int64), authors.sizes)
        author_of = authors.keys % authors.bound
        by_author = np.argsort(author_of, kind="stable")
        author_indptr = indptr_of(np.bincount(author_of, minlength=n_authors))
        # (paper, author) -> (paper, paper sharing that author), deduplicated.
        positions, counts = csr_positions(author_indptr, author_of)
        shared = np.unique(
            np.repeat(paper_of, counts) * max(n, 1) + paper_of[by_author][positions]
        )
        papers, others = np.divmod(shared, max(n, 1))
        # -> (paper, author of the sharing paper).
        positions, counts = csr_positions(authors.indptr, others)
        expanded = SetRows(
            np.repeat(papers, counts), author_of[positions], n, n_authors
        )
        own = np.isin(expanded.keys, authors.keys, assume_unique=True)
        keys = expanded.keys[~own]
        return SetRows(keys // expanded.bound, keys % expanded.bound, n, n_authors)

    def author_similarity(
        self, rows_a: np.ndarray, rows_b: np.ndarray, w: FacetWeights
    ) -> np.ndarray:
        """SimAuthors = L0Weight * SimL0 + L1Weight * SimL1, per pair.

        Level-0: overlap of the two author sets.  Level-1: the mean of
        each paper's author overlap with the other's co-author expansion
        (authors who share a third paper with them).
        """
        authors, coauthors = self.authors, self.coauthors
        size_a, size_b = authors.sizes[rows_a], authors.sizes[rows_b]
        level0 = _overlap_coefficient(
            authors.intersections(rows_a, authors, rows_b), size_a, size_b
        )
        level1 = np.zeros(len(rows_a))
        if w.level1_author:
            forward = _overlap_coefficient(
                authors.intersections(rows_a, coauthors, rows_b),
                size_a,
                coauthors.sizes[rows_b],
            )
            backward = _overlap_coefficient(
                authors.intersections(rows_b, coauthors, rows_a),
                size_b,
                coauthors.sizes[rows_a],
            )
            level1 = (forward + backward) / 2.0
        return w.level0_author * level0 + w.level1_author * level1

    def reference_similarity(
        self, rows_a: np.ndarray, rows_b: np.ndarray, bib_weight: float
    ) -> np.ndarray:
        """SimReferences = BibWeight * Sim_bib + (1 - BibWeight) * Sim_coc.

        Bibliographic coupling (Kessler) is the cosine overlap of the two
        papers' reference sets; co-citation (Small) that of their citer
        sets.
        """
        same = rows_a == rows_b
        bib, coc = (
            _cosine_overlap(
                family.intersections(rows_a, family, rows_b),
                family.sizes[rows_a],
                family.sizes[rows_b],
                same,
            )
            for family in (self.references, self.citers)
        )
        return bib_weight * bib + (1.0 - bib_weight) * coc
