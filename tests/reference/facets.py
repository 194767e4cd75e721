"""Per-pair reference code for the text prestige's set facets.

``TextPrestige`` counts the author and reference overlaps of every
(member, representative) pair at once over integer set rows.  This
module keeps the per-pair set arithmetic it replaced -- the overlap
coefficients, bibliographic coupling and co-citation, the co-author
expansion and the author facet -- which tests compare the batch against
with ``==``.  Jaccard and Dice are the other set measures of the text
substrate; nothing in the package scores with them.
"""

import math
from typing import Iterable, Set

from repro.citations.graph import CitationGraph


def jaccard_similarity(a: Iterable, b: Iterable) -> float:
    """|A ∩ B| / |A ∪ B|; 0.0 when both are empty.

    >>> jaccard_similarity({"a", "b"}, {"b", "c"})
    0.3333333333333333
    """
    set_a, set_b = set(a), set(b)
    union = set_a | set_b
    if not union:
        return 0.0
    return len(set_a & set_b) / len(union)


def dice_coefficient(a: Iterable, b: Iterable) -> float:
    """2|A ∩ B| / (|A| + |B|); 0.0 when both are empty."""
    set_a, set_b = set(a), set(b)
    total = len(set_a) + len(set_b)
    if total == 0:
        return 0.0
    return 2.0 * len(set_a & set_b) / total


def overlap_coefficient(a: Iterable, b: Iterable) -> float:
    """|A ∩ B| / min(|A|, |B|); 0.0 when either set is empty."""
    set_a, set_b = set(a), set(b)
    smaller = min(len(set_a), len(set_b))
    if smaller == 0:
        return 0.0
    return len(set_a & set_b) / smaller


def _cosine_overlap(a: Set[str], b: Set[str]) -> float:
    if not a or not b:
        return 0.0
    return len(a & b) / math.sqrt(len(a) * len(b))


def bibliographic_coupling(graph: CitationGraph, paper_a: str, paper_b: str) -> float:
    """Cosine overlap of the two papers' *outgoing* reference sets."""
    if paper_a == paper_b:
        return 1.0 if len(graph.out_neighbors(paper_a)) > 0 else 0.0
    refs_a = set(graph.out_neighbors(paper_a))
    refs_b = set(graph.out_neighbors(paper_b))
    return _cosine_overlap(refs_a, refs_b)


def cocitation(graph: CitationGraph, paper_a: str, paper_b: str) -> float:
    """Cosine overlap of the two papers' *incoming* citer sets."""
    if paper_a == paper_b:
        return 1.0 if len(graph.in_neighbors(paper_a)) > 0 else 0.0
    citers_a = set(graph.in_neighbors(paper_a))
    citers_b = set(graph.in_neighbors(paper_b))
    return _cosine_overlap(citers_a, citers_b)


def citation_similarity(
    graph: CitationGraph,
    paper_a: str,
    paper_b: str,
    bib_weight: float = 0.5,
) -> float:
    """SimReferences = BibWeight * Sim_bib + (1 - BibWeight) * Sim_coc."""
    if not 0.0 <= bib_weight <= 1.0:
        raise ValueError(f"bib_weight must be in [0, 1], got {bib_weight}")
    return bib_weight * bibliographic_coupling(graph, paper_a, paper_b) + (
        1.0 - bib_weight
    ) * cocitation(graph, paper_a, paper_b)


def coauthors_of(corpus, paper_id: str) -> Set[str]:
    """Authors who co-wrote any paper with any author of ``paper_id``,
    less the paper's own authors (the Level-1 "third paper" relation)."""
    own = set(corpus.paper(paper_id).authors)
    result: Set[str] = set()
    for paper in corpus:
        if own.intersection(paper.authors):
            result.update(paper.authors)
    return result - own


def author_similarity(prestige, paper_a: str, paper_b: str) -> float:
    """SimAuthors = L0Weight * SimL0 + L1Weight * SimL1 of one pair."""
    corpus, w = prestige.corpus, prestige.weights
    authors_a = set(corpus.paper(paper_a).authors)
    authors_b = set(corpus.paper(paper_b).authors)
    level0 = overlap_coefficient(authors_a, authors_b)
    level1 = 0.0
    if w.level1_author:
        forward = overlap_coefficient(authors_a, coauthors_of(corpus, paper_b))
        backward = overlap_coefficient(authors_b, coauthors_of(corpus, paper_a))
        level1 = (forward + backward) / 2.0
    return w.level0_author * level0 + w.level1_author * level1


def facet_similarity(prestige, total: float, paper_id: str, representative: str) -> float:
    """``total`` (the cosine facets' sum) plus the author and reference facets."""
    w = prestige.weights
    if w.authors:
        total += w.authors * author_similarity(prestige, paper_id, representative)
    if w.references:
        total += w.references * citation_similarity(
            prestige.graph, paper_id, representative, bib_weight=w.bibliographic
        )
    return total
