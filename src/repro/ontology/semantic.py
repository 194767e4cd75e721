"""Information-content semantic similarity between ontology terms.

The paper already uses Resnik's information content (reference [13]) to
quantify informativeness decay; this module completes the classic IC
similarity family over the same machinery:

- **Resnik** -- IC of the most informative common ancestor (MICA);
- **Lin**    -- ``2 * IC(MICA) / (IC(a) + IC(b))``, normalised to [0, 1].

These are the standard tools for grading how related two GO contexts are
-- e.g. a finer-grained weighting schedule for the section-7 extension
than the binary hierarchically-related test.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.ontology.ontology import Ontology


def common_ancestors(ontology: Ontology, a: str, b: str) -> Set[str]:
    """Shared ancestors of ``a`` and ``b`` (each including itself)."""
    return ontology.ancestors(a, include_self=True) & ontology.ancestors(
        b, include_self=True
    )


def most_informative_common_ancestor(
    ontology: Ontology, a: str, b: str
) -> Optional[str]:
    """The common ancestor with the highest information content (MICA).

    None when the terms share no ancestor (different roots).  Ties break
    on term id for determinism.
    """
    shared = common_ancestors(ontology, a, b)
    if not shared:
        return None
    return max(
        sorted(shared), key=lambda tid: ontology.information_content(tid)
    )


def resnik_similarity(ontology: Ontology, a: str, b: str) -> float:
    """IC of the MICA; 0.0 for terms with no common ancestor."""
    mica = most_informative_common_ancestor(ontology, a, b)
    if mica is None:
        return 0.0
    return ontology.information_content(mica)


def lin_similarity(ontology: Ontology, a: str, b: str) -> float:
    """Lin's normalised similarity in [0, 1].

    1.0 for a term with itself (when it has positive IC); 0.0 for
    unrelated terms or when either term is a root (IC 0, nothing to
    share).
    """
    denominator = ontology.information_content(a) + ontology.information_content(b)
    if denominator == 0.0:
        return 0.0
    return 2.0 * resnik_similarity(ontology, a, b) / denominator
