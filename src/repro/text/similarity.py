"""Set- and vector-based similarity measures.

The text-based prestige function (paper section 3.2) combines cosine TF-IDF
similarities (``SparseVector.cosine`` and its batch kernel,
:mod:`repro.core.cosine`) with set overlaps (authors, references); the
overlap measures here are also reused by bibliographic coupling and
co-citation.
"""

from __future__ import annotations

from typing import Iterable, Set, Union

SetLike = Union[Set, frozenset]


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
    """|A ∩ B| / min(|A|, |B|); 0.0 when either set is empty.

    The natural choice for author overlap, where the two papers' author
    lists can have very different sizes.
    """
    set_a, set_b = set(a), set(b)
    smaller = min(len(set_a), len(set_b))
    if smaller == 0:
        return 0.0
    return len(set_a & set_b) / smaller
