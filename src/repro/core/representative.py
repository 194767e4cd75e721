"""Representative-paper selection.

Section 3.2: "a paper that best characterizes the context is selected as a
representative paper of the context".  Contexts are short phrases, far too
short for TF-IDF comparison against full papers, so the representative
stands in for the context term.

Selection rule: among the context's candidate papers (its training /
annotation-evidence papers), pick the paper whose whole-paper vector is
closest to the candidates' centroid -- the medoid-by-centroid-proximity
rule.  Ties break on paper id for determinism.  The text-based builder
stores the choice on each context
(:attr:`~repro.core.context.Context.representative`).  Every context's
centroid is one row of a batched
:meth:`~repro.core.cosine.VectorRows.centroids`, and every candidate's
cosine to its centroid comes from one
:func:`~repro.core.cosine.cosine_pairs` call.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Optional, Sequence

import numpy as np

from repro.core.cosine import cosine_pairs
from repro.core.vectors import PaperVectorStore


def representatives_of(
    vectors: PaperVectorStore, candidate_lists: Sequence[Sequence[str]]
) -> List[Optional[str]]:
    """:func:`select_representative` of every candidate list, batched.

    Candidates with empty vectors (no analysable text) lose against any
    candidate with text, but a lone text-less candidate is still chosen:
    a degenerate representative beats none for downstream bookkeeping.
    """
    groups = [list(dict.fromkeys(ids)) for ids in candidate_lists]
    chosen: List[Optional[str]] = [
        group[0] if len(group) == 1 else None for group in groups
    ]
    scored = [i for i, group in enumerate(groups) if len(group) > 1]
    if not scored:
        return chosen
    rows, paper_rows = vectors.full_rows, vectors.paper_rows
    sizes = [len(groups[i]) for i in scored]
    centers = rows.centroids(
        paper_rows.rows(chain.from_iterable(groups[i] for i in scored)), sizes
    )
    ordered = [pid for i in scored for pid in sorted(groups[i])]
    owner = np.repeat(np.arange(len(scored)), sizes)
    similarities = cosine_pairs(rows, paper_rows.rows(ordered), centers, owner)
    # Per group, the highest similarity, the first in paper-id order on a tie.
    best = np.lexsort((np.arange(len(ordered)), -similarities, owner))
    firsts = best[np.flatnonzero(np.diff(owner[best], prepend=-1))]
    for i, first in zip(scored, firsts.tolist()):
        chosen[i] = ordered[first]
    return chosen


def select_representative(
    vectors: PaperVectorStore, candidate_ids: Sequence[str]
) -> Optional[str]:
    """The candidate closest to the candidates' centroid (None if empty)."""
    return representatives_of(vectors, [candidate_ids])[0]
