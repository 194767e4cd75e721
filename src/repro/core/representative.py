"""Representative-paper selection.

Section 3.2: "a paper that best characterizes the context is selected as a
representative paper of the context".  Contexts are short phrases, far too
short for TF-IDF comparison against full papers, so the representative
stands in for the context term.

Selection rule: among the context's candidate papers (its training /
annotation-evidence papers when available, otherwise its assigned papers),
pick the paper whose whole-paper vector is closest to the candidates'
centroid -- the medoid-by-centroid-proximity rule.  Ties break on paper id
for determinism.  Every candidate's cosine to the centroid comes from one
:func:`~repro.core.cosine.cosine_pairs` call.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from repro.core.context import ContextPaperSet
from repro.core.cosine import cosine_pairs
from repro.core.vectors import PaperVectorStore


def select_representative(
    vectors: PaperVectorStore, candidate_ids: Sequence[str]
) -> Optional[str]:
    """The candidate closest to the candidates' centroid (None if empty).

    Candidates with empty vectors (no analysable text) lose against any
    candidate with text, but a lone text-less candidate is still returned:
    a degenerate representative beats none for downstream bookkeeping.
    """
    candidates = list(dict.fromkeys(candidate_ids))
    if not candidates:
        return None
    if len(candidates) == 1:
        return candidates[0]
    ordered = sorted(candidates)
    rows = vectors.full_rows
    center = rows.centroid(vectors.rows_of(candidates))
    similarities = cosine_pairs(
        rows, vectors.rows_of(ordered), center, np.zeros(len(ordered), dtype=np.int64)
    )
    best_id: Optional[str] = None
    best_similarity = -1.0
    for paper_id, similarity in zip(ordered, similarities.tolist()):
        if similarity > best_similarity:
            best_similarity = similarity
            best_id = paper_id
    return best_id


def select_representatives(
    vectors: PaperVectorStore,
    paper_set: ContextPaperSet,
    prefer_training: bool = True,
) -> Dict[str, str]:
    """Representative paper per context id.

    Contexts with no candidates at all are omitted from the result (the
    text-based score function cannot be evaluated for them -- exactly the
    situation section 4 describes for the pattern-based context paper set,
    where text scores were only assigned to the 5,632 contexts that had a
    representative).
    """
    representatives: Dict[str, str] = {}
    for context in paper_set:
        candidates: Iterable[str] = (
            context.training_paper_ids
            if prefer_training and context.training_paper_ids
            else context.paper_ids
        )
        chosen = select_representative(vectors, list(candidates))
        if chosen is not None:
            representatives[context.term_id] = chosen
    return representatives
