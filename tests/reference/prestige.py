"""Dict reference for the prestige-table stages, and table helpers.

:mod:`repro.scoring.base` builds, normalises, decays, blends, patches and
max-propagates score tables as :class:`~repro.scoring.base.ScoreRows`.
This module keeps the per-entry dict loops those stages replaced, as the
reference ``tests/test_prestige_rows_reference.py`` compares them with,
the conversions tests use to read and write tables as
``{context: {paper: score}}`` maps, and :class:`ReferenceCombined`, the
per-context recompute ``combined`` replaced: fresh component scorers
re-score every context and their normalised scores are summed.
"""

from itertools import chain
from typing import Dict, Mapping, Optional

import numpy as np

from repro.core.context import Context
from repro.corpus.rows import PaperRows
from repro.scoring import PrestigeScoreFunction, PrestigeScores, ScoreRows

Maps = Dict[str, Dict[str, float]]


def max_normalize(scores: Mapping[str, float]) -> Dict[str, float]:
    """x / max with negatives floored at 0.0; a non-positive max maps to 0.0."""
    if not scores:
        return {}
    high = max(scores.values())
    if high <= 0.0:
        return {paper_id: 0.0 for paper_id in scores}
    return {pid: max(value, 0.0) / high for pid, value in scores.items()}


NORMALIZERS = {
    "max": max_normalize,
    "none": dict,
}


class ReferenceCombined(PrestigeScoreFunction):
    """The per-context recompute loop: blend fresh component scores."""

    name = "combined"
    #: Components are normalised individually; the blend is used as-is.
    normalization = "none"

    def __init__(self, components) -> None:
        self.components = components

    def score_context(self, context: Context) -> Dict[str, float]:
        blended: Dict[str, float] = {}
        for scorer, weight in self.components:
            raw = scorer.score_context(context)
            if not raw:
                continue
            normalised = NORMALIZERS[scorer.normalization](raw)
            for paper_id, value in normalised.items():
                blended[paper_id] = blended.get(paper_id, 0.0) + weight * value
        return blended


def score_each(scorer, contexts) -> Maps:
    """Normalised, decayed scores per scored context, in context order."""
    by_context: Maps = {}
    contexts = list(contexts)
    for context, raw in zip(contexts, scorer.score_batch(contexts)):
        if not raw:
            continue
        scored = NORMALIZERS[scorer.normalization](raw)
        if context.decay != 1.0:
            scored = {pid: s * context.decay for pid, s in scored.items()}
        by_context[context.term_id] = scored
    return by_context


def propagate_max_over_descendants(paper_set, by_context: Maps) -> Maps:
    """Each score becomes the max over the context and its descendants."""
    result: Maps = {}
    for context_id, scores in by_context.items():
        merged = dict(scores)
        for descendant_id in paper_set.descendants_in_set(context_id):
            descendant_scores = by_context.get(descendant_id)
            if not descendant_scores:
                continue
            for paper_id in merged:
                candidate = descendant_scores.get(paper_id)
                if candidate is not None and candidate > merged[paper_id]:
                    merged[paper_id] = candidate
        result[context_id] = merged
    return result


def blend(paper_set, components) -> Maps:
    """``combined``'s pre-propagation maps from ``(pre maps, weight)`` pairs."""
    blended_by_context: Maps = {}
    for context in paper_set:
        blended: Dict[str, float] = {}
        for pre, weight in components:
            for paper_id, value in pre.get(context.term_id, {}).items():
                blended[paper_id] = blended.get(paper_id, 0.0) + weight * value
        if blended:
            blended_by_context[context.term_id] = blended
    return blended_by_context


def patch(paper_set, old_pre: Maps, fresh: Maps, changed) -> Maps:
    """Fresh maps for ``changed`` contexts, old ones elsewhere, in set order."""
    pre: Maps = {}
    for context in paper_set:
        cid = context.term_id
        if cid in changed:
            if cid in fresh:
                pre[cid] = fresh[cid]
        elif cid in old_pre:
            pre[cid] = old_pre[cid]
    return pre


def aligned_reference(by_context: Maps, columns) -> np.ndarray:
    """Each member's score in its context, 0.0 when unscored."""
    bounds = columns.indptr.tolist()
    return np.array(
        [
            by_context.get(context_id, {}).get(columns.paper_rows.ids[member], 0.0)
            for context_id, start, end in zip(columns.context_ids, bounds, bounds[1:])
            for member in columns.members[start:end].tolist()
        ],
        dtype=np.float64,
    )


def maps(paper_rows: PaperRows, rows: Optional[ScoreRows]) -> Optional[Maps]:
    """``rows`` over ``paper_rows`` as ordered maps."""
    if rows is None:
        return None
    papers = [paper_rows.ids[row] for row in rows.rows.tolist()]
    values = rows.values.tolist()
    bounds = rows.indptr.tolist()
    return {
        context_id: dict(zip(papers[start:end], values[start:end]))
        for context_id, start, end in zip(rows.context_ids, bounds, bounds[1:])
    }


def one_row(normalizer, scores: Mapping[str, float]) -> Dict[str, float]:
    """``normalizer`` (one of the ``*_rows`` kernels) of ``scores`` as one row."""
    values = np.fromiter(scores.values(), dtype=np.float64, count=len(scores))
    normalised = normalizer(values, np.array([0, len(values)], dtype=np.int64))
    return dict(zip(scores, normalised.tolist()))


def pre_maps(scores: PrestigeScores) -> Optional[Maps]:
    """The pre-propagation rows of ``scores`` as ordered maps."""
    return maps(scores.paper_rows, scores.pre)


def _rows(by_context: Maps, paper_row: Mapping[str, int]) -> ScoreRows:
    sizes = [len(scores) for scores in by_context.values()]
    indptr = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    rows = np.array(
        [paper_row[pid] for scores in by_context.values() for pid in scores],
        dtype=np.int32,
    )
    values = np.array(
        [value for scores in by_context.values() for value in scores.values()],
        dtype=np.float64,
    )
    return ScoreRows(tuple(by_context), indptr, rows, values)


def scores_from_maps(
    function_name: str,
    by_context: Maps,
    pre: Optional[Maps] = None,
    paper_rows: Optional[PaperRows] = None,
) -> PrestigeScores:
    """Scores holding ``by_context`` (and ``pre``) over ``paper_rows``
    (default: rows of the papers they name, sorted by id)."""
    if paper_rows is None:
        named = chain.from_iterable(chain(by_context.values(), (pre or {}).values()))
        paper_rows = PaperRows(sorted(set(named)))
    return PrestigeScores(
        function_name,
        paper_rows,
        _rows(by_context, paper_rows.row_of),
        None if pre is None else _rows(pre, paper_rows.row_of),
    )
