"""Common prestige-score machinery.

Every score function maps ``(context, paper) -> prestige in [0, 1]``.
This module provides:

- the :class:`PrestigeScoreFunction` interface;
- :class:`PrestigeScores`, the result over a whole context paper set,
  as :class:`ScoreRows`;
- per-context normalisation (each function's raw scale differs wildly --
  PageRank probabilities vs. pattern sums -- and the relevancy formula
  of section 3 needs them commensurable);
- hierarchy max-propagation: section 3 modifies p's score in context ci
  to ``max(s_i, s_k, ..., s_n)`` over ci's descendant contexts
  containing p, because high prestige in a more specific descendant
  implies high relevance to the ancestor.

Each stage is array arithmetic on the rows, with every entry's float
operations in the order a per-entry loop does them, so every score has
that loop's bits (``tests/reference/prestige.py`` keeps the loops).
"""

from __future__ import annotations

import abc
import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, repeat
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.context import Context, ContextColumns, ContextPaperSet
from repro.corpus.rows import PaperRows, check_same_rows, csr_positions, indptr_of
from repro.obs import get_registry, span

_METRIC_SEGMENT_SUB = re.compile(r"[^a-z0-9_]+")


@dataclass(frozen=True, eq=False)
class ScoreRows:
    """Prestige per context as CSR rows over a corpus's paper rows.

    ``values[indptr[c]:indptr[c + 1]]`` are the scores of context
    ``context_ids[c]`` for the papers at ``rows[...]`` of the
    :class:`PaperRows` the caller owns, in the order they were scored; a
    row holds a paper at most once.  The one form of a score table, from
    scoring to the stored file (see :mod:`repro.core.io`).
    """

    context_ids: Tuple[str, ...]
    indptr: np.ndarray  # int64
    rows: np.ndarray  # int32
    values: np.ndarray  # float64

    @cached_property
    def context_row(self) -> Dict[str, int]:
        return {cid: row for row, cid in enumerate(self.context_ids)}


def _find(keys: np.ndarray, wanted: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each ``wanted`` key's position in the unique ``keys``, and if found."""
    if not len(keys):
        return np.zeros(len(wanted), np.intp), np.zeros(len(wanted), bool)
    order = np.argsort(keys)
    at = order[np.minimum(np.searchsorted(keys[order], wanted), len(keys) - 1)]
    return at, keys[at] == wanted


def rows_from_maps(
    paper_rows: PaperRows,
    context_ids: Sequence[str],
    maps: Sequence[Mapping[str, float]],
) -> ScoreRows:
    """One row per map, in its key order, over ``paper_rows``."""
    indptr = indptr_of([len(scores) for scores in maps])
    total = int(indptr[-1])
    rows = paper_rows.rows(chain.from_iterable(maps)).astype(np.int32)
    values = np.fromiter(
        chain.from_iterable(scores.values() for scores in maps), np.float64, total
    )
    return ScoreRows(tuple(context_ids), indptr, rows, values)


def take_rows(
    sources: Sequence[ScoreRows], picks: Sequence[Tuple[int, int]]
) -> ScoreRows:
    """Row ``row`` of ``sources[source]`` for each ``(source, row)`` pick.

    Every source indexes the same paper rows, so the picked rows are
    concatenated as they are.
    """
    bounds = [sources[source].indptr[row:row + 2] for source, row in picks]
    return ScoreRows(
        tuple(sources[source].context_ids[row] for source, row in picks),
        indptr_of([end - start for start, end in bounds]),
        np.concatenate([np.zeros(0, np.int32)] + [
            sources[source].rows[start:end]
            for (source, _), (start, end) in zip(picks, bounds)
        ]),
        np.concatenate([np.zeros(0, np.float64)] + [
            sources[source].values[start:end]
            for (source, _), (start, end) in zip(picks, bounds)
        ]),
    )


def blend_rows(
    paper_set: ContextPaperSet, components: Sequence[Tuple["PrestigeScores", float]]
) -> ScoreRows:
    """The weighted sum of ``(scores, weight)`` components' ``pre`` rows.

    One row per context of ``paper_set`` that a component scored, in
    paper-set order, listing its papers in order of first appearance over
    the components.  A paper's value is ``0.0 + w_1 * v_1 + w_2 * v_2
    ...`` over the components holding it, added in component order.
    Every component must be over ``paper_set``'s paper rows.
    """
    for scores, _ in components:
        check_same_rows(scores.paper_rows, paper_set.paper_rows)
    context_ids = paper_set.context_ids()
    picks, pick_context, pick_weight = [], [], []
    for position, context_id in enumerate(context_ids):
        for source, (scores, weight) in enumerate(components):
            row = scores.pre.context_row.get(context_id)
            if row is not None:
                picks.append((source, row))
                pick_context.append(position)
                pick_weight.append(weight)
    stacked = take_rows([scores.pre for scores, _ in components], picks)
    counts = np.diff(stacked.indptr)
    keys = np.repeat(np.array(pick_context, dtype=np.int64) << 32, counts)
    keys |= stacked.rows
    unique, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    # bincount adds in entry order from 0.0: per context, component by
    # component.  With no entries it answers int64.
    weighted = np.repeat(np.array(pick_weight, dtype=np.float64), counts)
    values = np.bincount(
        np.argsort(order)[inverse],
        weights=weighted * stacked.values,
        minlength=len(unique),
    ).astype(np.float64, copy=False)
    blended = unique[order]
    contexts, sizes = np.unique(blended >> 32, return_counts=True)
    return ScoreRows(
        tuple(context_ids[position] for position in contexts.tolist()),
        indptr_of(sizes),
        (blended & 0xFFFFFFFF).astype(np.int32),
        values,
    )


def propagate_max(paper_set: ContextPaperSet, pre: ScoreRows) -> ScoreRows:
    """Apply section 3's max-over-descendant-contexts score modification.

    Each score of ``pre`` becomes the maximum of the paper's scores in
    its context and in every descendant context in ``paper_set`` whose
    row holds the paper.  Equal to a scan of the descendants in
    ``descendants_in_set`` order that takes a candidate only when
    ``candidate > current``: a NaN never replaces a score, and of equal
    maxima the first wins, so a zero keeps that one's sign.
    """
    pairs = [
        (row, pre.context_row[descendant])
        for row, context_id in enumerate(pre.context_ids)
        for descendant in paper_set.descendants_in_set(context_id)
        if descendant in pre.context_row
    ]
    values = pre.values.copy()
    if not pairs:
        return replace(pre, values=values)
    ancestors, descendants = np.array(pairs, dtype=np.int64).T
    # Look each descendant entry up in its ancestor's row.
    context_rows = np.arange(len(pre.context_ids), dtype=np.int64) << 32
    keys = np.repeat(context_rows, np.diff(pre.indptr)) | pre.rows
    positions, counts = csr_positions(pre.indptr, descendants)
    wanted = np.repeat(ancestors << 32, counts)
    wanted |= pre.rows[positions]
    targets, held = _find(keys, wanted)
    candidates = pre.values[positions]
    held &= ~np.isnan(candidates)
    targets, candidates = targets[held], candidates[held]
    best = np.full(len(values), -np.inf)
    np.maximum.at(best, targets, candidates)
    wins = best > values
    zero_wins = wins & (best == 0.0)
    if zero_wins.any():
        zeros = (candidates == 0.0) & zero_wins[targets]
        first_targets, first = np.unique(targets[zeros], return_index=True)
        best[first_targets] = candidates[zeros][first]
    values[wins] = best[wins]
    return replace(pre, values=values)


# -- per-context normalisers over rows ------------------------------------------------


def max_rows(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Rescale each row to [0, 1] by max(x, 0) / max, keeping the floor.

    The section-3 relevancy formula mixes prestige with text matching, so
    a context's level matters: per-context PageRank on a sparse citation
    subgraph leaves most papers at the teleport floor, which this keeps at
    a high shared value -- "papers with the same scores are considered
    equally important", the weakness the paper attributes to citation
    scores.  A row whose max is not positive maps to 0.0.

    >>> max_rows(np.array([2.0, 4.0, 3.0, -0.0]), np.array([0, 4])).tolist()
    [0.5, 1.0, 0.75, -0.0]
    """
    if not len(values):
        return values
    high = np.repeat(np.maximum.reduceat(values, indptr[:-1]), np.diff(indptr))
    normalised = np.zeros_like(values)
    scaled = ~(high <= 0.0)
    kept = values[scaled]
    normalised[scaled] = np.where(0.0 > kept, 0.0, kept) / high[scaled]
    return normalised


#: Normalisation registry for :meth:`PrestigeScoreFunction.score_all`:
#: ``normalizer(values, indptr) -> values``, row by row.
NORMALIZERS: Dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "max": max_rows,
    "none": lambda values, indptr: values,
}


@dataclass(eq=False)
class PrestigeScores:
    """Prestige of every paper in every context, for one score function.

    Two :class:`ScoreRows` over the corpus revision ``paper_rows`` with
    the same layout: ``scores``, after hierarchy max-propagation, and
    ``pre``, before it (None when a stored file has none), which corpus
    deltas patch and re-propagate and derived functions blend.  Never
    mutated; :meth:`aligned` caches its scatter.
    """

    function_name: str
    paper_rows: PaperRows
    scores: ScoreRows
    pre: Optional[ScoreRows] = None
    _aligned: Optional[Tuple[ContextColumns, np.ndarray]] = field(
        default=None, init=False, repr=False
    )

    def of(self, context_id: str) -> Dict[str, float]:
        """``paper_id -> prestige`` within one context (empty if unknown)."""
        row = self.scores.context_row.get(context_id)
        if row is None:
            return {}
        start, end = self.scores.indptr[row:row + 2]
        papers = map(
            self.paper_rows.ids.__getitem__, self.scores.rows[start:end].tolist()
        )
        return dict(zip(papers, self.scores.values[start:end].tolist()))

    def score(self, context_id: str, paper_id: str, default: float = 0.0) -> float:
        """Prestige of one paper in one context."""
        return self.of(context_id).get(paper_id, default)

    def aligned(self, columns: ContextColumns) -> np.ndarray:
        """Prestige as ``float64`` aligned with ``columns.members``.

        Entry ``i`` is the prestige of member ``i`` in its context (0.0
        when the context or the paper is unscored).  A row as long as its
        context places each entry at its own rank when the member there
        holds the entry's paper (a row scored in member order); only the
        other members are looked up.  ``columns`` must be over the same
        paper rows.  Cached for the last ``columns`` asked for.
        """
        cached = self._aligned
        if cached is not None and cached[0] is columns:
            return cached[1]
        check_same_rows(self.paper_rows, columns.paper_rows)
        scores = self.scores
        values = np.zeros(len(columns.members), dtype=np.float64)
        # Each stored row's context as a columns row (-1: not there).
        context_row = np.fromiter(
            map(columns.context_row.get, scores.context_ids, repeat(-1)),
            np.int64,
            len(scores.context_ids),
        )
        rows = np.flatnonzero(context_row >= 0)
        sizes = np.diff(columns.indptr)[context_row[rows]]
        same = np.diff(scores.indptr)[rows] == sizes
        members, _ = csr_positions(columns.indptr, context_row[rows[same]])
        entries = slice(None)  # every stored row, in order: no gather
        if same.sum() < len(scores.context_ids):
            entries, _ = csr_positions(scores.indptr, rows[same])
        placed = scores.rows[entries] == columns.members[members]
        if placed.all():
            values[members] = scores.values[entries]
        else:
            values[members[placed]] = scores.values[entries][placed]
        # The rest: members out of rank, and every member of a row whose
        # length differs from its context's.
        out_of_rank = np.flatnonzero(~placed)
        starts = np.cumsum(sizes[same]) - sizes[same]
        other, counts = csr_positions(columns.indptr, context_row[rows[~same]])
        missed = np.concatenate([members[out_of_rank], other])
        missed_rows = np.concatenate([
            rows[same][np.searchsorted(starts, out_of_rank, side="right") - 1],
            np.repeat(rows[~same], counts),
        ])
        if missed.size:
            needed = np.flatnonzero(np.bincount(missed_rows))
            positions, counts = csr_positions(scores.indptr, needed)
            keys = np.repeat(needed << 32, counts) + scores.rows[positions]
            wanted = (missed_rows << 32) + columns.members[missed]
            at, found = _find(keys, wanted)
            values[missed[found]] = scores.values[positions[at[found]]]
        self._aligned = (columns, values)
        return values

    def context_ids(self) -> List[str]:
        return list(self.scores.context_ids)

    def __contains__(self, context_id: str) -> bool:
        return context_id in self.scores.context_row

    def __len__(self) -> int:
        return len(self.scores.context_ids)


class PrestigeScoreFunction(abc.ABC):
    """Interface of the three section-3 score functions."""

    #: Short name used in experiment tables ("citation", "text", "pattern").
    name: str = "abstract"

    @abc.abstractmethod
    def score_context(self, context: Context) -> Dict[str, float]:
        """Raw (pre-normalisation) scores for every paper in ``context``.

        Implementations may return an empty mapping when the context
        cannot be scored (e.g. no representative paper).
        """

    def score_batch(self, contexts: Iterable[Context]) -> List[Dict[str, float]]:
        """:meth:`score_context` of each context, in order.

        Functions that score a batch faster than one context at a time
        (the text function's array kernel) override this.
        """
        return [self.score_context(context) for context in contexts]

    #: Per-context normaliser, a :data:`NORMALIZERS` key; subclasses
    #: override when the raw scale calls for it (text similarities are
    #: already in [0, 1] and stay as they are).
    normalization: str = "max"

    def score_all(self, paper_set: ContextPaperSet) -> PrestigeScores:
        """Score every context; normalise, decay and max-propagate.

        Normalisation (:attr:`normalization`) happens per context
        *before* propagation so that a descendant's scores are
        commensurable with the ancestor's when the max is taken -- both
        live in [0, 1].
        """
        metric_name = self._metric_name()
        with span(
            f"scores.{metric_name}.score_all", normalize=self.normalization
        ) as trace, get_registry().timer(f"scores.{metric_name}.seconds"):
            pre = self._score_each(paper_set.paper_rows, paper_set)
            main = propagate_max(paper_set, pre)
            scores = PrestigeScores(self.name, paper_set.paper_rows, main, pre)
            trace.set(
                contexts_scored=len(pre.context_ids), papers_scored=len(pre.values)
            )
        return scores

    def score_contexts(self, paper_set: ContextPaperSet, context_ids) -> ScoreRows:
        """Pre-propagation rows of ``context_ids``, over the set's paper rows.

        A corpus delta scores only the contexts whose paper sets changed
        and splices their rows into :attr:`PrestigeScores.pre`; the
        normalisation, the decay and the skip of contexts without raw
        scores are :meth:`score_all`'s.
        """
        wanted = set(context_ids)
        return self._score_each(
            paper_set.paper_rows, (c for c in paper_set if c.term_id in wanted)
        )

    def _metric_name(self) -> str:
        """:attr:`name` (free-form: "citation-xctx") as one metric segment."""
        return (
            _METRIC_SEGMENT_SUB.sub("_", self.name.lower()).lstrip("_0123456789")
            or "unnamed"
        )

    def _score_each(
        self, paper_rows: PaperRows, contexts: Iterable[Context]
    ) -> ScoreRows:
        """Normalised, decayed rows of ``contexts`` over ``paper_rows``.

        Contexts whose raw scores are empty get no row; a row keeps its
        raw map's key order.  The counts of rows and entries go to the
        ``scores.<function>.*_scored`` counters.
        """
        normalizer = NORMALIZERS.get(self.normalization)
        if normalizer is None:
            raise ValueError(
                f"unknown normalization {self.normalization!r}; expected one "
                f"of {sorted(NORMALIZERS)}"
            )
        contexts = list(contexts)
        batch = zip(contexts, self.score_batch(contexts))
        scored = [(context, raw) for context, raw in batch if raw]
        raw = rows_from_maps(
            paper_rows,
            [context.term_id for context, _ in scored],
            [raw for _, raw in scored],
        )
        decay = np.fromiter(
            (context.decay for context, _ in scored), np.float64, len(scored)
        )
        values = normalizer(raw.values, raw.indptr)
        values = values * np.repeat(decay, np.diff(raw.indptr))
        registry, metric_name = get_registry(), self._metric_name()
        registry.counter(f"scores.{metric_name}.contexts_scored").inc(len(scored))
        registry.counter(f"scores.{metric_name}.papers_scored").inc(len(values))
        return replace(raw, values=values)
