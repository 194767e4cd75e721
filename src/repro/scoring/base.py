"""Common prestige-score machinery.

Every score function maps ``(context, paper) -> prestige in [0, 1]``.
This module provides:

- the :class:`PrestigeScoreFunction` interface;
- :class:`PrestigeScores`, the computed result over a whole context paper
  set;
- min-max normalisation (each function's raw scale differs wildly --
  PageRank probabilities vs. pattern sums -- and the relevancy formula of
  section 3 needs them commensurable);
- hierarchy max-propagation: section 3 modifies p's score in context ci to
  ``max(s_i, s_k, ..., s_n)`` over ci's descendant contexts containing p,
  because high prestige in a more specific descendant implies high
  relevance to the ancestor.
"""

from __future__ import annotations

import abc
import re
import threading
from itertools import chain, repeat
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.context import (
    Context,
    ContextColumns,
    ContextPaperSet,
    csr_positions,
)
from repro.obs import get_registry, span

_METRIC_SEGMENT_SUB = re.compile(r"[^a-z0-9_]+")


def min_max_normalize(scores: Mapping[str, float]) -> Dict[str, float]:
    """Rescale to [0, 1] by (x - min) / (max - min).

    Constant inputs map to 0.0 for every paper: a context whose raw
    scores are all equal carries no *relative* evidence, and min-max is
    the spread-only view.  Use :func:`max_normalize` when the raw floor is
    meaningful (PageRank's teleport floor keeps every paper at a positive
    baseline -- the paper's "small number of unique scores" regime, where
    tied papers are equally important rather than all unimportant).

    >>> min_max_normalize({"a": 2.0, "b": 4.0, "c": 3.0})
    {'a': 0.0, 'b': 1.0, 'c': 0.5}
    """
    if not scores:
        return {}
    values = scores.values()
    low, high = min(values), max(values)
    spread = high - low
    if spread == 0.0:
        return {paper_id: 0.0 for paper_id in scores}
    return {pid: (value - low) / spread for pid, value in scores.items()}


def max_normalize(scores: Mapping[str, float]) -> Dict[str, float]:
    """Rescale to [0, 1] by x / max, preserving the raw score *floor*.

    The section-3 relevancy formula mixes prestige with text matching, so
    the absolute level of a context's scores matters: per-context PageRank
    on a sparse citation subgraph leaves most papers at the teleport
    floor, and dividing by the max keeps them at a high shared value --
    "papers with the same scores are considered equally important", which
    is exactly the ranking weakness (everyone survives the relevancy
    threshold together) the paper attributes to citation-based scores.
    All-zero or negative-max inputs map to 0.0.

    >>> max_normalize({"a": 2.0, "b": 4.0, "c": 3.0})
    {'a': 0.5, 'b': 1.0, 'c': 0.75}
    """
    if not scores:
        return {}
    high = max(scores.values())
    if high <= 0.0:
        return {paper_id: 0.0 for paper_id in scores}
    return {pid: max(value, 0.0) / high for pid, value in scores.items()}


#: Normalisation registry for :meth:`PrestigeScoreFunction.score_all`.
NORMALIZERS = {
    "minmax": min_max_normalize,
    "max": max_normalize,
    "none": dict,
}


class ScoreRows:
    """One ``{context: {paper: score}}`` map as CSR rows over a paper table.

    ``values[indptr[c]:indptr[c + 1]]`` are the scores of context
    ``context_ids[c]``, for the papers ``paper_ids[rows[...]]`` of a
    table the caller owns, in the map's key order.  This is the stored
    form of :class:`PrestigeScores` (see :mod:`repro.core.io`).
    """

    def __init__(
        self,
        context_ids: Tuple[str, ...],
        indptr: np.ndarray,
        rows: np.ndarray,
        values: np.ndarray,
    ) -> None:
        self.context_ids = context_ids
        self.indptr = indptr
        self.rows = rows
        self.values = values

    @classmethod
    def from_dicts(
        cls, by_context: Dict[str, Dict[str, float]], paper_row: Dict[str, int]
    ) -> "ScoreRows":
        maps = list(by_context.values())
        sizes = np.fromiter(map(len, maps), dtype=np.int64, count=len(maps))
        indptr = np.zeros(len(maps) + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        total = int(indptr[-1])
        rows = np.fromiter(
            map(paper_row.__getitem__, chain.from_iterable(maps)),
            dtype=np.int32,
            count=total,
        )
        values = np.fromiter(
            chain.from_iterable(scores.values() for scores in maps),
            dtype=np.float64,
            count=total,
        )
        return cls(tuple(by_context), indptr, rows, values)

    def to_dicts(self, paper_ids: Tuple[str, ...]) -> Dict[str, Dict[str, float]]:
        papers = [paper_ids[row] for row in self.rows.tolist()]
        values = self.values.tolist()
        bounds = self.indptr.tolist()
        return {
            context_id: dict(zip(papers[start:end], values[start:end]))
            for context_id, start, end in zip(
                self.context_ids, bounds, bounds[1:]
            )
        }


class PrestigeScores:
    """Prestige of every paper in every context, for one score function.

    ``pre_propagation`` optionally retains the per-context scores as they
    were *before* hierarchy max-propagation.  Incremental prestige
    patching needs them: propagation mixes descendant scores into
    ancestors, so patching a changed context requires re-running the
    propagation pass over pre-propagation values, not the merged ones.
    Scores without it (``propagate=False``) fall back to full recompute
    on a corpus delta.

    Scores come either from dicts (a fresh :meth:`PrestigeScoreFunction.
    score_all`) or from the :class:`ScoreRows` of a workspace artifact
    (:meth:`from_rows`).  Row-backed scores answer :meth:`context_ids`,
    ``in`` and ``len`` from the rows, serve :meth:`aligned` straight from
    the stored values when the layout matches, and build the dicts that
    :meth:`of`, :meth:`score` and :attr:`pre_propagation` read only on
    first use, once.
    """

    def __init__(
        self,
        function_name: str,
        by_context: Dict[str, Dict[str, float]],
        pre_propagation: Optional[Dict[str, Dict[str, float]]] = None,
    ) -> None:
        self.function_name = function_name
        self._by_context: Optional[Dict[str, Dict[str, float]]] = by_context
        self._pre_propagation = pre_propagation
        self._stored: Optional[
            Tuple[Tuple[str, ...], ScoreRows, Optional[ScoreRows]]
        ] = None
        self._stored_ids: frozenset = frozenset()
        self._dicts_lock = threading.Lock()
        self._aligned: Optional[Tuple[ContextColumns, np.ndarray]] = None

    @classmethod
    def from_rows(
        cls,
        function_name: str,
        paper_ids: Tuple[str, ...],
        scores: ScoreRows,
        pre_propagation: Optional[ScoreRows] = None,
    ) -> "PrestigeScores":
        """Row-backed scores over the sorted paper table ``paper_ids``."""
        loaded = cls(function_name, None)
        loaded._stored = (paper_ids, scores, pre_propagation)
        loaded._stored_ids = frozenset(scores.context_ids)
        return loaded

    def to_rows(self) -> Tuple[Tuple[str, ...], ScoreRows, Optional[ScoreRows]]:
        """``(paper_ids, scores, pre_propagation)`` in stored form."""
        if self._stored is not None:
            return self._stored
        by_context, pre = self._by_context, self._pre_propagation
        paper_ids = tuple(
            sorted(
                set(chain.from_iterable(
                    chain(by_context.values(), (pre or {}).values())
                ))
            )
        )
        paper_row = {pid: row for row, pid in enumerate(paper_ids)}
        return (
            paper_ids,
            ScoreRows.from_dicts(by_context, paper_row),
            None if pre is None else ScoreRows.from_dicts(pre, paper_row),
        )

    def _dicts(self) -> Dict[str, Dict[str, float]]:
        by_context = self._by_context
        if by_context is None:
            with self._dicts_lock:
                if self._by_context is None:
                    paper_ids, scores, pre = self._stored
                    if pre is not None:
                        self._pre_propagation = pre.to_dicts(paper_ids)
                    self._by_context = scores.to_dicts(paper_ids)
                by_context = self._by_context
        return by_context

    @property
    def pre_propagation(self) -> Optional[Dict[str, Dict[str, float]]]:
        self._dicts()
        return self._pre_propagation

    def of(self, context_id: str) -> Dict[str, float]:
        """``paper_id -> prestige`` within one context (empty if unknown)."""
        return dict(self._dicts().get(context_id, {}))

    def score(self, context_id: str, paper_id: str, default: float = 0.0) -> float:
        """Prestige of one paper in one context."""
        return self._dicts().get(context_id, {}).get(paper_id, default)

    def aligned(self, columns: ContextColumns) -> np.ndarray:
        """Prestige as ``float64`` aligned with ``columns.members``.

        Entry ``i`` is the prestige of member ``i`` in its context (0.0
        when the context or the paper is unscored).  Cached for the last
        ``columns`` asked for; the scores never change after
        construction, so the array needs no invalidation.
        """
        cached = self._aligned
        if cached is not None and cached[0] is columns:
            return cached[1]
        values = None
        if self._stored is not None:
            values = self._aligned_from_rows(columns)
        if values is None:
            values = self._aligned_from_dicts(columns)
        self._aligned = (columns, values)
        return values

    def _aligned_from_rows(self, columns: ContextColumns) -> Optional[np.ndarray]:
        """The stored values scattered onto ``columns``, or None.

        Valid only when every stored row holds exactly its context's
        members in member order; any other layout returns None and goes
        through the dicts.
        """
        paper_ids, scores, _ = self._stored
        context_rows = np.fromiter(
            map(columns.context_row.get, scores.context_ids, repeat(-1)),
            dtype=np.int64,
            count=len(scores.context_ids),
        )
        if (context_rows < 0).any():
            return None
        positions, counts = csr_positions(columns.indptr, context_rows)
        if not np.array_equal(counts, np.diff(scores.indptr)):
            return None
        table = np.fromiter(
            map(columns.paper_row.get, paper_ids, repeat(-1)),
            dtype=np.int64,
            count=len(paper_ids),
        )
        if not np.array_equal(columns.members[positions], table[scores.rows]):
            return None
        values = np.zeros(len(columns.members), dtype=np.float64)
        values[positions] = scores.values
        return values

    def _aligned_from_dicts(self, columns: ContextColumns) -> np.ndarray:
        by_context = self._dicts()

        def row_values(context_id, paper_ids):
            scores = by_context.get(context_id)
            if scores is None:
                return repeat(0.0, len(paper_ids))
            return map(scores.get, paper_ids, repeat(0.0))

        return np.fromiter(
            chain.from_iterable(
                map(row_values, columns.context_ids, columns.row_paper_ids)
            ),
            dtype=np.float64,
            count=len(columns.members),
        )

    def context_ids(self):
        if self._stored is not None:
            return list(self._stored[1].context_ids)
        return list(self._by_context)

    def __contains__(self, context_id: str) -> bool:
        if self._stored is not None:
            return context_id in self._stored_ids
        return context_id in self._by_context

    def __len__(self) -> int:
        if self._stored is not None:
            return len(self._stored[1].context_ids)
        return len(self._by_context)


def propagate_max_over_descendants(
    paper_set: ContextPaperSet, by_context: Dict[str, Dict[str, float]]
) -> Dict[str, Dict[str, float]]:
    """Apply section 3's max-over-descendant-contexts score modification.

    For each context ci and paper p in ci, the final score is the maximum
    of p's scores over ci and every descendant context of ci that contains
    p.  Contexts missing from ``by_context`` contribute nothing.
    """
    result: Dict[str, Dict[str, float]] = {}
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

    #: Default per-context normaliser; subclasses override when the raw
    #: scale calls for it (citation scores keep their teleport floor).
    normalization: str = "minmax"

    def score_all(
        self,
        paper_set: ContextPaperSet,
        normalize: Optional[str] = None,
        propagate: bool = True,
    ) -> PrestigeScores:
        """Score every context; normalise and max-propagate.

        ``normalize`` is a :data:`NORMALIZERS` key ("minmax", "max",
        "none"); None uses the function's own default.  Normalisation
        happens per context *before* propagation so that a descendant's
        scores are commensurable with the ancestor's when the max is
        taken -- both live in [0, 1].
        """
        key, normalizer = self._normalizer(normalize)
        metric_name = self._metric_name()
        with span(
            f"scores.{metric_name}.score_all", normalize=key
        ) as trace, get_registry().timer(f"scores.{metric_name}.seconds"):
            by_context, papers_scored = self._score_each(paper_set, normalizer)
            pre_propagation = None
            if propagate:
                pre_propagation = by_context
                by_context = propagate_max_over_descendants(paper_set, by_context)
            trace.set(contexts_scored=len(by_context), papers_scored=papers_scored)
        return PrestigeScores(self.name, by_context, pre_propagation=pre_propagation)

    def score_contexts(
        self,
        paper_set: ContextPaperSet,
        context_ids,
        normalize: Optional[str] = None,
    ) -> Dict[str, Dict[str, float]]:
        """Pre-propagation scores for a subset of contexts.

        The incremental-update path scores only the contexts whose paper
        sets changed, then merges the result into an existing
        :attr:`PrestigeScores.pre_propagation` map and re-runs
        propagation.  Normalisation and decay match :meth:`score_all`
        exactly.  Contexts that cannot be scored map to an *absent* entry,
        mirroring ``score_all``'s skip of empty raw scores.
        """
        _, normalizer = self._normalizer(normalize)
        wanted = set(context_ids)
        contexts = (c for c in paper_set if c.term_id in wanted)
        return self._score_each(contexts, normalizer)[0]

    def _metric_name(self) -> str:
        """:attr:`name` (free-form: "citation-xctx") as one metric segment."""
        return (
            _METRIC_SEGMENT_SUB.sub("_", self.name.lower()).lstrip("_0123456789")
            or "unnamed"
        )

    def _normalizer(self, normalize: Optional[str]) -> Tuple[str, Callable]:
        """The :data:`NORMALIZERS` key and function (None: the default)."""
        key = normalize if normalize is not None else self.normalization
        try:
            return key, NORMALIZERS[key]
        except KeyError:
            raise ValueError(
                f"unknown normalization {key!r}; expected one of "
                f"{sorted(NORMALIZERS)}"
            ) from None

    def _score_each(
        self, contexts: Iterable[Context], normalizer: Callable
    ) -> Tuple[Dict[str, Dict[str, float]], int]:
        """Normalised, decayed scores per context, and papers scored.

        Contexts whose raw scores are empty get no entry.  Both counts
        go to the ``scores.<function>.*_scored`` counters.
        """
        by_context: Dict[str, Dict[str, float]] = {}
        papers_scored = 0
        contexts = list(contexts)
        for context, raw in zip(contexts, self.score_batch(contexts)):
            if not raw:
                continue
            papers_scored += len(raw)
            scored = normalizer(raw)
            if context.decay != 1.0:
                scored = {pid: s * context.decay for pid, s in scored.items()}
            by_context[context.term_id] = scored
        registry, metric_name = get_registry(), self._metric_name()
        registry.counter(f"scores.{metric_name}.contexts_scored").inc(len(by_context))
        registry.counter(f"scores.{metric_name}.papers_scored").inc(papers_scored)
        return by_context, papers_scored
