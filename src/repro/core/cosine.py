"""Unit TF-IDF vectors as CSR rows, and the batch cosine kernel over them.

:class:`VectorRows` holds many :class:`~repro.text.vectorize.SparseVector`
values as three flat arrays -- ``int32`` term ids in each vector's dict
insertion order, ``float64`` weights, and ``indptr`` row bounds -- plus
each row's norm.  :func:`cosine_pairs` computes ``SparseVector.cosine``
for many pairs of rows at once and returns the *same floats*, bit for
bit, which is what keeps golden rankings byte-identical:

- ``SparseVector.dot`` walks the shorter vector in insertion order (the
  left one, ``self``, on a tie) and sums the products of shared terms
  left to right.  The kernel finds each pair's shared terms through a
  dense term -> position table of one row (see :func:`dot_pairs`) and
  lays their products out in the walked row's order;
- ``np.add.reduce`` (and ``reduceat``) sum pairwise, which rounds
  differently from Python's ``sum``.  ``np.cumsum(axis=1)`` accumulates
  strictly left to right, so each pair's shared products are laid out,
  at their positions in the walked row, as one zero-padded row of a 2-D
  block whose last cumulative column is the dot product.  A block row is
  only as wide as the walked row, and blocks are cut into chunks of at
  most :data:`CHUNK_CELLS` cells: no dense papers x vocabulary matrix is
  ever built;
- norms come from the scalar :func:`~repro.text.vectorize.l2_norm`, and
  a pair whose norm product under- or overflows takes
  ``SparseVector.cosine`` itself (its rescaling fallback).

The kernel counts the pairs it scores (``text.kernel.pairs``) and the
pairs sent to the scalar fallback (``text.kernel.fallbacks``).

:func:`cosines_at_least` answers a different question exactly: which
``(hub, row)`` pairs have a cosine of at least a threshold, over *every*
row.  It sums each pair's shared products in one ``np.bincount`` over
the rows' term-major transpose (:meth:`VectorRows.by_term`), whose sum
order differs from ``dot``'s, and sends every pair that lands within
:data:`BORDERLINE` of the threshold back to :func:`cosine_pairs`.
"""

from __future__ import annotations

import sys
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.corpus.rows import csr_positions, indptr_of
from repro.obs import get_registry
from repro.text.vectorize import SparseVector, l2_norm

#: Cells per zero-padded block of shared-term products.
CHUNK_CELLS = 1 << 18

#: Cells per batch of :func:`cosines_at_least`: gathered products, and
#: hub x row cells.  Small enough that a batch's arrays stay near one
#: megabyte in all.
BATCH_CELLS = 1 << 14

#: :func:`cosines_at_least` re-scores a pair with :func:`cosine_pairs`
#: when its batched cosine lies this close to the threshold.  Summing
#: ``k`` products in another order moves a cosine by at most about
#: ``k * 2.2e-16``, far below this for any row of fewer than millions
#: of terms.
BORDERLINE = 1e-9


class TermMajor(NamedTuple):
    """The entries of a :class:`VectorRows`, grouped by term.

    ``rows[indptr[t]:indptr[t + 1]]`` are the rows holding term ``t``, in
    ascending order, and ``weights[indptr[t]:indptr[t + 1]]`` its weight
    in each.  ``indptr`` has ``id_bound + 1`` entries.
    """

    indptr: np.ndarray
    rows: np.ndarray
    weights: np.ndarray


class VectorRows:
    """Immutable CSR rows of sparse vectors (see the module docstring).

    ``norms[i]`` must equal ``l2_norm`` of row ``i``'s weights; every
    constructor in the package computes it that way.
    """

    __slots__ = ("indptr", "ids", "weights", "norms", "_id_bound")

    def __init__(
        self,
        indptr: np.ndarray,
        ids: np.ndarray,
        weights: np.ndarray,
        norms: np.ndarray,
    ) -> None:
        self.indptr = indptr
        self.ids = ids
        self.weights = weights
        self.norms = norms
        self._id_bound: Optional[int] = None

    @classmethod
    def of_vectors(cls, vectors: Sequence[SparseVector]) -> "VectorRows":
        """Rows holding ``vectors`` (a query, a centroid) in their order."""
        indptr = indptr_of([len(v) for v in vectors])
        ids = np.fromiter(
            (t for v in vectors for t in v.weights), dtype=np.int32, count=indptr[-1]
        )
        weights = np.fromiter(
            (w for v in vectors for w in v.weights.values()),
            dtype=np.float64,
            count=indptr[-1],
        )
        norms = np.array([v.norm for v in vectors], dtype=np.float64)
        return cls(indptr, ids, weights, norms)

    def __len__(self) -> int:
        return len(self.norms)

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.indptr)

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Row ``i``'s ``(ids, weights)`` in insertion order."""
        start, end = self.indptr[i], self.indptr[i + 1]
        return self.ids[start:end], self.weights[start:end]

    def vector(self, i: int) -> SparseVector:
        """Row ``i`` as a :class:`SparseVector` (same insertion order)."""
        ids, weights = self.row(i)
        vector = SparseVector(dict(zip(ids.tolist(), weights.tolist())))
        vector._norm = float(self.norms[i])
        return vector

    def take(self, rows: np.ndarray) -> "VectorRows":
        """A new row set holding ``rows`` of this one, in ``rows`` order."""
        rows = np.asarray(rows, dtype=np.int64)
        positions, counts = csr_positions(self.indptr, rows)
        return VectorRows(
            indptr_of(counts),
            self.ids[positions],
            self.weights[positions],
            self.norms[rows],
        )

    def centroid(self, rows: np.ndarray) -> "VectorRows":
        """One row: the arithmetic mean of ``rows``, as ``centroid()`` builds it."""
        return self.centroids(rows, [len(rows)])

    def centroids(self, rows: np.ndarray, counts: Sequence[int]) -> "VectorRows":
        """One mean row per group, as ``centroid()`` builds each.

        ``rows`` lists every group's rows back to back, ``counts[g]`` of
        them for group ``g``.  A group's terms keep their first-occurrence
        order over its rows; each term's weights are summed left to right
        in row order, then divided by the group's row count.
        """
        rows = np.asarray(rows, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        positions, lengths = csr_positions(self.indptr, rows)
        bound = max(self.id_bound, 1)
        group = np.repeat(np.repeat(np.arange(len(counts)), counts), lengths)
        keys, first, key_of = np.unique(
            group * bound + self.ids[positions], return_index=True, return_inverse=True
        )
        by_key = np.argsort(key_of, kind="stable")
        sums = ordered_sums(key_of[by_key], self.weights[positions][by_key], len(keys))
        # Positions run group by group, so first-occurrence order is
        # group-major too.
        order = np.argsort(first)
        owner = keys[order] // bound
        mean = sums[order] / counts[owner]
        indptr = indptr_of(np.bincount(owner, minlength=len(counts)))
        return VectorRows(
            indptr,
            (keys[order] % bound).astype(np.int32),
            mean,
            row_norms(indptr, mean),
        )

    def by_term(self) -> TermMajor:
        """The same entries, term-major (see :class:`TermMajor`)."""
        owner = np.repeat(np.arange(len(self), dtype=np.int64), self.lengths)
        order = np.argsort(self.ids, kind="stable")
        return TermMajor(
            indptr_of(np.bincount(self.ids, minlength=self.id_bound)),
            owner[order],
            self.weights[order],
        )

    @property
    def id_bound(self) -> int:
        """One past the largest term id (0 for no entries)."""
        if self._id_bound is None:
            self._id_bound = int(self.ids.max()) + 1 if len(self.ids) else 0
        return self._id_bound


def cosine_pairs(
    left: VectorRows,
    left_rows: np.ndarray,
    right: VectorRows,
    right_rows: np.ndarray,
) -> np.ndarray:
    """``left.vector(l).cosine(right.vector(r))`` for every pair, exactly.

    ``left_rows`` and ``right_rows`` are parallel arrays of row numbers
    (one of them may repeat a single row); ``left`` plays ``self``.
    """
    left_rows = np.asarray(left_rows, dtype=np.int64)
    right_rows = np.asarray(right_rows, dtype=np.int64)
    return finish_cosines(
        dot_pairs(left, left_rows, right, right_rows),
        left.norms[left_rows],
        right.norms[right_rows],
        lambda i: left.vector(left_rows[i]).cosine(right.vector(right_rows[i])),
    )


def cosines_at_least(
    rows: VectorRows, hub_rows: np.ndarray, threshold: float
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Every pair whose ``cosine_pairs(rows, [r], rows, [hub_rows[h]])``
    is at least ``threshold``, over every row ``r``.

    Returns ``(hubs, members, borderline)``: parallel arrays of hub
    positions ``h`` and rows ``r``, ordered by hub then row, and the
    number of pairs re-scored by :func:`cosine_pairs`.

    Hubs go in batches of at most :data:`BATCH_CELLS` gathered products
    and :data:`BATCH_CELLS` hub x row cells (a hub alone may exceed
    them).  A batch sums each pair's shared products with one
    ``np.bincount`` over ``hub * len(rows) + row`` keys and divides by
    the norms through :func:`finish_cosines` (zero norms give 0.0, a
    subnormal or infinite norm product the exact scalar path).  Pairs
    within :data:`BORDERLINE` of ``threshold`` take
    :func:`cosine_pairs`, so every decision is the exact kernel's.
    """
    hub_rows = np.asarray(hub_rows, dtype=np.int64)
    if not len(hub_rows):
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, 0
    n = len(rows)
    terms = rows.by_term()
    hub_entries = rows.take(hub_rows)
    hub_ids = hub_entries.ids.astype(np.int64)
    hub_of = np.repeat(np.arange(len(hub_rows)), hub_entries.lengths)
    # A hub gathers one product per posting of each of its terms.
    work = np.bincount(
        hub_of, weights=np.diff(terms.indptr)[hub_ids], minlength=len(hub_rows)
    ).tolist()
    per_batch = max(1, BATCH_CELLS // n)
    hubs, members = [], []
    borderline = 0
    lo = 0
    while lo < len(hub_rows):
        hi, gathered = lo + 1, work[lo]
        while (
            hi < len(hub_rows)
            and hi - lo < per_batch
            and gathered + work[hi] <= BATCH_CELLS
        ):
            gathered += work[hi]
            hi += 1
        a, b = hub_entries.indptr[lo], hub_entries.indptr[hi]
        positions, counts = csr_positions(terms.indptr, hub_ids[a:b])
        # Huge weights may overflow a product; such a pair's norm product
        # overflows too, so finish_cosines sends it to the scalar path.
        with np.errstate(over="ignore"):
            dots = np.bincount(
                np.repeat((hub_of[a:b] - lo) * n, counts) + terms.rows[positions],
                weights=np.repeat(hub_entries.weights[a:b], counts)
                * terms.weights[positions],
                minlength=(hi - lo) * n,
            )
        pair_rows = np.tile(np.arange(n), hi - lo)
        pair_hubs = np.repeat(hub_rows[lo:hi], n)
        values = finish_cosines(
            dots,
            rows.norms[pair_rows],
            rows.norms[pair_hubs],
            lambda i: rows.vector(pair_rows[i]).cosine(rows.vector(pair_hubs[i])),
        )
        near = np.flatnonzero(np.abs(values - threshold) <= BORDERLINE)
        if len(near):
            values[near] = cosine_pairs(rows, pair_rows[near], rows, pair_hubs[near])
            borderline += len(near)
        kept = np.flatnonzero(values >= threshold)
        hubs.append(lo + kept // n)
        members.append(pair_rows[kept])
        lo = hi
    return np.concatenate(hubs), np.concatenate(members), borderline


def dot_pairs(
    left: VectorRows,
    left_rows: np.ndarray,
    right: VectorRows,
    right_rows: np.ndarray,
) -> np.ndarray:
    """``SparseVector.dot`` of every ``(left_rows[i], right_rows[i])`` pair.

    The side with fewer distinct rows is the *hub* (a representative, a
    centroid, a query).  Pairs are grouped by hub row; each group looks
    the other side's terms up in one dense term -> position table of its
    hub row, and every shared product goes to the column of its position
    in the pair's walked row.
    """
    n = len(left_rows)
    walk_left = left.lengths[left_rows] <= right.lengths[right_rows]
    if len(np.unique(right_rows)) <= len(np.unique(left_rows)):
        hub, hub_rows, spoke, spoke_rows = right, right_rows, left, left_rows
        walk_hub = ~walk_left
    else:
        hub, hub_rows, spoke, spoke_rows = left, left_rows, right, right_rows
        walk_hub = walk_left
    dots = np.zeros(n)
    table = np.full(max(left.id_bound, right.id_bound), -1, dtype=np.int64)
    by_hub = np.argsort(hub_rows, kind="stable")
    hubs, starts = np.unique(hub_rows[by_hub], return_index=True)
    ends = np.append(starts[1:], n)
    for h, a, b in zip(hubs.tolist(), starts.tolist(), ends.tolist()):
        pairs = by_hub[a:b]
        lo, hi = hub.indptr[h], hub.indptr[h + 1]
        hub_ids = hub.ids[lo:hi]
        table[hub_ids] = np.arange(hi - lo)
        rows = spoke_rows[pairs]
        positions, counts = csr_positions(spoke.indptr, rows)
        at = table[spoke.ids[positions]]
        table[hub_ids] = -1
        shared = at >= 0
        owner = np.repeat(np.arange(len(pairs)), counts)[shared]
        at = at[shared]
        spoke_column = positions[shared] - spoke.indptr[rows][owner]
        # Huge weights may overflow a product; such a pair's norm product
        # overflows too, so finish_cosines sends it to the scalar path.
        with np.errstate(over="ignore"):
            dots[pairs] = padded_sums(
                owner,
                np.where(walk_hub[pairs][owner], at, spoke_column),
                spoke.weights[positions[shared]] * hub.weights[lo + at],
                len(pairs),
            )
    return dots


def ordered_sums(owner: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Left-to-right sum of ``values`` per owner, as Python's ``sum`` adds.

    ``owner`` is non-decreasing; each owner's values are summed in their
    order.  Owners with no values sum to 0.0.
    """
    counts = np.bincount(owner, minlength=n)
    starts = np.cumsum(counts) - counts
    return padded_sums(owner, np.arange(len(values)) - starts[owner], values, n)


def padded_sums(
    row: np.ndarray, column: np.ndarray, values: np.ndarray, n: int
) -> np.ndarray:
    """Per row, the left-to-right sum of its values ordered by column.

    ``row`` is non-decreasing and ``(row, column)`` pairs are distinct.
    Values are placed in zero-padded blocks of at most
    :data:`CHUNK_CELLS` cells (rows only as wide as their largest
    column) and summed with ``np.cumsum(axis=1)``: strictly left to
    right, and adding a padding 0.0 leaves a sum unchanged.
    """
    sums = np.zeros(n)
    if not len(values):
        return sums
    ends = np.cumsum(np.bincount(row, minlength=n))
    widest = int(column.max()) + 1
    chunk = max(1, CHUNK_CELLS // widest)
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        begin = ends[lo - 1] if lo else 0
        end = ends[hi - 1]
        if begin == end:
            continue
        block = np.zeros((hi - lo, int(column[begin:end].max()) + 1))
        block[row[begin:end] - lo, column[begin:end]] = values[begin:end]
        sums[lo:hi] = np.cumsum(block, axis=1)[:, -1]
    return sums


def finish_cosines(
    dots: np.ndarray,
    norms_a: np.ndarray,
    norms_b: np.ndarray,
    scalar: Callable[[int], float],
) -> np.ndarray:
    """``SparseVector.cosine``'s tail over arrays of dots and norms.

    Zero norms give 0.0; pairs whose norm product is subnormal, zero or
    infinite get ``scalar(i)`` (the dict path's rescaling fallback);
    the rest divide and clamp to [0, 1] as the scalar code does.
    """
    with np.errstate(all="ignore"):
        denominators = norms_a * norms_b
        values = np.minimum(np.maximum(dots / denominators, 0.0), 1.0)
    values[(norms_a == 0.0) | (norms_b == 0.0)] = 0.0
    fallback = np.flatnonzero(
        (norms_a != 0.0)
        & (norms_b != 0.0)
        & ((denominators < sys.float_info.min) | np.isinf(denominators))
    )
    for i in fallback.tolist():
        values[i] = scalar(i)
    registry = get_registry()
    registry.counter("text.kernel.pairs").inc(len(dots))
    registry.counter("text.kernel.fallbacks").inc(len(fallback))
    return values


def row_norms(indptr: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """:func:`l2_norm` of every CSR row, from the scalar code."""
    bounds = indptr.tolist()
    flat = weights.tolist()
    return np.array(
        [l2_norm(flat[a:b]) for a, b in zip(bounds, bounds[1:])], dtype=np.float64
    )
