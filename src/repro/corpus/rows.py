"""One numbering of a corpus revision's papers.

Every in-memory paper column (index postings, vector rows, context
members, score tables, query evaluations) names a paper by its row in
the :class:`PaperRows` of the corpus revision it was built over
(:attr:`Corpus.paper_rows`).  Where two columns meet, they must hold the
same object, so rows of two revisions never mix.  :func:`indptr_of` and
:func:`csr_positions` are the CSR helpers the row-indexed columns share.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Iterable, Sequence, Tuple

import numpy as np


def id_rank(ids: Sequence[str]) -> np.ndarray:
    """Each id's position in ascending id order (``intp``)."""
    rank = np.empty(len(ids), dtype=np.intp)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return rank


def indptr_of(lengths: Sequence[int]) -> np.ndarray:
    """CSR row bounds (int64) of rows with ``lengths`` entries."""
    indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return indptr


def csr_positions(
    indptr: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Entry positions of CSR ``rows``, concatenated in ``rows`` order.

    Returns ``(positions, counts)``; ``counts[i]`` is row ``i``'s length.
    """
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    offsets = np.cumsum(counts) - counts
    positions = np.arange(int(counts.sum()), dtype=np.int64) + np.repeat(
        starts - offsets, counts
    )
    return positions, counts


class PaperRows:
    """Paper ids by row in ``Corpus.paper_ids()`` order; immutable.

    ``ids[row]`` is a row's paper and ``row_of`` the inverse;
    ``rank[row]`` is the row's position in ascending paper-id order, so
    a ``(-score, paper_id)`` ranking over rows is one ``lexsort``.
    """

    __slots__ = ("ids", "row_of", "rank")

    def __init__(self, ids: Iterable[str]) -> None:
        self.ids: Tuple[str, ...] = tuple(ids)
        self.row_of: Dict[str, int] = {pid: row for row, pid in enumerate(self.ids)}
        self.rank = id_rank(self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    def rows(self, ids: Iterable[str]) -> np.ndarray:
        """Rows of ``ids``, in their order; ``ValueError`` on an unknown id."""
        try:
            return np.fromiter(map(self.row_of.__getitem__, ids), dtype=np.intp)
        except KeyError as error:
            raise ValueError(f"paper {error.args[0]!r} is not in the corpus") from None

    def remap(self, newer: "PaperRows", removed: AbstractSet[str]) -> np.ndarray:
        """Each row's row in ``newer`` (``int32``, like score rows); -1 for
        a ``removed`` id (removed and re-added in one delta counts)."""
        row_of = newer.row_of
        return np.array(
            [-1 if pid in removed else row_of.get(pid, -1) for pid in self.ids],
            dtype=np.int32,
        )


def check_same_rows(a: PaperRows, b: PaperRows) -> None:
    """``ValueError`` unless ``a`` and ``b`` are the same object."""
    if a is not b:
        raise ValueError(
            f"paper rows of two corpus revisions meet ({len(a)} and {len(b)} papers)"
        )
