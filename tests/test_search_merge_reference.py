"""Differential test: the top-``limit`` merge against the two-sort merge.

Hypothesis draws scored (context, paper) pairs shaped as ``_score``
leaves them: contexts in selection order, each paper at most once per
context, papers shared by several contexts, relevancies from a few
values that tie within and across papers, NaN among them.  Paper rows
are ranked by id in a drawn order, not row order.  At limits 0, 1,
n - 1, n, n + 1 and ``None`` (n the number of distinct papers) every
column of the pairs :meth:`_Scored.merge` returns (context, paper,
relevancy, and the prestige and matching the engine gathers for them)
and its ``deduped`` count must equal
:func:`reference.search.two_sort_merge` bit for bit, and ``kept`` must
equal :func:`reference.search.pairs_kept`.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference.search import pairs_kept, two_sort_merge
from repro.core.search import _Scored

NAN = float("nan")
#: Few distinct values, so relevancies tie; NaN is kept by ``_score``.
VALUES = (0.0, 0.1, 0.25, 0.5, 1.0, NAN)


def scored_pairs(orders, papers, relevancy):
    """A ``_Scored`` with production dtypes; each pair has its own CSR
    position, so a wrong winning pair shows in the prestige column."""
    return _Scored(
        order=np.array(orders, dtype=np.intp),
        papers=np.array(papers, dtype=np.int32),
        relevancy=np.array(relevancy, dtype=np.float64),
        positions=np.arange(len(papers), dtype=np.int64),
    )


@st.composite
def pair_sets(draw):
    n_rows = draw(st.integers(1, 8))
    rank = np.array(draw(st.permutations(range(n_rows))), dtype=np.intp)
    orders, papers = [], []
    for order in range(draw(st.integers(0, 5))):
        members = draw(st.lists(st.integers(0, n_rows - 1), unique=True))
        orders += [order] * len(members)
        papers += members
    relevancy = draw(st.lists(
        st.sampled_from(VALUES), min_size=len(papers), max_size=len(papers)
    ))
    return scored_pairs(orders, papers, relevancy), rank


def columns(scored, pairs, rank):
    """The returned pairs' columns, gathered as ``_hits`` gathers them:
    prestige by CSR position, matching by paper row."""
    prestige = np.arange(len(scored), dtype=np.float64)
    match = np.arange(len(rank), dtype=np.float64) / 8.0
    papers = scored.papers[pairs]
    return [
        (column.dtype.str, column.tobytes())
        for column in (
            scored.order[pairs], papers, scored.relevancy[pairs],
            prestige[scored.positions[pairs]], match[papers],
        )
    ]


# Row 0 has a NaN and a finite pair: its finite best must reach the cut.
NAN_AND_FINITE = (
    scored_pairs([0, 0, 0, 1], [0, 1, 2, 0], [NAN, 0.3, 0.1, 0.5]),
    np.arange(3, dtype=np.intp),
)
EMPTY = (scored_pairs([], [], []), np.arange(2, dtype=np.intp))


@settings(max_examples=300, deadline=None)
@given(pair_sets())
@example(NAN_AND_FINITE)
@example(EMPTY)
def test_merge_equals_two_sort_merge(case):
    scored, rank = case
    n = len(set(scored.papers.tolist()))
    for limit in (None, *sorted({0, 1, n - 1, n, n + 1} - {-1})):
        pairs, deduped, kept = scored.merge(rank, limit)
        expected, expected_deduped = two_sort_merge(scored, rank, limit)
        assert columns(scored, pairs, rank) == columns(scored, expected, rank), limit
        assert deduped == expected_deduped, limit
        assert kept == pairs_kept(scored, limit), limit


def test_nan_pair_does_not_hide_a_finite_best():
    scored, rank = NAN_AND_FINITE
    pairs, deduped, kept = scored.merge(rank, 1)
    assert scored.papers[pairs].tolist() == [0]
    assert scored.relevancy[pairs].tolist() == [0.5]
    assert (deduped, kept) == (1, 1)
