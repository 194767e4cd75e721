"""Differential test: prestige tables as rows against the dict reference.

:mod:`repro.scoring.base` builds, normalises, decays, max-propagates,
blends and patches score tables as :class:`ScoreRows`.
:mod:`reference.prestige` keeps the per-entry dict loops they
replaced.  Hypothesis draws micro paper sets over small DAG ontologies,
with raw scores that include ``-0.0``, ``+-0`` ties across descendants,
negative values, unscored contexts and rows in an order other than the
members'; every table must equal the reference's float bit for float
bit and write the same file bytes, and :meth:`PrestigeScores.aligned`
must place every score where the reference does.
"""

import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.prestige import (
    aligned_reference,
    blend,
    maps,
    patch,
    pre_maps,
    propagate_max_over_descendants,
    score_each,
    scores_from_maps,
)
from reference.strategies import ontologies
from repro.core.context import Context, ContextPaperSet
from repro.core.io import write_prestige_scores
from repro.corpus.rows import PaperRows
from repro.ontology.ontology import Ontology
from repro.ontology.term import Term
from repro.scoring import PrestigeScoreFunction, PrestigeScores, propagate_max
from repro.scoring.base import rows_from_maps
from repro.serving.substrate import SubstrateStore

PAPERS = tuple(f"P{i}" for i in range(7))
#: The papers' rows, in an order other than the ids', so a table that
#: leaned on row order for id order would show; ``NEW_ROWS`` is a later
#: corpus revision's numbering of the same papers.
ROWS = PaperRows(("P3", "P0", "P6", "P1", "P5", "P2", "P4"))
NEW_ROWS = PaperRows(("P5", "P1", "P4", "P0", "P6", "P3", "P2"))
#: Ties and signed zeros come up often from a small pool.
VALUES = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 3.0, -0.5, -2.0]) | st.floats(
    -4.0, 4.0, allow_nan=False
)
DECAYS = st.sampled_from([1.0, 1.0, 0.5, 0.3, 0.7])
NORMALIZATIONS = st.sampled_from(["max", "none"])


def bits(values) -> list:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def map_bits(by_context):
    return {
        cid: [(pid, bits([value])[0]) for pid, value in scores.items()]
        for cid, scores in by_context.items()
    }


class DrawnScorer(PrestigeScoreFunction):
    """Raw scores drawn up front; empty for contexts it does not score."""

    name = "drawn"

    def __init__(self, raw, normalization) -> None:
        self.raw = raw
        self.normalization = normalization

    def score_context(self, context):
        return dict(self.raw.get(context.term_id, {}))


@st.composite
def paper_sets(draw, ontology, paper_rows=ROWS):
    ids = draw(st.permutations(sorted(ontology.term_ids())))
    contexts = [
        Context(
            cid,
            tuple(draw(st.lists(st.sampled_from(PAPERS), unique=True, max_size=6))),
            decay=draw(DECAYS),
        )
        for cid in ids[: draw(st.integers(0, len(ids)))]
    ]
    return ContextPaperSet(ontology, contexts, paper_rows)


@st.composite
def raw_scores(draw, paper_set):
    """Per context: nothing (unscored), or its members in member order or
    shuffled (a citation row after a delta), each with a drawn value."""
    raw = {}
    for context in paper_set:
        kind = draw(st.sampled_from(["unscored", "members", "shuffled"]))
        if kind == "unscored" or not context.paper_ids:
            continue
        papers = list(context.paper_ids)
        if kind == "shuffled":
            papers = draw(st.permutations(papers))
        raw[context.term_id] = {pid: draw(VALUES) for pid in papers}
    return raw


def assert_table(got: PrestigeScores, by_context, pre) -> None:
    """``got`` holds exactly the reference maps, in order, bit for bit,
    and writes the bytes of the same maps over their own sorted rows."""
    expected = scores_from_maps(got.function_name, by_context, pre, got.paper_rows)
    for rows, reference in ((got.scores, expected.scores), (got.pre, expected.pre)):
        assert rows.context_ids == reference.context_ids
        assert rows.indptr.dtype == np.int64 and rows.rows.dtype == np.int32
        assert rows.indptr.tolist() == reference.indptr.tolist()
        assert rows.rows.tolist() == reference.rows.tolist()
        assert bits(rows.values) == bits(reference.values)
    with tempfile.TemporaryDirectory() as directory:
        paths = Path(directory) / "got.npz", Path(directory) / "expected.npz"
        write_prestige_scores(got, paths[0])
        write_prestige_scores(
            scores_from_maps(got.function_name, by_context, pre), paths[1]
        )
        assert paths[0].read_bytes() == paths[1].read_bytes()


def assert_readers(got: PrestigeScores, by_context, paper_set) -> None:
    """``of``, ``score``, ``in``, ``len`` and ``aligned`` read the rows."""
    assert got.context_ids() == list(by_context)
    assert len(got) == len(by_context)
    for context in paper_set:
        cid = context.term_id
        assert (cid in got) == (cid in by_context)
        expected = by_context.get(cid, {})
        assert map_bits({cid: got.of(cid)}) == map_bits({cid: expected})
        for pid in PAPERS:
            assert bits([got.score(cid, pid, -7.0)]) == bits([expected.get(pid, -7.0)])
    columns = paper_set.columns
    assert bits(got.aligned(columns)) == bits(aligned_reference(by_context, columns))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_score_all_equals_dict_reference(data):
    """Build, normalise, decay and propagate, then every reader."""
    paper_set = data.draw(paper_sets(data.draw(ontologies())))
    scorer = DrawnScorer(data.draw(raw_scores(paper_set)), data.draw(NORMALIZATIONS))
    got = scorer.score_all(paper_set)
    pre = score_each(scorer, paper_set)
    by_context = propagate_max_over_descendants(paper_set, pre)
    assert_table(got, by_context, pre)
    assert_readers(got, by_context, paper_set)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_aligned_on_other_layouts(data):
    """Rows scattered onto a paper set other than the scored one: other
    member orders, missing and extra contexts and papers."""
    ontology = data.draw(ontologies())
    scored_set = data.draw(paper_sets(ontology))
    scorer = DrawnScorer(data.draw(raw_scores(scored_set)), data.draw(NORMALIZATIONS))
    got = scorer.score_all(scored_set)
    by_context = propagate_max_over_descendants(
        scored_set, score_each(scorer, scored_set)
    )
    if data.draw(st.booleans()):
        layout = ContextPaperSet(
            ontology,
            [
                Context(c.term_id, tuple(data.draw(st.permutations(c.paper_ids))))
                for c in scored_set
            ],
            ROWS,
        )
    else:
        layout = data.draw(paper_sets(ontology))
    expected = aligned_reference(by_context, layout.columns)
    assert bits(got.aligned(layout.columns)) == bits(expected)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_propagate_max_equals_dict_reference(data):
    """Propagation alone, over values that include NaN: a NaN is never
    taken from a descendant and never replaced in its own context."""
    paper_set = data.draw(paper_sets(data.draw(ontologies())))
    values = VALUES | st.just(float("nan"))
    pre = {
        cid: {pid: data.draw(values) for pid in scores}
        for cid, scores in data.draw(raw_scores(paper_set)).items()
    }
    rows = rows_from_maps(ROWS, list(pre), list(pre.values()))
    got = maps(ROWS, propagate_max(paper_set, rows))
    assert map_bits(got) == map_bits(propagate_max_over_descendants(paper_set, pre))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_blend_equals_dict_reference(data):
    """``SubstrateStore._derive_scores`` against the dict blend."""
    paper_set = data.draw(paper_sets(data.draw(ontologies())))
    names = ("first", "second")
    components = {
        name: DrawnScorer(
            data.draw(raw_scores(paper_set)), data.draw(NORMALIZATIONS)
        ).score_all(paper_set)
        for name in names
    }
    weight = data.draw(st.sampled_from([0.5, 0.25, 0.1]) | st.floats(0.01, 0.99))
    spec = SimpleNamespace(
        name="blended", components=((names[0], weight), (names[1], 1.0 - weight))
    )
    store = SimpleNamespace(prestige=lambda name, paper_set_name: components[name])
    got = SubstrateStore._derive_scores(store, spec, "text", paper_set)
    pre = blend(
        paper_set,
        [(pre_maps(components[name]), w) for name, w in spec.components],
    )
    by_context = propagate_max_over_descendants(paper_set, pre)
    assert got.function_name == "blended"
    assert_table(got, by_context, pre)
    assert_readers(got, by_context, paper_set)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_patch_equals_dict_reference(data):
    """``SubstrateStore._patch_scores`` against the dict splice: old rows
    from one paper set, fresh rows for the changed contexts of another,
    over the next corpus revision's rows."""
    ontology = data.draw(ontologies())
    old_set = data.draw(paper_sets(ontology))
    new_set = data.draw(paper_sets(ontology, NEW_ROWS))
    normalization = data.draw(NORMALIZATIONS)
    old = DrawnScorer(data.draw(raw_scores(old_set)), normalization).score_all(old_set)
    scorer = DrawnScorer(data.draw(raw_scores(new_set)), normalization)
    changed = data.draw(
        st.lists(st.sampled_from(sorted(ontology.term_ids())), unique=True)
    )
    spec = SimpleNamespace(factory=lambda store: scorer)
    got = SubstrateStore._patch_scores(
        None, spec, old, new_set, changed, ROWS, ROWS.remap(NEW_ROWS, set())
    )
    fresh = score_each(scorer, [c for c in new_set if c.term_id in set(changed)])
    pre = patch(new_set, pre_maps(old), fresh, set(changed))
    by_context = propagate_max_over_descendants(new_set, pre)
    assert_table(got, by_context, pre)
    assert_readers(got, by_context, new_set)


class TestSignedZero:
    """The cases a per-entry loop decides by order, spelt out."""

    def test_max_keeps_a_negative_zero(self):
        paper_set = ContextPaperSet(
            Ontology([Term("c", "c")]), [Context("c", ("a", "b"))], PaperRows("ab")
        )
        got = DrawnScorer({"c": {"a": -0.0, "b": 2.0}}, "max").score_all(paper_set)
        assert bits(got.pre.values) == bits([-0.0, 1.0])

    def test_first_zero_descendant_wins_a_tie(self):
        ontology = Ontology(
            [
                Term("root", "root"),
                Term("left", "left", parent_ids=("root",)),
                Term("right", "right", parent_ids=("root",)),
            ]
        )
        contexts = [Context(cid, ("p",)) for cid in ("root", "left", "right")]
        paper_rows = PaperRows(("p",))
        paper_set = ContextPaperSet(ontology, contexts, paper_rows)
        first, second = paper_set.descendants_in_set("root")
        pre = {"root": {"p": -0.5}, first: {"p": -0.0}, second: {"p": 0.0}}
        rows = rows_from_maps(paper_rows, list(pre), list(pre.values()))
        got = maps(paper_rows, propagate_max(paper_set, rows))
        assert bits([got["root"]["p"]]) == bits([-0.0])
        assert map_bits(got) == map_bits(propagate_max_over_descendants(paper_set, pre))
