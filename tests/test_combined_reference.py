"""Differential test: derived ``combined`` scores against a recompute reference.

``combined`` is declared with ``components=`` and the substrate store
derives it from the memoised ``citation`` and ``text`` scores; the
reference is :class:`reference.prestige.ReferenceCombined`, decayed and
max-propagated.  Hypothesis draws demo pipelines and add/remove
deltas; after the delta the derived scores (``of()``, ``pre``
and ``aligned()``) must equal the reference's with ``==``.

The text paper set has no decayed context, so there it is exact
everywhere.  On a decayed pattern context the derivation computes
``sum(w * (d * x))`` and the reference ``d * sum(w * x)``, which may
differ in the last ulp; there equality is asserted only where the
context and every descendant it propagates from have ``decay == 1.0``,
and the rest must agree to 1e-12.

``TestWorkOnce`` checks that a delta followed by a workspace build runs
text similarity once and PageRank only for the changed contexts, and
that the persisted artifact is byte-identical to the reference's.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference.prestige import ReferenceCombined, pre_maps
from reference.strategies import delta_pipeline
from repro import scoring
from repro.obs import get_registry
from repro.pipeline import build_demo_pipeline
from repro.workspace import ARTIFACTS, workspace_status


def reference_scores(store, paper_set_name):
    spec = scoring.get("combined")
    scorers = [
        (scoring.get(name).factory(store), weight)
        for name, weight in spec.components
    ]
    return ReferenceCombined(scorers).score_all(store.paper_set(paper_set_name))


def assert_matches_reference(store, paper_set_name):
    paper_set = store.paper_set(paper_set_name)
    derived = store.prestige("combined", paper_set_name)
    reference = reference_scores(store, paper_set_name)
    undecayed = {c.term_id for c in paper_set if c.decay == 1.0}
    exact = {
        cid
        for cid in undecayed
        if set(paper_set.descendants_in_set(cid)) <= undecayed
    }
    if paper_set_name == "text":
        assert exact == {c.term_id for c in paper_set}
    assert derived.context_ids() == reference.context_ids()
    derived_pre, reference_pre = pre_maps(derived), pre_maps(reference)
    assert list(derived_pre) == list(reference_pre)
    for cid, expected in reference_pre.items():
        got = derived_pre[cid]
        assert list(got) == list(expected)
        if cid in undecayed:
            assert got == expected
        assert np.allclose(
            list(got.values()), list(expected.values()), rtol=0, atol=1e-12
        )
    for cid in reference.context_ids():
        got, expected = derived.of(cid), reference.of(cid)
        assert list(got) == list(expected)
        if cid in exact:
            assert got == expected
    columns = paper_set.columns
    got, expected = derived.aligned(columns), reference.aligned(columns)
    rows = np.repeat(
        np.array([cid in exact for cid in columns.context_ids], dtype=bool),
        np.diff(columns.indptr),
    )
    assert np.array_equal(got[rows], expected[rows])
    assert np.allclose(got, expected, rtol=0, atol=1e-12)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 40),
    n_add=st.integers(0, 3),
    n_remove=st.integers(0, 3),
)
def test_derived_scores_equal_recompute_after_delta(seed, n_add, n_remove):
    assume(n_add + n_remove > 0)
    warm = [("combined", name) for name in scoring.PAPER_SET_NAMES]
    pipeline, report = delta_pipeline(seed, n_add, n_remove, warm)
    assert "citation/text" in report.scores_patched
    assert "combined/text" in report.scores_dropped
    for paper_set_name in scoring.PAPER_SET_NAMES:
        assert_matches_reference(pipeline.substrates, paper_set_name)


def test_derived_scores_equal_recompute_on_a_fresh_pipeline():
    pipeline = build_demo_pipeline(seed=7, n_papers=120, n_terms=30)
    for paper_set_name in scoring.PAPER_SET_NAMES:
        assert_matches_reference(pipeline.substrates, paper_set_name)


class TestWorkOnce:
    ONLY = ["scores_text_text", "scores_citation_text", "scores_combined_text"]

    def test_delta_scores_text_once_and_citation_for_changed_contexts(
        self, tmp_path
    ):
        pipeline = build_demo_pipeline(seed=5, n_papers=80, n_terms=20)
        pipeline.build_workspace(tmp_path, only=self.ONLY)
        store = pipeline.substrates
        registry = get_registry()
        before = dict(registry.snapshot()["counters"])
        report = store.apply_delta(removed_ids=[list(pipeline.corpus)[3].paper_id])
        pipeline.build_workspace(tmp_path, only=self.ONLY)
        after = registry.snapshot()["counters"]

        def grew(name):
            return after.get(name, 0) - before.get(name, 0)

        live = {context.term_id for context in store.paper_set("text")}
        changed = [cid for cid in report.changed_contexts["text"] if cid in live]
        assert 0 < len(changed) < len(live)
        assert grew("scores.text.contexts_scored") == len(store.scores["text/text"])
        assert grew("scores.citation.contexts_scored") == len(changed)
        assert grew("scores.combined.contexts_derived") == len(
            store.scores["combined/text"]
        )
        assert grew("scores.combined.contexts_scored") == 0
        assert grew("scores.combined.papers_scored") == 0

    def test_reference_built_artifact_is_fresh_and_rebuilds_byte_identical(
        self, tmp_path
    ):
        writer = build_demo_pipeline(seed=5, n_papers=80, n_terms=20)
        writer.substrates.install_scores(
            "combined/text", reference_scores(writer.substrates, "text")
        )
        writer.build_workspace(tmp_path, only=self.ONLY)
        path = tmp_path / ARTIFACTS["scores_combined_text"].filename
        written = path.read_bytes()

        reader = build_demo_pipeline(seed=5, n_papers=80, n_terms=20)
        states = {s.name: s.state for s in workspace_status(reader, tmp_path)}
        assert states["scores_combined_text"] == "fresh"
        reader.build_workspace(tmp_path, only=["scores_combined_text"], force=True)
        assert path.read_bytes() == written
