"""Tests for ranking explanations, precomputed loading, and subontology."""

import pytest

from repro.core.search import ContextSearchEngine
from repro.ontology.ontology import Ontology, OntologyError
from repro.ontology.term import Term


@pytest.fixture(scope="module")
def engine(tiny):
    paper_set, _, prestige = tiny.text_scores(
        {"met": ("M1", "M2", "M3"), "sig": ("S1", "S2")}
    )
    return ContextSearchEngine(tiny.ontology, paper_set, prestige, tiny.keyword)


class TestExplain:
    def test_retrievable_paper(self, engine):
        explanation = engine.explain("glucose metabolic", "M1")
        assert explanation.retrievable
        assert explanation.matching > 0.0
        assert explanation.best_relevancy is not None
        context_ids = [row[0] for row in explanation.in_selected_contexts]
        assert "met" in context_ids

    def test_relevancy_decomposition_consistent(self, engine):
        explanation = engine.explain("glucose metabolic", "M1")
        for context_id, prestige, relevancy in explanation.in_selected_contexts:
            assert relevancy == pytest.approx(
                0.5 * prestige + 0.5 * explanation.matching
            )

    def test_explains_agreement_with_search(self, engine):
        hits = {h.paper_id: h for h in engine.search("glucose metabolic")}
        explanation = engine.explain("glucose metabolic", "M1")
        assert explanation.best_relevancy == pytest.approx(hits["M1"].relevancy)

    def test_paper_outside_selected_contexts(self, engine):
        explanation = engine.explain("glucose metabolic", "X1")
        assert not explanation.retrievable
        assert explanation.in_selected_contexts == ()

    def test_format_renders(self, engine):
        text = engine.explain("glucose metabolic", "M1").format()
        assert "text matching score" in text
        assert "prestige=" in text
        unretrievable = engine.explain("glucose metabolic", "X1").format()
        assert "not retrievable" in unretrievable


class TestSubontology:
    @pytest.fixture
    def mixed(self):
        return Ontology(
            [
                Term("bp_root", "process", namespace="biological_process"),
                Term(
                    "bp_child",
                    "x process",
                    namespace="biological_process",
                    parent_ids=("bp_root",),
                ),
                Term("mf_root", "activity", namespace="molecular_function"),
                Term(
                    "weird",
                    "cross-aspect child",
                    namespace="molecular_function",
                    parent_ids=("bp_root", "mf_root"),
                ),
            ]
        )

    def test_restricts_terms(self, mixed):
        bp = mixed.subontology("biological_process")
        assert set(bp.term_ids()) == {"bp_root", "bp_child"}

    def test_cross_namespace_parents_dropped(self, mixed):
        mf = mixed.subontology("molecular_function")
        assert mf.parents("weird") == ["mf_root"]

    def test_unknown_namespace_raises(self, mixed):
        with pytest.raises(OntologyError, match="no terms"):
            mixed.subontology("cellular_component")

    def test_namespaces_listed(self, mixed):
        assert mixed.namespaces() == [
            "biological_process",
            "molecular_function",
        ]

    def test_levels_recomputed(self, mixed):
        mf = mixed.subontology("molecular_function")
        assert mf.level("weird") == 2


class TestLoadPrecomputed:
    """Partial hydration: ``open_workspace(strict=False)`` over a
    workspace holding only some precomputed artefacts."""

    def test_round_trip_through_pipeline(self, small_dataset, tmp_path):
        from repro.pipeline import Pipeline
        from repro.workspace import open_workspace, topological_order

        source = Pipeline.from_dataset(small_dataset, min_context_size=3)
        source.build_workspace(tmp_path, only=["scores_text_text"])

        fresh = Pipeline.from_dataset(small_dataset, min_context_size=3)
        loaded = open_workspace(fresh, tmp_path, strict=False)
        assert loaded == len(topological_order(["scores_text_text"]))
        # The loaded artefacts short-circuit the builds and match exactly.
        assert fresh.substrates.has("text_paper_set")
        assert fresh.substrates.has("text/text")
        assert not fresh.substrates.has("pattern_paper_set")
        assert fresh.text_paper_set.context_ids() == (
            source.text_paper_set.context_ids()
        )
        original = source.prestige("text", "text")
        restored = fresh.prestige("text", "text")
        for context_id in original.context_ids():
            assert restored.of(context_id) == pytest.approx(
                original.of(context_id)
            )

    def test_representatives_rederived_after_load(self, small_dataset, tmp_path):
        from repro.pipeline import Pipeline
        from repro.workspace import open_workspace

        source = Pipeline.from_dataset(small_dataset, min_context_size=3)
        source.build_workspace(tmp_path, only=["text_paper_set"])
        fresh = Pipeline.from_dataset(small_dataset, min_context_size=3)
        open_workspace(fresh, tmp_path, strict=False)
        # The loaded contexts carry them: nothing re-derives them.
        assert fresh.substrates.has("text_paper_set")
        assert all(c.representative for c in fresh.text_paper_set)
        assert fresh.representatives == source.representatives

    def test_empty_directory_loads_nothing(self, small_dataset, tmp_path):
        from repro.pipeline import Pipeline
        from repro.workspace import open_workspace

        pipeline = Pipeline.from_dataset(small_dataset)
        assert open_workspace(pipeline, tmp_path, strict=False) == 0
