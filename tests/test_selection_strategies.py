"""Unit tests for pluggable context-selection strategies and HitsPrestige."""

import pytest

from repro.core.context import Context
from repro.core.search import SELECTION_STRATEGIES, ContextSearchEngine
from repro.scoring import HitsPrestige


@pytest.fixture(scope="module")
def setup(tiny):
    paper_set, representatives, prestige = tiny.text_scores(
        {"met": ("M1", "M2", "M3"), "sig": ("S1", "S2"), "glu": ("M1", "M2")}
    )
    return {
        "ontology": tiny.ontology,
        "paper_set": paper_set,
        "prestige": prestige,
        "keyword": tiny.keyword,
        "vectors": tiny.vectors,
        "representatives": representatives,
        "graph": tiny.graph,
    }


def make_engine(setup, strategy, **kwargs):
    return ContextSearchEngine(
        setup["ontology"],
        setup["paper_set"],
        setup["prestige"],
        setup["keyword"],
        selection_strategy=strategy,
        **kwargs,
    )


class TestNameStrategy:
    def test_selects_by_term_name(self, setup):
        engine = make_engine(setup, "name")
        selections = engine.select_contexts("signaling process")
        ids = [s.context_id for s in selections]
        assert "sig" in ids
        # 'signaling' does not appear in met/glu term names, but 'process'
        # does: all contexts match partially, sig matches most.
        assert ids[0] == "sig"

    def test_no_name_overlap_selects_nothing(self, setup):
        engine = make_engine(setup, "name")
        assert engine.select_contexts("quasar telescope") == []

    def test_strength_is_query_coverage(self, setup):
        engine = make_engine(setup, "name")
        (top, *_rest) = engine.select_contexts("glucose metabolic")
        assert top.context_id == "glu"
        assert top.strength == pytest.approx(1.0)


class TestRepresentativeStrategy:
    def test_selects_topical_context(self, setup):
        engine = make_engine(
            setup,
            "representative",
            vectors=setup["vectors"],
            representatives=setup["representatives"],
        )
        selections = engine.select_contexts("kinase receptor cascades")
        assert selections[0].context_id == "sig"

    def test_requires_vectors_and_representatives(self, setup):
        with pytest.raises(ValueError, match="representative"):
            make_engine(setup, "representative")

    def test_unknown_query_vector_selects_nothing(self, setup):
        engine = make_engine(
            setup,
            "representative",
            vectors=setup["vectors"],
            representatives=setup["representatives"],
        )
        assert engine.select_contexts("zzz qqq") == []


class TestStrategyValidation:
    def test_unknown_strategy_rejected(self, setup):
        with pytest.raises(ValueError, match="selection_strategy"):
            make_engine(setup, "oracle")

    def test_all_strategies_listed(self):
        assert set(SELECTION_STRATEGIES) == {"probe", "name", "representative"}

    def test_search_works_with_each_available_strategy(self, setup):
        for strategy in ("probe", "name"):
            engine = make_engine(setup, strategy)
            hits = engine.search("metabolic glucose")
            assert all(0.0 <= h.relevancy <= 1.0 for h in hits)


class TestHitsPrestige:
    def test_in_context_authority_ordering(self, setup):
        scorer = HitsPrestige(setup["graph"])
        raw = scorer.score_context(setup["paper_set"].context("met"))
        # M1 is cited by M2 and M3 within the context: top authority.
        assert raw["M1"] == max(raw.values())

    def test_empty_context(self, setup):
        scorer = HitsPrestige(setup["graph"])
        assert scorer.score_context(Context("met", ())) == {}

    def test_score_all_normalized_with_max(self, setup):
        scorer = HitsPrestige(setup["graph"])
        scores = scorer.score_all(setup["paper_set"])
        for context_id in scores.context_ids():
            values = scores.of(context_id).values()
            assert all(0.0 <= v <= 1.0 for v in values)

    def test_pipeline_exposes_hits(self, small_dataset):
        from repro.pipeline import Pipeline

        pipeline = Pipeline.from_dataset(small_dataset, min_context_size=3)
        scores = pipeline.prestige("hits", "text")
        assert scores.function_name == "hits"
        assert len(scores) > 0
