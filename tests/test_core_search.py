"""Unit tests for the context-based search engine."""

import pytest

from repro.core.search import ContextSearchEngine


@pytest.fixture(scope="module")
def setup(tiny):
    paper_set, _, prestige = tiny.text_scores(
        {"met": ("M1", "M2", "M3"), "sig": ("S1", "S2"), "glu": ("M1", "M2")}
    )
    return {
        "engine": ContextSearchEngine(tiny.ontology, paper_set, prestige, tiny.keyword),
        "paper_set": paper_set,
        "keyword": tiny.keyword,
        "ontology": tiny.ontology,
        "prestige": prestige,
    }


def weighted(setup, **weights):
    """An engine over ``setup`` with the given relevancy weights."""
    return ContextSearchEngine(
        setup["ontology"], setup["paper_set"], setup["prestige"], setup["keyword"],
        **weights,
    )


class TestContextSelection:
    def test_topical_context_selected_first(self, setup):
        selections = setup["engine"].select_contexts("glucose metabolic glycolysis")
        assert selections
        assert selections[0].context_id in {"met", "glu"}

    def test_off_topic_query_selects_nothing(self, setup):
        assert setup["engine"].select_contexts("quasar telescope") == []

    def test_max_contexts_respected(self, setup):
        assert len(setup["engine"].select_contexts("process", max_contexts=1)) <= 1

    def test_strengths_sorted_descending(self, setup):
        selections = setup["engine"].select_contexts("metabolic glucose process")
        strengths = [s.strength for s in selections]
        assert strengths == sorted(strengths, reverse=True)


class TestSearch:
    def test_end_to_end(self, setup):
        hits = setup["engine"].search("glucose metabolic")
        assert hits
        ids = [h.paper_id for h in hits]
        assert "M1" in ids
        assert "X1" not in ids

    def test_relevancy_combines_prestige_and_matching(self, setup):
        hits = setup["engine"].search("glucose metabolic")
        for hit in hits:
            expected = 0.5 * hit.prestige + 0.5 * hit.matching
            assert hit.relevancy == pytest.approx(expected)

    def test_sorted_by_relevancy(self, setup):
        hits = setup["engine"].search("metabolic process")
        values = [h.relevancy for h in hits]
        assert values == sorted(values, reverse=True)

    def test_merge_keeps_best_context(self, setup):
        """M1 is in both met and glu; merged output lists it once."""
        hits = setup["engine"].search("glucose metabolic", contexts=["met", "glu"])
        ids = [h.paper_id for h in hits]
        assert ids.count("M1") == 1

    def test_threshold_filters(self, setup):
        everything = setup["engine"].search("metabolic", contexts=["met"])
        top = max(h.relevancy for h in everything)
        strict = setup["engine"].search("metabolic", contexts=["met"], threshold=top)
        assert all(h.relevancy >= top for h in strict)
        assert len(strict) <= len(everything)

    def test_limit(self, setup):
        hits = setup["engine"].search("metabolic process", limit=1)
        assert len(hits) == 1

    def test_negative_limit_rejected(self, setup):
        # A slice would read -1 from the end and drop only the last hit.
        with pytest.raises(ValueError, match="limit must be non-negative"):
            setup["engine"].search("metabolic process", limit=-1)

    def test_negative_per_context_limit_rejected(self, setup):
        with pytest.raises(ValueError, match="per_context_limit must be non-negative"):
            setup["engine"].search_grouped("metabolic process", per_context_limit=-1)

    def test_explicit_contexts_skip_selection(self, setup):
        hits = setup["engine"].search("kinase receptor", contexts=["sig"])
        assert {h.context_id for h in hits} == {"sig"}

    def test_unknown_explicit_context_ignored(self, setup):
        assert setup["engine"].search("kinase", contexts=["nope"]) == []

    def test_no_text_match_no_hit(self, setup):
        """Prestigious papers without any query-term match never surface."""
        hits = setup["engine"].search("quasar", contexts=["met"])
        assert hits == []

    def test_result_ids_helper(self, setup):
        ids = setup["engine"].result_ids("glucose metabolic")
        assert ids == [h.paper_id for h in setup["engine"].search("glucose metabolic")]


class TestWeights:
    def test_prestige_only_ranking(self, setup):
        engine = weighted(setup, w_prestige=1.0, w_matching=0.0)
        hits = engine.search("metabolic", contexts=["met"])
        for hit in hits:
            assert hit.relevancy == pytest.approx(hit.prestige)

    def test_matching_only_ranking(self, setup):
        engine = weighted(setup, w_prestige=0.0, w_matching=1.0)
        hits = engine.search("metabolic", contexts=["met"])
        for hit in hits:
            assert hit.relevancy == pytest.approx(hit.matching)

    def test_invalid_weights(self, setup):
        with pytest.raises(ValueError):
            weighted(setup, w_prestige=0.0, w_matching=0.0)
        with pytest.raises(ValueError):
            weighted(setup, w_prestige=-1.0)
