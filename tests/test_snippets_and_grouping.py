"""Unit tests for result snippets and grouped search output."""

import pytest

from repro.core.search import ContextSearchEngine
from repro.corpus.paper import Paper, Section
from repro.index.snippets import best_snippet


class TestBestSnippet:
    @pytest.fixture
    def paper(self):
        return Paper(
            paper_id="P",
            title="Unrelated title entirely",
            abstract="Early filler words here. The glucose metabolism rate "
            "was measured in yeast cells. More trailing text follows after.",
            body="glucose appears here too among many other body words",
        )

    def test_snippet_covers_query_terms(self, paper):
        snippet = best_snippet(paper, "glucose metabolism", window=10)
        assert snippet is not None
        assert "glucose" in snippet.text
        assert snippet.matched_terms == 2
        assert snippet.section is Section.ABSTRACT

    def test_ellipses_mark_truncation(self, paper):
        snippet = best_snippet(paper, "glucose metabolism", window=6)
        assert snippet.text.startswith("... ") or snippet.text.endswith(" ...")

    def test_original_casing_preserved(self, paper):
        snippet = best_snippet(paper, "glucose", window=30)
        assert "The glucose" in snippet.text or "glucose" in snippet.text

    def test_no_match_returns_none(self, paper):
        assert best_snippet(paper, "quasar") is None

    def test_empty_query_returns_none(self, paper):
        assert best_snippet(paper, "the of and") is None

    def test_prefers_section_with_more_terms(self, paper):
        # 'metabolism' only in abstract: abstract wins over body.
        snippet = best_snippet(paper, "glucose metabolism")
        assert snippet.section is Section.ABSTRACT

    def test_window_validation(self, paper):
        with pytest.raises(ValueError):
            best_snippet(paper, "glucose", window=0)

    def test_title_fallback(self):
        paper = Paper(paper_id="T", title="glucose in titles only")
        snippet = best_snippet(paper, "glucose")
        assert snippet.section is Section.TITLE
        assert "glucose" in snippet.text


class TestSearchGrouped:
    @pytest.fixture(scope="class")
    def engine(self, tiny):
        paper_set, _, prestige = tiny.text_scores(
            {"met": ("M1", "M2", "M3"), "glu": ("M1", "M2"), "sig": ("S1", "S2")}
        )
        return ContextSearchEngine(tiny.ontology, paper_set, prestige, tiny.keyword)

    def test_groups_ordered_by_selection_strength(self, engine):
        groups = engine.search_grouped("glucose metabolic")
        assert groups
        strengths = [g.selection_strength for g in groups]
        assert strengths == sorted(strengths, reverse=True)

    def test_hits_sorted_within_group(self, engine):
        for group in engine.search_grouped("metabolic process"):
            values = [h.relevancy for h in group.hits]
            assert values == sorted(values, reverse=True)

    def test_paper_can_appear_in_multiple_groups(self, engine):
        groups = engine.search_grouped("glucose metabolic")
        group_ids = {g.context_id for g in groups}
        if {"met", "glu"} <= group_ids:
            met = next(g for g in groups if g.context_id == "met")
            glu = next(g for g in groups if g.context_id == "glu")
            shared = {h.paper_id for h in met.hits} & {
                h.paper_id for h in glu.hits
            }
            assert "M1" in shared

    def test_per_context_limit(self, engine):
        for group in engine.search_grouped("metabolic", per_context_limit=1):
            assert len(group) <= 1

    def test_grouped_union_matches_merged(self, engine):
        groups = engine.search_grouped("glucose metabolic")
        grouped_ids = {h.paper_id for g in groups for h in g.hits}
        merged_ids = {h.paper_id for h in engine.search("glucose metabolic")}
        assert grouped_ids == merged_ids

    def test_no_contexts_no_groups(self, engine):
        assert engine.search_grouped("quasar telescope") == []
