"""Unit tests for the section-7 cross-context extension."""

import pytest

from repro.citations.graph import CitationGraph
from repro.core.context import Context, ContextPaperSet
from repro.core.extensions import (
    CrossContextCitationPrestige,
    CrossContextWeights,
    weighted_pagerank,
)
from repro.scoring import CitationPrestige


class TestWeightedPagerank:
    def test_sums_to_one(self):
        scores = weighted_pagerank(
            ["a", "b", "c"], {("a", "b"): 1.0, ("b", "c"): 1.0}
        )
        assert sum(scores.values()) == pytest.approx(1.0)

    def test_heavier_edge_transfers_more(self):
        scores = weighted_pagerank(
            ["src", "heavy", "light"],
            {("src", "heavy"): 10.0, ("src", "light"): 1.0},
        )
        assert scores["heavy"] > scores["light"]

    def test_zero_weight_edges_ignored(self):
        with_zero = weighted_pagerank(["a", "b"], {("a", "b"): 0.0})
        assert with_zero["a"] == pytest.approx(with_zero["b"])

    def test_empty(self):
        assert weighted_pagerank([], {}) == {}

    def test_self_loop_ignored(self):
        scores = weighted_pagerank(["a", "b"], {("a", "a"): 5.0, ("a", "b"): 1.0})
        assert scores["b"] > scores["a"]

    def test_invalid_d(self):
        with pytest.raises(ValueError):
            weighted_pagerank(["a"], {}, d=0.0)

    def test_matches_unweighted_pagerank_on_unit_weights(self):
        from repro.citations.pagerank import pagerank

        graph = CitationGraph(edges=[("a", "b"), ("b", "c"), ("c", "a"), ("a", "c")])
        unweighted = pagerank(graph).scores
        weighted = weighted_pagerank(
            sorted(graph.nodes()),
            {edge: 1.0 for edge in graph.edges()},
        )
        for node in graph.nodes():
            assert weighted[node] == pytest.approx(unweighted[node], abs=1e-6)


class TestCrossContextWeights:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            CrossContextWeights(within=0.1, related=0.5, unrelated=0.9).validate()

    def test_defaults_valid(self):
        CrossContextWeights().validate()


@pytest.fixture(scope="module")
def setup(tiny):
    paper_set = ContextPaperSet(
        tiny.ontology,
        [
            Context("met", ("M1", "M2", "M3")),
            Context("sig", ("S1", "S2")),
            Context("glu", ("M1", "M2")),
        ],
        tiny.corpus.paper_rows,
    )
    return tiny.corpus, tiny.ontology, tiny.graph, paper_set


class TestCrossContextCitationPrestige:
    def test_scores_context_papers_only(self, setup):
        corpus, ontology, graph, paper_set = setup
        scorer = CrossContextCitationPrestige(graph, ontology, paper_set)
        raw = scorer.score_context(paper_set.context("sig"))
        assert set(raw) == {"S1", "S2"}

    def test_cross_context_edge_contributes(self, setup):
        """S2 -> M1 is dropped by the baseline but graded by the extension.

        In the *met* context, the baseline sees only {M2->M1, M3->M1,
        M3->M2}.  The extension additionally routes prestige through S2 (a
        boundary paper, unrelated context), still landing on M1, so M1's
        relative share should not decrease.
        """
        corpus, ontology, graph, paper_set = setup
        baseline = CitationPrestige(graph)
        extension = CrossContextCitationPrestige(graph, ontology, paper_set)
        met = paper_set.context("met")
        base_raw = baseline.score_context(met)
        ext_raw = extension.score_context(met)
        base_rank = sorted(base_raw, key=base_raw.get, reverse=True)
        ext_rank = sorted(ext_raw, key=ext_raw.get, reverse=True)
        assert base_rank[0] == "M1"
        assert ext_rank[0] == "M1"

    def test_related_weight_exceeds_unrelated_effect(self, setup):
        corpus, ontology, graph, paper_set = setup
        generous = CrossContextCitationPrestige(
            graph,
            ontology,
            paper_set,
            weights=CrossContextWeights(within=1.0, related=1.0, unrelated=0.0),
        )
        stingy = CrossContextCitationPrestige(
            graph,
            ontology,
            paper_set,
            weights=CrossContextWeights(within=1.0, related=0.0, unrelated=0.0),
        )
        met = paper_set.context("met")
        assert set(generous.score_context(met)) == set(stingy.score_context(met))

    def test_empty_context(self, setup):
        corpus, ontology, graph, paper_set = setup
        scorer = CrossContextCitationPrestige(graph, ontology, paper_set)
        assert scorer.score_context(Context("met", ())) == {}

    def test_score_all_normalized(self, setup):
        corpus, ontology, graph, paper_set = setup
        scorer = CrossContextCitationPrestige(graph, ontology, paper_set)
        scores = scorer.score_all(paper_set)
        for context_id in scores.context_ids():
            for value in scores.of(context_id).values():
                assert 0.0 <= value <= 1.0


class TestLinGrading:
    def test_invalid_grading_rejected(self, setup):
        corpus, ontology, graph, paper_set = setup
        with pytest.raises(ValueError, match="grading"):
            CrossContextCitationPrestige(
                graph, ontology, paper_set, grading="fuzzy"
            )

    def test_lin_weights_between_bounds(self, setup):
        corpus, ontology, graph, paper_set = setup
        scorer = CrossContextCitationPrestige(
            graph, ontology, paper_set, grading="lin"
        )
        members = {"M1", "M2", "M3"}
        weight = scorer._edge_weight("met", "S2", "M1", members)
        assert scorer.weights.unrelated <= weight <= scorer.weights.within

    def test_lin_scoring_runs_end_to_end(self, setup):
        corpus, ontology, graph, paper_set = setup
        scorer = CrossContextCitationPrestige(
            graph, ontology, paper_set, grading="lin"
        )
        raw = scorer.score_context(paper_set.context("met"))
        assert set(raw) == {"M1", "M2", "M3"}

    def test_lin_vs_binary_can_differ(self, setup):
        corpus, ontology, graph, paper_set = setup
        binary = CrossContextCitationPrestige(graph, ontology, paper_set)
        lin = CrossContextCitationPrestige(
            graph, ontology, paper_set, grading="lin"
        )
        members = {"M1", "M2", "M3"}
        # Both grade the same boundary edge; values may differ but both
        # respect the schedule bounds.
        b = binary._edge_weight("met", "S2", "M1", members)
        l = lin._edge_weight("met", "S2", "M1", members)
        for value in (b, l):
            assert binary.weights.unrelated <= value <= binary.weights.within
