"""Failure-injection tests: degenerate inputs across the whole pipeline.

Every scenario here is something a real deployment hits: papers with no
parseable text, reference lists full of dangling ids, contexts that end
up empty, queries that match nothing, and corpora too small for any
statistics.
"""

import pytest

from reference.prestige import scores_from_maps
from repro.citations.graph import CitationGraph
from repro.core.assignment import PatternContextAssigner, TextContextAssigner
from repro.core.context import Context, ContextPaperSet
from repro.core.cosine import cosine_pairs
from repro.core.patterns import PatternSetBuilder
from repro.core.search import ContextSearchEngine
from repro.core.vectors import PaperVectorStore
from repro.corpus.corpus import Corpus
from repro.corpus.paper import Paper
from repro.eval.ac_answer import ACAnswerBuilder
from repro.index.inverted import build_index
from repro.index.search import KeywordSearchEngine
from repro.ontology.ontology import Ontology
from repro.ontology.term import Term
from repro.pipeline import Pipeline
from repro.scoring import CitationPrestige, PatternPrestige, TextPrestige
from repro.text.analyze import AnalyzedPaperCache


@pytest.fixture
def degenerate_corpus():
    """Papers with empty sections, punctuation-only text, dangling refs."""
    return Corpus(
        [
            Paper(paper_id="EMPTY", title=""),
            Paper(paper_id="PUNCT", title="!!! ??? ...", abstract="---"),
            Paper(
                paper_id="DANGLE",
                title="dangling references study",
                references=("GONE1", "GONE2", "GONE3"),
            ),
            Paper(
                paper_id="OK",
                title="glucose metabolism analysis",
                abstract="a real abstract about glucose metabolism",
                body="glucose metabolism body text with content",
                authors=("A. Author",),
                references=("DANGLE",),
            ),
        ]
    )


@pytest.fixture
def flat_ontology():
    return Ontology(
        [
            Term("root", "process"),
            Term("t1", "glucose process", parent_ids=("root",)),
        ]
    )


class TestDegenerateCorpus:
    def test_indexing_survives_empty_papers(self, degenerate_corpus):
        tokens = AnalyzedPaperCache(degenerate_corpus)
        index = build_index(tokens)
        assert index.n_papers == 4
        assert index.papers_containing("glucos") == ["OK"]

    def test_search_over_degenerate_corpus(self, degenerate_corpus):
        engine = KeywordSearchEngine(build_index(AnalyzedPaperCache(degenerate_corpus)))
        hits = engine.search("glucose")
        assert [h.paper_id for h in hits] == ["OK"]

    def test_vectors_of_empty_paper(self, degenerate_corpus):
        vectors = PaperVectorStore(AnalyzedPaperCache(degenerate_corpus))
        assert len(vectors.full_vector("EMPTY")) == 0
        assert vectors.full_vector("EMPTY").cosine(vectors.full_vector("OK")) == 0.0
        rows = vectors.full_rows
        paper_rows = vectors.paper_rows
        assert cosine_pairs(
            rows, paper_rows.rows(["EMPTY"]), rows, paper_rows.rows(["OK"])
        ).tolist() == [0.0]

    def test_citation_graph_drops_dangling(self, degenerate_corpus):
        graph = CitationGraph.from_corpus(degenerate_corpus)
        assert set(graph.nodes()) == {"EMPTY", "PUNCT", "DANGLE", "OK"}
        assert list(graph.edges()) == [("OK", "DANGLE")]

    def test_text_assignment_with_textless_training(
        self, degenerate_corpus, flat_ontology
    ):
        tokens = AnalyzedPaperCache(degenerate_corpus)
        index = build_index(tokens)
        vectors = PaperVectorStore(tokens)
        assigner = TextContextAssigner(
            degenerate_corpus, flat_ontology, vectors, similarity_threshold=0.18
        )
        # Training paper has no text: context still built, membership is
        # just the training paper itself.
        paper_set = assigner.build({"t1": ["EMPTY"]})
        assert paper_set.context("t1").paper_ids == ("EMPTY",)

    def test_pattern_assignment_with_textless_training(
        self, degenerate_corpus, flat_ontology
    ):
        tokens = AnalyzedPaperCache(degenerate_corpus)
        index = build_index(tokens)
        assigner = PatternContextAssigner(
            degenerate_corpus,
            flat_ontology,
            index,
            tokens,
            max_middle_coverage=1.0,
        )
        paper_set = assigner.build({"t1": ["EMPTY", "PUNCT"]})
        # Patterns from textless papers may be empty; builder must not crash.
        assert isinstance(len(paper_set), int)

    def test_ac_answer_for_unanswerable_query(self, degenerate_corpus):
        tokens = AnalyzedPaperCache(degenerate_corpus)
        index = build_index(tokens)
        builder = ACAnswerBuilder(
            KeywordSearchEngine(index),
            PaperVectorStore(tokens),
            CitationGraph.from_corpus(degenerate_corpus),
        )
        answer = builder.build("nonexistent vocabulary entirely")
        assert len(answer) == 0


class TestDegenerateContexts:
    def test_scores_on_empty_context(self, degenerate_corpus, flat_ontology):
        graph = CitationGraph.from_corpus(degenerate_corpus)
        scorer = CitationPrestige(graph)
        assert scorer.score_context(Context("t1", ())) == {}

    def test_score_all_skips_unscorable_contexts(
        self, degenerate_corpus, flat_ontology
    ):
        paper_set = ContextPaperSet(
            flat_ontology,
            [Context("t1", ()), Context("root", ("OK",))],
            degenerate_corpus.paper_rows,
        )
        graph = CitationGraph.from_corpus(degenerate_corpus)
        scores = CitationPrestige(graph).score_all(paper_set)
        assert "t1" not in scores
        assert "root" in scores

    def test_pattern_prestige_with_empty_pattern_sets(
        self, degenerate_corpus, flat_ontology
    ):
        tokens = AnalyzedPaperCache(degenerate_corpus)
        index = build_index(tokens)
        builder = PatternSetBuilder(flat_ontology, index, tokens)
        scorer = PatternPrestige({}, builder)
        assert scorer.score_context(Context("root", ("OK",))) == {}

    def test_text_prestige_representative_missing_from_corpus(
        self, degenerate_corpus, flat_ontology
    ):
        tokens = AnalyzedPaperCache(degenerate_corpus)
        index = build_index(tokens)
        vectors = PaperVectorStore(tokens)
        graph = CitationGraph.from_corpus(degenerate_corpus)
        scorer = TextPrestige(
            degenerate_corpus, vectors, graph, {"t1": "NOT_IN_CORPUS"}
        )
        assert scorer.score_context(Context("t1", ("OK",))) == {}


class TestDegenerateSearch:
    def test_search_with_empty_prestige(self, degenerate_corpus, flat_ontology):
        tokens = AnalyzedPaperCache(degenerate_corpus)
        index = build_index(tokens)
        paper_rows = degenerate_corpus.paper_rows
        paper_set = ContextPaperSet(flat_ontology, [Context("t1", ("OK",))], paper_rows)
        engine = ContextSearchEngine(
            flat_ontology,
            paper_set,
            scores_from_maps("text", {}, paper_rows=paper_rows),
            KeywordSearchEngine(index),
        )
        hits = engine.search("glucose")
        # Matching still works; prestige defaults to 0.
        assert hits
        assert hits[0].prestige == 0.0

    def test_single_paper_pipeline(self, flat_ontology):
        corpus = Corpus(
            [
                Paper(
                    paper_id="ONLY",
                    title="glucose process study",
                    abstract="glucose",
                    body="glucose process",
                )
            ]
        )
        pipeline = Pipeline(
            corpus=corpus,
            ontology=flat_ontology,
            training_papers={"t1": ["ONLY"]},
            min_context_size=1,
        )
        hits = pipeline.search("glucose")
        assert [h.paper_id for h in hits] == ["ONLY"]

    def test_pattern_builder_window_zero(self, degenerate_corpus, flat_ontology):
        tokens = AnalyzedPaperCache(degenerate_corpus)
        index = build_index(tokens)
        builder = PatternSetBuilder(
            flat_ontology, index, tokens, window=0
        )
        pattern_set = builder.build("t1", ["OK"])
        for pattern in pattern_set.patterns:
            assert pattern.left == ()
            assert pattern.right == ()
