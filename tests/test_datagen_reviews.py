"""Unit tests for review-paper generation (the citation-noise mechanism)."""

import pytest

from repro.citations.graph import CitationGraph
from repro.datagen.corpus_gen import CorpusGenerator
from repro.datagen.ontology_gen import OntologyGenerator


@pytest.fixture(scope="module")
def dataset():
    generator = CorpusGenerator(
        n_papers=500,
        ontology_generator=OntologyGenerator(n_terms=80, max_depth=6),
        review_fraction=0.10,
    )
    return generator.generate(seed=31)


class TestReviewGeneration:
    def test_reviews_exist_at_expected_rate(self, dataset):
        rate = len(dataset.review_paper_ids) / len(dataset.corpus)
        assert 0.05 < rate < 0.16  # ~10% requested

    def test_reviews_anchored_at_broad_terms(self, dataset):
        for paper_id in dataset.review_paper_ids:
            primary = dataset.primary_term_of[paper_id]
            assert dataset.ontology.level(primary) <= 3

    def test_reviews_attract_more_citations(self, dataset):
        """The citation-pull boost must be visible in mean in-degree."""
        graph = CitationGraph.from_corpus(dataset.corpus)
        reviews = dataset.review_paper_ids
        review_degrees = [len(graph.in_neighbors(pid)) for pid in reviews]
        regular_degrees = [
            len(graph.in_neighbors(p.paper_id))
            for p in dataset.corpus
            if p.paper_id not in reviews
        ]
        assert review_degrees and regular_degrees
        mean_review = sum(review_degrees) / len(review_degrees)
        mean_regular = sum(regular_degrees) / len(regular_degrees)
        assert mean_review > 1.5 * mean_regular

    def test_reviews_never_training_papers(self, dataset):
        training_ids = {
            pid for papers in dataset.training_papers.values() for pid in papers
        }
        assert not training_ids & dataset.review_paper_ids

    def test_reviews_have_diffuse_vocabulary(self, dataset):
        """A review's text draws on several descendant topics' jargon."""
        from repro.text.tokenize import tokenize

        diffuse = 0
        checked = 0
        for paper_id in list(dataset.review_paper_ids)[:20]:
            paper = dataset.corpus.paper(paper_id)
            primary = dataset.primary_term_of[paper_id]
            words = set(tokenize(paper.body))
            descendant_topics_hit = sum(
                1
                for descendant in dataset.ontology.descendants(primary)
                if words & set(dataset.topics.jargon_of(descendant))
            )
            checked += 1
            if descendant_topics_hit >= 2:
                diffuse += 1
        assert checked > 0
        assert diffuse / checked > 0.5

    def test_zero_review_fraction(self):
        generator = CorpusGenerator(
            n_papers=60,
            ontology_generator=OntologyGenerator(n_terms=20),
            review_fraction=0.0,
        )
        dataset = generator.generate(seed=1)
        assert dataset.review_paper_ids == frozenset()
