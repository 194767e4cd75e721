"""Unit and statistical tests for the corpus generator."""

import random

import pytest

from repro.citations.graph import CitationGraph
from repro.datagen.corpus_gen import CorpusGenerator
from repro.datagen.ontology_gen import OntologyGenerator
from repro.text.tokenize import tokenize


@pytest.fixture(scope="module")
def dataset():
    generator = CorpusGenerator(
        n_papers=400,
        ontology_generator=OntologyGenerator(n_terms=80, max_depth=5),
    )
    return generator.generate(seed=11)


class TestBasicShape:
    def test_paper_count(self, dataset):
        assert len(dataset.corpus) == 400

    def test_every_paper_has_primary_term(self, dataset):
        for paper in dataset.corpus:
            assert paper.true_context_ids
            assert dataset.primary_term_of[paper.paper_id] == paper.true_context_ids[0]
            assert paper.true_context_ids[0] in dataset.ontology

    def test_papers_have_text(self, dataset):
        for paper in dataset.corpus:
            assert paper.title
            assert len(tokenize(paper.abstract)) > 20
            assert len(tokenize(paper.body)) > 80
            assert paper.index_terms

    def test_papers_have_authors(self, dataset):
        for paper in dataset.corpus:
            assert 1 <= len(paper.authors) <= 5
            assert len(set(paper.authors)) == len(paper.authors)

    def test_years_monotone_with_index(self, dataset):
        papers = list(dataset.corpus)
        years = [p.year for p in papers]
        assert years == sorted(years)
        assert min(years) >= 1985 and max(years) <= 2006

    def test_references_point_backwards(self, dataset):
        for paper in dataset.corpus:
            own_index = int(paper.paper_id[1:])
            for ref in paper.references:
                assert int(ref[1:]) < own_index

    def test_references_resolvable(self, dataset):
        # Generator only emits in-corpus references.
        corpus = dataset.corpus
        assert all(ref in corpus for paper in corpus for ref in paper.references)


class TestDeterminism:
    def test_same_seed_same_corpus(self):
        generator = CorpusGenerator(
            n_papers=60, ontology_generator=OntologyGenerator(n_terms=30)
        )
        a = generator.generate(seed=5)
        b = generator.generate(seed=5)
        for paper_a, paper_b in zip(a.corpus, b.corpus):
            assert paper_a == paper_b

    def test_different_seed_differs(self):
        generator = CorpusGenerator(
            n_papers=60, ontology_generator=OntologyGenerator(n_terms=30)
        )
        a = generator.generate(seed=5)
        b = generator.generate(seed=6)
        assert any(pa != pb for pa, pb in zip(a.corpus, b.corpus))


class TestTrainingPapers:
    def test_training_papers_exist_for_popular_terms(self, dataset):
        non_empty = [tid for tid, pids in dataset.training_papers.items() if pids]
        assert len(non_empty) > len(dataset.training_papers) / 2

    def test_training_papers_primary_term_matches(self, dataset):
        for term_id, paper_ids in dataset.training_papers.items():
            for paper_id in paper_ids:
                assert dataset.primary_term_of[paper_id] == term_id

    def test_training_cap_respected(self, dataset):
        for paper_ids in dataset.training_papers.values():
            assert len(paper_ids) <= 6


class TestTopicalStructure:
    def test_title_contains_topic_vocabulary(self, dataset):
        """Titles draw from the primary term's topic (name words or jargon)."""
        hits = 0
        for paper in dataset.corpus:
            primary = paper.true_context_ids[0]
            topic_words = set(dataset.topics.jargon_of(primary))
            topic_words.update(dataset.ontology.term(primary).name_words())
            for ancestor in dataset.ontology.ancestors(primary):
                topic_words.update(dataset.topics.jargon_of(ancestor))
                topic_words.update(dataset.ontology.term(ancestor).name_words())
            title_words = set(tokenize(paper.title))
            if title_words & topic_words:
                hits += 1
        assert hits / len(dataset.corpus) > 0.95

    def test_citation_topical_locality(self, dataset):
        """Citations prefer the term neighbourhood over random papers."""
        graph = CitationGraph.from_corpus(dataset.corpus)
        onto = dataset.ontology
        topical = 0
        total = 0
        for citing, cited in graph.edges():
            total += 1
            t_citing = dataset.primary_term_of[citing]
            t_cited = dataset.primary_term_of[cited]
            if t_citing == t_cited or onto.are_hierarchically_related(
                t_citing, t_cited
            ):
                topical += 1
        assert total > 0
        # Neighbourhood pools dominate: well above the random baseline.
        assert topical / total > 0.4

    def test_deep_contexts_sparser_than_shallow(self, dataset):
        """The citation sparsity gradient the paper's findings rest on."""
        onto = dataset.ontology
        graph = CitationGraph.from_corpus(dataset.corpus)
        papers_in_subtree = {}
        for term_id in onto.term_ids():
            subtree = onto.descendants(term_id, include_self=True)
            papers_in_subtree[term_id] = [
                p.paper_id
                for p in dataset.corpus
                if p.true_context_ids[0] in subtree
            ]
        def mean_density(level):
            densities = [
                graph.subgraph(papers_in_subtree[t]).density()
                for t in onto.terms_at_level(level)
                if len(papers_in_subtree[t]) >= 5
            ]
            return sum(densities) / len(densities) if densities else None

        shallow = mean_density(2)
        deep = mean_density(onto.max_level)
        if shallow is not None and deep is not None:
            # Densities are per-pair so smaller sets can have higher raw
            # density; what matters is *edge count* sparsity:
            def mean_edges(level):
                counts = [
                    graph.subgraph(papers_in_subtree[t]).n_edges
                    for t in onto.terms_at_level(level)
                    if len(papers_in_subtree[t]) >= 5
                ]
                return sum(counts) / len(counts) if counts else 0.0

            assert mean_edges(2) > mean_edges(onto.max_level)


class TestValidation:
    def test_rejects_nonpositive_papers(self):
        with pytest.raises(ValueError):
            CorpusGenerator(n_papers=0).generate()


class TestTopicModel:
    def test_topics_cover_all_terms(self, dataset):
        for term_id in dataset.ontology.term_ids():
            assert dataset.topics.topic(term_id).term_id == term_id

    def test_jargon_disjoint_across_terms(self, dataset):
        seen = {}
        for term_id in dataset.ontology.term_ids():
            for word in dataset.topics.jargon_of(term_id):
                assert word not in seen, f"{word} owned by two terms"
                seen[word] = term_id

    def test_sample_chunk_returns_known_chunk(self, dataset):
        rng = random.Random(0)
        term_id = dataset.ontology.term_ids()[5]
        topic = dataset.topics.topic(term_id)
        for _ in range(50):
            assert topic.sample_chunk(rng) in topic.chunks

    def test_name_phrase_is_a_chunk(self, dataset):
        term_id = dataset.ontology.term_ids()[3]
        topic = dataset.topics.topic(term_id)
        name_words = dataset.ontology.term(term_id).name_words()
        assert name_words in topic.chunks
