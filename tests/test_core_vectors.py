"""Unit tests for the paper vector store."""

import pytest

from repro.core.cosine import cosine_pairs
from repro.corpus.paper import Section


@pytest.fixture(scope="module")
def store(tiny):
    return tiny.vectors


def section_cosine(store, paper_a, paper_b, section):
    """Cosine of one section across two papers, through the kernel."""
    rows = store.section_rows(section)
    return float(
        cosine_pairs(
            rows,
            store.paper_rows.rows([paper_a]),
            rows,
            store.paper_rows.rows([paper_b]),
        )[0]
    )


class TestSectionVectors:
    def test_unit_norm(self, store):
        vector = store.section_vector("M1", Section.TITLE)
        assert vector.norm == pytest.approx(1.0)

    def test_empty_section_empty_vector(self, store, tiny_corpus):
        # All tiny_corpus papers have all sections; check via a paper with
        # minimal body text instead: vector still built, possibly non-empty.
        vector = store.section_vector("X1", Section.INDEX_TERMS)
        assert vector is not None

    def test_caching_returns_same_object(self, store):
        a = store.section_vector("M1", Section.BODY)
        b = store.section_vector("M1", Section.BODY)
        assert a is b

    def test_related_papers_more_similar(self, store):
        same_topic = section_cosine(store, "M1", "M2", Section.BODY)
        cross_topic = section_cosine(store, "M1", "S1", Section.BODY)
        off_topic = section_cosine(store, "M1", "X1", Section.BODY)
        assert same_topic > cross_topic
        assert cross_topic >= off_topic

    def test_self_similarity_is_one(self, store):
        assert section_cosine(store, "M1", "M1", Section.ABSTRACT) == pytest.approx(
            1.0
        )


class TestFullVectors:
    def test_full_similarity_topical(self, store):
        m1 = store.full_vector("M1")
        assert m1.cosine(store.full_vector("M2")) > m1.cosine(store.full_vector("X1"))

    def test_query_vector_matches_topic(self, store):
        query = store.query_vector("glucose metabolic glycolysis")
        m1 = store.full_vector("M1")
        x1 = store.full_vector("X1")
        assert query.cosine(m1) > query.cosine(x1)

    def test_query_vector_unknown_words_empty(self, store):
        assert len(store.query_vector("xylophone zeppelin")) == 0

    def test_centroid_of(self, store):
        center = store.centroid_of(["M1", "M2"])
        assert center.cosine(store.full_vector("M1")) > center.cosine(
            store.full_vector("X1")
        )

    def test_centroid_of_empty(self, store):
        assert len(store.centroid_of([])) == 0
