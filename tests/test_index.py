"""Unit tests for the inverted index."""

import pytest

from repro.corpus.corpus import Corpus
from repro.corpus.paper import Paper, Section
from repro.index.inverted import build_index
from repro.text.analyze import AnalyzedPaperCache


@pytest.fixture
def corpus():
    return Corpus(
        [
            Paper(
                paper_id="P1",
                title="Gene expression",
                abstract="Expression of genes in yeast cells",
                body="The gene body text mentions expression twice: expression.",
                index_terms=("yeast",),
            ),
            Paper(
                paper_id="P2",
                title="Protein folding",
                abstract="Folding dynamics of proteins",
            ),
            Paper(paper_id="P3", title=""),
        ]
    )


@pytest.fixture
def index(corpus):
    return build_index(AnalyzedPaperCache(corpus))


def _tf(index, paper_id, term, section=None):
    """Frequency of ``term`` in one paper (one section or summed), read
    off the postings."""
    return sum(
        posting.term_frequency
        for posting in index.postings(term)
        if posting.paper_id == paper_id
        and (section is None or posting.section == section)
    )


class TestIndexing:
    def test_n_papers(self, index):
        assert index.n_papers == 3

    def test_postings_cover_sections(self, index):
        sections = {p.section for p in index.postings("express")}
        assert sections == {Section.TITLE, Section.ABSTRACT, Section.BODY}

    def test_document_frequency_counts_papers(self, index):
        # 'express' appears in several sections of one paper: df == 1.
        assert index.document_frequency("express") == 1

    def test_stemming_unifies_forms(self, index):
        # 'genes' and 'gene' both stem to 'gene'.
        assert index.document_frequency("gene") == 1
        assert _tf(index, "P1", "gene") >= 2

    def test_papers_containing(self, index):
        assert index.papers_containing("fold") == ["P2"]
        assert index.papers_containing("nothing") == []

    def test_term_frequency_per_section(self, index):
        assert _tf(index, "P1", "express", Section.BODY) == 2
        assert _tf(index, "P1", "express", Section.TITLE) == 1

    def test_term_frequency_summed(self, index):
        assert _tf(index, "P1", "express") == 4

    def test_term_frequency_unknown_paper(self, index):
        assert _tf(index, "NOPE", "gene") == 0

    def test_empty_paper_indexed(self, index):
        assert index.n_papers == 3
        assert all(
            posting.paper_id != "P3"
            for term in index.vocabulary()
            for posting in index.postings(term)
        )

    def test_duplicate_indexing_rejected(self, index, corpus):
        with pytest.raises(ValueError, match="already indexed"):
            index.index_paper("P1")

    def test_index_terms_section(self, index):
        assert _tf(index, "P1", "yeast", Section.INDEX_TERMS) == 1

    def test_contains(self, index):
        assert "gene" in index
        assert "zebra" not in index

    def test_stopwords_not_indexed(self, index):
        assert "the" not in index
        assert "of" not in index


class TestRemovePaper:
    @pytest.fixture
    def index(self, corpus):
        # Function-scoped: removal mutates.
        return build_index(AnalyzedPaperCache(corpus))

    def test_removed_paper_gone_everywhere(self, index):
        index.remove_paper("P1")
        assert index.n_papers == 2
        assert index.papers_containing("gene") == []
        assert _tf(index, "P1", "express") == 0
        assert index.document_frequency("express") == 0

    def test_shared_terms_survive_for_other_papers(self, corpus):
        from repro.corpus.paper import Paper

        corpus2 = Corpus(list(corpus))
        corpus2.add(Paper(paper_id="P4", title="gene studies"))
        index = build_index(AnalyzedPaperCache(corpus2))
        assert index.document_frequency("gene") == 2
        index.remove_paper("P1")
        assert index.document_frequency("gene") == 1
        assert index.papers_containing("gene") == ["P4"]

    def test_unknown_paper_rejected(self, index):
        with pytest.raises(ValueError, match="not indexed"):
            index.remove_paper("NOPE")

    def test_reindex_after_removal(self, index, corpus):
        index.remove_paper("P1")
        index.index_paper("P1")
        assert index.n_papers == 3
        assert index.document_frequency("express") == 1

    def test_search_consistent_after_removal(self, corpus):
        from repro.index.search import KeywordSearchEngine

        index = build_index(AnalyzedPaperCache(corpus))
        engine = KeywordSearchEngine(index)
        assert any(h.paper_id == "P1" for h in engine.search("gene"))
        index.remove_paper("P1")
        assert all(h.paper_id != "P1" for h in engine.search("gene"))
