"""Unit tests for the inverted index."""

import pytest

from reference.index import ReferenceIndex, assert_index_equals_reference, postings
from repro.corpus.corpus import Corpus, CorpusError
from repro.corpus.paper import Paper, Section
from repro.index.inverted import build_index
from repro.ontology.ontology import Ontology
from repro.serving.substrate import SubstrateStore
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
        for posting in postings(index, term)
        if posting.paper_id == paper_id
        and (section is None or posting.section == section)
    )


class TestIndexing:
    def test_n_papers(self, index):
        assert index.n_papers == 3

    def test_postings_cover_sections(self, index):
        sections = {p.section for p in postings(index, "express")}
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
            for posting in postings(index, term)
        )

    def test_duplicate_indexing_rejected(self, index, corpus):
        """A paper is indexed once: its corpus refuses a second paper
        under its id, and each term run holds one posting per (paper,
        section)."""
        with pytest.raises(CorpusError, match="duplicate paper id"):
            corpus.add(Paper(paper_id="P1", title="Gene"))
        for term in index.vocabulary():
            run = index.term_run(term)
            cells = list(zip(run.rows.tolist(), run.sections.tolist()))
            assert len(cells) == len(set(cells)), term

    def test_index_terms_section(self, index):
        assert _tf(index, "P1", "yeast", Section.INDEX_TERMS) == 1

    def test_contains(self, index):
        assert "gene" in index
        assert "zebra" not in index

    def test_stopwords_not_indexed(self, index):
        assert "the" not in index
        assert "of" not in index


def _without(corpus, *paper_ids):
    """``(index built after removing paper_ids, reference mutated in place)``."""
    reference = ReferenceIndex.of(AnalyzedPaperCache(corpus))
    for paper_id in paper_ids:
        reference.remove_paper(paper_id)
    kept = Corpus([paper for paper in corpus if paper.paper_id not in paper_ids])
    return build_index(AnalyzedPaperCache(kept)), reference


class TestRemovePaper:
    """Removing a paper is a rebuild of the smaller corpus; it equals
    the reference index the paper was removed from in place."""

    def test_removed_paper_gone_everywhere(self, corpus):
        index, reference = _without(corpus, "P1")
        assert_index_equals_reference(index, reference)
        assert index.n_papers == 2
        assert index.papers_containing("gene") == []
        assert _tf(index, "P1", "express") == 0
        assert index.document_frequency("express") == 0

    def test_shared_terms_survive_for_other_papers(self, corpus):
        corpus2 = Corpus(list(corpus))
        corpus2.add(Paper(paper_id="P4", title="gene studies"))
        assert build_index(AnalyzedPaperCache(corpus2)).document_frequency("gene") == 2
        index, reference = _without(corpus2, "P1")
        assert_index_equals_reference(index, reference)
        assert index.document_frequency("gene") == 1
        assert index.papers_containing("gene") == ["P4"]

    def test_unknown_paper_rejected(self, corpus):
        store = SubstrateStore(corpus, Ontology([]), {})
        before = store.index
        with pytest.raises(CorpusError, match="unknown paper id"):
            store.apply_delta(removed_ids=["NOPE"])
        assert store.index is before
        assert store.index.n_papers == 3

    def test_reindex_after_removal(self, corpus):
        store = SubstrateStore(corpus, Ontology([]), {})
        built = store.index
        paper = corpus.paper("P1")
        store.apply_delta(removed_ids=["P1"])
        store.apply_delta(added_papers=[paper])
        assert store.index is not built
        assert store.index.n_papers == 3
        assert store.index.document_frequency("express") == 1
        reference = ReferenceIndex.of(AnalyzedPaperCache(Corpus(list(corpus))))
        assert_index_equals_reference(store.index, reference)

    def test_search_consistent_after_removal(self, corpus):
        store = SubstrateStore(corpus, Ontology([]), {})
        assert any(h.paper_id == "P1" for h in store.keyword_engine.search("gene"))
        old_engine = store.keyword_engine
        store.apply_delta(removed_ids=["P1"])
        assert all(h.paper_id != "P1" for h in store.keyword_engine.search("gene"))
        # An engine over the old index keeps answering for its corpus.
        assert any(h.paper_id == "P1" for h in old_engine.search("gene"))
