"""Unit tests for the positional index and phrase/BM25 search features."""

import pytest

from repro.corpus.corpus import Corpus
from repro.corpus.paper import Paper, Section
from repro.index.inverted import InvertedIndex
from repro.index.positional import PositionalIndex
from repro.index.search import KeywordSearchEngine


@pytest.fixture(scope="module")
def corpus():
    return Corpus(
        [
            Paper(
                paper_id="P1",
                title="Gene expression patterns",
                abstract="Analysis of gene expression in yeast",
                body="The expression of each gene differs. Gene expression "
                "profiles were clustered.",
            ),
            Paper(
                paper_id="P2",
                title="Expression of one gene",
                abstract="The gene was expressed strongly",
                body="expression followed the gene induction protocol",
            ),
            Paper(paper_id="P3", title="Protein folding"),
        ]
    )


@pytest.fixture(scope="module")
def index(corpus):
    return PositionalIndex().index_corpus(corpus)


class TestPositions:
    def test_positions_recorded(self, index):
        # Title 'Gene expression patterns' -> gene@0, express@1, pattern@2.
        assert index.positions("P1", "gene", Section.TITLE) == [0]
        assert index.positions("P1", "express", Section.TITLE) == [1]

    def test_positions_absent_term(self, index):
        assert index.positions("P1", "zebra", Section.TITLE) == []
        assert index.positions("MISSING", "gene", Section.TITLE) == []

    def test_phrase_positions(self, index):
        assert index.phrase_positions("P1", ["gene", "express"], Section.TITLE) == [0]

    def test_phrase_positions_multiple_occurrences(self, index):
        positions = index.phrase_positions("P1", ["gene", "express"], Section.BODY)
        assert len(positions) == 1

    def test_phrase_positions_not_contiguous(self, index):
        # P2 title: 'Expression of one gene' -> 'gene express' never adjacent.
        assert index.phrase_positions("P2", ["gene", "express"], Section.TITLE) == []

    def test_phrase_frequency_sums_sections(self, index):
        # P1: title (1) + abstract (1) + body (1) = 3.
        assert index.phrase_frequency("P1", ["gene", "express"]) == 3

    def test_papers_containing_phrase(self, index):
        # Positions live in the *analysed* stream: stopwords vanish, so
        # P2's "the gene was expressed" also matches "gene express".
        assert index.papers_containing_phrase(["gene", "express"]) == ["P1", "P2"]

    def test_papers_containing_phrase_single_word(self, index):
        assert set(index.papers_containing_phrase(["gene"])) == {"P1", "P2"}

    def test_empty_phrase(self, index):
        assert index.papers_containing_phrase([]) == []
        assert index.phrase_positions("P1", [], Section.TITLE) == []


class TestQuotedPhraseSearch:
    def test_phrase_filters_results(self, index):
        engine = KeywordSearchEngine(index)
        hits = engine.search('"gene expression"')
        assert {h.paper_id for h in hits} == {"P1", "P2"}
        assert all(h.paper_id != "P3" for h in hits)

    def test_phrase_plus_free_terms(self, index):
        engine = KeywordSearchEngine(index)
        hits = engine.search('"gene expression" yeast')
        # The phrase filter keeps P1/P2; 'yeast' boosts P1 to the top.
        assert hits[0].paper_id == "P1"

    def test_unmatched_phrase_empty(self, index):
        engine = KeywordSearchEngine(index)
        assert engine.search('"folding gene"') == []

    def test_phrase_on_plain_index_raises(self, corpus):
        plain = InvertedIndex().index_corpus(corpus)
        engine = KeywordSearchEngine(plain)
        with pytest.raises(TypeError, match="PositionalIndex"):
            engine.search('"gene expression"')

    def test_plain_query_unaffected(self, index):
        engine = KeywordSearchEngine(index)
        assert engine.search("gene expression")  # no quotes, no filter


class TestBm25:
    @pytest.fixture(scope="class")
    def bm25(self, index):
        return KeywordSearchEngine(index, scoring="bm25")

    def test_scores_in_unit_interval(self, bm25):
        for hit in bm25.search("gene expression yeast"):
            assert 0.0 <= hit.score <= 1.0

    def test_relevance_ordering_sensible(self, bm25):
        hits = bm25.search("gene expression")
        ids = [h.paper_id for h in hits]
        assert ids[0] in {"P1", "P2"}
        assert "P3" not in ids

    def test_match_score_agrees_with_search(self, bm25):
        hits = {h.paper_id: h.score for h in bm25.search("gene expression")}
        assert bm25.match_score("gene expression", "P1") == pytest.approx(
            hits["P1"]
        )

    def test_differs_from_tfidf(self, index):
        tfidf = KeywordSearchEngine(index).search("gene expression")
        bm25 = KeywordSearchEngine(index, scoring="bm25").search("gene expression")
        tfidf_scores = {h.paper_id: h.score for h in tfidf}
        bm25_scores = {h.paper_id: h.score for h in bm25}
        assert tfidf_scores != bm25_scores

    def test_bm25_length_cache_invalidated_on_removal(self, corpus):
        from repro.corpus.paper import Paper

        mutable = PositionalIndex()
        for paper in corpus:
            mutable.index_paper(paper)
        engine = KeywordSearchEngine(mutable, scoring="bm25")
        engine.search("gene")  # populate the length cache
        mutable.remove_paper("P2")
        hits = engine.search("gene")
        assert all(h.paper_id != "P2" for h in hits)
        # Lengths were recomputed for the shrunken index.
        lengths, _, _ = engine._lengths_state()
        assert all(pid != "P2" for pid, _section in lengths)

    def test_validation(self, index):
        with pytest.raises(ValueError, match="scoring"):
            KeywordSearchEngine(index, scoring="lucene")
        with pytest.raises(ValueError, match="k1"):
            KeywordSearchEngine(index, scoring="bm25", k1=0.0)
        with pytest.raises(ValueError, match="k1"):
            KeywordSearchEngine(index, scoring="bm25", b=1.5)
