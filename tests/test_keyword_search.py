"""Unit tests for the keyword search engine."""

import pytest

from repro.corpus.corpus import Corpus
from repro.corpus.paper import Paper
from repro.index.inverted import build_index
from repro.index.search import KeywordSearchEngine
from repro.ontology.ontology import Ontology
from repro.serving.substrate import SubstrateStore
from repro.text.analyze import AnalyzedPaperCache


@pytest.fixture
def corpus():
    return Corpus(
        [
            Paper(
                paper_id="P1",
                title="Gene expression regulation",
                abstract="How genes are regulated.",
                body="gene gene gene expression",
                year=2001,
            ),
            Paper(
                paper_id="P2",
                title="Protein structures",
                abstract="Gene mention once.",
                year=2004,
            ),
            Paper(
                paper_id="P3",
                title="Yeast metabolism",
                body="Nothing relevant here.",
                year=1998,
            ),
        ]
    )


@pytest.fixture
def engine(corpus):
    return KeywordSearchEngine(build_index(AnalyzedPaperCache(corpus)))


class TestRankedSearch:
    def test_relevance_ordering(self, engine):
        hits = engine.search("gene expression")
        ids = [h.paper_id for h in hits]
        assert ids[0] == "P1"
        assert "P2" in ids
        assert "P3" not in ids

    def test_scores_in_unit_interval(self, engine):
        for hit in engine.search("gene expression regulation"):
            assert 0.0 <= hit.score <= 1.0

    def test_limit(self, engine):
        assert len(engine.search("gene", limit=1)) == 1

    def test_threshold_filters(self, engine):
        all_hits = engine.search("gene")
        strong = engine.search("gene", threshold=max(h.score for h in all_hits))
        assert len(strong) <= len(all_hits)
        assert all(h.score >= max(x.score for x in all_hits) for h in strong)

    def test_require_all_terms(self, engine):
        hits = engine.search("gene expression", require_all_terms=True)
        assert [h.paper_id for h in hits] == ["P1"]

    def test_empty_query(self, engine):
        assert engine.search("") == []

    def test_stopword_only_query(self, engine):
        assert engine.search("the of and") == []

    def test_unknown_terms(self, engine):
        assert engine.search("zebra quagga") == []

    def test_matched_terms_counted(self, engine):
        hits = {h.paper_id: h for h in engine.search("gene expression")}
        assert hits["P1"].matched_terms == 2
        assert hits["P2"].matched_terms == 1

    def test_deterministic_tie_break(self, engine):
        hits = engine.search("gene")
        assert hits == engine.search("gene")


    def test_quoted_query_ranks_like_unquoted(self, engine):
        # Quotes are punctuation to the tokenizer: no phrase syntax.
        quoted = engine.evaluate('"gene expression" regulation')
        assert quoted.terms == engine.evaluate("gene expression regulation").terms
        assert engine.search('"gene expression" regulation') == engine.search(
            "gene expression regulation"
        )
        assert engine.search('"gene') == engine.search("gene")


class TestMatchScore:
    def test_match_score_bounds(self, engine):
        assert 0.0 <= engine.evaluate("gene expression").score("P1") <= 1.0

    def test_zero_for_no_match(self, engine):
        assert engine.evaluate("zebra").score("P1") == 0.0

    def test_zero_for_empty_query(self, engine):
        assert engine.evaluate("").score("P1") == 0.0

    def test_better_match_scores_higher(self, engine):
        evaluation = engine.evaluate("gene expression")
        assert evaluation.score("P1") > evaluation.score("P2")

    def test_consistent_with_search(self, engine):
        hits = {h.paper_id: h.score for h in engine.search("gene expression")}
        assert engine.evaluate("gene expression").score("P1") == pytest.approx(
            hits["P1"]
        )


class TestUnrankedSearch:
    def test_pubmed_ordering_by_year_desc(self, engine, corpus):
        result = engine.search_unranked("gene", corpus)
        assert result == ["P2", "P1"]  # 2004 before 2001

    def test_boolean_and(self, engine, corpus):
        assert engine.search_unranked("gene expression", corpus) == ["P1"]

    def test_no_results(self, engine, corpus):
        assert engine.search_unranked("zebra", corpus) == []

    def test_empty_query(self, engine, corpus):
        assert engine.search_unranked("", corpus) == []


class TestSameYearTieBreak:
    @pytest.fixture
    def same_year_corpus(self):
        return Corpus(
            [
                Paper(paper_id="P10", title="gene alpha", year=2003),
                Paper(paper_id="P30", title="gene gamma", year=2003),
                Paper(paper_id="P20", title="gene beta", year=2003),
                Paper(paper_id="P05", title="gene delta", year=2001),
            ]
        )

    def test_same_year_papers_order_by_descending_id(self, same_year_corpus):
        # Regression: the docstring promises "latest first"; within a year
        # that means descending paper id, not ascending.
        engine = KeywordSearchEngine(
            build_index(AnalyzedPaperCache(same_year_corpus))
        )
        result = engine.search_unranked("gene", same_year_corpus)
        assert result == ["P30", "P20", "P10", "P05"]


class TestContributionCache:
    def test_replacing_a_paper_invalidates_contributions(self, corpus):
        # remove + add keeps n_papers stable, so an engine keyed on the
        # count would replay the old paper's contributions; the delta
        # builds a new index, and the store a new engine over it.
        store = SubstrateStore(Corpus(list(corpus)), Ontology([]), {})
        old_engine = store.keyword_engine

        def scores(engine):
            return {hit.paper_id: hit.score for hit in engine.evaluate("gene").hits()}

        before = scores(old_engine)
        replacement = Paper(
            paper_id="P2",
            title="Gene gene gene gene gene",
            abstract="gene gene gene gene gene gene",
            year=2004,
        )
        store.apply_delta(added_papers=[replacement], removed_ids=["P2"])
        assert store.index.n_papers == 3  # same count, different content
        after = scores(store.keyword_engine)
        assert after != before
        assert scores(old_engine) == before  # the old index is unchanged
        # The fresh contributions must reflect the replacement exactly.
        fresh = build_index(AnalyzedPaperCache(
            Corpus([corpus.paper("P1"), corpus.paper("P3"), replacement])
        ))
        assert scores(KeywordSearchEngine(fresh)) == after
