"""Unit tests for Paper and Corpus."""

import pytest

from reference.facets import coauthors_of
from repro.corpus.corpus import Corpus, CorpusError
from repro.corpus.paper import Paper, Section


def make_papers():
    return [
        Paper(
            paper_id="P1",
            title="Gene expression in yeast",
            abstract="We study expression.",
            body="Long body text about genes.",
            index_terms=("expression", "yeast"),
            authors=("Alice", "Bob"),
            references=("P2", "P_EXTERNAL"),
            year=2001,
        ),
        Paper(
            paper_id="P2",
            title="Protein folding dynamics",
            authors=("Bob", "Carol"),
            references=(),
            year=1999,
        ),
        Paper(
            paper_id="P3",
            title="Survey of binding",
            authors=("Dave",),
            references=("P1", "P2"),
            year=2003,
        ),
    ]


class TestPaper:
    def test_section_text(self):
        paper = make_papers()[0]
        assert paper.section_text(Section.TITLE) == "Gene expression in yeast"
        assert paper.section_text(Section.INDEX_TERMS) == "expression yeast"

    def test_section_text_rejects_set_facets(self):
        with pytest.raises(ValueError):
            make_papers()[0].section_text(Section.AUTHORS)

    def test_all_text_concatenates(self):
        text = make_papers()[0].all_text()
        assert "Gene expression in yeast" in text
        assert "Long body text" in text
        assert "yeast" in text

    def test_dict_round_trip(self):
        paper = make_papers()[0]
        assert Paper.from_dict(paper.to_dict()) == paper

    def test_from_dict_defaults(self):
        paper = Paper.from_dict({"paper_id": "X", "title": "t"})
        assert paper.abstract == ""
        assert paper.authors == ()
        assert paper.year == 2000


class TestCorpus:
    @pytest.fixture
    def corpus(self):
        return Corpus(make_papers())

    def test_len_iter_contains(self, corpus):
        assert len(corpus) == 3
        assert "P1" in corpus and "PX" not in corpus
        assert [p.paper_id for p in corpus] == ["P1", "P2", "P3"]

    def test_duplicate_rejected(self, corpus):
        with pytest.raises(CorpusError, match="duplicate"):
            corpus.add(make_papers()[0])

    def test_unknown_lookup(self, corpus):
        with pytest.raises(CorpusError, match="unknown"):
            corpus.paper("missing")

    def test_references_drop_dangling(self, corpus):
        # P_EXTERNAL is not in the corpus; only P2 survives.
        assert corpus.references_of("P1") == ("P2",)

    def test_authors_sorted(self, corpus):
        assert corpus.authors() == ["Alice", "Bob", "Carol", "Dave"]

    def test_coauthors_of(self, corpus):
        # P1 authors {Alice, Bob}; Bob co-wrote P2 with Carol.
        assert coauthors_of(corpus, "P1") == {"Carol"}
        # Dave wrote alone.
        assert coauthors_of(corpus, "P3") == set()

    def test_subset(self, corpus):
        sub = corpus.subset(["P1", "P2"])
        assert len(sub) == 2
        # P1 -> P2 edge survives within the subset.
        assert sub.references_of("P1") == ("P2",)

    def test_index_invalidation_on_add(self, corpus):
        assert corpus.references_of("P1") == ("P2",)
        corpus.add(Paper(paper_id="P_EXTERNAL", title="New"))
        assert corpus.references_of("P1") == ("P2", "P_EXTERNAL")

    def test_self_reference_excluded(self):
        corpus = Corpus([Paper(paper_id="S", title="self", references=("S",))])
        assert corpus.references_of("S") == ()
