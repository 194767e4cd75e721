"""Unit tests for bibliographic coupling and co-citation."""

import pytest

from reference.facets import (
    bibliographic_coupling,
    citation_similarity,
    cocitation,
)
from repro.citations.graph import CitationGraph


@pytest.fixture
def graph():
    """P1 and P2 both cite R1, R2; P1 also cites R3.
    C1 cites both P1 and P2; C2 cites only P1."""
    return CitationGraph(
        edges=[
            ("P1", "R1"),
            ("P1", "R2"),
            ("P1", "R3"),
            ("P2", "R1"),
            ("P2", "R2"),
            ("C1", "P1"),
            ("C1", "P2"),
            ("C2", "P1"),
        ]
    )


class TestBibliographicCoupling:
    def test_common_references(self, graph):
        # |common| = 2, sizes 3 and 2 -> 2 / sqrt(6).
        assert bibliographic_coupling(graph, "P1", "P2") == pytest.approx(
            2 / (6 ** 0.5)
        )

    def test_no_references(self, graph):
        assert bibliographic_coupling(graph, "R1", "R2") == 0.0

    def test_same_paper_with_refs(self, graph):
        assert bibliographic_coupling(graph, "P1", "P1") == 1.0

    def test_same_paper_without_refs(self, graph):
        assert bibliographic_coupling(graph, "R1", "R1") == 0.0

    def test_symmetry(self, graph):
        assert bibliographic_coupling(graph, "P1", "P2") == bibliographic_coupling(
            graph, "P2", "P1"
        )


class TestCocitation:
    def test_common_citers(self, graph):
        # P1 cited by {C1, C2}, P2 by {C1}: 1 / sqrt(2).
        assert cocitation(graph, "P1", "P2") == pytest.approx(1 / (2 ** 0.5))

    def test_never_cited(self, graph):
        assert cocitation(graph, "C1", "C2") == 0.0

    def test_same_paper_cited(self, graph):
        assert cocitation(graph, "P1", "P1") == 1.0

    def test_symmetry(self, graph):
        assert cocitation(graph, "P1", "P2") == cocitation(graph, "P2", "P1")


class TestCitationSimilarity:
    def test_combination(self, graph):
        bib = bibliographic_coupling(graph, "P1", "P2")
        coc = cocitation(graph, "P1", "P2")
        assert citation_similarity(graph, "P1", "P2", bib_weight=0.7) == pytest.approx(
            0.7 * bib + 0.3 * coc
        )

    def test_extreme_weights(self, graph):
        bib = bibliographic_coupling(graph, "P1", "P2")
        coc = cocitation(graph, "P1", "P2")
        assert citation_similarity(graph, "P1", "P2", bib_weight=1.0) == pytest.approx(bib)
        assert citation_similarity(graph, "P1", "P2", bib_weight=0.0) == pytest.approx(coc)

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_weight_validation(self, graph, bad):
        with pytest.raises(ValueError):
            citation_similarity(graph, "P1", "P2", bib_weight=bad)

    def test_bounded(self, graph):
        value = citation_similarity(graph, "P1", "P2")
        assert 0.0 <= value <= 1.0
