"""Unit tests for CitationGraph.

Every expected order below is written out by hand: node order, keep-first
deduplication, self-loops, in-list order and subgraph order are what the
PageRank and facet floats depend on.
"""

import pytest

from repro.citations.graph import CitationGraph
from repro.corpus.corpus import Corpus
from repro.corpus.paper import Paper


@pytest.fixture
def graph():
    """A -> B -> C, A -> C, D isolated."""
    return CitationGraph(edges=[("A", "B"), ("B", "C"), ("A", "C")], nodes=["D"])


class TestConstruction:
    def test_nodes_and_edges(self, graph):
        assert graph.nodes() == ["D", "A", "B", "C"]
        assert list(graph.edges()) == [("A", "B"), ("A", "C"), ("B", "C")]
        assert graph.n_edges == 3

    def test_self_loop_ignored(self):
        g = CitationGraph(edges=[("A", "A")])
        assert g.n_edges == 0
        assert "A" in g

    def test_duplicate_edge_ignored(self):
        g = CitationGraph(edges=[("A", "B"), ("A", "B")])
        assert g.n_edges == 1

    def test_from_corpus(self):
        corpus = Corpus(
            [
                Paper(paper_id="P1", title="t", references=("P2", "GONE")),
                Paper(paper_id="P2", title="t"),
            ]
        )
        g = CitationGraph.from_corpus(corpus)
        assert g.nodes() == ["P1", "P2"]
        assert list(g.edges()) == [("P1", "P2")]

    def test_from_corpus_uses_the_corpus_rows(self):
        corpus = Corpus(
            [
                Paper(paper_id="P2", title="t", references=("P1", "P1", "P2")),
                Paper(paper_id="P1", title="t"),
            ]
        )
        g = CitationGraph.from_corpus(corpus)
        assert g.paper_rows is corpus.paper_rows
        assert list(g.edges()) == [("P2", "P1")]


class TestOrders:
    def test_nodes_then_endpoints_in_first_seen_order(self):
        g = CitationGraph(edges=[("C", "B"), ("E", "C"), ("A", "B")], nodes=["B", "Z"])
        assert g.nodes() == ["B", "Z", "C", "E", "A"]

    def test_duplicate_keeps_first_occurrence(self):
        g = CitationGraph(edges=[("A", "C"), ("A", "B"), ("A", "C"), ("D", "B")])
        assert g.out_neighbors("A") == ["C", "B"]
        assert g.in_neighbors("B") == ["A", "D"]
        assert g.n_edges == 3

    def test_self_loop_keeps_its_node(self):
        g = CitationGraph(edges=[("S", "S"), ("A", "B")])
        assert g.nodes() == ["S", "A", "B"]
        assert g.out_neighbors("S") == []
        assert g.in_neighbors("S") == []
        assert list(g.edges()) == [("A", "B")]

    def test_in_lists_follow_edge_order_not_source_order(self):
        g = CitationGraph(edges=[("C", "B"), ("A", "B")])
        assert g.nodes() == ["C", "B", "A"]
        assert g.in_neighbors("B") == ["C", "A"]
        g = CitationGraph(edges=[("A", "B"), ("C", "B"), ("D", "B")], nodes=["D", "C"])
        assert g.nodes() == ["D", "C", "A", "B"]
        assert g.in_neighbors("B") == ["A", "C", "D"]

    def test_out_lists_follow_edge_order(self):
        g = CitationGraph(edges=[("A", "D"), ("B", "C"), ("A", "B"), ("A", "C")])
        assert g.out_neighbors("A") == ["D", "B", "C"]
        assert list(g.edges()) == [("A", "D"), ("A", "B"), ("A", "C"), ("B", "C")]

    def test_subgraph_lists_graph_order_then_unknown_ids(self):
        g = CitationGraph(edges=[("A", "B"), ("C", "A"), ("B", "C")], nodes=["C"])
        sub = g.subgraph(["X", "B", "Y", "C", "X", "A"])
        assert sub.nodes() == ["C", "A", "B", "X", "Y"]
        assert list(sub.edges()) == [("C", "A"), ("A", "B"), ("B", "C")]
        assert sub.in_neighbors("C") == ["B"]

    def test_subgraph_in_lists_follow_graph_order(self):
        g = CitationGraph(edges=[("A", "T"), ("C", "T"), ("B", "T")], nodes=["C", "B"])
        assert g.in_neighbors("T") == ["A", "C", "B"]
        sub = g.subgraph(["T", "A", "B", "C"])
        assert sub.nodes() == ["C", "B", "A", "T"]
        assert sub.in_neighbors("T") == ["C", "B", "A"]


class TestDegrees:
    def test_degrees(self, graph):
        assert len(graph.out_neighbors("A")) == 2
        assert len(graph.in_neighbors("C")) == 2
        assert len(graph.out_neighbors("D")) == 0
        assert len(graph.in_neighbors("D")) == 0

    def test_neighbors(self, graph):
        assert graph.out_neighbors("A") == ["B", "C"]
        assert graph.in_neighbors("C") == ["B", "A"]

    def test_unknown_node_neighbors_empty(self, graph):
        assert graph.out_neighbors("ZZ") == []
        assert graph.in_neighbors("ZZ") == []


class TestDensity:
    def test_density_value(self, graph):
        # 3 edges over 4*3 ordered pairs.
        assert graph.density() == pytest.approx(3 / 12)

    def test_density_tiny_graph(self):
        assert CitationGraph(nodes=["solo"]).density() == 0.0
        assert CitationGraph().density() == 0.0


class TestSubgraph:
    def test_induced_edges_only(self, graph):
        sub = graph.subgraph({"A", "B"})
        assert sub.nodes() == ["A", "B"]
        assert list(sub.edges()) == [("A", "B")]

    def test_unknown_ids_become_isolated(self, graph):
        sub = graph.subgraph({"A", "NEW"})
        assert set(sub.nodes()) == {"A", "NEW"}
        assert sub.n_edges == 0

    def test_empty_selection(self, graph):
        sub = graph.subgraph(set())
        assert len(sub) == 0


class TestPathExpansion:
    def test_zero_hops(self, graph):
        assert graph.within_path_length({"A"}, 0) == {"A"}

    def test_one_hop_undirected(self, graph):
        assert graph.within_path_length({"B"}, 1) == {"A", "B", "C"}

    def test_one_hop_directed(self, graph):
        assert graph.within_path_length({"B"}, 1, directed=True) == {"B", "C"}

    def test_two_hops(self):
        g = CitationGraph(edges=[("A", "B"), ("B", "C"), ("C", "D")])
        assert g.within_path_length({"A"}, 2) == {"A", "B", "C"}

    def test_unknown_source_ignored(self, graph):
        assert graph.within_path_length({"GHOST"}, 2) == set()

    def test_negative_hops_rejected(self, graph):
        with pytest.raises(ValueError):
            graph.within_path_length({"A"}, -1)

    def test_isolated_node(self, graph):
        assert graph.within_path_length({"D"}, 3) == {"D"}
