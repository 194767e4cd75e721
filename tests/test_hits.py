"""Unit tests for HITS."""

import pytest

from reference.citations import random_graph, reference_hits
from repro.citations.graph import CitationGraph
from repro.citations.hits import hits_scores


class TestHits:
    def test_star_authority(self):
        g = CitationGraph(edges=[("A", "HUB"), ("B", "HUB"), ("C", "HUB")])
        result = hits_scores(g)
        assert max(result.authorities, key=result.authorities.get) == "HUB"
        # Citing papers are pure hubs.
        assert result.hubs["A"] > result.hubs["HUB"]

    def test_bipartite_hubs_and_authorities(self):
        # Hubs {H1, H2} each cite authorities {X, Y}.
        g = CitationGraph(
            edges=[("H1", "X"), ("H1", "Y"), ("H2", "X"), ("H2", "Y")]
        )
        result = hits_scores(g)
        assert result.authorities["X"] == pytest.approx(result.authorities["Y"])
        assert result.hubs["H1"] == pytest.approx(result.hubs["H2"])
        assert result.authorities["X"] > result.authorities["H1"]

    def test_l2_normalised(self):
        g = CitationGraph(edges=[("A", "B"), ("B", "C"), ("A", "C")])
        result = hits_scores(g)
        auth_norm = sum(v * v for v in result.authorities.values())
        hub_norm = sum(v * v for v in result.hubs.values())
        assert auth_norm == pytest.approx(1.0)
        assert hub_norm == pytest.approx(1.0)

    def test_empty_graph(self):
        result = hits_scores(CitationGraph())
        assert result.authorities == {}
        assert result.converged

    def test_edgeless_graph_uniform(self):
        g = CitationGraph(nodes=["A", "B"])
        result = hits_scores(g)
        assert result.authorities["A"] == pytest.approx(result.authorities["B"])
        assert result.converged

    def test_converges_on_cycle(self):
        g = CitationGraph(edges=[("A", "B"), ("B", "C"), ("C", "A")])
        result = hits_scores(g)
        assert result.converged
        values = list(result.authorities.values())
        assert max(values) - min(values) < 1e-6

    def test_more_citations_more_authority(self):
        g = CitationGraph(
            edges=[("A", "POPULAR"), ("B", "POPULAR"), ("C", "POPULAR"), ("A", "NICHE")]
        )
        result = hits_scores(g)
        assert result.authorities["POPULAR"] > result.authorities["NICHE"]


class TestBincountParity:
    """Each step's sums run in in-list and out-list order, so the scores
    equal the per-node Python loop of :func:`reference_hits` bit for bit."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_loop_reference(self, seed):
        graph = random_graph(seed, p=0.08)
        result = hits_scores(graph)
        authorities, hubs = reference_hits(graph)
        assert list(result.authorities.items()) == list(authorities.items())
        assert list(result.hubs.items()) == list(hubs.items())

    def test_in_lists_out_of_source_order(self):
        graph = CitationGraph(
            edges=[("E", "A"), ("B", "A"), ("D", "A"), ("A", "C"), ("B", "C"), ("E", "B")],
            nodes=["A", "B", "C", "D", "E"],
        )
        result = hits_scores(graph)
        authorities, hubs = reference_hits(graph)
        assert list(result.authorities.items()) == list(authorities.items())
        assert list(result.hubs.items()) == list(hubs.items())
