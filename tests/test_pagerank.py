"""Unit tests for the section-3.1 PageRank variant."""

import pytest

from reference.citations import random_graph, reference_pagerank
from repro.citations.graph import CitationGraph
from repro.citations.pagerank import TeleportKind, pagerank


def star_graph():
    """Everyone cites HUB."""
    return CitationGraph(edges=[("A", "HUB"), ("B", "HUB"), ("C", "HUB")])


def ranked(scores):
    """Node ids by descending score, ties by id."""
    return sorted(scores, key=lambda node: (-scores[node], node))


def cycle_graph():
    return CitationGraph(edges=[("A", "B"), ("B", "C"), ("C", "A")])


class TestE2Uniform:
    def test_scores_sum_to_one(self):
        result = pagerank(star_graph())
        assert sum(result.scores.values()) == pytest.approx(1.0)

    def test_hub_wins_star(self):
        result = pagerank(star_graph())
        assert ranked(result.scores)[0] == "HUB"
        hub = result.scores["HUB"]
        for node in ("A", "B", "C"):
            assert hub > result.scores[node]

    def test_cycle_is_uniform(self):
        result = pagerank(cycle_graph())
        values = list(result.scores.values())
        assert max(values) - min(values) < 1e-9

    def test_converges(self):
        result = pagerank(cycle_graph())
        assert result.converged
        assert result.residual < 1e-9

    def test_empty_graph(self):
        result = pagerank(CitationGraph())
        assert result.scores == {}
        assert result.converged

    def test_single_node(self):
        result = pagerank(CitationGraph(nodes=["X"]))
        assert result.scores["X"] == pytest.approx(1.0)

    def test_edgeless_graph_uniform(self):
        g = CitationGraph(nodes=["A", "B", "C", "D"])
        result = pagerank(g)
        for score in result.scores.values():
            assert score == pytest.approx(0.25)

    def test_dangling_mass_preserved(self):
        # B has no outgoing citations: its mass must be redistributed.
        g = CitationGraph(edges=[("A", "B")])
        result = pagerank(g)
        assert sum(result.scores.values()) == pytest.approx(1.0)
        assert result.scores["B"] > result.scores["A"]

    def test_initial_vector_does_not_change_fixed_point(self):
        g = star_graph()
        uniform = pagerank(g)
        skewed = pagerank(g, initial={"A": 1.0})
        for node in g.nodes():
            assert uniform.scores[node] == pytest.approx(
                skewed.scores[node], abs=1e-6
            )

    def test_hand_computed_two_node_chain(self):
        # A -> B with d = 0.15:
        #   p(A) = 0.15/2 + 0.85 * dangling(B)/2
        #   p(B) = 0.15/2 + 0.85 * (p(A) + dangling(B)/2)
        # Solve: p_A = (d/2 + 0.85*p_B/2) with dangling B donating p_B/2...
        # easier to just assert the converged invariants:
        result = pagerank(CitationGraph(edges=[("A", "B")]), d=0.15)
        p_a, p_b = result.scores["A"], result.scores["B"]
        assert p_a + p_b == pytest.approx(1.0)
        # Fixed point equations with dangling redistribution:
        assert p_a == pytest.approx(0.15 / 2 + 0.85 * (p_b / 2), abs=1e-8)
        assert p_b == pytest.approx(0.15 / 2 + 0.85 * (p_a + p_b / 2), abs=1e-8)


class TestE1Constant:
    def test_scores_exceed_teleport_floor(self):
        result = pagerank(star_graph(), teleport=TeleportKind.E1_CONSTANT, d=0.15)
        for score in result.scores.values():
            assert score >= 0.15 - 1e-12

    def test_ranking_matches_e2(self):
        g = CitationGraph(
            edges=[("A", "B"), ("C", "B"), ("B", "D"), ("A", "D"), ("D", "A")]
        )
        rank_e1 = ranked(pagerank(g, teleport=TeleportKind.E1_CONSTANT).scores)
        rank_e2 = ranked(pagerank(g, teleport=TeleportKind.E2_UNIFORM).scores)
        assert rank_e1 == rank_e2

    def test_converges(self):
        result = pagerank(cycle_graph(), teleport=TeleportKind.E1_CONSTANT)
        assert result.converged


class TestValidation:
    @pytest.mark.parametrize("bad_d", [0.0, 1.0, -0.1, 1.5])
    def test_d_range(self, bad_d):
        with pytest.raises(ValueError):
            pagerank(star_graph(), d=bad_d)

    def test_zero_mass_initial_rejected(self):
        with pytest.raises(ValueError, match="positive mass"):
            pagerank(star_graph(), initial={"A": 0.0})


class TestVectorizedParity:
    """The CSR/bincount inner loop must match a straight list-of-lists
    reference implementation of the same recurrence to 1e-10."""

    @pytest.mark.parametrize("teleport", list(TeleportKind))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_reference_on_random_graphs(self, teleport, seed):
        graph = random_graph(seed, n=60, p=0.08)
        expected = reference_pagerank(graph, teleport)
        result = pagerank(graph, teleport=teleport)
        assert result.scores.keys() == expected.keys()
        for node, score in expected.items():
            assert result.scores[node] == pytest.approx(score, abs=1e-10)

    @pytest.mark.parametrize("teleport", list(TeleportKind))
    def test_matches_reference_with_dangling_and_isolated_nodes(self, teleport):
        graph = CitationGraph(
            edges=[("A", "B"), ("A", "C"), ("B", "C"), ("D", "A")],
            nodes=["A", "B", "C", "D", "ISOLATED"],  # ISOLATED: no edges at all
        )
        # C and ISOLATED are dangling (no outgoing citations).
        expected = reference_pagerank(graph, teleport)
        result = pagerank(graph, teleport=teleport)
        for node, score in expected.items():
            assert result.scores[node] == pytest.approx(score, abs=1e-10)
