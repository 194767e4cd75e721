"""Cross-validation against reference implementations.

Our PageRank/HITS/Spearman are hand-rolled (the paper's variants differ
from library defaults in teleport handling), so these tests pin them
against networkx and scipy on shared ground: where the algorithms
coincide, the numbers must too.
"""

import random

import networkx as nx
import pytest
import scipy.stats

from reference.citations import random_graph
from repro.citations.graph import CitationGraph
from repro.citations.hits import hits_scores
from repro.citations.pagerank import pagerank
from repro.eval.stats import kendall_tau, spearman


def to_networkx(graph):
    """``graph`` as a ``networkx.DiGraph`` (``u -> v``: u cites v)."""
    result = nx.DiGraph()
    result.add_nodes_from(graph.nodes())
    result.add_edges_from(graph.edges())
    return result


def from_networkx(nx_graph):
    """A :class:`CitationGraph` of any networkx digraph (self-loops dropped)."""
    return CitationGraph(
        edges=[(str(source), str(target)) for source, target in nx_graph.edges()],
        nodes=map(str, nx_graph.nodes()),
    )


class TestNetworkxInterop:
    def test_round_trip(self):
        graph = random_graph(1)
        back = from_networkx(to_networkx(graph))
        assert sorted(back.nodes()) == sorted(graph.nodes())
        assert set(back.edges()) == set(graph.edges())

    def test_self_loops_dropped_on_import(self):
        nx_graph = nx.DiGraph()
        nx_graph.add_edge("a", "a")
        nx_graph.add_edge("a", "b")
        imported = from_networkx(nx_graph)
        assert list(imported.edges()) == [("a", "b")]


class TestPagerankAgainstNetworkx:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_networkx_pagerank(self, seed):
        """Our E2 variant with dangling redistribution == nx.pagerank.

        networkx uses damping alpha = 1 - d and the same uniform teleport
        and dangling handling, so the fixed points must agree.
        """
        graph = random_graph(seed)
        ours = pagerank(graph, d=0.15, tolerance=1e-12).scores
        reference = nx.pagerank(to_networkx(graph), alpha=0.85, tol=1e-12)
        for node in graph.nodes():
            assert ours[node] == pytest.approx(reference[node], abs=1e-8)

    def test_matches_on_graph_with_dangling_nodes(self):
        graph = CitationGraph(
            edges=[("a", "b"), ("c", "b"), ("b", "d")], nodes=["a", "b", "c", "d", "isolated"]
        )
        ours = pagerank(graph, d=0.15, tolerance=1e-12).scores
        reference = nx.pagerank(to_networkx(graph), alpha=0.85, tol=1e-12)
        for node in graph.nodes():
            assert ours[node] == pytest.approx(reference[node], abs=1e-8)


class TestHitsAgainstNetworkx:
    @pytest.mark.parametrize("seed", [4, 5])
    def test_authority_ranking_matches(self, seed):
        """HITS normalisations differ (L2 here, L1 in networkx), so we
        compare *rankings*, which the normalisation cannot change."""
        graph = random_graph(seed)
        ours = hits_scores(graph, max_iterations=500, tolerance=1e-12).authorities
        _hubs, reference = nx.hits(to_networkx(graph), max_iter=1000, tol=1e-12)
        our_ranking = sorted(graph.nodes(), key=lambda n: (-ours[n], n))
        reference_ranking = sorted(
            graph.nodes(), key=lambda n: (-reference[n], n)
        )
        # Top-10 agreement is what matters for prestige.
        assert our_ranking[:10] == reference_ranking[:10]


class TestStatsAgainstScipy:
    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_spearman_matches_scipy(self, seed):
        rng = random.Random(seed)
        keys = [f"k{i}" for i in range(25)]
        a = {k: rng.random() for k in keys}
        b = {k: rng.random() for k in keys}
        ours = spearman(a, b)
        reference = scipy.stats.spearmanr(
            [a[k] for k in sorted(keys)], [b[k] for k in sorted(keys)]
        ).statistic
        assert ours == pytest.approx(reference, abs=1e-10)

    def test_spearman_with_ties_matches_scipy(self):
        a = {"a": 1.0, "b": 2.0, "c": 2.0, "d": 3.0, "e": 1.0}
        b = {"a": 5.0, "b": 4.0, "c": 4.0, "d": 2.0, "e": 5.0}
        keys = sorted(a)
        reference = scipy.stats.spearmanr(
            [a[k] for k in keys], [b[k] for k in keys]
        ).statistic
        assert spearman(a, b) == pytest.approx(reference, abs=1e-10)

    @pytest.mark.parametrize("seed", [10, 11])
    def test_kendall_matches_scipy_tau_a_on_tieless_data(self, seed):
        rng = random.Random(seed)
        keys = [f"k{i}" for i in range(15)]
        # Sample without replacement -> no ties -> tau-a == tau-b.
        values_a = rng.sample(range(1000), len(keys))
        values_b = rng.sample(range(1000), len(keys))
        a = dict(zip(keys, map(float, values_a)))
        b = dict(zip(keys, map(float, values_b)))
        reference = scipy.stats.kendalltau(
            [a[k] for k in sorted(keys)], [b[k] for k in sorted(keys)]
        ).statistic
        assert kendall_tau(a, b) == pytest.approx(reference, abs=1e-10)
