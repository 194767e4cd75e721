"""Property-based tests for citation analysis and prestige invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from reference.facets import bibliographic_coupling, cocitation
from reference.prestige import one_row
from repro.citations.graph import CitationGraph
from repro.citations.hits import hits_scores
from repro.citations.pagerank import TeleportKind, pagerank
from repro.scoring.base import max_rows


def max_normalize(scores):
    return one_row(max_rows, scores)


node_ids = st.integers(min_value=0, max_value=12).map(lambda i: f"N{i}")
edge_lists = st.lists(st.tuples(node_ids, node_ids), max_size=40)


def build_graph(edges):
    return CitationGraph(edges=edges)


class TestPageRankProperties:
    @given(edge_lists)
    @settings(max_examples=60, deadline=None)
    def test_e2_scores_form_distribution(self, edges):
        graph = build_graph(edges)
        result = pagerank(graph)
        if len(graph) == 0:
            assert result.scores == {}
            return
        total = sum(result.scores.values())
        assert math.isclose(total, 1.0, rel_tol=1e-6)
        assert all(value > 0 for value in result.scores.values())

    @given(edge_lists)
    @settings(max_examples=40, deadline=None)
    def test_relabeling_invariance(self, edges):
        graph = build_graph(edges)
        if len(graph) == 0:
            return
        mapping = {node: f"X{node}" for node in graph.nodes()}
        relabeled = CitationGraph(
            edges=[(mapping[s], mapping[t]) for s, t in graph.edges()],
            nodes=[mapping[node] for node in graph.nodes()],
        )
        original = pagerank(graph).scores
        renamed = pagerank(relabeled).scores
        for node, value in original.items():
            assert math.isclose(renamed[mapping[node]], value, rel_tol=1e-9)

    @given(edge_lists)
    @settings(max_examples=40, deadline=None)
    def test_e1_preserves_e2_ordering(self, edges):
        graph = build_graph(edges)
        if len(graph) < 2:
            return
        e1 = pagerank(graph, teleport=TeleportKind.E1_CONSTANT).scores
        e2 = pagerank(graph, teleport=TeleportKind.E2_UNIFORM).scores
        nodes = sorted(graph.nodes())
        for a in nodes:
            for b in nodes:
                if e2[a] > e2[b] + 1e-9:
                    assert e1[a] > e1[b] - 1e-7


class TestHitsProperties:
    @given(edge_lists)
    @settings(max_examples=50, deadline=None)
    def test_scores_nonnegative_unit_norm(self, edges):
        graph = build_graph(edges)
        result = hits_scores(graph)
        if len(graph) == 0:
            return
        assert all(value >= 0 for value in result.authorities.values())
        norm = math.sqrt(sum(v * v for v in result.authorities.values()))
        assert math.isclose(norm, 1.0, rel_tol=1e-6)


class TestCouplingProperties:
    @given(edge_lists, node_ids, node_ids)
    @settings(max_examples=60, deadline=None)
    def test_bounds_and_symmetry(self, edges, a, b):
        graph = CitationGraph(edges=edges, nodes=[a, b])
        for measure in (bibliographic_coupling, cocitation):
            value = measure(graph, a, b)
            assert 0.0 <= value <= 1.0
            assert math.isclose(
                value, measure(graph, b, a), rel_tol=1e-9, abs_tol=1e-12
            )


class TestNormalizeProperties:
    score_maps = st.dictionaries(
        st.text(min_size=1, max_size=4),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        max_size=15,
    )

    @given(score_maps)
    def test_max_normalize_bounds_and_order(self, scores):
        result = max_normalize(scores)
        for value in result.values():
            assert 0.0 <= value <= 1.0
        keys = list(scores)
        for a in keys:
            for b in keys:
                if scores[a] < scores[b]:
                    assert result[a] <= result[b] + 1e-12

    @given(score_maps)
    def test_max_normalize_preserves_ratios(self, scores):
        result = max_normalize(scores)
        high = max(scores.values(), default=0.0)
        if high > 0:
            for key, value in scores.items():
                assert math.isclose(result[key], value / high, rel_tol=1e-9)
