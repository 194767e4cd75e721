"""Unit tests for IC-based semantic similarity."""

import pytest

from repro.ontology.ontology import Ontology
from repro.ontology.semantic import (
    common_ancestors,
    lin_similarity,
    most_informative_common_ancestor,
    resnik_similarity,
)
from repro.ontology.term import Term


@pytest.fixture(scope="module")
def onto():
    """root -> {a, b}; a -> {a1, a2}; b -> b1.  Plus a second root r2."""
    return Ontology(
        [
            Term("root", "process"),
            Term("a", "a process", parent_ids=("root",)),
            Term("b", "b process", parent_ids=("root",)),
            Term("a1", "a1 process", parent_ids=("a",)),
            Term("a2", "a2 process", parent_ids=("a",)),
            Term("b1", "b1 process", parent_ids=("b",)),
            Term("r2", "other root"),
        ]
    )


class TestCommonAncestors:
    def test_siblings(self, onto):
        assert common_ancestors(onto, "a1", "a2") == {"a", "root"}

    def test_cousins(self, onto):
        assert common_ancestors(onto, "a1", "b1") == {"root"}

    def test_self(self, onto):
        assert "a1" in common_ancestors(onto, "a1", "a1")

    def test_disconnected(self, onto):
        assert common_ancestors(onto, "a1", "r2") == set()

    def test_mica_siblings(self, onto):
        assert most_informative_common_ancestor(onto, "a1", "a2") == "a"

    def test_mica_ancestor_descendant(self, onto):
        assert most_informative_common_ancestor(onto, "a", "a1") == "a"

    def test_mica_disconnected(self, onto):
        assert most_informative_common_ancestor(onto, "a1", "r2") is None


class TestResnik:
    def test_siblings_share_parent_ic(self, onto):
        assert resnik_similarity(onto, "a1", "a2") == pytest.approx(
            onto.information_content("a")
        )

    def test_closer_pairs_more_similar(self, onto):
        assert resnik_similarity(onto, "a1", "a2") > resnik_similarity(
            onto, "a1", "b1"
        )

    def test_disconnected_zero(self, onto):
        assert resnik_similarity(onto, "a1", "r2") == 0.0

    def test_symmetry(self, onto):
        assert resnik_similarity(onto, "a1", "b1") == resnik_similarity(
            onto, "b1", "a1"
        )


class TestLin:
    def test_self_similarity_is_one(self, onto):
        assert lin_similarity(onto, "a1", "a1") == pytest.approx(1.0)

    def test_bounds(self, onto):
        for a in ("a", "a1", "b1"):
            for b in ("a", "a1", "b1"):
                assert 0.0 <= lin_similarity(onto, a, b) <= 1.0 + 1e-12

    def test_root_has_zero_lin(self, onto):
        # IC(root) == 0 via p(root) = 1 (root reaches all but r2... not all).
        # Compute: root does NOT reach r2, so IC(root) > 0 here; use the
        # ordering property instead: siblings beat cousins.
        assert lin_similarity(onto, "a1", "a2") > lin_similarity(onto, "a1", "b1")

    def test_disconnected_zero(self, onto):
        assert lin_similarity(onto, "a1", "r2") == 0.0

