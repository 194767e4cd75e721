"""Unit tests for set similarity measures."""

import pytest

from reference.facets import (
    dice_coefficient,
    jaccard_similarity,
    overlap_coefficient,
)


class TestJaccard:
    def test_known_value(self):
        assert jaccard_similarity({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)

    def test_identical(self):
        assert jaccard_similarity({"a"}, {"a"}) == 1.0

    def test_disjoint(self):
        assert jaccard_similarity({"a"}, {"b"}) == 0.0

    def test_both_empty(self):
        assert jaccard_similarity(set(), set()) == 0.0

    def test_accepts_lists(self):
        assert jaccard_similarity(["a", "a", "b"], ["b"]) == pytest.approx(0.5)


class TestDice:
    def test_known_value(self):
        assert dice_coefficient({"a", "b"}, {"b", "c"}) == pytest.approx(0.5)

    def test_both_empty(self):
        assert dice_coefficient(set(), set()) == 0.0

    def test_identical(self):
        assert dice_coefficient({"a", "b"}, {"a", "b"}) == 1.0


class TestOverlapCoefficient:
    def test_subset_scores_one(self):
        assert overlap_coefficient({"a"}, {"a", "b", "c"}) == 1.0

    def test_one_empty(self):
        assert overlap_coefficient(set(), {"a"}) == 0.0

    def test_partial(self):
        assert overlap_coefficient({"a", "b"}, {"b", "c"}) == pytest.approx(0.5)
