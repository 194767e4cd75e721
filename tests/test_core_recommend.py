"""Unit tests for the related-work recommender."""

import pytest

from repro.core.context import Context, ContextPaperSet
from repro.core.recommend import RelatedWorkRecommender


@pytest.fixture(scope="module")
def recommender(tiny):
    paper_set, representatives, prestige = tiny.text_scores(
        {"met": ("M1", "M2", "M3"), "sig": ("S1", "S2")}
    )
    return RelatedWorkRecommender(paper_set, prestige, tiny.vectors, representatives)


DRAFT = (
    "we study glucose metabolic process regulation and glycolysis pathway "
    "flux measurements in yeast"
)


class TestClassify:
    def test_classifies_into_topical_context(self, recommender):
        matches = recommender.classify(DRAFT)
        assert matches
        assert matches[0].context_id == "met"
        assert matches[0].similarity > 0

    def test_sorted_by_similarity(self, recommender):
        matches = recommender.classify(DRAFT, max_contexts=5)
        similarities = [m.similarity for m in matches]
        assert similarities == sorted(similarities, reverse=True)

    def test_unknown_vocabulary_no_contexts(self, recommender):
        assert recommender.classify("zzz qqq unrecognised") == []

    def test_max_contexts_respected(self, recommender):
        assert len(recommender.classify(DRAFT, max_contexts=1)) == 1


class TestRecommend:
    def test_recommends_topical_papers(self, recommender):
        recommendations = recommender.recommend(DRAFT, limit=3)
        assert recommendations
        ids = [r.paper_id for r in recommendations]
        assert ids[0] in {"M1", "M2", "M3"}
        assert "X1" not in ids

    def test_scores_decompose(self, recommender):
        for r in recommender.recommend(DRAFT):
            assert r.score == pytest.approx(
                0.4 * r.prestige + 0.6 * r.similarity
            )

    def test_sorted_and_limited(self, recommender):
        recommendations = recommender.recommend(DRAFT, limit=2)
        assert len(recommendations) <= 2
        scores = [r.score for r in recommendations]
        assert scores == sorted(scores, reverse=True)

    def test_exclude_removes_known_papers(self, recommender):
        baseline = [r.paper_id for r in recommender.recommend(DRAFT)]
        filtered = recommender.recommend(DRAFT, exclude=[baseline[0]])
        assert baseline[0] not in [r.paper_id for r in filtered]

    def test_empty_for_unknown_text(self, recommender):
        assert recommender.recommend("zzz qqq") == []

    def test_weight_validation(self, recommender):
        with pytest.raises(ValueError):
            RelatedWorkRecommender(
                recommender.paper_set,
                recommender.prestige,
                recommender.vectors,
                recommender.representatives,
                w_prestige=0.0,
                w_similarity=0.0,
            )

    def test_paper_appears_once_across_contexts(self, request, recommender):
        """A paper in multiple matched contexts is merged to its best score."""
        # Extend with a context sharing M1.
        ontology = request.getfixturevalue("tiny_ontology")
        paper_set = ContextPaperSet(
            ontology,
            [
                Context("met", ("M1", "M2")),
                Context("glu", ("M1",)),
            ],
            request.getfixturevalue("tiny_corpus").paper_rows,
        )
        shared = RelatedWorkRecommender(
            paper_set,
            recommender.prestige,
            recommender.vectors,
            {"met": "M1", "glu": "M1"},
        )
        ids = [r.paper_id for r in shared.recommend(DRAFT, max_contexts=2)]
        assert ids.count("M1") == 1
