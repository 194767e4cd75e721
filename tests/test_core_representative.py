"""Unit tests for representative-paper selection."""

import pytest

from repro.core.assignment import TextContextAssigner
from repro.core.representative import representatives_of, select_representative
from repro.serving.substrate import SubstrateStore


@pytest.fixture(scope="module")
def store(tiny):
    return tiny.vectors


class TestSelectRepresentative:
    def test_empty_candidates(self, store):
        assert select_representative(store, []) is None

    def test_single_candidate(self, store):
        assert select_representative(store, ["M1"]) == "M1"

    def test_picks_centroid_closest(self, store):
        # Among the three metabolic papers, M2 shares vocabulary with both
        # M1 (glucose) and M3 (survey phrasing is distinct), so the pick
        # must be one of the truly central ones -- never the outlier X1.
        chosen = select_representative(store, ["M1", "M2", "M3"])
        assert chosen in {"M1", "M2", "M3"}
        # Adding an off-topic paper does not make it representative.
        chosen_with_outlier = select_representative(store, ["M1", "M2", "M3", "X1"])
        assert chosen_with_outlier != "X1"

    def test_duplicates_ignored(self, store):
        assert select_representative(store, ["M1", "M1"]) == "M1"

    def test_deterministic(self, store):
        a = select_representative(store, ["M1", "M2", "M3"])
        b = select_representative(store, ["M3", "M2", "M1"])
        assert a == b


class TestSelectRepresentatives:
    """Every text context carries its representative, and the store's
    ``representatives`` map is a view of those fields."""

    def test_prefers_training_papers(self, store, tiny_ontology):
        assigner = TextContextAssigner(
            store.corpus, tiny_ontology, store, similarity_threshold=0.15
        )
        paper_set = assigner.build({"met": ["M1"]})
        assert paper_set.context("met").representative == "M1"
        assert set(paper_set.context("met").paper_ids) > {"M1"}

    def test_batch_equals_one_at_a_time(self, store):
        lists = [["M1", "M2", "M3"], ["S1", "S2"], [], ["X1"], ["M3", "X1"]]
        assert representatives_of(store, lists) == [
            select_representative(store, ids) for ids in lists
        ]

    def test_contextless_contexts_omitted(self, tiny_corpus, tiny_ontology):
        store = SubstrateStore(tiny_corpus, tiny_ontology, {"met": ["M1", "M2"]})
        contexts = list(store.text_paper_set)
        assert [c.term_id for c in contexts] == ["met"]
        assert representatives_of(store.vectors, [[]]) == [None]
        assert store.representatives == {"met": contexts[0].representative}
