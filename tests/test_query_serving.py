"""The query-serving fast path: shared evaluation, caches, batching.

Covers the serving-layer contract end to end:

- a single context-based search scans the posting lists exactly once
  (asserted through the ``index.keyword.postings_scanned`` counter);
- the pipeline's LRU result cache -- hit/miss/evict counters, capacity
  bound, and identical results with the cache on or off for all three
  prestige functions;
- cache invalidation when artifacts are (re)installed by workspace
  hydration;
- engine memoisation identity and the ``representative``-strategy
  vector plumbing;
- ``search_many`` determinism and metric exactness.
"""

import pytest

from repro.obs import get_registry
from repro.pipeline import SearchResultCache, build_demo_pipeline
from repro.workspace import open_workspace, topological_order

QUERY = "gene expression regulation"


@pytest.fixture(scope="module")
def pipeline():
    return build_demo_pipeline(seed=7, n_papers=150, n_terms=40)


def _counters():
    return get_registry().snapshot()["counters"]


class TestSingleScan:
    def test_context_search_scans_postings_exactly_once(self, pipeline):
        engine = pipeline.search_engine("text", "text")
        keyword = pipeline.keyword_engine
        # One scan touches every posting of every in-vocabulary distinct
        # term, exactly once.
        terms = list(dict.fromkeys(keyword.index.analyzer.analyze(QUERY)))
        expected = sum(
            len(keyword.index.term_run(term).rows)
            for term in terms
            if keyword._idf(term) > 0.0
        )
        assert expected > 0
        before = _counters().get("index.keyword.postings_scanned", 0)
        engine.search(QUERY, limit=10)
        delta = _counters()["index.keyword.postings_scanned"] - before
        assert delta == expected

    def test_one_evaluation_per_context_search(self, pipeline):
        engine = pipeline.search_engine("text", "text")
        before = _counters().get("index.keyword.queries", 0)
        engine.search(QUERY, limit=10)
        assert _counters()["index.keyword.queries"] - before == 1

    def test_grouped_and_explain_also_scan_once(self, pipeline):
        engine = pipeline.search_engine("text", "text")
        paper_id = engine.search(QUERY, limit=1)[0].paper_id
        before = _counters().get("index.keyword.queries", 0)
        engine.search_grouped(QUERY)
        engine.explain(QUERY, paper_id)
        assert _counters()["index.keyword.queries"] - before == 2


class TestResultCache:
    def test_miss_then_hit_counters_and_identical_results(self, pipeline):
        pipeline.refresh()
        first = pipeline.search(QUERY, limit=5)
        counters = _counters()
        assert counters["search.cache.miss"] == 1
        assert counters.get("search.cache.hit", 0) == 0
        second = pipeline.search(QUERY, limit=5)
        assert second == first
        assert _counters()["search.cache.hit"] == 1

    def test_cache_key_covers_request_shape(self, pipeline):
        pipeline.refresh()
        pipeline.search(QUERY, limit=5)
        # A different limit/threshold is a different request: no false hit.
        pipeline.search(QUERY, limit=3)
        pipeline.search(QUERY, limit=5, threshold=0.5)
        assert _counters().get("search.cache.hit", 0) == 0
        assert _counters()["search.cache.miss"] == 3

    def test_eviction_is_counted_and_bounded(self):
        cache = SearchResultCache(capacity=2)
        cache.put(("a",), [])
        cache.put(("b",), [])
        cache.put(("c",), [])  # evicts ("a",)
        assert len(cache) == 2
        assert _counters()["search.cache.evict"] == 1
        assert cache.get(("a",)) is None
        assert cache.get(("b",)) == []

    def test_lru_order_refreshes_on_hit(self):
        cache = SearchResultCache(capacity=2)
        cache.put(("a",), [])
        cache.put(("b",), [])
        cache.get(("a",))  # "a" becomes most-recent
        cache.put(("c",), [])  # evicts "b", not "a"
        assert cache.get(("a",)) is not None
        assert cache.get(("b",)) is None

    def test_hit_rate_tracks_this_instance(self):
        cache = SearchResultCache(capacity=4)
        assert cache.hit_rate is None  # no lookups yet
        cache.put(("a",), [])
        cache.get(("a",))
        cache.get(("b",))
        assert cache.hit_rate == 0.5

    def test_export_gauges_publishes_view_state(self, pipeline):
        from repro.obs import get_registry

        pipeline.search("gene expression", limit=5)
        pipeline.search("gene expression", limit=5)
        view = pipeline.serving_view
        view.export_gauges()
        gauges = get_registry().snapshot()["gauges"]
        assert gauges["serving.view.revision"] == view.revision
        assert gauges["serving.view.engines"] == view.engine_count()
        assert gauges["search.cache.size"] == len(view.result_cache)
        # The shared pipeline's cache has seen other tests' lookups;
        # assert the gauge mirrors the instance, not a fixed ratio.
        assert gauges["search.cache.hit_rate"] == view.result_cache.hit_rate
        assert view.result_cache.hit_rate > 0.0
        assert gauges["serving.view.age_seconds"] >= 0.0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            SearchResultCache(capacity=-1)

    def test_zero_capacity_disables_cache(self):
        cache = SearchResultCache(capacity=0)
        assert not cache.enabled
        cache.put(("a",), [])
        assert len(cache) == 0
        assert cache.get(("a",)) is None
        # Disabled caches are silent: no hit/miss/evict counters move.
        assert _counters().get("search.cache.miss", 0) == 0

    def test_pipeline_with_cache_disabled_serves_fresh_results(self):
        pipeline = build_demo_pipeline(
            seed=7, n_papers=80, n_terms=25, result_cache_size=0
        )
        first = pipeline.search(QUERY, limit=5)
        second = pipeline.search(QUERY, limit=5)
        assert second == first
        assert len(pipeline.serving_view.result_cache) == 0
        counters = _counters()
        assert counters.get("search.cache.hit", 0) == 0
        assert counters.get("search.cache.miss", 0) == 0

    @pytest.mark.parametrize(
        "function,paper_set",
        [("text", "text"), ("citation", "text"), ("pattern", "pattern")],
    )
    def test_cached_results_identical_across_functions(
        self, pipeline, function, paper_set
    ):
        pipeline.refresh()
        uncached = pipeline.search(
            QUERY, function=function, paper_set_name=paper_set, use_cache=False
        )
        warm = pipeline.search(
            QUERY, function=function, paper_set_name=paper_set
        )
        served = pipeline.search(
            QUERY, function=function, paper_set_name=paper_set
        )
        assert warm == uncached
        assert served == uncached


class TestEngineMemoisation:
    def test_same_key_returns_same_engine(self, pipeline):
        a = pipeline.search_engine("text", "text")
        assert pipeline.search_engine("text", "text") is a

    def test_distinct_keys_get_distinct_engines(self, pipeline):
        probe = pipeline.search_engine("text", "text", "probe")
        name = pipeline.search_engine("text", "text", "name")
        assert probe is not name

    def test_invalidation_discards_engines(self, pipeline):
        before = pipeline.search_engine("text", "text")
        pipeline.refresh()
        assert pipeline.search_engine("text", "text") is not before

    def test_unknown_strategy_rejected(self, pipeline):
        with pytest.raises(ValueError):
            pipeline.search_engine("text", "text", "oracle")

    def test_representative_strategy_is_wired(self, pipeline):
        engine = pipeline.search_engine("text", "text", "representative")
        assert engine.vectors is pipeline.vectors
        assert engine.representatives
        # And it actually serves queries end to end.
        pipeline.search(QUERY, limit=5, selection_strategy="representative")


class TestInvalidation:
    def test_partial_open_clears_serving_caches(self, pipeline, tmp_path):
        pipeline.build_workspace(tmp_path, only=["scores_text_text"])
        pipeline.refresh()
        engine = pipeline.search_engine("text", "text")
        pipeline.search(QUERY, limit=5)
        assert len(pipeline.serving_view.result_cache) == 1
        loaded = open_workspace(pipeline, tmp_path, strict=False)
        assert loaded == len(topological_order(["scores_text_text"]))
        assert len(pipeline.serving_view.result_cache) == 0
        assert pipeline.search_engine("text", "text") is not engine

    def test_load_of_nothing_keeps_caches(self, pipeline, tmp_path):
        pipeline.refresh()
        engine = pipeline.search_engine("text", "text")
        pipeline.search(QUERY, limit=5)
        assert open_workspace(pipeline, tmp_path / "empty", strict=False) == 0
        assert len(pipeline.serving_view.result_cache) == 1
        assert pipeline.search_engine("text", "text") is engine

    def test_open_workspace_clears_serving_caches(self, tmp_path):
        pipeline = build_demo_pipeline(seed=11, n_papers=80, n_terms=25)
        pipeline.build_workspace(tmp_path / "ws")
        engine = pipeline.search_engine("text", "text")
        pipeline.search(QUERY, limit=5)
        loaded = open_workspace(pipeline, tmp_path / "ws")
        assert loaded > 0
        assert len(pipeline.serving_view.result_cache) == 0
        assert pipeline.search_engine("text", "text") is not engine


class TestSearchMany:
    QUERIES = [
        "gene expression regulation",
        "protein binding",
        "cell membrane transport",
        "gene expression regulation",  # duplicate on purpose
        "signal transduction pathway",
    ]

    def test_results_match_sequential_search_in_input_order(self, pipeline):
        engine = pipeline.search_engine("text", "text")
        sequential = [engine.search(q, limit=10) for q in self.QUERIES]
        batched = engine.search_many(self.QUERIES, limit=10)
        assert batched == sequential

    def test_metrics_increment_exactly_once_per_query(self, pipeline):
        # The batch must produce exactly the counter increments the
        # single-query loop would (no duplicates, no losses).
        engine = pipeline.search_engine("text", "text")
        engine.search(self.QUERIES[0], limit=10)  # warm lazy state
        watched = (
            "search.context.queries",
            "search.context.papers_scored",
            "index.keyword.queries",
            "index.keyword.postings_scanned",
        )
        before = _counters()
        for query in self.QUERIES:
            engine.search(query, limit=10)
        mid = _counters()
        engine.search_many(self.QUERIES, limit=10)
        after = _counters()
        for name in watched:
            sequential = mid.get(name, 0) - before.get(name, 0)
            batched = after.get(name, 0) - mid.get(name, 0)
            assert batched == sequential, name
        assert (
            after["search.batch.queries"]
            - before.get("search.batch.queries", 0)
            == len(self.QUERIES)
        )

    def test_batch_is_deterministic_across_runs(self, pipeline):
        engine = pipeline.search_engine("text", "text")
        first = engine.search_many(self.QUERIES, limit=10)
        second = engine.search_many(self.QUERIES, limit=10)
        assert first == second

    def test_empty_batch(self, pipeline):
        engine = pipeline.search_engine("text", "text")
        assert engine.search_many([]) == []

    def test_pipeline_batch_uses_result_cache(self, pipeline):
        pipeline.refresh()
        first = pipeline.search_many(self.QUERIES, limit=10)
        hits_before = _counters().get("search.cache.hit", 0)
        second = pipeline.search_many(self.QUERIES, limit=10)
        assert second == first
        # Every position (duplicates included) is answered from the cache.
        assert (
            _counters()["search.cache.hit"] - hits_before == len(self.QUERIES)
        )
