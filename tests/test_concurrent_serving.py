"""Concurrency tests for the build/serve layer split.

Two properties the ServingView swap must guarantee:

1. Threads running ``search_many`` while ``refresh()`` repeatedly swaps
   the serving view never observe a torn cache -- every ranking is
   byte-identical to the single-threaded baseline.
2. Concurrent *cold* prestige lookups single-flight: the expensive
   computation runs exactly once (observed via the
   ``pipeline.prestige.computed`` counter), and every caller gets the
   same object.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs import get_registry, reset_registry
from repro.pipeline import build_demo_pipeline

QUERIES = (
    "gene expression regulation",
    "protein binding activity",
    "cell membrane transport",
    "dna repair mechanism",
)


@pytest.fixture(autouse=True)
def fresh_registry():
    reset_registry()
    yield
    reset_registry()


def _rows(hits):
    return tuple(
        (h.paper_id, h.context_id, h.relevancy, h.prestige, h.matching)
        for h in hits
    )


class TestSearchUnderRefresh:
    def test_rankings_identical_while_views_swap(self):
        pipeline = build_demo_pipeline(seed=7, n_papers=120, n_terms=30)
        # Single-threaded baseline, computed before any contention.
        baseline = {
            query: _rows(pipeline.search(query, limit=10)) for query in QUERIES
        }

        stop = threading.Event()
        swaps = 0

        def swapper():
            nonlocal swaps
            while not stop.is_set():
                pipeline.refresh()
                swaps += 1

        def searcher(_worker: int):
            mismatches = []
            for _ in range(15):
                results = pipeline.search_many(list(QUERIES), limit=10)
                for query, hits in zip(QUERIES, results):
                    if _rows(hits) != baseline[query]:
                        mismatches.append(query)
            return mismatches

        swap_thread = threading.Thread(target=swapper, daemon=True)
        swap_thread.start()
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                all_mismatches = list(pool.map(searcher, range(4)))
        finally:
            stop.set()
            swap_thread.join(timeout=10)
        assert all(not m for m in all_mismatches), all_mismatches
        # The swapper actually raced the searchers.
        assert swaps > 0

    def test_rankings_identical_while_index_backends_swap(self, tmp_path):
        """Searches racing install_index() swaps between the freshly built
        index and the packed (mmap) index reopened from the workspace
        must stay byte-identical."""
        from repro.index import open_index
        from repro.workspace import ARTIFACTS

        pipeline = build_demo_pipeline(seed=7, n_papers=120, n_terms=30)
        fresh_index = pipeline.index
        pipeline.build_workspace(tmp_path, only=["index"])
        reopened_index = open_index(tmp_path / ARTIFACTS["index"].filename)
        baseline = {
            query: _rows(pipeline.search(query, limit=10)) for query in QUERIES
        }

        stop = threading.Event()
        swaps = 0

        def swapper():
            nonlocal swaps
            while not stop.is_set():
                pipeline.substrates.install_index(reopened_index)
                pipeline.substrates.install_index(fresh_index)
                swaps += 2

        def searcher(_worker: int):
            mismatches = []
            for _ in range(15):
                results = pipeline.search_many(list(QUERIES), limit=10)
                for query, hits in zip(QUERIES, results):
                    if _rows(hits) != baseline[query]:
                        mismatches.append(query)
            return mismatches

        swap_thread = threading.Thread(target=swapper, daemon=True)
        swap_thread.start()
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                all_mismatches = list(pool.map(searcher, range(4)))
        finally:
            stop.set()
            swap_thread.join(timeout=10)
        try:
            assert all(not m for m in all_mismatches), all_mismatches
            assert swaps > 0
        finally:
            pipeline.substrates.install_index(fresh_index)
            reopened_index.close()

    def test_refresh_returns_fresh_view_atomically(self):
        pipeline = build_demo_pipeline(seed=3, n_papers=60, n_terms=20)
        first = pipeline.serving_view
        second = pipeline.refresh()
        assert second is not first
        assert pipeline.serving_view is second
        # The swap is a single reference assignment: whatever view a
        # request grabbed stays internally consistent.
        assert first.result_cache is not second.result_cache

    def test_refresh_counter_increments(self):
        pipeline = build_demo_pipeline(seed=3, n_papers=60, n_terms=20)
        before = get_registry().counter("serving.view.refresh").value
        pipeline.refresh()
        pipeline.refresh()
        after = get_registry().counter("serving.view.refresh").value
        assert after == before + 2


class TestPrestigeSingleFlight:
    def test_concurrent_cold_lookup_computes_once(self):
        pipeline = build_demo_pipeline(seed=5, n_papers=120, n_terms=30)
        # Warm every substrate the scorer needs so the barrier race is
        # about the prestige computation itself.
        pipeline.substrates.representatives
        barrier = threading.Barrier(8)

        def cold_lookup(_worker: int):
            barrier.wait()
            return pipeline.prestige("text", "text")

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(cold_lookup, range(8)))

        computed = get_registry().counter("pipeline.prestige.computed").value
        assert computed == 1
        assert all(scores is results[0] for scores in results)

    def test_distinct_keys_do_not_serialise_each_other(self):
        pipeline = build_demo_pipeline(seed=5, n_papers=80, n_terms=25)
        keys = [("citation", "text"), ("citation", "pattern"), ("hits", "text")]
        with ThreadPoolExecutor(max_workers=3) as pool:
            results = list(
                pool.map(lambda k: pipeline.prestige(*k), keys)
            )
        computed = get_registry().counter("pipeline.prestige.computed").value
        assert computed == len(keys)
        names = [scores.function_name for scores in results]
        assert names == ["citation", "citation", "hits"]

    def test_warm_lookup_skips_the_lock_path(self):
        pipeline = build_demo_pipeline(seed=5, n_papers=60, n_terms=20)
        first = pipeline.prestige("citation", "text")
        computed = get_registry().counter("pipeline.prestige.computed").value
        second = pipeline.prestige("citation", "text")
        assert second is first
        assert (
            get_registry().counter("pipeline.prestige.computed").value
            == computed
        )


class TestEngineWarmRace:
    def test_cold_engine_builds_its_arrays_once(self, monkeypatch):
        from repro.core import context as context_module

        reference = build_demo_pipeline(seed=5, n_papers=120, n_terms=30)
        baseline = {
            query: _rows(reference.search(query, limit=10, use_cache=False))
            for query in QUERIES
        }
        built = []

        class CountingColumns(context_module.ContextColumns):
            def __init__(self, contexts):
                built.append(len(contexts))
                super().__init__(contexts)

        monkeypatch.setattr(context_module, "ContextColumns", CountingColumns)
        pipeline = build_demo_pipeline(seed=5, n_papers=120, n_terms=30)
        engine = pipeline.search_engine("text", "text")
        barrier = threading.Barrier(8)

        def cold_search(worker: int):
            query = QUERIES[worker % len(QUERIES)]
            barrier.wait()
            return query, _rows(engine.search(query, limit=10))

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(cold_search, range(8)))

        assert all(rows == baseline[query] for query, rows in results)
        assert len(built) == 1
