"""The serve layer: immutable-per-refresh :class:`ServingView` snapshots.

A view binds one substrate-store revision to the two serving caches --
memoised :class:`~repro.core.search.ContextSearchEngine` instances and a
bounded LRU :class:`SearchResultCache`.  The pipeline swaps the current
view atomically (one reference assignment) on
:meth:`~repro.pipeline.Pipeline.refresh`, so a request that grabbed a
view keeps serving from a self-consistent engine/cache pair even while a
replacement view is being installed: readers never observe a
half-invalidated cache.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.search import ContextSearchEngine, SearchHit, SELECTION_STRATEGIES
from repro.obs import get_registry
from repro.serving.substrate import SubstrateStore


class SearchResultCache:
    """Bounded, thread-safe LRU cache of merged search results.

    Serving-layer component: the pipeline keys it on the full query
    identity (query string, prestige function, paper set, selection
    strategy, limit, threshold), so two requests that could rank
    differently never share an entry.  Hits/misses/evictions are counted
    as ``search.cache.{hit,miss,evict}``.  The cache holds derived data
    only; each :class:`ServingView` owns a fresh one, so invalidation is
    simply view replacement.

    ``capacity=0`` disables caching entirely (every ``get`` misses
    silently, ``put`` is a no-op) -- the switch behind
    ``repro search --no-result-cache``.  Negative capacities are
    rejected.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple, List[SearchHit]]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._lookups = 0

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> Optional[float]:
        """Lifetime hit fraction of *this* cache (None before any lookup).

        Per-instance, unlike the process-wide ``search.cache.{hit,miss}``
        counters which survive view swaps -- this is the number the view
        exports as the ``search.cache.hit_rate`` gauge.
        """
        with self._lock:
            if not self._lookups:
                return None
            return self._hits / self._lookups

    def get(self, key: Tuple) -> Optional[List[SearchHit]]:
        if not self.enabled:
            return None
        registry = get_registry()
        with self._lock:
            self._lookups += 1
            entry = self._entries.get(key)
            if entry is None:
                registry.counter("search.cache.miss").inc()
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            registry.counter("search.cache.hit").inc()
            return list(entry)

    def put(self, key: Tuple, hits: Sequence[SearchHit]) -> None:
        if not self.enabled:
            return
        registry = get_registry()
        with self._lock:
            self._entries[key] = list(hits)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                registry.counter("search.cache.evict").inc()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class ServingView:
    """One revision's worth of serving state: engines + result cache.

    Engines are memoised per (function, paper set, selection strategy):
    constructing one costs nothing, but a *warm* engine carries
    per-context caches worth keeping across queries -- the paper's
    pre-process-once/serve-many discipline.  A view never mutates its
    substrate bindings after creation; when the store's revision moves
    on, the pipeline builds a fresh view rather than patching this one.
    """

    def __init__(
        self,
        store: SubstrateStore,
        revision: int,
        w_prestige: float = 0.7,
        w_matching: float = 0.3,
        result_cache_size: int = 256,
    ) -> None:
        self._store = store
        self.revision = revision
        self.w_prestige = w_prestige
        self.w_matching = w_matching
        self.created_at = time.monotonic()
        self.result_cache = SearchResultCache(capacity=result_cache_size)
        self._engines: Dict[Tuple[str, str, str], ContextSearchEngine] = {}
        self._engines_lock = threading.Lock()

    def engine(
        self,
        function: str = "text",
        paper_set_name: str = "text",
        selection_strategy: str = "probe",
    ) -> ContextSearchEngine:
        """The memoised search engine for one (function, set, strategy).

        The ``representative`` strategy is wired to the store's vector
        store and representatives map automatically.
        """
        if selection_strategy not in SELECTION_STRATEGIES:
            raise ValueError(
                f"selection_strategy must be one of {SELECTION_STRATEGIES}, "
                f"got {selection_strategy!r}"
            )
        key = (function, paper_set_name, selection_strategy)
        with self._engines_lock:
            engine = self._engines.get(key)
            if engine is not None:
                return engine
        # Build outside the lock: prestige/paper-set computation can be
        # expensive and must not serialise unrelated engine lookups.
        store = self._store
        engine = ContextSearchEngine(
            store.ontology,
            store.paper_set(paper_set_name),
            store.prestige(function, paper_set_name),
            store.keyword_engine,
            w_prestige=self.w_prestige,
            w_matching=self.w_matching,
            selection_strategy=selection_strategy,
            vectors=(
                store.vectors if selection_strategy == "representative" else None
            ),
            representatives=(
                store.representatives
                if selection_strategy == "representative"
                else None
            ),
        )
        with self._engines_lock:
            return self._engines.setdefault(key, engine)

    def engine_count(self) -> int:
        with self._engines_lock:
            return len(self._engines)

    @property
    def age_seconds(self) -> float:
        """Seconds since this view was built (staleness indicator)."""
        return time.monotonic() - self.created_at

    def export_gauges(self) -> None:
        """Publish this view's point-in-time state as gauges.

        Run by the exposition endpoint's collector hook before every
        scrape (``serving.view.{revision,age_seconds,engines}``,
        ``search.cache.{hit_rate,size}``) -- gauges are last-write-wins,
        so only the current view should export.
        """
        registry = get_registry()
        registry.gauge("serving.view.revision").set(self.revision)
        registry.gauge("serving.view.age_seconds").set(self.age_seconds)
        registry.gauge("serving.view.engines").set(self.engine_count())
        registry.gauge("search.cache.size").set(len(self.result_cache))
        hit_rate = self.result_cache.hit_rate
        if hit_rate is not None:
            registry.gauge("search.cache.hit_rate").set(hit_rate)
        # The packed index exposes cache/mmap stats; only the raw slot
        # is inspected so a scrape never triggers a substrate build.
        backend_stats = getattr(self._store._index, "backend_stats", None)
        if callable(backend_stats):
            for stat, value in backend_stats().items():
                registry.gauge(f"index.backend.{stat}").set(value)
