"""Query-serving benchmark: the single-scan fast path vs the legacy path.

The serving rework routes one :class:`QueryEvaluation` (one postings
scan) through context selection, relevancy scoring, and merging, on a
warmed, memoised engine.  The path it replaced scanned the inverted
index twice per query (probe selection + match scoring), walked every
context's full member list during the probe, and re-analysed context
term names on every request.  This bench reconstructs that legacy
algorithm from public APIs, times both over the shared bench workload,
and asserts the >= 3x floor the rework is meant to deliver (in practice
it is larger; the bar is conservative so CI noise cannot flake it).

``search_many`` is a plain loop over ``search``, so it has no separate
timing here; ``benchmarks/e2e``'s ``batch_eval`` workload measures it.

Emits ``benchmarks/results/BENCH_query_serving_speedup.json`` (read by
``tools/check_bench_regression.py``) in addition to the per-test
``BENCH_test_perf_query_serving.json`` the conftest hook drops.
"""

import json
import time
import tracemalloc

from conftest import write_result

MIN_SPEEDUP = 3.0
LIMIT = 10
MAX_CONTEXTS = 5


def _legacy_search(engine, query, limit=LIMIT, max_contexts=MAX_CONTEXTS):
    """The pre-rework serving algorithm, reconstructed from public APIs.

    Two full keyword scans per query; the probe walks every context's
    member list and re-analyses every context name; rankings use full
    sorts.  Kept semantically identical to the old code so the timing
    comparison is honest.
    """
    keyword = engine.keyword_engine
    analyzer = keyword.index.analyzer
    paper_set = engine.paper_set

    # Scan 1: keyword probe for context selection.
    probe = keyword.search(query, limit=engine.probe_depth)
    probe_scores = {hit.paper_id: hit.score for hit in probe}
    query_terms = set(analyzer.analyze(query))
    strengths = {}
    for context in paper_set:
        strength = 0.0
        for paper_id in context.paper_ids:
            hit = probe_scores.get(paper_id)
            if hit is not None:
                strength += hit
        if strength == 0.0:
            continue
        strength /= max(len(context.paper_ids) ** 0.5, 1.0)
        if query_terms:
            name_terms = set(
                analyzer.analyze(engine.ontology.term(context.term_id).name)
            )
            strength += engine.name_bonus * len(query_terms & name_terms)
        strengths[context.term_id] = strength
    ranked = sorted(strengths.items(), key=lambda item: (-item[1], item[0]))
    selected = [cid for cid, _ in ranked[:max_contexts]]
    if not selected:
        return []

    # Scan 2: full keyword pass for the match scores.
    match_scores = {
        hit.paper_id: hit.score for hit in keyword.search(query)
    }
    best = {}
    for context_id in selected:
        context = paper_set.context(context_id)
        context_prestige = engine.prestige.of(context_id)
        for paper_id in context.paper_ids:
            matching = match_scores.get(paper_id, 0.0)
            if matching == 0.0:
                continue
            prestige = context_prestige.get(paper_id, 0.0)
            relevancy = (
                engine.w_prestige * prestige + engine.w_matching * matching
            )
            current = best.get(paper_id)
            if current is not None and relevancy <= current[0]:
                continue
            best[paper_id] = (relevancy, paper_id)
    hits = sorted(best.values(), key=lambda h: (-h[0], h[1]))
    return hits[:limit]


def test_perf_query_serving(pipeline, queries, results_dir):
    engine = pipeline.search_engine("text", "text").warm()
    # Warm everything both paths share (prestige, BM25 lengths, reverse
    # map) so the timed loops measure serving work, not lazy builds.
    _legacy_search(engine, queries[0])
    engine.search(queries[0], limit=LIMIT)

    started = time.perf_counter()
    for query in queries:
        _legacy_search(engine, query)
    legacy_seconds = time.perf_counter() - started

    started = time.perf_counter()
    for query in queries:
        engine.search(query, limit=LIMIT)
    fast_seconds = time.perf_counter() - started

    # Ordering parity spot check: the fast path must return the same
    # ranked ids the legacy algorithm produced (speed is worthless if
    # the rework changed what a query returns).
    for query in queries[:10]:
        legacy_ids = [paper_id for _, paper_id in _legacy_search(engine, query)]
        fast_ids = [h.paper_id for h in engine.search(query, limit=LIMIT)]
        assert fast_ids == legacy_ids

    speedup = legacy_seconds / max(fast_seconds, 1e-9)
    table = "\n".join([
        f"queries                   {len(queries)}",
        f"legacy two-scan path      {legacy_seconds * 1000.0:10.1f} ms",
        f"single-scan fast path     {fast_seconds * 1000.0:10.1f} ms",
        f"speedup                   {speedup:10.1f}x  (floor {MIN_SPEEDUP:.0f}x)",
    ])
    write_result(results_dir, "perf_query_serving", table)

    payload = {
        "queries": len(queries),
        "legacy_seconds": round(legacy_seconds, 6),
        "fast_seconds": round(fast_seconds, 6),
        "single_query_speedup": round(speedup, 3),
        "floor": MIN_SPEEDUP,
    }
    (results_dir / "BENCH_query_serving_speedup.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    assert speedup >= MIN_SPEEDUP

    # Warm postings() must return the cached immutable tuple, not a fresh
    # list copy per call -- the allocation the tuple-view rework removed
    # from every per-query term scan.  (After the timed loops so the
    # tracemalloc hook cannot distort them.)
    index = engine.keyword_engine.index
    term = index.vocabulary()[0]
    assert index.postings(term) is index.postings(term)
    tracemalloc.start()
    for _ in range(50):
        index.postings(term)
    _, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak_bytes < 16 * 1024, (
        f"50 warm postings() calls allocated {peak_bytes} B peak; "
        "the cached-tuple view should make them allocation-free"
    )
