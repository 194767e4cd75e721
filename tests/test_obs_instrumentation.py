"""End-to-end instrumentation: a real search emits the documented spans.

Drives one context-based search through :class:`Pipeline` under an
active tracer and asserts the span chain (selection -> scoring -> merge)
and the counter invariant (hits = scored - dropped - deduped).  Also
covers the PageRank convergence metrics and the CLI round trip
(``search --trace-out/--metrics-out`` then ``obs report``).
"""

import json

import pytest

from repro.cli import main
from repro.obs import get_registry, reset_registry, start_tracing, stop_tracing
from repro.pipeline import build_demo_pipeline


@pytest.fixture(autouse=True)
def fresh_obs_state():
    stop_tracing()
    reset_registry()
    yield
    stop_tracing()
    reset_registry()


def _find_spans(node, name, found):
    if node.name == name:
        found.append(node)
    for child in node.children:
        _find_spans(child, name, found)


def _spans_named(tracer, name):
    found = []
    for root in tracer.roots:
        _find_spans(root, name, found)
    return found


class TestPipelineSearchSpans:
    @pytest.fixture(scope="class")
    def pipeline(self):
        return build_demo_pipeline(seed=3, n_papers=200, n_terms=40)

    def test_search_emits_selection_scoring_merge_chain(self, pipeline):
        tracer = start_tracing()
        hits = pipeline.search("gene expression regulation", limit=10)
        stop_tracing()

        (run,) = _spans_named(tracer, "search.run")
        child_names = [child.name for child in run.children]
        assert child_names == ["search.select", "search.score", "search.merge"]

        select, score, merge = run.children
        assert select.attrs["probed"] >= select.attrs["selected"] > 0
        assert score.attrs["contexts"] == select.attrs["selected"]
        assert merge.attrs["hits"] == len(hits)
        for node in (run, select, score, merge):
            assert node.duration > 0.0

        # Per-score-function scoring ran under the pipeline (first search
        # on a fresh pipeline computes prestige lazily).
        assert _spans_named(tracer, "scores.text.score_all")

    def test_contexts_probed_counts_contexts_of_probe_hits(self, pipeline):
        engine = pipeline.search_engine("text", "text")
        index = pipeline.keyword_engine.index
        # The rarest term makes a narrow probe: a handful of hits.
        query = min(index.vocabulary(), key=lambda t: len(index.postings(t)))
        probe = pipeline.keyword_engine.evaluate(query).top_scores(
            engine.probe_depth
        )
        reached = {
            context_id
            for paper_id, _ in probe
            for context_id in engine.paper_set.contexts_of_paper(paper_id)
        }
        assert 0 < len(reached) < len(engine.paper_set)

        registry = reset_registry()
        tracer = start_tracing()
        engine.select_contexts(query)
        stop_tracing()
        (select,) = _spans_named(tracer, "search.select")
        assert select.attrs["probed"] == len(reached)
        counters = registry.snapshot()["counters"]
        assert counters["search.context.contexts_probed"] == len(reached)

    def test_counters_match_returned_hits(self, pipeline):
        registry = reset_registry()
        hits = pipeline.search("gene expression regulation", limit=None)
        counters = registry.snapshot()["counters"]
        assert counters["search.context.queries"] == 1
        scored = counters["search.context.papers_scored"]
        dropped = counters["search.context.papers_dropped"]
        deduped = counters["search.context.merge_deduped"]
        assert scored > 0
        assert len(hits) == scored - dropped - deduped

    def test_repeated_explicit_context_is_scored_once(self, pipeline):
        engine = pipeline.search_engine("text", "text")
        query = "gene expression regulation"
        (selection,) = engine.select_contexts(query, max_contexts=1)
        watched = (
            "search.context.queries",
            "search.context.papers_scored",
            "search.context.papers_dropped",
            "search.context.merge_deduped",
        )

        def run(contexts):
            registry = reset_registry()
            hits = engine.search(query, contexts=contexts)
            counters = registry.snapshot()["counters"]
            return hits, {name: counters.get(name, 0) for name in watched}

        once = run([selection.context_id])
        twice = run([selection.context_id, selection.context_id])
        assert once[1]["search.context.papers_scored"] > 0
        assert twice == once

    def test_repeated_explicit_context_shares_a_cache_entry(self, pipeline):
        engine = pipeline.search_engine("text", "text")
        query = "gene expression"
        (selection,) = engine.select_contexts(query, max_contexts=1)
        cache = pipeline.serving_view.result_cache
        first = pipeline.search(query, contexts=[selection.context_id])
        entries = len(cache)
        again = pipeline.search(
            query, contexts=[selection.context_id, selection.context_id]
        )
        assert again == first
        assert len(cache) == entries

    def test_score_function_timing_recorded(self, pipeline):
        registry = reset_registry()
        # Force prestige recomputation: drop the scores AND the serving
        # caches (memoised engines hold a reference to the old scores).
        pipeline.substrates.scores.clear()
        pipeline.refresh()
        pipeline.search("gene expression", limit=5)
        snapshot = registry.snapshot()
        assert snapshot["histograms"]["scores.text.seconds"]["count"] >= 1
        assert snapshot["counters"]["scores.text.papers_scored"] > 0


class TestPageRankMetrics:
    def test_convergence_metrics_exposed(self):
        from repro.citations.graph import CitationGraph
        from repro.citations.pagerank import pagerank

        registry = reset_registry()
        graph = CitationGraph()
        for src, dst in (("a", "b"), ("b", "c"), ("c", "a"), ("a", "c")):
            graph.add_edge(src, dst)
        pagerank(graph)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["citations.pagerank.runs"] == 1
        assert snapshot["histograms"]["citations.pagerank.graph_size"]["max"] == 3
        assert snapshot["histograms"]["citations.pagerank.iterations"]["count"] == 1
        assert snapshot["gauges"]["citations.pagerank.residual"] >= 0.0

    def test_iteration_cap_warns_and_counts(self, capsys):
        from repro.citations.graph import CitationGraph
        from repro.citations.pagerank import pagerank
        from repro.obs import configure_logging

        registry = reset_registry()
        # Asymmetric graph: the uniform start is far from stationary, so a
        # 1-iteration cap cannot converge under an absurdly tight tolerance.
        graph = CitationGraph()
        for src, dst in (("a", "b"), ("a", "c"), ("b", "c")):
            graph.add_edge(src, dst)
        configure_logging(json_format=False)
        pagerank(graph, max_iterations=1, tolerance=1e-30)
        assert registry.snapshot()["counters"][
            "citations.pagerank.unconverged"
        ] == 1
        captured = capsys.readouterr()
        assert "without converging" in captured.err


class TestCliRoundTrip:
    @pytest.fixture(scope="class")
    def data_dir(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("obs-cli-data")
        main([
            "generate", "--papers", "150", "--terms", "40", "--seed", "5",
            "--out", str(directory),
        ])
        return directory

    def test_search_writes_dumps_and_report_renders(
        self, data_dir, tmp_path, capsys
    ):
        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.json"
        code = main([
            "search", "--data", str(data_dir), "--query", "repair process",
            "--limit", "5",
            "--trace-out", str(trace_path),
            "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        capsys.readouterr()  # discard search output

        payload = json.loads(metrics_path.read_text(encoding="utf-8"))
        assert "search.context.queries" in payload["metrics"]["counters"]

        code = main([
            "obs", "report",
            "--trace", str(trace_path), "--metrics", str(metrics_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        for expected in (
            "pipeline.search", "search.select", "search.score", "search.merge",
            "scores.", "== metrics:", "search.context.queries",
        ):
            assert expected in out

    def test_report_missing_file_errors(self, tmp_path, capsys):
        code = main(["obs", "report", "--trace", str(tmp_path / "nope.jsonl")])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_report_requires_an_input(self, capsys):
        code = main(["obs", "report"])
        assert code == 1
        assert "pass --trace" in capsys.readouterr().err
