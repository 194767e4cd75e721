"""Command-line interface.

Subcommands mirror a deployment's life cycle:

- ``repro generate``  -- synthesise a corpus + ontology + training map to
  a data directory (the stand-in for parsing PubMed);
- ``repro build``     -- incrementally build the artifact workspace
  (index, vectors, tokens, citation graph, paper sets, representatives,
  prestige scores -- the paper's query-independent pre-processing);
- ``repro workspace status`` -- per-artifact freshness of a workspace;
- ``repro search``    -- run a context-based search against a data dir
  (hydrates from ``<data>/workspace`` when one is built);
- ``repro serve``     -- run the HTTP search service (``/search``,
  ``/search_grouped``, ``/explain``, ``POST /admin/reload`` with
  admission control, plus the observability routes below);
- ``repro evaluate``  -- run the accuracy/separability evaluation and
  print a summary;
- ``repro obs report`` -- render saved trace/metrics dumps as ASCII;
- ``repro obs slowlog`` -- render the slow-query log of a telemetry dump
  (span trees, cache attribution);
- ``repro obs slo``   -- render the SLO/error-budget report of a dump;
- ``repro obs serve`` -- run the HTTP exposition endpoint (``/metrics``
  in Prometheus text format, ``/health``, ``/slo``, ``/slowlog``).

Every subcommand additionally accepts the observability flags
``--trace-out PATH`` (write the run's span tree as JSON lines),
``--metrics-out PATH`` (write the metrics-registry snapshot as JSON),
``--telemetry-out PATH`` (enable request-scoped query telemetry and
write its slow-query log + SLO report as JSON; tune with
``--sample-rate``/``--slow-ms``/``--slo``), and ``--log-json``
(structured JSON-lines logging; equivalent to
``REPRO_LOG_FORMAT=json``).  See ``docs/observability.md``.

Example::

    repro generate --papers 1200 --terms 250 --out data/
    repro build --data data/
    repro workspace status --data data/
    repro search --data data/ --query "dna repair kinase" --limit 10
    repro search --data data/ --query "dna repair" --trace-out trace.jsonl \
        --metrics-out metrics.json
    repro obs report --trace trace.jsonl --metrics metrics.json
    repro evaluate --data data/ --queries 40
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro import scoring
from repro.core.search import SELECTION_STRATEGIES
from repro.corpus import write_corpus_jsonl
from repro.datagen import CorpusGenerator, OntologyGenerator
from repro.eval.experiments import PrecisionExperiment, SeparabilityExperiment
from repro.obs import (
    configure_logging,
    configure_telemetry,
    format_slo_report,
    get_registry,
    parse_slo,
    render_slowlog,
    reset_telemetry,
    start_tracing,
    stop_tracing,
)
from repro.obs.report import render_report
from repro.ontology import write_obo
from repro.pipeline import Pipeline

CORPUS_FILE = "corpus.jsonl"
ONTOLOGY_FILE = "ontology.obo"
TRAINING_FILE = "training.json"


def _cmd_generate(args: argparse.Namespace) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.preset:
        from repro.datagen.presets import get_preset

        generator = get_preset(args.preset).generator()
    else:
        generator = CorpusGenerator(
            n_papers=args.papers,
            ontology_generator=OntologyGenerator(
                n_terms=args.terms, max_depth=args.max_depth
            ),
        )
    dataset = generator.generate(seed=args.seed)
    write_corpus_jsonl(dataset.corpus, out / CORPUS_FILE)
    write_obo(dataset.ontology, out / ONTOLOGY_FILE)
    with open(out / TRAINING_FILE, "w", encoding="utf-8") as handle:
        json.dump(dataset.training_papers, handle)
    print(
        f"wrote {len(dataset.corpus)} papers, {len(dataset.ontology)} terms, "
        f"training map -> {out}/"
    )
    return 0


def _workspace_dir(data_dir: str) -> Path:
    return Path(data_dir) / "workspace"


def _load_pipeline(
    data_dir: str, use_workspace: bool = True, **pipeline_kwargs
) -> Pipeline:
    """Open a data directory; hydrate from its workspace when one exists.

    Hydration is non-strict: whatever is fresh loads from disk, anything
    stale falls back to the lazy in-memory build (``repro build`` makes
    the next start cold-start-free again).
    """
    try:
        pipeline = Pipeline.from_directory(data_dir, **pipeline_kwargs)
    except (FileNotFoundError, ValueError) as error:
        raise SystemExit(f"error: {error}") from error
    workspace = _workspace_dir(data_dir)
    if use_workspace and (workspace / "manifest.json").exists():
        from repro.workspace import open_workspace

        try:
            open_workspace(pipeline, workspace, strict=False)
        except ValueError as error:
            print(
                f"warning: ignoring workspace {workspace}: {error}",
                file=sys.stderr,
            )
    return pipeline


def _read_queries_file(path: str) -> List[str]:
    """One query per line; blank lines and ``#`` comment lines are skipped."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as error:
        raise SystemExit(f"error: cannot read queries file: {error}") from error
    queries = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not queries:
        raise SystemExit(f"error: no queries in {path}")
    return queries


def _print_hits(pipeline, query: str, hits) -> None:
    from repro.index.snippets import best_snippet

    for hit in hits:
        paper = pipeline.corpus.paper(hit.paper_id)
        context = pipeline.ontology.term(hit.context_id)
        print(
            f"{hit.relevancy:.3f}  [{hit.paper_id}] {paper.title[:60]}\n"
            f"        prestige={hit.prestige:.2f} match={hit.matching:.2f} "
            f"context={context.term_id} ({context.name[:40]})"
        )
        snippet = best_snippet(paper, query)
        if snippet is not None:
            print(f"        {snippet.text[:100]}")


def _cmd_search(args: argparse.Namespace) -> int:
    pipeline = _load_pipeline(
        args.data,
        use_workspace=not args.no_workspace,
        result_cache_size=0 if args.no_result_cache else 256,
    )
    if args.queries_file is not None:
        queries = _read_queries_file(args.queries_file)
        batches = pipeline.search_many(
            queries,
            function=args.function,
            paper_set_name=args.paper_set,
            limit=args.limit,
            threshold=args.threshold,
            selection_strategy=args.selection_strategy,
        )
        answered = 0
        for query, hits in zip(queries, batches):
            print(f"== {query}")
            if not hits:
                print("no results")
            else:
                answered += 1
                _print_hits(pipeline, query, hits)
        return 0 if answered else 1
    hits = pipeline.search(
        args.query,
        function=args.function,
        paper_set_name=args.paper_set,
        limit=args.limit,
        threshold=args.threshold,
        selection_strategy=args.selection_strategy,
    )
    if not hits:
        print("no results")
        return 1
    _print_hits(pipeline, args.query, hits)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    pipeline = _load_pipeline(args.data, use_workspace=not args.no_workspace)
    if args.report:
        from repro.eval.report import generate_report

        queries = _derive_queries(pipeline, args.queries)
        if not queries:
            print("error: could not derive queries", file=sys.stderr)
            return 1
        text = generate_report(pipeline, queries)
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"report written to {args.report}")
        return 0
    queries = _derive_queries(pipeline, args.queries)
    if not queries:
        print("error: could not derive queries from the ontology", file=sys.stderr)
        return 1
    experiment = PrecisionExperiment(
        pipeline, queries, thresholds=(0.1, 0.2, 0.3, 0.4, 0.5)
    )
    print(f"evaluating {len(queries)} queries\n")
    # The sweep is registry-driven: every (function, paper set) arm a
    # registered score function declares is evaluated.
    for function, paper_set in scoring.evaluation_arms():
        curve = experiment.run(function, paper_set)
        print(f"[{function} scores on {paper_set}-based paper set]")
        print(curve.format_table())
        print()
    for function, paper_set in scoring.evaluation_arms():
        result = SeparabilityExperiment(
            pipeline.experiment_paper_set(paper_set)
        ).run(pipeline.prestige(function, paper_set))
        print(
            f"separability[{function}/{paper_set}]: mean SD "
            f"{result.mean_sd():.2f} over {len(result.sd_by_context)} contexts"
        )
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    """Calibrate w_prestige / threshold on derived validation queries."""
    from repro.core.tuning import RelevancyTuner

    pipeline = _load_pipeline(args.data, use_workspace=not args.no_workspace)
    queries = _derive_queries(pipeline, args.queries)
    if not queries:
        print("error: could not derive queries", file=sys.stderr)
        return 1
    tuner = RelevancyTuner(
        pipeline, queries, function=args.function, paper_set_name=args.paper_set
    )
    result = tuner.tune()
    print(result.format_table())
    print(
        f"\nbest: w_prestige={result.best.w_prestige:.2f} "
        f"threshold={result.best.threshold:.2f} (F1={result.best.f1:.3f})"
    )
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    """Build a data directory from MEDLINE XML + OBO + GAF files."""
    from repro.ingest.gaf import read_gaf_training_map
    from repro.ingest.medline import read_medline_xml
    from repro.ontology.obo import read_obo

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    corpus = read_medline_xml(args.medline)
    ontology = read_obo(args.obo)
    training = read_gaf_training_map(
        args.gaf,
        restrict_to_paper_ids=corpus.paper_ids(),
        max_papers_per_term=args.max_training_per_term,
    )
    # Drop training entries for terms missing from the ontology so the
    # pipeline never trips over an unknown context.
    training = {tid: pids for tid, pids in training.items() if tid in ontology}
    write_corpus_jsonl(corpus, out / CORPUS_FILE)
    write_obo(ontology, out / ONTOLOGY_FILE)
    with open(out / TRAINING_FILE, "w", encoding="utf-8") as handle:
        json.dump(training, handle)
    n_evidence = sum(len(p) for p in training.values())
    print(
        f"ingested {len(corpus)} papers, {len(ontology)} terms, "
        f"{n_evidence} evidence links over {len(training)} terms -> {out}/"
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    """Lint the corpus of a data directory; exit 1 on error findings."""
    from repro.corpus.io import read_corpus_jsonl
    from repro.corpus.validate import validate_corpus

    corpus_path = Path(args.data) / CORPUS_FILE
    if not corpus_path.exists():
        raise SystemExit(f"error: {corpus_path} not found")
    report = validate_corpus(read_corpus_jsonl(corpus_path))
    print(report.summary())
    if args.verbose:
        for finding in report.findings:
            print(f"  [{finding.severity}] {finding.paper_id}: {finding.message}")
    return 0 if report.ok else 1


def _derive_queries(pipeline: Pipeline, n_queries: int) -> List[str]:
    """Topical workload from the loaded data itself: queries mix words of
    mid-level term names (works for real GO data too)."""
    queries: List[str] = []
    for term_id in pipeline.ontology.term_ids():
        if pipeline.ontology.level(term_id) >= 3:
            words = [
                w for w in pipeline.ontology.term(term_id).name_words()
                if len(w) > 3
            ]
            if len(words) >= 2:
                queries.append(" ".join(words[:3]))
        if len(queries) >= n_queries:
            break
    return queries


def _cmd_build(args: argparse.Namespace) -> int:
    """Incrementally build the artifact workspace."""
    pipeline = _load_pipeline(args.data, use_workspace=False)
    report = pipeline.build_workspace(
        _workspace_dir(args.data), only=args.only or None, force=args.force
    )
    print(report.format_table())
    if report.is_noop():
        print("workspace is up to date (no-op)")
    return 0


def _format_generation_lineage(workspace: Path) -> List[str]:
    """Human-readable generation chain of a workspace, newest first.

    Manifests written before incremental ingestion lack the
    ``generation`` key and read as a single full-build generation 0.
    """
    from repro.workspace.manifest import read_generation_chain

    try:
        chain = read_generation_chain(workspace)
    except ValueError as error:
        return [f"generation lineage: BROKEN ({error})"]
    if not chain:
        return []
    lines = ["generation lineage:"]
    for payload in chain:
        generation = int(payload.get("generation", 0))
        delta = payload.get("delta")
        if delta is not None:
            kind = f"delta  +{len(delta['added'])} -{len(delta['removed'])}"
        else:
            kind = "full"
        parent = payload.get("parent")
        chained = f"  parent {parent[:12]}" if parent else ""
        lines.append(f"  gen {generation:<3} {kind}{chained}")
    return lines


def _cmd_workspace_status(args: argparse.Namespace) -> int:
    """Show per-artifact freshness, size and build time of a workspace."""
    from repro.workspace import workspace_status
    from repro.workspace.manifest import entries_from_payload, read_manifest

    pipeline = _load_pipeline(args.data, use_workspace=False)
    statuses = workspace_status(pipeline, _workspace_dir(args.data))
    payload = read_manifest(_workspace_dir(args.data))
    entries = entries_from_payload(payload) if payload else {}
    stale = 0
    print(f"workspace: {_workspace_dir(args.data)}")
    for line in _format_generation_lineage(_workspace_dir(args.data)):
        print(line)
    for status in statuses:
        note = f"  ({status.reason})" if status.reason else ""
        entry = entries.get(status.name)
        recorded = (
            f"{entry.size_bytes:>12,} B {entry.wall_seconds:>9.3f} s"
            if entry is not None
            else f"{'-':>12}   {'-':>9}  "
        )
        print(f"  {status.name:<24} {status.state:<8}{recorded}{note}")
        if status.state != "fresh":
            stale += 1
    if entries:
        print(
            f"  {'total':<24} {'':<8}"
            f"{sum(e.size_bytes for e in entries.values()):>12,} B "
            f"{sum(e.wall_seconds for e in entries.values()):>9.3f} s"
        )
    if stale:
        print(f"{stale} artifact(s) need `repro build`")
        return 1
    print("all artifacts fresh")
    return 0


def _cmd_ingest_delta(args: argparse.Namespace) -> int:
    """Apply a corpus delta to a built workspace as a new generation."""
    from repro.corpus.corpus import CorpusError
    from repro.corpus.io import read_corpus_jsonl
    from repro.workspace import StaleWorkspaceError, ingest_delta

    if not args.add and not args.remove:
        print("error: pass --add and/or --remove", file=sys.stderr)
        return 1
    added = []
    if args.add:
        try:
            added = list(read_corpus_jsonl(args.add))
        except (OSError, ValueError, CorpusError) as error:
            print(f"error: cannot read {args.add}: {error}", file=sys.stderr)
            return 1
    pipeline = _load_pipeline(args.data, use_workspace=True)
    workspace = _workspace_dir(args.data)
    try:
        report, build_report = ingest_delta(
            pipeline, workspace, added_papers=added, removed_ids=args.remove or []
        )
    except (CorpusError, StaleWorkspaceError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if build_report is None:
        print("delta is a no-op; workspace unchanged")
        return 0
    out_corpus = args.out_corpus or str(Path(args.data) / CORPUS_FILE)
    write_corpus_jsonl(pipeline.corpus, out_corpus)
    from repro.workspace.manifest import read_manifest

    manifest = read_manifest(workspace) or {}
    print(build_report.format_table())
    print(
        f"generation {manifest.get('generation')}: "
        f"+{len(report.added)} papers, -{len(report.removed)} papers, "
        f"{len(report.changed_contexts)} paper set(s) with changed contexts"
    )
    print(
        f"scores patched: {', '.join(report.scores_patched) or 'none'}; "
        f"dropped for lazy recompute: {', '.join(report.scores_dropped) or 'none'}"
    )
    print(f"corpus written to {out_corpus}")
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    """Render previously saved trace/metrics dumps as human-readable text."""
    if not args.trace and not args.metrics:
        print("error: pass --trace and/or --metrics", file=sys.stderr)
        return 1
    for path in (args.trace, args.metrics):
        if path and not Path(path).exists():
            print(f"error: {path} not found", file=sys.stderr)
            return 1
    print(render_report(trace_path=args.trace, metrics_path=args.metrics))
    return 0


def _load_telemetry_dump(path: str) -> dict:
    """Read a ``--telemetry-out`` JSON dump, with friendly errors."""
    dump_path = Path(path)
    if not dump_path.exists():
        raise SystemExit(f"error: {path} not found")
    try:
        with open(dump_path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as error:
        raise SystemExit(f"error: {path}: corrupt JSON ({error})") from error
    if not isinstance(data, dict):
        raise SystemExit(f"error: {path} is not a telemetry dump")
    return data


def _cmd_obs_slowlog(args: argparse.Namespace) -> int:
    """Render the slow-query log of a telemetry dump (slowest first)."""
    data = _load_telemetry_dump(args.file)
    entries = data.get("slowlog", [])
    if args.format == "json":
        if args.limit:
            entries = entries[:args.limit]
        print(json.dumps({"slowlog": entries}, indent=2, sort_keys=True))
        return 0
    print(render_slowlog(entries, limit=args.limit))
    return 0


def _cmd_obs_slo(args: argparse.Namespace) -> int:
    """Render the SLO / error-budget report of a telemetry dump."""
    data = _load_telemetry_dump(args.file)
    statuses = data.get("slo", [])
    if args.format == "json":
        print(json.dumps({"slo": statuses}, indent=2, sort_keys=True))
        return 0
    print(format_slo_report(statuses))
    return 0


def _cmd_obs_analytics(args: argparse.Namespace) -> int:
    """Render a running service's /analytics payload (or a saved copy)."""
    from repro.serving.analytics import render_analytics

    if bool(args.url) == bool(args.file):
        print("error: pass exactly one of --url or --file", file=sys.stderr)
        return 1
    if args.url:
        import urllib.error
        import urllib.request

        url = args.url.rstrip("/") + "/analytics"
        try:
            with urllib.request.urlopen(url, timeout=30) as response:
                raw = response.read()
        except (urllib.error.URLError, OSError) as error:
            print(f"error: cannot fetch {url}: {error}", file=sys.stderr)
            return 1
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as error:
            print(
                f"error: {url} did not answer JSON ({error})",
                file=sys.stderr,
            )
            return 1
    else:
        payload = _load_telemetry_dump(args.file)
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(render_analytics(payload))
    return 0


def _parse_slo_args(specs) -> list:
    slos = []
    for spec in specs or ():
        try:
            slos.append(parse_slo(spec))
        except ValueError as error:
            raise SystemExit(f"error: {error}") from error
    return slos


def _cmd_obs_serve(args: argparse.Namespace) -> int:
    """Run the HTTP exposition endpoint over a loaded pipeline."""
    import time

    from repro.obs.server import ExpositionServer

    configure_telemetry(
        enabled=True,
        sample_rate=args.sample_rate,
        slow_ms=args.slow_ms,
        slos=_parse_slo_args(args.slo) or None,
    )
    pipeline = _load_pipeline(args.data, use_workspace=not args.no_workspace)
    if args.warmup:
        queries = _derive_queries(pipeline, args.warmup)
        if queries:
            # Exercise both request kinds so /metrics exposes the
            # search.run.latency and search.batch.latency histograms from
            # the first scrape; the second pass hits the result cache.
            for query in queries:
                pipeline.search(query)
            pipeline.search_many(queries)
            print(f"warmed up with {len(queries)} queries")

    def health_info() -> dict:
        view = pipeline.serving_view
        return {
            "view_revision": view.revision,
            "view_age_s": round(view.age_seconds, 3),
            "papers": len(pipeline.corpus),
        }

    server = ExpositionServer(
        host=args.host,
        port=args.port,
        collectors=[lambda: pipeline.serving_view.export_gauges()],
        health_info=health_info,
    ).start()
    print(
        f"serving /metrics /health /slo /slowlog on "
        f"http://{server.host}:{server.port} (ctrl-c to stop)"
    )
    try:
        if args.for_seconds is not None:
            time.sleep(args.for_seconds)
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        reset_telemetry()
    return 0


def _split_function_args(specs) -> tuple:
    """Flatten repeatable, comma-separable score-function flags."""
    return tuple(
        name
        for spec in (specs or ())
        for name in spec.split(",")
        if name.strip()
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the HTTP search service (search + observability endpoints)."""
    import time

    from repro.serving.service import SearchService

    configure_telemetry(
        enabled=True,
        sample_rate=args.sample_rate,
        slow_ms=args.slow_ms,
        slos=_parse_slo_args(args.slo) or None,
    )
    pipeline = _load_pipeline(
        args.data,
        use_workspace=not args.no_workspace,
        result_cache_size=0 if args.no_result_cache else 256,
    )
    if args.warmup:
        queries = _derive_queries(pipeline, args.warmup)
        if queries:
            for query in queries:
                pipeline.search(query)
            pipeline.search_many(queries)
            print(f"warmed up with {len(queries)} queries")
    if args.probe_queries:
        try:
            probes = _read_queries_file(args.probe_queries)
        except OSError as error:
            print(
                f"error: cannot read {args.probe_queries}: {error}",
                file=sys.stderr,
            )
            return 1
        try:
            pipeline.configure_drift(
                probes,
                functions=_split_function_args(args.probe_function) or ("text",),
                k=args.probe_k,
                max_drift=args.max_drift,
            )
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        gate = (
            f"max_drift={args.max_drift:g}" if args.max_drift is not None
            else "report-only"
        )
        print(
            f"drift detection armed: {len(probes)} probe queries ({gate})"
        )
    elif args.max_drift is not None:
        print(
            "error: --max-drift needs --probe-queries to probe with",
            file=sys.stderr,
        )
        return 1
    try:
        service = SearchService(
            pipeline,
            host=args.host,
            port=args.port,
            max_in_flight=args.max_in_flight,
            queue_depth=args.queue_depth,
            retry_after_s=args.retry_after_s,
            shadow_functions=_split_function_args(args.shadow_function),
            shadow_sample_rate=args.shadow_sample_rate,
            shadow_k=args.shadow_k,
            ready_max_age_s=args.ready_max_age_s,
        ).start()
    except OSError as error:
        print(f"error: cannot bind {args.host}:{args.port}: {error}",
              file=sys.stderr)
        return 1
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if service.shadow is not None:
        print(
            f"shadow scoring {', '.join(service.shadow.functions)} at "
            f"sample rate {service.shadow.sample_rate:g}"
        )
    # service.port is the *bound* port -- meaningful with --port 0 too.
    print(
        f"serving /search /search_grouped /explain /ready /analytics "
        f"/admin/reload /metrics /health /slo /slowlog on "
        f"http://{service.host}:{service.port} (ctrl-c to stop)"
    )
    try:
        if args.for_seconds is not None:
            time.sleep(args.for_seconds)
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        service.stop()
        reset_telemetry()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Context-based literature search (ICDE 2007 reproduction)",
    )
    # Observability flags shared by every subcommand (argparse "parents"
    # idiom keeps them out of each subparser's own declaration).
    obs_common = argparse.ArgumentParser(add_help=False)
    obs_group = obs_common.add_argument_group("observability")
    obs_group.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the run's span tree as JSON lines to PATH",
    )
    obs_group.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the metrics-registry snapshot as JSON to PATH",
    )
    obs_group.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured JSON-lines logs instead of plain text",
    )
    obs_group.add_argument(
        "--telemetry-out",
        default=None,
        metavar="PATH",
        help="enable request-scoped query telemetry and write its "
        "slow-query log + SLO report as JSON to PATH",
    )
    obs_group.add_argument(
        "--sample-rate",
        type=float,
        default=0.05,
        metavar="FRACTION",
        help="head-sampling rate for query telemetry in [0, 1] "
        "(default: %(default)s; slow or failed queries are always captured)",
    )
    obs_group.add_argument(
        "--slow-ms",
        type=float,
        default=100.0,
        metavar="MS",
        help="queries at or above this duration count as slow "
        "(default: %(default)s)",
    )
    obs_group.add_argument(
        "--slo",
        action="append",
        metavar="SPEC",
        help="declare an SLO, e.g. 'search-p95:latency:250ms:95%%:300s' "
        "(repeatable; default objectives otherwise)",
    )
    # Shared by the commands that *read* a data directory: skip the
    # workspace and rebuild everything in memory (debugging aid).
    data_common = argparse.ArgumentParser(add_help=False)
    data_common.add_argument(
        "--no-workspace",
        action="store_true",
        help="ignore any built workspace; rebuild artifacts in memory",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate", help="synthesise a dataset", parents=[obs_common]
    )
    generate.add_argument("--papers", type=int, default=1200)
    generate.add_argument("--terms", type=int, default=250)
    generate.add_argument("--max-depth", type=int, default=7)
    generate.add_argument(
        "--preset",
        choices=("tiny", "small", "default", "large", "paper"),
        default=None,
        help="named scale preset (overrides --papers/--terms/--max-depth)",
    )
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", default="data")
    generate.set_defaults(func=_cmd_generate)

    search = subparsers.add_parser(
        "search", help="context-based search", parents=[obs_common, data_common]
    )
    search.add_argument("--data", default="data")
    query_source = search.add_mutually_exclusive_group(required=True)
    query_source.add_argument("--query")
    query_source.add_argument(
        "--queries-file",
        help="file with one query per line (blank lines and # comments skipped); "
        "queries run as a concurrent batch",
    )
    # Both choice lists derive from the scoring registry, so a function
    # registered by a plugin is searchable with no CLI edits.
    search.add_argument(
        "--function", choices=scoring.function_names(), default="text"
    )
    search.add_argument(
        "--paper-set", choices=scoring.PAPER_SET_NAMES, default="text"
    )
    search.add_argument(
        "--selection-strategy",
        choices=SELECTION_STRATEGIES,
        default="probe",
        help="how to pick candidate contexts for a query",
    )
    search.add_argument("--limit", type=int, default=10)
    search.add_argument("--threshold", type=float, default=0.0)
    search.add_argument(
        "--no-result-cache",
        action="store_true",
        help="disable the serving-side LRU result cache (every query "
        "evaluates fresh)",
    )
    search.set_defaults(func=_cmd_search)

    serve = subparsers.add_parser(
        "serve",
        help="HTTP search service: /search /search_grouped /explain "
        "/admin/reload + the obs routes",
        parents=[data_common],
    )
    serve.add_argument("--data", default="data")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8977, help="0 binds an ephemeral port"
    )
    serve.add_argument(
        "--max-in-flight", type=int, default=8, metavar="N",
        help="search requests executing concurrently (default: %(default)s)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=16, metavar="N",
        help="admitted requests allowed to wait for an in-flight slot; "
        "anything beyond is shed with 429 (default: %(default)s)",
    )
    serve.add_argument(
        "--retry-after-s", type=float, default=1.0, metavar="S",
        help="Retry-After hint sent with 429 responses (default: %(default)s)",
    )
    serve.add_argument(
        "--no-result-cache",
        action="store_true",
        help="disable the serving-side LRU result cache",
    )
    serve.add_argument(
        "--sample-rate", type=float, default=0.05, metavar="FRACTION",
        help="head-sampling rate for query telemetry (default: %(default)s)",
    )
    serve.add_argument(
        "--slow-ms", type=float, default=100.0, metavar="MS",
        help="slow-query threshold (default: %(default)s)",
    )
    serve.add_argument(
        "--slo", action="append", metavar="SPEC",
        help="declare an SLO, e.g. 'search-p95:latency:250ms:95%%:300s' "
        "(repeatable; default objectives otherwise)",
    )
    serve.add_argument(
        "--warmup", type=int, default=0, metavar="N",
        help="run N derived queries through the pipeline before serving",
    )
    serve.add_argument(
        "--for-seconds", type=float, default=None, metavar="S",
        help="serve for S seconds then exit (default: run until ctrl-c)",
    )
    serve.add_argument(
        "--shadow-functions", action="append", metavar="FN[,FN...]",
        dest="shadow_function",
        help="shadow-score sampled /search traffic under these registered "
        "score functions (repeatable or comma-separated); agreement is "
        "recorded as search.shadow.* histograms",
    )
    serve.add_argument(
        "--shadow-sample-rate", type=float, default=0.1, metavar="FRACTION",
        help="fraction of /search traffic shadow-scored (default: %(default)s)",
    )
    serve.add_argument(
        "--shadow-k", type=int, default=10, metavar="K",
        help="top-k depth for shadow rank agreement (default: %(default)s)",
    )
    serve.add_argument(
        "--probe-queries", default=None, metavar="PATH",
        help="file of probe queries (one per line) pinned for reload drift "
        "detection on POST /admin/reload",
    )
    serve.add_argument(
        "--probe-functions", action="append", metavar="FN[,FN...]",
        dest="probe_function",
        help="score functions the drift probe compares (repeatable or "
        "comma-separated; default: text)",
    )
    serve.add_argument(
        "--probe-k", type=int, default=10, metavar="K",
        help="top-k depth for reload drift comparison (default: %(default)s)",
    )
    serve.add_argument(
        "--max-drift", type=float, default=None, metavar="CHURN",
        help="refuse POST /admin/reload with 409 when any probe query's "
        "result-set churn exceeds this fraction in [0, 1] "
        "(default: report drift but never refuse)",
    )
    serve.add_argument(
        "--ready-max-age-s", type=float, default=None, metavar="S",
        help="/ready answers 503 when the serving view is older than this "
        "(default: no age bound)",
    )
    serve.set_defaults(func=_cmd_serve)

    evaluate = subparsers.add_parser(
        "evaluate", help="run the evaluation", parents=[obs_common, data_common]
    )
    evaluate.add_argument("--data", default="data")
    evaluate.add_argument("--queries", type=int, default=30)
    evaluate.add_argument(
        "--report",
        default=None,
        help="write the full markdown evaluation report to this file",
    )
    evaluate.set_defaults(func=_cmd_evaluate)

    build = subparsers.add_parser(
        "build", help="incrementally build the artifact workspace",
        parents=[obs_common],
    )
    build.add_argument("--data", default="data")
    build.add_argument(
        "--only",
        action="append",
        metavar="ARTIFACT",
        help="build only this artifact (+ dependencies); repeatable",
    )
    build.add_argument(
        "--force",
        action="store_true",
        help="rebuild the requested artifacts even if fresh",
    )
    build.set_defaults(func=_cmd_build)

    workspace = subparsers.add_parser(
        "workspace", help="workspace utilities", parents=[obs_common]
    )
    workspace_sub = workspace.add_subparsers(dest="workspace_command", required=True)
    ws_status = workspace_sub.add_parser(
        "status", help="per-artifact freshness of a workspace"
    )
    ws_status.add_argument("--data", default="data")
    ws_status.set_defaults(func=_cmd_workspace_status)

    ingest_delta = subparsers.add_parser(
        "ingest-delta",
        help="apply a corpus delta to a built workspace as a new generation",
        parents=[obs_common],
    )
    ingest_delta.add_argument("--data", default="data")
    ingest_delta.add_argument(
        "--add",
        metavar="PAPERS_JSONL",
        help="JSONL file of papers to add (same format as corpus.jsonl)",
    )
    ingest_delta.add_argument(
        "--remove",
        action="append",
        metavar="PAPER_ID",
        help="paper id to remove; repeatable",
    )
    ingest_delta.add_argument(
        "--out-corpus",
        metavar="PATH",
        help="where to write the post-delta corpus "
        "(default: overwrite <data>/corpus.jsonl)",
    )
    ingest_delta.set_defaults(func=_cmd_ingest_delta)

    tune = subparsers.add_parser(
        "tune",
        help="calibrate relevancy weights against AC answer sets",
        parents=[obs_common, data_common],
    )
    tune.add_argument("--data", default="data")
    tune.add_argument("--queries", type=int, default=20)
    tune.add_argument(
        "--function", choices=scoring.function_names(), default="text"
    )
    tune.add_argument(
        "--paper-set", choices=scoring.PAPER_SET_NAMES, default="text"
    )
    tune.set_defaults(func=_cmd_tune)

    ingest = subparsers.add_parser(
        "ingest",
        help="build a data dir from MEDLINE XML + OBO + GAF",
        parents=[obs_common],
    )
    ingest.add_argument("--medline", required=True, help="PubMed XML export")
    ingest.add_argument("--obo", required=True, help="Gene Ontology OBO file")
    ingest.add_argument("--gaf", required=True, help="GO annotation (GAF) file")
    ingest.add_argument("--max-training-per-term", type=int, default=10)
    ingest.add_argument("--out", default="data")
    ingest.set_defaults(func=_cmd_ingest)

    validate = subparsers.add_parser(
        "validate", help="lint a corpus file", parents=[obs_common]
    )
    validate.add_argument("--data", default="data")
    validate.add_argument("--verbose", action="store_true")
    validate.set_defaults(func=_cmd_validate)

    obs = subparsers.add_parser(
        "obs",
        help="observability utilities (render dumps, serve /metrics)",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_sub.add_parser(
        "report", help="render a trace/metrics dump as ASCII"
    )
    obs_report.add_argument(
        "--trace", default=None, metavar="PATH", help="trace JSON-lines file"
    )
    obs_report.add_argument(
        "--metrics", default=None, metavar="PATH", help="metrics JSON file"
    )
    obs_report.set_defaults(func=_cmd_obs_report)

    obs_slowlog = obs_sub.add_parser(
        "slowlog",
        help="render the slow-query log of a telemetry dump",
    )
    obs_slowlog.add_argument(
        "--file",
        default="telemetry.json",
        metavar="PATH",
        help="telemetry dump written by --telemetry-out "
        "(default: %(default)s)",
    )
    obs_slowlog.add_argument(
        "--limit", type=int, default=0,
        help="show only the N slowest entries (0 = all)",
    )
    obs_slowlog.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output format (default: %(default)s)",
    )
    obs_slowlog.set_defaults(func=_cmd_obs_slowlog)

    obs_slo = obs_sub.add_parser(
        "slo", help="render the SLO / error-budget report of a telemetry dump"
    )
    obs_slo.add_argument(
        "--file",
        default="telemetry.json",
        metavar="PATH",
        help="telemetry dump written by --telemetry-out "
        "(default: %(default)s)",
    )
    obs_slo.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output format (default: %(default)s)",
    )
    obs_slo.set_defaults(func=_cmd_obs_slo)

    obs_analytics = obs_sub.add_parser(
        "analytics",
        help="render a service's GET /analytics payload "
        "(query analytics, shadow agreement, reload drift)",
    )
    obs_analytics.add_argument(
        "--url", default=None, metavar="BASE_URL",
        help="fetch live from a running service, e.g. http://127.0.0.1:8977",
    )
    obs_analytics.add_argument(
        "--file", default=None, metavar="PATH",
        help="render a saved /analytics JSON payload instead",
    )
    obs_analytics.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output format (default: %(default)s)",
    )
    obs_analytics.set_defaults(func=_cmd_obs_analytics)

    obs_serve = obs_sub.add_parser(
        "serve",
        help="HTTP exposition endpoint: /metrics /health /slo /slowlog",
        parents=[data_common],
    )
    obs_serve.add_argument("--data", default="data")
    obs_serve.add_argument("--host", default="127.0.0.1")
    obs_serve.add_argument(
        "--port", type=int, default=9188, help="0 binds an ephemeral port"
    )
    obs_serve.add_argument(
        "--sample-rate", type=float, default=0.05, metavar="FRACTION",
        help="head-sampling rate for query telemetry (default: %(default)s)",
    )
    obs_serve.add_argument(
        "--slow-ms", type=float, default=100.0, metavar="MS",
        help="slow-query threshold (default: %(default)s)",
    )
    obs_serve.add_argument(
        "--slo", action="append", metavar="SPEC",
        help="declare an SLO, e.g. 'search-p95:latency:250ms:95%%:300s' "
        "(repeatable; default objectives otherwise)",
    )
    obs_serve.add_argument(
        "--warmup", type=int, default=0, metavar="N",
        help="run N derived queries through the pipeline before serving",
    )
    obs_serve.add_argument(
        "--for-seconds", type=float, default=None, metavar="S",
        help="serve for S seconds then exit (default: run until ctrl-c)",
    )
    obs_serve.set_defaults(func=_cmd_obs_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(json_format=True if getattr(args, "log_json", False) else None)
    trace_out = getattr(args, "trace_out", None)
    telemetry_out = getattr(args, "telemetry_out", None)
    # Fail on an unwritable dump path before doing the actual work.
    for path in (trace_out, getattr(args, "metrics_out", None), telemetry_out):
        if path and not Path(path).resolve().parent.is_dir():
            print(
                f"error: directory of {path} does not exist", file=sys.stderr
            )
            return 2
    tracer = start_tracing() if trace_out else None
    # Configure telemetry *after* start_tracing so request capture reuses
    # the --trace-out tracer (spans land in both dumps) instead of
    # installing an owned one.
    telemetry = None
    if telemetry_out:
        telemetry = configure_telemetry(
            enabled=True,
            sample_rate=getattr(args, "sample_rate", 0.05),
            slow_ms=getattr(args, "slow_ms", 100.0),
            slos=_parse_slo_args(getattr(args, "slo", None)) or None,
        )
    try:
        return args.func(args)
    finally:
        if telemetry is not None:
            telemetry.dump(telemetry_out)
            reset_telemetry()
        if tracer is not None:
            stop_tracing()
            tracer.write_jsonl(trace_out)
        metrics_out = getattr(args, "metrics_out", None)
        if metrics_out:
            with open(metrics_out, "w", encoding="utf-8") as handle:
                json.dump({"metrics": get_registry().snapshot()}, handle, indent=2)
                handle.write("\n")


if __name__ == "__main__":
    sys.exit(main())
