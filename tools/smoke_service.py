#!/usr/bin/env python3
"""CI smoke for the HTTP search service: start, scrape, search, stop.

Boots a :class:`~repro.serving.service.SearchService` over a small
generated corpus on an ephemeral port, then exercises the full surface
once over real HTTP:

1. ``GET /health``        -- must answer ``{"status": "ok", ...}``;
2. ``GET /ready``         -- readiness probe must report the view;
3. ``GET /metrics``       -- must expose the serving gauges;
4. ``GET /search``        -- body hits must match the same
   ``Pipeline.search`` call serialized with the same helpers
   (the byte-identical acceptance property, end to end);
5. ``GET /search`` (bad)  -- an unknown score function must be a 400;
6. ``GET /analytics``     -- must report the live zero-result rate and
   shadow rank agreement for the non-primary ``citation`` function
   (the service runs with ``shadow_functions=["citation"]`` at a 100%
   sample rate so the scrape is deterministic);
7. ``POST /admin/reload`` -- must swap the serving view (revision
   bumps); with drift probes armed, an identical-substrate reload must
   report zero drift, an injected ranking regression must be refused
   with a 409 (the old view keeps serving), and ``?force=1`` must push
   the swap through;
8. stop, then restart on the same port -- the rebind path must not
   raise ``EADDRINUSE``.

Seconds, not minutes: this is the "does the service even serve" check
between the lints and the full test suite in ``tools/ci.sh``, not a
benchmark (that is the ``search_hot`` workload of ``benchmarks/e2e/``).
"""

from __future__ import annotations

import json
import sys
import urllib.error
import urllib.parse
import urllib.request

REPO_ROOT = __import__("pathlib").Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.scores import PrestigeScores  # noqa: E402
from repro.datagen import CorpusGenerator, OntologyGenerator  # noqa: E402
from repro.obs import configure_telemetry, reset_telemetry  # noqa: E402
from repro.pipeline import Pipeline  # noqa: E402
from repro.serving.service import hit_to_dict  # noqa: E402
from repro.serving import SearchService  # noqa: E402

QUERY = "gene expression"
ZERO_HIT_QUERY = "qqqq zzzz xxxx"  # generated vocab never contains these


def _fetch(base_url: str, path: str, method: str = "GET", **params):
    """(status, parsed body) -- JSON when the endpoint speaks it, else text."""
    url = base_url + path
    if params:
        url += "?" + urllib.parse.urlencode(params)
    request = urllib.request.Request(url, method=method)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            status, raw = response.status, response.read()
    except urllib.error.HTTPError as error:
        status, raw = error.code, error.read()
    try:
        return status, json.loads(raw)
    except json.JSONDecodeError:
        return status, raw.decode("utf-8")


def _check(condition: bool, message: str) -> None:
    if not condition:
        print(f"smoke_service: FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"smoke_service: ok: {message}")


def main() -> int:
    dataset = CorpusGenerator(
        n_papers=200,
        ontology_generator=OntologyGenerator(n_terms=80, max_depth=5),
    ).generate(seed=7)
    pipeline = Pipeline.from_dataset(dataset, min_context_size=5)

    # Analytics listens to finished telemetry records, so the smoke runs
    # with telemetry on (the serve CLI does the same); 100% shadow
    # sampling makes the /analytics scrape deterministic.
    configure_telemetry(enabled=True, sample_rate=0.0, seed=7)
    service = SearchService(
        pipeline, port=0,
        shadow_functions=["citation"], shadow_sample_rate=1.0, shadow_seed=7,
    )
    service.start()
    base_url = f"http://{service.host}:{service.port}"
    try:
        status, health = _fetch(base_url, "/health")
        _check(
            status == 200 and health.get("status") == "ok",
            f"/health answers ok (view revision {health.get('view_revision')})",
        )

        status, ready = _fetch(base_url, "/ready")
        _check(
            status == 200
            and ready.get("ready") is True
            and ready.get("view_present") is True
            and isinstance(ready.get("substrate_revision"), int),
            "/ready reports a live serving view",
        )

        status, text = _fetch(base_url, "/metrics")
        _check(
            status == 200 and "serving_view" in text,
            "/metrics scrapes the serving-view gauges",
        )

        status, body = _fetch(
            base_url, "/search", q=QUERY, top_k=5, score_function="text"
        )
        expected = [
            hit_to_dict(hit)
            for hit in pipeline.search(QUERY, function="text", limit=5)
        ]
        _check(
            status == 200 and body["hits"] == expected,
            f"/search matches Pipeline.search ({len(expected)} hits)",
        )

        status, body = _fetch(
            base_url, "/search", q=QUERY, score_function="no-such-function"
        )
        _check(
            status == 400 and "score_function" in body.get("error", ""),
            "bad score_function is a 400",
        )

        status, body = _fetch(base_url, "/search", q=ZERO_HIT_QUERY)
        _check(
            status == 200 and body["hits"] == [],
            "nonsense query returns zero hits",
        )

        service.shadow.drain(timeout_s=30.0)
        status, analytics = _fetch(base_url, "/analytics")
        window = analytics.get("analytics", {})
        agreement = (analytics.get("shadow") or {}).get("agreement", {})
        citation = agreement.get("citation", {})
        _check(
            status == 200
            and window.get("zero_result_rate") is not None
            and window.get("zero_results", 0) >= 1
            and citation.get("samples", 0) >= 1
            and citation.get("mean_jaccard") is not None,
            "/analytics reports zero-result rate "
            f"({window.get('zero_result_rate')}) and citation shadow "
            f"agreement over {citation.get('samples')} samples",
        )

        view_before = pipeline.serving_view
        status, body = _fetch(base_url, "/admin/reload", method="POST")
        _check(
            status == 200
            and body.get("status") == "reloaded"
            and pipeline.serving_view is not view_before,
            f"/admin/reload swaps the view (revision {body.get('view_revision')})",
        )

        # -- drift-gated reload, end to end ------------------------------------------
        pipeline.configure_drift(
            [QUERY, "dna repair"], functions=["text"], max_drift=0.2
        )
        status, body = _fetch(base_url, "/admin/reload", method="POST")
        _check(
            status == 200
            and body.get("drift", {}).get("max_churn") == 0.0,
            "identical-substrate reload reports zero drift",
        )

        # Invert the text prestige ordering: the current top-5 for the
        # probe query collapse to ~0 while everything else jumps ahead.
        store = pipeline._store
        engine = pipeline.serving_view.engine("text", "text", "probe")
        top_ids = {h.paper_id for h in engine.search(QUERY, limit=5)}
        old_scores = store.scores["text/text"]
        perturbed = {
            ctx: {
                pid: (0.001 if pid in top_ids else value + 10.0)
                for pid, value in old_scores.of(ctx).items()
            }
            for ctx in old_scores.context_ids()
        }
        store.install_scores("text/text", PrestigeScores("text", perturbed))

        view_before = pipeline.serving_view
        status, body = _fetch(base_url, "/admin/reload", method="POST")
        _check(
            status == 409
            and body.get("status") == "refused"
            and body.get("drift", {}).get("max_churn", 0.0) > 0.2
            and pipeline.serving_view is view_before,
            "regressed reload is refused with a 409 "
            f"(drift {body.get('drift', {}).get('max_churn')}); "
            "old view keeps serving",
        )

        status, body = _fetch(
            base_url, "/admin/reload", method="POST", force=1
        )
        _check(
            status == 200
            and body.get("status") == "reloaded"
            and pipeline.serving_view is not view_before,
            "forced reload pushes the regressed view through",
        )
    finally:
        service.stop()
        reset_telemetry()
        port = service.port

    # Rebind on the port just released must not raise EADDRINUSE.
    service = SearchService(pipeline, port=port)
    service.start()
    try:
        status, _ = _fetch(base_url, "/health")
        _check(status == 200, f"restart rebinds port {port}")
    finally:
        service.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
