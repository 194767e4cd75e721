"""Integration tests for the command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """A small generated dataset directory, shared by the CLI tests."""
    directory = tmp_path_factory.mktemp("cli-data")
    code = main(
        [
            "generate",
            "--papers", "150",
            "--terms", "40",
            "--seed", "5",
            "--out", str(directory),
        ]
    )
    assert code == 0
    return directory


class TestGenerate:
    def test_files_written(self, data_dir):
        assert (data_dir / "corpus.jsonl").exists()
        assert (data_dir / "ontology.obo").exists()
        assert (data_dir / "training.json").exists()

    def test_training_map_valid(self, data_dir):
        with open(data_dir / "training.json", encoding="utf-8") as handle:
            training = json.load(handle)
        assert isinstance(training, dict)
        assert any(papers for papers in training.values())

    def test_preset_generation(self, tmp_path, capsys):
        code = main(
            ["generate", "--preset", "tiny", "--seed", "2",
             "--out", str(tmp_path / "p")]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "wrote 200 papers, 40 terms" in output

    def test_deterministic(self, tmp_path):
        for out in ("a", "b"):
            main(
                [
                    "generate", "--papers", "40", "--terms", "15",
                    "--seed", "9", "--out", str(tmp_path / out),
                ]
            )
        content_a = (tmp_path / "a" / "corpus.jsonl").read_text(encoding="utf-8")
        content_b = (tmp_path / "b" / "corpus.jsonl").read_text(encoding="utf-8")
        assert content_a == content_b


class TestSearch:
    def test_search_runs(self, data_dir, capsys):
        # Derive a query that must hit: words from a term name.
        obo_text = (data_dir / "ontology.obo").read_text(encoding="utf-8")
        name_line = next(
            line for line in obo_text.splitlines()
            if line.startswith("name: ") and len(line.split()) > 3
        )
        query = " ".join(name_line.split()[1:3])
        code = main(["search", "--data", str(data_dir), "--query", query])
        output = capsys.readouterr().out
        if code == 0:
            assert "prestige=" in output
        else:
            assert "no results" in output

    def test_missing_data_dir_fails(self, tmp_path):
        with pytest.raises(SystemExit, match="not found"):
            main(["search", "--data", str(tmp_path), "--query", "x"])

    def test_selection_strategy_flag(self, data_dir, capsys):
        code = main([
            "search", "--data", str(data_dir), "--query", "anything goes",
            "--selection-strategy", "name",
        ])
        capsys.readouterr()
        assert code in (0, 1)  # parsed and served (1 = no results)

    def test_selection_strategy_rejects_unknown(self, data_dir, capsys):
        with pytest.raises(SystemExit):
            main([
                "search", "--data", str(data_dir), "--query", "x",
                "--selection-strategy", "oracle",
            ])

    def test_queries_file_batch(self, data_dir, tmp_path, capsys):
        obo_text = (data_dir / "ontology.obo").read_text(encoding="utf-8")
        names = [
            " ".join(line.split()[1:3])
            for line in obo_text.splitlines()
            if line.startswith("name: ") and len(line.split()) > 3
        ]
        queries_file = tmp_path / "queries.txt"
        queries_file.write_text(
            "# validation queries\n" + "\n".join(names[:3]) + "\n\n",
            encoding="utf-8",
        )
        code = main([
            "search", "--data", str(data_dir),
            "--queries-file", str(queries_file),
        ])
        output = capsys.readouterr().out
        assert code in (0, 1)
        for query in names[:3]:
            assert f"== {query}" in output

    def test_queries_file_missing_fails(self, data_dir):
        with pytest.raises(SystemExit, match="queries file"):
            main([
                "search", "--data", str(data_dir),
                "--queries-file", "/nonexistent/queries.txt",
            ])

    def test_query_and_queries_file_are_exclusive(self, data_dir, tmp_path):
        queries_file = tmp_path / "q.txt"
        queries_file.write_text("x\n", encoding="utf-8")
        with pytest.raises(SystemExit):
            main([
                "search", "--data", str(data_dir), "--query", "x",
                "--queries-file", str(queries_file),
            ])

    def test_one_query_source_required(self, data_dir):
        with pytest.raises(SystemExit):
            main(["search", "--data", str(data_dir)])


class TestBuild:
    def test_workspace_written(self, data_dir, capsys):
        code = main(["build", "--data", str(data_dir)])
        assert code == 0
        output = capsys.readouterr().out
        from repro.workspace import ARTIFACTS

        assert f"built {len(ARTIFACTS)}" in output
        workspace = data_dir / "workspace"
        assert (workspace / "manifest.json").exists()
        assert (workspace / "text_paper_set.json").exists()
        assert (workspace / "pattern_paper_set.json").exists()
        assert (workspace / "scores_text_text.npz").exists()
        assert (workspace / "scores_citation_pattern.npz").exists()

    def test_artifacts_load_back(self, data_dir):
        from repro.core.io import read_prestige_scores

        scores = read_prestige_scores(
            data_dir / "workspace" / "scores_text_text.npz"
        )
        assert scores.function_name == "text"
        assert len(scores) > 0

    def test_second_build_is_noop(self, data_dir, capsys):
        code = main(["build", "--data", str(data_dir)])
        assert code == 0
        output = capsys.readouterr().out
        assert "workspace is up to date (no-op)" in output

    def test_only_flag_limits_build(self, tmp_path, capsys):
        main(
            ["generate", "--papers", "60", "--terms", "15",
             "--seed", "8", "--out", str(tmp_path)]
        )
        code = main(
            ["build", "--data", str(tmp_path), "--only", "citation_graph"]
        )
        assert code == 0
        workspace = tmp_path / "workspace"
        assert (workspace / "citation_graph.json").exists()
        assert not (workspace / "index.bin").exists()


class TestWorkspaceStatus:
    def test_fresh_workspace_reports_clean(self, data_dir, capsys):
        code = main(["workspace", "status", "--data", str(data_dir)])
        assert code == 0
        output = capsys.readouterr().out
        assert "all artifacts fresh" in output

    def test_reports_recorded_size_and_build_time(self, data_dir, capsys):
        from repro.workspace.manifest import entries_from_payload, read_manifest

        entries = entries_from_payload(read_manifest(data_dir / "workspace"))
        code = main(["workspace", "status", "--data", str(data_dir)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        for name, entry in entries.items():
            (row,) = [line for line in lines if line.startswith(f"  {name} ")]
            assert f"{entry.size_bytes:,} B" in row
            assert f"{entry.wall_seconds:.3f} s" in row
        (total,) = [line for line in lines if line.startswith("  total ")]
        assert f"{sum(e.size_bytes for e in entries.values()):,} B" in total
        wall = sum(e.wall_seconds for e in entries.values())
        assert f"{wall:.3f} s" in total

    def test_unbuilt_workspace_reports_stale(self, tmp_path, capsys):
        main(
            ["generate", "--papers", "60", "--terms", "15",
             "--seed", "8", "--out", str(tmp_path)]
        )
        code = main(["workspace", "status", "--data", str(tmp_path)])
        assert code == 1
        output = capsys.readouterr().out
        assert "missing" in output
        assert "need `repro build`" in output


class TestServe:
    def test_serve_banner_reports_actual_bound_port(self, data_dir, capsys):
        """``--port 0`` must surface the resolved ephemeral port in the
        banner, never the literal 0 that was asked for."""
        import re

        code = main([
            "serve", "--data", str(data_dir), "--port", "0",
            "--for-seconds", "0.01",
        ])
        assert code == 0
        output = capsys.readouterr().out
        match = re.search(r"on http://127\.0\.0\.1:(\d+)", output)
        assert match is not None, output
        assert int(match.group(1)) != 0
        assert "/search" in output and "/admin/reload" in output

    def test_serve_answers_search_over_http(self, data_dir, capsys):
        import json
        import re
        import threading
        import time
        import urllib.request

        thread = threading.Thread(
            target=lambda: main([
                "serve", "--data", str(data_dir), "--port", "0",
                "--for-seconds", "3", "--warmup", "2",
            ]),
            daemon=True,
        )
        thread.start()
        # Poll captured output for the banner (the server thread prints
        # it once the pipeline is loaded and the socket is bound).
        deadline = time.monotonic() + 30
        port = None
        captured = ""
        while port is None and time.monotonic() < deadline:
            captured += capsys.readouterr().out
            match = re.search(r"on http://127\.0\.0\.1:(\d+)", captured)
            if match:
                port = int(match.group(1))
            else:
                time.sleep(0.05)
        assert port is not None, captured
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/search?q=anything+goes&top_k=3",
            timeout=10,
        ) as response:
            payload = json.loads(response.read())
        assert response.status == 200
        assert payload["query"] == "anything goes"
        assert isinstance(payload["hits"], list)
        thread.join(timeout=30)
        assert not thread.is_alive()


class TestEvaluate:
    def test_evaluate_runs(self, data_dir, capsys):
        code = main(["evaluate", "--data", str(data_dir), "--queries", "4"])
        assert code == 0
        output = capsys.readouterr().out
        assert "precision[text]" in output
        assert "separability[" in output


class TestValidate:
    def test_clean_generated_corpus_passes(self, data_dir, capsys):
        code = main(["validate", "--data", str(data_dir)])
        assert code == 0
        output = capsys.readouterr().out
        assert "validated" in output

    def test_dirty_corpus_fails(self, tmp_path, capsys):
        (tmp_path / "corpus.jsonl").write_text(
            '{"paper_id": "BAD", "title": ""}\n', encoding="utf-8"
        )
        code = main(["validate", "--data", str(tmp_path), "--verbose"])
        assert code == 1
        output = capsys.readouterr().out
        assert "no-text" in output

    def test_missing_corpus_file(self, tmp_path):
        with pytest.raises(SystemExit, match="not found"):
            main(["validate", "--data", str(tmp_path)])


class TestTune:
    def test_tune_runs(self, data_dir, capsys):
        code = main(["tune", "--data", str(data_dir), "--queries", "4"])
        assert code == 0
        output = capsys.readouterr().out
        assert "best: w_prestige=" in output
        assert "F1=" in output


class TestIngest:
    def test_end_to_end(self, tmp_path, capsys):
        medline = tmp_path / "export.xml"
        medline.write_text(
            """<?xml version="1.0"?>
            <PubmedArticleSet>
              <PubmedArticle><MedlineCitation><PMID>100</PMID>
                <Article><ArticleTitle>metabolic process work</ArticleTitle>
                <Abstract><AbstractText>metabolic process details</AbstractText></Abstract>
                </Article></MedlineCitation></PubmedArticle>
            </PubmedArticleSet>""",
            encoding="utf-8",
        )
        obo = tmp_path / "go.obo"
        obo.write_text(
            "[Term]\nid: GO:0008150\nname: biological process\n\n"
            "[Term]\nid: GO:0008152\nname: metabolic process\n"
            "is_a: GO:0008150\n",
            encoding="utf-8",
        )
        gaf = tmp_path / "goa.gaf"
        gaf.write_text(
            "!gaf-version: 2.2\n"
            "DB\tID\tSYM\t\tGO:0008152\tPMID:100\tIDA\t\tP\t\t\tp\tt\td\ts\t\t\n"
            "DB\tID\tSYM\t\tGO:9999999\tPMID:100\tIDA\t\tP\t\t\tp\tt\td\ts\t\t\n",
            encoding="utf-8",
        )
        out = tmp_path / "data"
        code = main(
            [
                "ingest",
                "--medline", str(medline),
                "--obo", str(obo),
                "--gaf", str(gaf),
                "--out", str(out),
            ]
        )
        assert code == 0
        assert (out / "corpus.jsonl").exists()
        with open(out / "training.json", encoding="utf-8") as handle:
            training = json.load(handle)
        # Unknown GO:9999999 dropped; known term kept with the PMID.
        assert training == {"GO:0008152": ["PMID:100"]}
        # The ingested directory loads into a pipeline and searches.
        from repro.pipeline import Pipeline

        pipeline = Pipeline.from_directory(out, min_context_size=1)
        hits = pipeline.search("metabolic process")
        assert [h.paper_id for h in hits] == ["PMID:100"]


class TestObsTelemetry:
    def _queries(self, data_dir, n=3):
        obo_text = (data_dir / "ontology.obo").read_text(encoding="utf-8")
        names = [
            " ".join(line.split()[1:3])
            for line in obo_text.splitlines()
            if line.startswith("name: ") and len(line.split()) > 3
        ]
        return names[:n]

    @pytest.fixture()
    def telemetry_dump(self, data_dir, tmp_path, capsys):
        """Run a batch search with --telemetry-out and return the dump path."""
        queries_file = tmp_path / "queries.txt"
        queries_file.write_text(
            "\n".join(self._queries(data_dir)) + "\n", encoding="utf-8"
        )
        out = tmp_path / "telemetry.json"
        code = main([
            "search", "--data", str(data_dir),
            "--queries-file", str(queries_file),
            "--telemetry-out", str(out), "--sample-rate", "1.0",
        ])
        capsys.readouterr()
        assert code in (0, 1)
        return out

    def test_telemetry_out_written_with_spans(self, telemetry_dump):
        data = json.loads(telemetry_dump.read_text(encoding="utf-8"))
        assert data["enabled"] is True
        assert data["window_events"] >= 1
        (entry,) = data["slowlog"]
        assert entry["kind"] == "search_many"
        assert entry["spans"]["name"] == "request.search_many"
        assert {status["name"] for status in data["slo"]} >= {
            "search-latency-p95", "search-errors",
        }

    def test_obs_slowlog_renders_dump(self, telemetry_dump, capsys):
        code = main(["obs", "slowlog", "--file", str(telemetry_dump)])
        output = capsys.readouterr().out
        assert code == 0
        assert "#1" in output and "search_many" in output
        assert "request.search_many" in output  # span tree included

    def test_obs_slo_renders_dump(self, telemetry_dump, capsys):
        code = main(["obs", "slo", "--file", str(telemetry_dump)])
        output = capsys.readouterr().out
        assert code == 0
        assert "search-latency-p95" in output
        assert "OK" in output or "VIOLATED" in output or "no data" in output

    def test_obs_slowlog_json_format(self, telemetry_dump, capsys):
        code = main([
            "obs", "slowlog", "--file", str(telemetry_dump),
            "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        (entry,) = payload["slowlog"]
        assert entry["kind"] == "search_many"
        assert entry["spans"]["name"] == "request.search_many"

    def test_obs_slo_json_format(self, telemetry_dump, capsys):
        code = main([
            "obs", "slo", "--file", str(telemetry_dump), "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        names = {status["name"] for status in payload["slo"]}
        assert {"search-latency-p95", "search-errors"} <= names

    def _analytics_payload(self):
        return {
            "analytics": {
                "window_s": 600.0, "queries": 4, "qps": 0.5,
                "zero_results": 1, "counted_results": 4,
                "zero_result_rate": 0.25,
                "by_kind": {"search": 4},
                "by_function": {"text": 4},
            },
            "shadow": {
                "functions": ["citation"], "sample_rate": 1.0, "k": 10,
                "agreement": {
                    "citation": {
                        "samples": 2, "mean_jaccard": 0.9,
                        "mean_kendall_tau": 0.8,
                    },
                },
            },
            "drift": None,
        }

    def test_obs_analytics_renders_saved_payload(self, tmp_path, capsys):
        saved = tmp_path / "analytics.json"
        saved.write_text(
            json.dumps(self._analytics_payload()), encoding="utf-8"
        )
        code = main(["obs", "analytics", "--file", str(saved)])
        output = capsys.readouterr().out
        assert code == 0
        assert "zero-result rate" in output and "25.00%" in output
        assert "citation" in output and "jaccard=0.900" in output

    def test_obs_analytics_json_format_round_trips(self, tmp_path, capsys):
        saved = tmp_path / "analytics.json"
        saved.write_text(
            json.dumps(self._analytics_payload()), encoding="utf-8"
        )
        code = main([
            "obs", "analytics", "--file", str(saved), "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["analytics"]["zero_result_rate"] == 0.25
        assert payload["shadow"]["agreement"]["citation"]["samples"] == 2

    def test_obs_analytics_requires_exactly_one_source(self, capsys):
        code = main(["obs", "analytics"])
        assert code == 1
        assert "exactly one" in capsys.readouterr().err

    def test_custom_slo_spec_flows_into_dump(
        self, data_dir, tmp_path, capsys
    ):
        out = tmp_path / "telemetry.json"
        query = self._queries(data_dir, n=1)[0]
        main([
            "search", "--data", str(data_dir), "--query", query,
            "--telemetry-out", str(out),
            "--slo", "my-p99:latency:2s:99%:60s",
        ])
        capsys.readouterr()
        data = json.loads(out.read_text(encoding="utf-8"))
        assert [status["name"] for status in data["slo"]] == ["my-p99"]

    def test_bad_slo_spec_fails_fast(self, data_dir, tmp_path):
        with pytest.raises(SystemExit, match="bad SLO spec"):
            main([
                "search", "--data", str(data_dir), "--query", "x",
                "--telemetry-out", str(tmp_path / "t.json"),
                "--slo", "nope:latency:95%",
            ])

    def test_obs_slowlog_missing_file_fails(self, tmp_path):
        with pytest.raises(SystemExit, match="not found"):
            main(["obs", "slowlog", "--file", str(tmp_path / "absent.json")])

    def test_obs_serve_smoke(self, data_dir, capsys):
        from repro.obs import get_registry

        code = main([
            "obs", "serve", "--data", str(data_dir),
            "--port", "0", "--warmup", "3", "--for-seconds", "0",
        ])
        output = capsys.readouterr().out
        assert code == 0
        assert "warmed up with 3 queries" in output
        assert "serving /metrics /health /slo /slowlog on http://" in output
        # Warmup exercised both request kinds, so a scrape would expose
        # both latency histograms (routes themselves are covered by
        # tests/test_obs_server.py).
        registry = get_registry()
        assert registry.histogram("search.run.latency").count >= 3
        assert registry.histogram("search.batch.latency").count == 1


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
