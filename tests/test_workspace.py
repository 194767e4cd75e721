"""Tests for the artifact-graph workspace (repro.workspace).

Covers the registry/topology, fingerprint-driven freshness, incremental
builds (--only / --force semantics), the manifest schema, typed codecs,
and the zero-rebuild guarantee of ``Pipeline.open_workspace`` -- the
latter asserted through the ``workspace.load.*`` / ``workspace.build.*``
observability counters, not just timing.
"""

import json
import re
import shutil

import pytest

from repro.corpus import write_corpus_jsonl
from repro.datagen import CorpusGenerator, OntologyGenerator
from repro.obs.metrics import reset_registry
from repro.ontology import write_obo
from repro.pipeline import Pipeline
from repro.workspace import (
    ARTIFACTS,
    StaleWorkspaceError,
    WorkspaceBuilder,
    artifact_names,
    open_workspace,
    read_manifest,
    topological_order,
    validate_manifest_payload,
    workspace_status,
)

SEED = 11


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """A small on-disk data directory (corpus + ontology + training)."""
    directory = tmp_path_factory.mktemp("workspace-data")
    generator = CorpusGenerator(
        n_papers=120,
        ontology_generator=OntologyGenerator(n_terms=30, max_depth=5),
    )
    dataset = generator.generate(seed=SEED)
    write_corpus_jsonl(dataset.corpus, directory / "corpus.jsonl")
    write_obo(dataset.ontology, directory / "ontology.obo")
    with open(directory / "training.json", "w", encoding="utf-8") as handle:
        json.dump(dataset.training_papers, handle)
    return directory


@pytest.fixture(scope="module")
def built(data_dir):
    """A pipeline with a fully built workspace next to its data."""
    pipeline = Pipeline.from_directory(data_dir)
    workspace = data_dir / "workspace"
    report = pipeline.build_workspace(workspace)
    return pipeline, workspace, report


class TestRegistry:
    def test_topological_order_covers_registry(self):
        order = topological_order()
        assert sorted(order) == sorted(artifact_names())
        seen = set()
        for name in order:
            assert set(ARTIFACTS[name].deps) <= seen
            seen.add(name)

    def test_unknown_artifact_rejected(self):
        with pytest.raises(KeyError, match="unknown artifact"):
            topological_order(["nope"])

    def test_target_closure_includes_dependencies(self):
        order = topological_order(["scores_citation_text"])
        assert order[-1] == "scores_citation_text"
        assert "text_paper_set" in order
        assert "index" in order
        # Unrelated artifacts stay out of the closure.
        assert "pattern_paper_set" not in order

    def test_filenames_unique(self):
        filenames = [a.filename for a in ARTIFACTS.values()]
        assert len(filenames) == len(set(filenames))


class TestBuild:
    def test_builds_every_artifact(self, built):
        _, workspace, report = built
        assert sorted(report.built) == sorted(artifact_names())
        for artifact in ARTIFACTS.values():
            assert (workspace / artifact.filename).exists()

    def test_manifest_written_and_valid(self, built):
        _, workspace, _ = built
        payload = read_manifest(workspace)
        assert payload is not None
        validate_manifest_payload(payload)
        assert sorted(payload["artifacts"]) == sorted(artifact_names())
        entry = payload["artifacts"]["text_paper_set"]
        assert entry["deps"] == ["index", "vectors"]
        assert entry["size_bytes"] > 0

    def test_rebuild_is_noop(self, built):
        pipeline, workspace, _ = built
        report = pipeline.build_workspace(workspace)
        assert report.is_noop()
        assert report.built == []
        assert sorted(report.fresh) == sorted(artifact_names())

    def test_status_all_fresh(self, built):
        pipeline, workspace, _ = built
        states = {s.name: s.state for s in workspace_status(pipeline, workspace)}
        assert set(states.values()) == {"fresh"}

    def test_report_table_renders(self, built):
        _, _, report = built
        table = report.format_table()
        assert "index" in table
        assert f"of {len(ARTIFACTS)} artifacts" in table


class TestOpenWorkspace:
    def test_zero_rebuild_hydration(self, built, data_dir):
        """Acceptance: a fully-built workspace opens with zero rebuilds."""
        registry = reset_registry()
        pipeline = Pipeline.open_workspace(data_dir)
        counters = registry.snapshot()["counters"]
        assert counters.get("workspace.load.artifacts") == len(ARTIFACTS)
        assert counters.get("workspace.build.artifacts", 0) == 0
        assert counters.get("workspace.load.stale", 0) == 0
        # Search touches paper sets + scores; nothing recomputes.
        pipeline.search("metabolic process", limit=5)
        counters = registry.snapshot()["counters"]
        assert counters.get("pipeline.prestige.computed", 0) == 0

    def test_search_results_identical(self, built, data_dir):
        source, _, _ = built
        hydrated = Pipeline.open_workspace(data_dir)
        for function, paper_set in (("text", "text"), ("citation", "pattern")):
            expected = source.search(
                "metabolic process", function=function, paper_set_name=paper_set
            )
            actual = hydrated.search(
                "metabolic process", function=function, paper_set_name=paper_set
            )
            assert [(h.paper_id, h.relevancy) for h in actual] == [
                (h.paper_id, h.relevancy) for h in expected
            ]

    def test_search_builds_no_score_dicts(self, built, data_dir):
        """Loaded scores serve every arm and strategy from their arrays."""
        from repro import scoring
        from repro.core.search import SELECTION_STRATEGIES

        hydrated = Pipeline.open_workspace(data_dir)
        arms = scoring.evaluation_arms()
        for function, paper_set in arms:
            for strategy in SELECTION_STRATEGIES:
                hydrated.search(
                    "metabolic process", function=function,
                    paper_set_name=paper_set, selection_strategy=strategy,
                )
        loaded = [
            hydrated.substrates.scores[f"{function}/{paper_set}"]
            for function, paper_set in arms
        ]
        assert len(loaded) == len(arms) > 0
        assert all(scores._by_context is None for scores in loaded)

    def test_strict_open_of_unbuilt_raises(self, data_dir, tmp_path):
        pipeline = Pipeline.from_directory(data_dir)
        with pytest.raises(StaleWorkspaceError, match="not fully built"):
            open_workspace(pipeline, tmp_path / "empty")

    def test_non_strict_open_skips_missing(self, built, data_dir, tmp_path):
        _, workspace, _ = built
        partial = tmp_path / "partial"
        shutil.copytree(workspace, partial)
        (partial / ARTIFACTS["citation_graph"].filename).unlink()
        pipeline = Pipeline.from_directory(data_dir)
        with pytest.raises(StaleWorkspaceError, match="citation_graph"):
            open_workspace(pipeline, partial)
        pipeline = Pipeline.from_directory(data_dir)
        loaded = open_workspace(pipeline, partial, strict=False)
        assert loaded == len(ARTIFACTS) - 1
        assert not pipeline.substrates.has("citation_graph")  # lazy rebuild


class TestCorruptArtifacts:
    @pytest.mark.parametrize("name", artifact_names())
    def test_truncated_artifact_is_named(self, built, data_dir, tmp_path, name):
        _, workspace, _ = built
        copy = tmp_path / "workspace"
        shutil.copytree(workspace, copy)
        target = copy / ARTIFACTS[name].filename
        target.write_bytes(target.read_bytes()[: target.stat().st_size // 2])
        pipeline = Pipeline.from_directory(data_dir)
        with pytest.raises(ValueError, match=re.escape(ARTIFACTS[name].filename)):
            open_workspace(pipeline, copy, strict=True)

    def test_v1_scores_are_stale_by_schema_and_rebuilt(
        self, built, data_dir, tmp_path
    ):
        _, workspace, _ = built
        copy = tmp_path / "workspace"
        shutil.copytree(workspace, copy)
        manifest = json.loads((copy / "manifest.json").read_text())
        v1_files = []
        for name, entry in manifest["artifacts"].items():
            if name.startswith("scores_"):
                v1_file = entry["file"].replace(".npz", ".json")
                (copy / entry["file"]).rename(copy / v1_file)
                entry.update(file=v1_file, schema_version=1)
                v1_files.append(v1_file)
        (copy / "manifest.json").write_text(json.dumps(manifest))
        pipeline = Pipeline.from_directory(data_dir)
        statuses = workspace_status(pipeline, copy)
        scores = {s.name for s in statuses if s.name.startswith("scores_")}
        assert len(scores) == len(v1_files) > 0
        for status in statuses:
            if status.name in scores:
                assert (status.state, status.reason) == ("stale", "schema v1 != v2")
            else:
                assert status.state == "fresh"
        report = WorkspaceBuilder(pipeline, copy).build()
        assert set(report.built) == scores
        assert not any((copy / v1_file).exists() for v1_file in v1_files)
        assert all(s.state == "fresh" for s in workspace_status(pipeline, copy))

    def test_v1_json_index_is_stale_and_replaced_by_index_bin(
        self, built, data_dir, tmp_path
    ):
        """A workspace whose index is the schema-1 ``index.json``
        (``repro/inverted-index/v1``), with the manifest fingerprints such
        a workspace recorded, rebuilds into ``index.bin``."""
        from repro.core.io import write_tagged_json
        from repro.workspace.manifest import entries_from_payload

        pipeline, workspace, _ = built
        copy = tmp_path / "workspace"
        shutil.copytree(workspace, copy)
        (copy / "index.bin").unlink()
        write_tagged_json(
            pipeline.index.to_payload(), copy / "index.json",
            "repro/inverted-index/v1",
        )
        manifest = json.loads((copy / "manifest.json").read_text())
        for name, fingerprint in _v1_index_fingerprints(pipeline).items():
            manifest["artifacts"][name]["fingerprint"] = fingerprint
        manifest["artifacts"]["index"].update(
            file="index.json",
            schema_version=1,
            size_bytes=(copy / "index.json").stat().st_size,
        )
        (copy / "manifest.json").write_text(json.dumps(manifest))

        dependents = {"index"}
        for name in topological_order():
            if dependents & set(ARTIFACTS[name].deps):
                dependents.add(name)
        assert "citation_graph" not in dependents
        reopened = Pipeline.from_directory(data_dir)
        statuses = {s.name: s for s in workspace_status(reopened, copy)}
        assert statuses["index"].reason == "schema v1 != v2"
        for name, status in statuses.items():
            assert status.state == ("stale" if name in dependents else "fresh"), name

        report = WorkspaceBuilder(reopened, copy).build()
        assert set(report.built) == dependents
        assert not (copy / "index.json").exists()
        entry = entries_from_payload(read_manifest(copy))["index"]
        assert entry.file == "index.bin"
        assert entry.size_bytes == (copy / "index.bin").stat().st_size
        assert all(s.state == "fresh" for s in workspace_status(reopened, copy))


def _v1_index_fingerprints(pipeline):
    """Artifact fingerprints of a workspace whose index artifact was the
    ``index.json`` of schema 1, fingerprinted with the index-backend
    name among its config values."""
    from repro.workspace.fingerprint import InputDigests, digest_json

    inputs = InputDigests.of_pipeline(pipeline).combined
    fingerprints = {}
    for name in topological_order():
        artifact = ARTIFACTS[name]
        schema_version = artifact.schema_version
        config = {key: getattr(pipeline, key) for key in artifact.config_keys}
        if name == "index":
            schema_version, config = 1, {"index_backend": "memory"}
        fingerprints[name] = digest_json(
            {
                "artifact": name,
                "schema_version": schema_version,
                "inputs": inputs,
                "config": config,
                "deps": [fingerprints[dep] for dep in artifact.deps],
            }
        )
    return fingerprints


class TestManifestCheckTool:
    def test_leftover_temp_file_fails_the_check(self, built, tmp_path, capsys):
        import importlib.util
        from pathlib import Path

        tools = Path(__file__).resolve().parent.parent / "tools"
        spec = importlib.util.spec_from_file_location(
            "check_workspace_manifest", tools / "check_workspace_manifest.py"
        )
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        _, workspace, _ = built
        copy = tmp_path / "workspace"
        shutil.copytree(workspace, copy)
        manifest = str(copy / "manifest.json")
        assert tool.main(["--manifest", manifest]) == 0
        (copy / ".index.bin.0badf00d.tmp").write_bytes(b"half an index")
        assert tool.main(["--manifest", manifest]) == 1
        assert "leftover temporary file .index.bin.0badf00d.tmp" in (
            capsys.readouterr().out
        )


class TestIncremental:
    def test_search_weights_do_not_invalidate(self, built, data_dir):
        _, workspace, _ = built
        pipeline = Pipeline.from_directory(data_dir, w_prestige=0.9, w_matching=0.1)
        states = {s.name: s.state for s in workspace_status(pipeline, workspace)}
        assert set(states.values()) == {"fresh"}

    def test_threshold_change_stales_exactly_the_dependents(self, built, data_dir):
        _, workspace, _ = built
        pipeline = Pipeline.from_directory(data_dir, text_similarity_threshold=0.2)
        stale = {
            s.name
            for s in workspace_status(pipeline, workspace)
            if s.state != "fresh"
        }
        assert stale == {
            "text_paper_set",
            "representatives",
            "scores_text_text",
            "scores_citation_text",
            "scores_combined_text",
        }

    def test_incremental_rebuild_after_config_change(self, built, data_dir, tmp_path):
        _, workspace, _ = built
        copy = tmp_path / "ws"
        shutil.copytree(workspace, copy)
        pipeline = Pipeline.from_directory(data_dir, text_similarity_threshold=0.2)
        report = pipeline.build_workspace(copy)
        assert sorted(report.built) == [
            "representatives",
            "scores_citation_text",
            "scores_combined_text",
            "scores_text_text",
            "text_paper_set",
        ]
        # The second run converges to a no-op.
        assert Pipeline.from_directory(
            data_dir, text_similarity_threshold=0.2
        ).build_workspace(copy).is_noop()

    def test_only_builds_requested_closure(self, data_dir, tmp_path):
        pipeline = Pipeline.from_directory(data_dir)
        workspace = tmp_path / "ws"
        report = pipeline.build_workspace(workspace, only=["citation_graph"])
        assert report.built == ["citation_graph"]
        states = {s.name: s.state for s in workspace_status(pipeline, workspace)}
        assert states["citation_graph"] == "fresh"
        assert states["index"] == "missing"

    def test_force_rebuilds_only_the_requested(self, built, data_dir, tmp_path):
        _, workspace, _ = built
        copy = tmp_path / "ws"
        shutil.copytree(workspace, copy)
        pipeline = Pipeline.from_directory(data_dir)
        report = pipeline.build_workspace(
            copy, only=["scores_citation_text"], force=True
        )
        assert report.built == ["scores_citation_text"]

    def test_deleted_file_detected_and_rebuilt(self, built, data_dir, tmp_path):
        _, workspace, _ = built
        copy = tmp_path / "ws"
        shutil.copytree(workspace, copy)
        (copy / "representatives.json").unlink()
        pipeline = Pipeline.from_directory(data_dir)
        statuses = {s.name: s for s in workspace_status(pipeline, copy)}
        assert statuses["representatives"].state == "missing"
        report = pipeline.build_workspace(copy)
        assert report.built == ["representatives"]


class TestManifest:
    def test_corrupt_manifest_raises_with_path(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{nope", encoding="utf-8")
        with pytest.raises(ValueError, match="corrupt JSON") as excinfo:
            read_manifest(tmp_path)
        assert "manifest.json" in str(excinfo.value)

    def test_wrong_format_tag_rejected(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            json.dumps({"format": "other/v9"}), encoding="utf-8"
        )
        with pytest.raises(ValueError, match="expected format"):
            read_manifest(tmp_path)

    def test_missing_entry_field_rejected(self):
        payload = {
            "format": "repro/workspace-manifest/v1",
            "inputs": {"corpus": "a", "ontology": "b", "training": "c"},
            "artifacts": {"index": {"file": "index.bin"}},
        }
        with pytest.raises(ValueError, match="missing 'fingerprint'"):
            validate_manifest_payload(payload)

    def test_missing_manifest_is_none(self, tmp_path):
        assert read_manifest(tmp_path) is None


class TestFingerprints:
    def test_stable_across_pipelines(self, data_dir):
        from repro.workspace import artifact_fingerprints

        a = artifact_fingerprints(Pipeline.from_directory(data_dir))
        b = artifact_fingerprints(Pipeline.from_directory(data_dir))
        assert a == b

    def test_config_only_reaches_dependents(self, data_dir):
        from repro.workspace import artifact_fingerprints

        base = artifact_fingerprints(Pipeline.from_directory(data_dir))
        changed = artifact_fingerprints(
            Pipeline.from_directory(data_dir, text_similarity_threshold=0.3)
        )
        differing = {name for name in base if base[name] != changed[name]}
        assert differing == {
            "text_paper_set",
            "representatives",
            "scores_text_text",
            "scores_citation_text",
            "scores_combined_text",
        }


class TestCodecs:
    """Round-trips of the typed save/load pairs on the tiny testbed."""

    def test_inverted_index_round_trip(self, tiny_corpus, tmp_path):
        from repro.index import build_index, open_index, save_index

        index = build_index(tiny_corpus)
        save_index(index, tmp_path / "index.bin")
        restored = open_index(tmp_path / "index.bin")
        assert restored.to_payload() == index.to_payload()
        assert restored.n_papers == index.n_papers
        for term in ("glucose", "kinase", "quasar"):
            assert restored.document_frequency(term) == index.document_frequency(
                term
            )

    def test_vector_store_round_trip(self, tiny_corpus, tmp_path):
        from repro.core.io import read_vector_store, write_vector_store
        from repro.core.vectors import PaperVectorStore
        from repro.index.inverted import InvertedIndex

        index = InvertedIndex().index_corpus(tiny_corpus)
        vectors = PaperVectorStore(tiny_corpus, index.analyzer)
        vectors.warm()
        write_vector_store(vectors, tmp_path / "vectors.json")
        restored = read_vector_store(
            tmp_path / "vectors.json", tiny_corpus, index.analyzer
        )
        for paper_id in tiny_corpus.paper_ids():
            assert restored.full_vector(paper_id).weights == pytest.approx(
                vectors.full_vector(paper_id).weights
            )

    def test_token_cache_round_trip(self, tiny_corpus, tmp_path):
        from repro.core.io import read_token_cache, write_token_cache
        from repro.core.patterns import AnalyzedPaperCache
        from repro.corpus.paper import Section
        from repro.index.inverted import InvertedIndex

        index = InvertedIndex().index_corpus(tiny_corpus)
        tokens = AnalyzedPaperCache(tiny_corpus, index.analyzer)
        tokens.warm()
        write_token_cache(tokens, tmp_path / "tokens.json")
        restored = read_token_cache(
            tmp_path / "tokens.json", tiny_corpus, index.analyzer
        )
        for paper_id in tiny_corpus.paper_ids():
            assert restored.tokens(paper_id, Section.ABSTRACT) == tokens.tokens(
                paper_id, Section.ABSTRACT
            )

    def test_citation_graph_round_trip(self, tiny_corpus, tmp_path):
        from repro.citations.graph import CitationGraph
        from repro.core.io import read_citation_graph, write_citation_graph

        graph = CitationGraph.from_corpus(tiny_corpus)
        write_citation_graph(graph, tmp_path / "graph.json")
        restored = read_citation_graph(tmp_path / "graph.json")
        assert restored.to_payload() == graph.to_payload()

    def test_representatives_round_trip(self, tmp_path):
        from repro.core.io import read_representatives, write_representatives

        representatives = {"met": "M1", "sig": "S1"}
        write_representatives(representatives, tmp_path / "reps.json")
        assert read_representatives(tmp_path / "reps.json") == representatives

    def test_corrupt_artifact_names_path(self, tmp_path):
        from repro.core.io import read_citation_graph

        path = tmp_path / "citation_graph.json"
        path.write_text("{broken", encoding="utf-8")
        with pytest.raises(ValueError, match="corrupt JSON") as excinfo:
            read_citation_graph(path)
        assert str(path) in str(excinfo.value)

    def test_mismatched_format_tag_names_both_tags(self, tmp_path):
        from repro.core.io import read_citation_graph, write_representatives

        path = tmp_path / "artifact.json"
        write_representatives({"a": "b"}, path)
        with pytest.raises(ValueError, match="expected format"):
            read_citation_graph(path)
