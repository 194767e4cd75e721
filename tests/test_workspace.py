"""Tests for the artifact-graph workspace (repro.workspace).

Covers the registry/topology, fingerprint-driven freshness, incremental
builds (--only / --force semantics), the manifest schema, typed codecs,
and the zero-rebuild guarantee of ``Pipeline.open_workspace`` -- the
latter asserted through the ``workspace.load.*`` / ``workspace.build.*``
observability counters, not just timing.
"""

import dataclasses
import json
import re
import shutil
from collections import Counter

import pytest

from reference.index import postings
from repro.corpus import write_corpus_jsonl
from repro.corpus.paper import TEXT_SECTIONS
from repro.datagen import CorpusGenerator, OntologyGenerator
from repro.obs.metrics import reset_registry
from repro.ontology import write_obo
from repro.pipeline import Pipeline
from repro.text.analyze import AnalyzedPaperCache, Analyzer
from repro.workspace import artifact as artifact_graph
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

    def test_graph_rederives_only_when_reset(self, monkeypatch):
        """The hook a tracer uses: swap ``_derive_artifacts``, reset
        ``_cached_revision``, and reads see the swapped nodes; restore and
        reset again, and they see the original nodes."""
        original = dict(ARTIFACTS)
        patched = {
            name: dataclasses.replace(node, description="patched")
            for name, node in original.items()
        }
        monkeypatch.setattr(artifact_graph, "_derive_artifacts", lambda: patched)
        try:
            assert ARTIFACTS["index"] is original["index"]  # not reset yet
            ARTIFACTS._cached_revision = None
            assert dict(ARTIFACTS) == patched
            assert ARTIFACTS["index"] is patched["index"]
            assert topological_order() == list(patched)
        finally:
            monkeypatch.undo()
            ARTIFACTS._cached_revision = None
        # Score nodes are derived afresh (new closures); base nodes are shared.
        assert list(ARTIFACTS) == list(original)
        assert ARTIFACTS["index"] is original["index"]
        assert all(node.description != "patched" for node in ARTIFACTS.values())


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
        assert entry["deps"] == ["vectors"]
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

    def test_search_serves_loaded_rows_as_stored(self, built, data_dir, tmp_path):
        """Loaded scores serve every arm and strategy, and still write
        back to their artifact's bytes."""
        from repro import scoring
        from repro.core.io import write_prestige_scores
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
        for (function, paper_set), scores in zip(arms, loaded):
            name = f"scores_{function}_{paper_set}.npz"
            write_prestige_scores(scores, tmp_path / name)
            stored = data_dir / "workspace" / name
            assert (tmp_path / name).read_bytes() == stored.read_bytes()
        # The loaded vector store holds the token cache; no query reads it.
        tokens = hydrated.substrates.tokens
        assert tokens.cache_hits == tokens.cache_misses == 0

    def test_strict_open_of_unbuilt_raises(self, data_dir, tmp_path):
        pipeline = Pipeline.from_directory(data_dir)
        with pytest.raises(StaleWorkspaceError, match="not fully built"):
            open_workspace(pipeline, tmp_path / "empty")

    def test_non_strict_open_skips_missing(self, built, data_dir, tmp_path):
        _, workspace, _ = built
        partial = tmp_path / "partial"
        shutil.copytree(workspace, partial)
        (partial / ARTIFACTS["scores_combined_text"].filename).unlink()
        pipeline = Pipeline.from_directory(data_dir)
        with pytest.raises(StaleWorkspaceError, match="scores_combined_text"):
            open_workspace(pipeline, partial)
        pipeline = Pipeline.from_directory(data_dir)
        loaded = open_workspace(pipeline, partial, strict=False)
        assert loaded == len(ARTIFACTS) - 1
        assert not pipeline.substrates.has("combined/text")  # lazy rebuild


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
        from repro.workspace.manifest import entries_from_payload

        pipeline, workspace, _ = built
        copy = tmp_path / "workspace"
        shutil.copytree(workspace, copy)
        (copy / "index.bin").unlink()
        _write_tagged_json(
            _v1_index_payload(pipeline.index), copy / "index.json",
            "repro/inverted-index/v1",
        )
        manifest = json.loads((copy / "manifest.json").read_text())
        old = {"index": (1, {"index_backend": "memory"})}
        for name, fingerprint in _v1_fingerprints(pipeline, old).items():
            manifest["artifacts"][name]["fingerprint"] = fingerprint
        manifest["artifacts"]["index"].update(
            file="index.json",
            schema_version=1,
            size_bytes=(copy / "index.json").stat().st_size,
        )
        (copy / "manifest.json").write_text(json.dumps(manifest))

        dependents = _dependents("index")
        assert "citation_graph" not in dependents
        reopened = Pipeline.from_directory(data_dir)
        statuses = {s.name: s for s in workspace_status(reopened, copy)}
        assert statuses["index"].reason == "schema v1 != v3"
        for name, status in statuses.items():
            assert status.state == ("stale" if name in dependents else "fresh"), name

        report = WorkspaceBuilder(reopened, copy).build()
        assert set(report.built) == dependents
        assert not (copy / "index.json").exists()
        entry = entries_from_payload(read_manifest(copy))["index"]
        assert entry.file == "index.bin"
        assert entry.size_bytes == (copy / "index.bin").stat().st_size
        assert all(s.state == "fresh" for s in workspace_status(reopened, copy))

    def test_v1_json_vectors_are_stale_and_replaced_by_vectors_npz(
        self, built, data_dir, tmp_path
    ):
        """A workspace whose vector store is the schema-1 ``vectors.json``
        (``repro/vector-store/v1``) rebuilds it, and everything built on
        it, into ``vectors.npz``."""
        from repro.workspace.manifest import entries_from_payload

        pipeline, workspace, _ = built
        copy = tmp_path / "workspace"
        shutil.copytree(workspace, copy)
        (copy / "vectors.npz").unlink()
        _write_tagged_json(
            {"section_models": {}, "full_model": None, "full_vectors": {}},
            copy / "vectors.json",
            "repro/vector-store/v1",
        )
        manifest = json.loads((copy / "manifest.json").read_text())
        old = {"vectors": (1, {})}
        for name, fingerprint in _v1_fingerprints(pipeline, old).items():
            manifest["artifacts"][name]["fingerprint"] = fingerprint
        manifest["artifacts"]["vectors"].update(
            file="vectors.json",
            schema_version=1,
            size_bytes=(copy / "vectors.json").stat().st_size,
        )
        (copy / "manifest.json").write_text(json.dumps(manifest))

        dependents = _dependents("vectors")
        assert {"text_paper_set", "scores_text_text"} <= dependents
        assert "index" not in dependents and "pattern_paper_set" not in dependents
        reopened = Pipeline.from_directory(data_dir)
        statuses = {s.name: s for s in workspace_status(reopened, copy)}
        assert statuses["vectors"].reason == "schema v1 != v2"
        for name, status in statuses.items():
            assert status.state == ("stale" if name in dependents else "fresh"), name

        report = WorkspaceBuilder(reopened, copy).build()
        assert set(report.built) == dependents
        assert not (copy / "vectors.json").exists()
        entry = entries_from_payload(read_manifest(copy))["vectors"]
        assert entry.file == "vectors.npz"
        assert all(s.state == "fresh" for s in workspace_status(reopened, copy))
        for name in dependents - {"vectors"}:
            file = ARTIFACTS[name].filename
            assert (copy / file).read_bytes() == (workspace / file).read_bytes(), name

    def test_json_era_paper_sets_and_representatives_are_rebuilt_into_npz(
        self, built, data_dir, tmp_path
    ):
        """A workspace whose paper sets are v1 JSON and whose
        representatives are the ``representatives.json`` artifact, with
        the fingerprints such a workspace recorded and no pattern
        extractions, rebuilds the two paper sets as ``.npz`` and the five
        score artifacts to the same bytes, writes the extractions, and
        drops the JSON files and the retired entry."""
        from repro.workspace.manifest import entries_from_payload

        pipeline, workspace, _ = built
        copy = tmp_path / "workspace"
        shutil.copytree(workspace, copy)
        manifest = json.loads((copy / "manifest.json").read_text())
        artifacts = manifest["artifacts"]
        paper_sets = ("text_paper_set", "pattern_paper_set")
        for name in paper_sets:
            (copy / f"{name}.npz").unlink()
            contexts = [
                {
                    "term_id": c.term_id,
                    "paper_ids": list(c.paper_ids),
                    "training_paper_ids": list(c.training_paper_ids),
                    "inherited_from": c.inherited_from,
                    "decay": c.decay,
                }
                for c in getattr(pipeline, name)
            ]
            _write_tagged_json(
                {"contexts": contexts}, copy / f"{name}.json",
                "repro/context-paper-set/v1",
            )
            artifacts[name].update(file=f"{name}.json", schema_version=1)
        _write_tagged_json(
            {"by_context": pipeline.representatives},
            copy / "representatives.json", "repro/representatives/v1",
        )
        artifacts["representatives"] = dict(
            artifacts["vectors"], file="representatives.json", schema_version=1
        )
        (copy / artifacts.pop("pattern_extractions")["file"]).unlink()
        graph = _json_era_graph()
        old = {
            "text_paper_set": (
                1, {"text_similarity_threshold": pipeline.text_similarity_threshold}
            ),
            "pattern_paper_set": (1, {}),
            "representatives": (1, {}),
        }
        for name, fingerprint in _v1_fingerprints(pipeline, old, graph).items():
            artifacts[name].update(
                fingerprint=fingerprint,
                deps=list(graph[name]),
                size_bytes=(copy / artifacts[name]["file"]).stat().st_size,
            )
        (copy / "manifest.json").write_text(json.dumps(manifest))

        scores = {name for name in ARTIFACTS if name.startswith("scores_")}
        assert len(scores) == 5
        reopened = Pipeline.from_directory(data_dir)
        statuses = {s.name: s for s in workspace_status(reopened, copy)}
        assert set(statuses) == set(ARTIFACTS)
        for name in paper_sets:
            assert statuses[name].reason == "schema v1 != v2"
        for name in scores:
            assert statuses[name].reason == "fingerprint changed", name
        assert {n for n, s in statuses.items() if s.state == "fresh"} == {
            "index", "vectors",
        }

        report = WorkspaceBuilder(reopened, copy).build()
        assert set(report.built) == set(paper_sets) | scores | {"pattern_extractions"}
        assert sorted(p.name for p in copy.glob("*.json")) == ["manifest.json"]
        entries = entries_from_payload(read_manifest(copy))
        assert set(entries) == set(ARTIFACTS)
        assert entries["scores_text_text"].deps == ["text_paper_set", "vectors"]
        for artifact in ARTIFACTS.values():
            file = artifact.filename
            assert (copy / file).read_bytes() == (workspace / file).read_bytes(), file
        assert all(s.state == "fresh" for s in workspace_status(reopened, copy))
        opened = Pipeline.from_directory(data_dir)
        open_workspace(opened, copy)
        assert opened.representatives == pipeline.representatives


def _v1_index_payload(index):
    """The schema-1 ``index.json`` payload: per-paper, per-section term
    counts, rebuilt from the postings."""
    papers = {}
    for term in index.vocabulary():
        for posting in postings(index, term):
            sections = papers.setdefault(posting.paper_id, {})
            counts = sections.setdefault(posting.section.value, {})
            counts[term] = posting.term_frequency
    return {"papers": papers}


def _write_tagged_json(payload, path, format_tag):
    """A JSON artifact file of the kind older workspaces held."""
    path.write_text(json.dumps({"format": format_tag, **payload}), encoding="utf-8")


def _v1_fingerprints(pipeline, old, graph=None):
    """Artifact fingerprints of a workspace built when the artifacts in
    ``old`` (name -> ``(schema_version, config)``) had that schema and
    those config values, and the artifact graph was ``graph`` (name ->
    deps, in build order; default: the registry's)."""
    from repro.workspace.fingerprint import InputDigests, digest_json

    if graph is None:
        graph = {name: ARTIFACTS[name].deps for name in topological_order()}
    inputs = InputDigests.of_pipeline(pipeline).combined
    fingerprints = {}
    for name, deps in graph.items():
        if name in old:
            schema_version, config = old[name]
        else:
            artifact = ARTIFACTS[name]
            schema_version = artifact.schema_version
            config = {key: getattr(pipeline, key) for key in artifact.config_keys}
        fingerprints[name] = digest_json(
            {
                "artifact": name,
                "schema_version": schema_version,
                "inputs": inputs,
                "config": config,
                "deps": [fingerprints[dep] for dep in deps],
            }
        )
    return fingerprints


def _json_era_graph():
    """The artifact graph of a workspace whose representatives were an
    artifact of their own, which the text-set scores depended on, and
    which had no pattern extractions."""
    graph = {name: ARTIFACTS[name].deps for name in topological_order()}
    del graph["pattern_extractions"]
    graph["representatives"] = ("text_paper_set", "vectors")
    for name in ("scores_text_text", "scores_combined_text"):
        graph[name] = graph.pop(name) + ("representatives",)
    return graph


def _dependents(name):
    """``name`` and every artifact built on it."""
    dependents = {name}
    for other in topological_order():
        if dependents & set(ARTIFACTS[other].deps):
            dependents.add(other)
    return dependents


class TestManifestCheckTool:
    @pytest.fixture()
    def tool(self):
        import importlib.util
        from pathlib import Path

        tools = Path(__file__).resolve().parent.parent / "tools"
        spec = importlib.util.spec_from_file_location(
            "check_workspace_manifest", tools / "check_workspace_manifest.py"
        )
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        return tool

    @pytest.fixture()
    def copy(self, built, data_dir, tmp_path):
        """A copy of the data directory with its built workspace (the
        tool loads the artifacts with a pipeline from the data)."""
        _, workspace, _ = built
        for name in ("corpus.jsonl", "ontology.obo", "training.json"):
            shutil.copy(data_dir / name, tmp_path / name)
        copy = tmp_path / "workspace"
        shutil.copytree(workspace, copy)
        return copy

    def test_leftover_temp_file_fails_the_check(self, tool, copy, capsys):
        manifest = str(copy / "manifest.json")
        assert tool.main(["--manifest", manifest]) == 0
        (copy / ".index.bin.0badf00d.tmp").write_bytes(b"half an index")
        assert tool.main(["--manifest", manifest]) == 1
        assert "leftover temporary file .index.bin.0badf00d.tmp" in (
            capsys.readouterr().out
        )

    def test_unloadable_artifact_fails_the_check(self, tool, copy, capsys):
        manifest = str(copy / "manifest.json")
        raw = (copy / "index.bin").read_bytes()
        (copy / "index.bin").write_bytes(raw[:-1])
        assert tool.main(["--manifest", manifest]) == 1
        out = capsys.readouterr().out
        assert "index: index.bin does not load" in out
        assert "truncated packed index" in out

    def test_build_drops_retired_artifacts(self, tool, copy):
        """A score function that is no longer declared leaves neither a
        manifest entry nor a file behind after the next build."""
        manifest = json.loads((copy / "manifest.json").read_text(encoding="utf-8"))
        for paper_set in ("text", "pattern"):
            entry = dict(manifest["artifacts"][f"scores_citation_{paper_set}"])
            entry["file"] = f"scores_toy_{paper_set}.npz"
            manifest["artifacts"][f"scores_toy_{paper_set}"] = entry
            shutil.copy(
                copy / f"scores_citation_{paper_set}.npz", copy / entry["file"]
            )
        (copy / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        assert (copy / "scores_toy_text.npz").exists()
        assert Pipeline.from_directory(copy.parent).build_workspace(copy).is_noop()
        assert not set(read_manifest(copy)["artifacts"]) - set(ARTIFACTS)
        assert not (copy / "scores_toy_text.npz").exists()
        assert not (copy / "scores_toy_pattern.npz").exists()
        assert tool.main(["--manifest", str(copy / "manifest.json")]) == 0

    def test_missing_data_directory_fails_the_check(
        self, built, tmp_path, tool, capsys
    ):
        _, workspace, _ = built
        copy = tmp_path / "workspace"
        shutil.copytree(workspace, copy)
        assert tool.main(["--manifest", str(copy / "manifest.json")]) == 1
        assert "cannot open the data directory" in capsys.readouterr().out


def _record_analysis(monkeypatch):
    """Every text any :class:`Analyzer` analyses from now on, in order."""
    analysed = []
    analyze = Analyzer.analyze

    def recording(self, text):
        analysed.append(text)
        return analyze(self, text)

    monkeypatch.setattr(Analyzer, "analyze", recording)
    return analysed


def _term_names(ontology):
    """Ontology term names: pattern construction analyses these too."""
    return {ontology.term(term_id).name for term_id in ontology.term_ids()}


class TestIncremental:
    def test_fresh_build_analyses_each_section_once(self, data_dir, monkeypatch):
        """The index, the vector fit and both paper sets read one token
        cache, so a fresh pipeline analyses each (paper, section) text
        exactly once -- for the whole-paper model too."""
        pipeline = Pipeline.from_directory(data_dir)
        analysed = _record_analysis(monkeypatch)
        _ = pipeline.index
        pipeline.vectors.warm()
        for name in ("text", "pattern"):
            pipeline.paper_set(name)

        names = _term_names(pipeline.ontology)
        sections = Counter(
            paper.section_text(section)
            for paper in pipeline.corpus
            for section in TEXT_SECTIONS
        )
        assert Counter(text for text in analysed if text not in names) == Counter(
            {text: n for text, n in sections.items() if text not in names}
        )

    def test_first_delta_after_open_analyses_each_section_at_most_once(
        self, built, data_dir, monkeypatch
    ):
        """The first delta after an open rebuilds the index in memory and
        the pattern paper set, both from one token cache: each surviving
        section is analysed at most once and each of the added paper's
        sections once.  The vector update reads the same cache, so no
        whole-paper text is analysed."""
        pipeline = Pipeline.open_workspace(data_dir)
        store = pipeline.substrates
        corpus = pipeline.corpus
        source = corpus.paper(corpus.paper_ids()[5])
        added = dataclasses.replace(
            source,
            paper_id="ADDED-1",
            title=f"added {source.title}",
            abstract=f"added {source.abstract}",
            body=f"added {source.body}",
            index_terms=source.index_terms + ("added",),
        )
        removed = corpus.paper_ids()[0]
        analysed = _record_analysis(monkeypatch)
        report = store.apply_delta(added_papers=[added], removed_ids=[removed])
        pipeline.prestige("text", "text")
        pipeline.paper_set("pattern")

        assert report.index_rebuilt
        names = _term_names(pipeline.ontology)
        counts = Counter(text for text in analysed if text not in names)
        added_texts = [added.section_text(section) for section in TEXT_SECTIONS]
        assert [counts.pop(text, 0) for text in added_texts] == [1] * len(added_texts)
        survivors = Counter(
            corpus.paper(pid).section_text(section)
            for pid in corpus.paper_ids()
            if pid != added.paper_id
            for section in TEXT_SECTIONS
        )
        assert not counts - survivors

    def test_representatives_equal_a_fresh_pipeline_across_a_delta(
        self, built, data_dir, tmp_path
    ):
        """The representatives a workspace open loads, and those a
        persisted add/remove delta leaves, equal a fresh build's."""
        from repro.corpus.paper import Paper
        from repro.workspace import ingest_delta

        _, workspace, _ = built
        for name in ("corpus.jsonl", "ontology.obo", "training.json"):
            shutil.copy(data_dir / name, tmp_path / name)
        shutil.copytree(workspace, tmp_path / "workspace")
        opened = Pipeline.open_workspace(tmp_path)
        fresh = Pipeline.from_directory(data_dir)
        assert opened.representatives == fresh.representatives
        assert opened.representatives

        corpus = opened.corpus
        source = corpus.paper(corpus.paper_ids()[3])
        added = Paper.from_dict({**source.to_dict(), "paper_id": "ADDED-REP"})
        removed = next(
            iter(opened.representatives.values())
        )  # the delta removes a representative
        ingest_delta(
            opened, tmp_path / "workspace",
            added_papers=[added], removed_ids=[removed],
        )
        write_corpus_jsonl(opened.corpus, tmp_path / "corpus.jsonl")
        fresh = Pipeline.from_directory(tmp_path)
        assert removed not in fresh.representatives.values()
        assert opened.representatives == fresh.representatives
        reopened = Pipeline.open_workspace(tmp_path)
        assert reopened.representatives == fresh.representatives
        assert reopened.text_paper_set.context_ids() == (
            fresh.text_paper_set.context_ids()
        )

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
        report = pipeline.build_workspace(workspace, only=["index"])
        assert report.built == ["index"]
        states = {s.name: s.state for s in workspace_status(pipeline, workspace)}
        assert states["index"] == "fresh"
        assert states["vectors"] == "missing"

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
        (copy / "scores_combined_text.npz").unlink()
        pipeline = Pipeline.from_directory(data_dir)
        statuses = {s.name: s for s in workspace_status(pipeline, copy)}
        assert statuses["scores_combined_text"].state == "missing"
        report = pipeline.build_workspace(copy)
        assert report.built == ["scores_combined_text"]


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
            "scores_text_text",
            "scores_citation_text",
            "scores_combined_text",
        }


class TestCodecs:
    """Round-trips of the typed save/load pairs on the tiny testbed."""

    def test_inverted_index_round_trip(self, tiny_corpus, tmp_path):
        from repro.index import build_index, open_index, save_index

        index = build_index(AnalyzedPaperCache(tiny_corpus))
        save_index(index, tmp_path / "index.bin")
        restored = open_index(tmp_path / "index.bin", tiny_corpus.paper_rows)
        assert restored.vocabulary() == index.vocabulary()
        assert restored.paper_rows is index.paper_rows
        for term in index.vocabulary():
            assert postings(restored, term) == postings(index, term), term
            assert restored.document_frequency(term) == index.document_frequency(
                term
            )
        assert restored.n_papers == index.n_papers

    def test_vector_store_round_trip(self, tiny_corpus, tmp_path):
        from repro.core.io import read_vector_store, write_vector_store
        from repro.core.vectors import PaperVectorStore

        tokens = AnalyzedPaperCache(tiny_corpus)
        vectors = PaperVectorStore(tokens)
        vectors.warm()
        write_vector_store(vectors, tmp_path / "vectors.npz")
        restored = read_vector_store(tmp_path / "vectors.npz", tokens)
        for paper_id in tiny_corpus.paper_ids():
            assert restored.full_vector(paper_id).weights == pytest.approx(
                vectors.full_vector(paper_id).weights
            )

    def test_corrupt_artifact_names_path(self, tmp_path):
        from repro.core.io import read_context_paper_set

        path = tmp_path / "text_paper_set.npz"
        path.write_text("{broken", encoding="utf-8")
        with pytest.raises(ValueError, match="not a context paper set") as excinfo:
            read_context_paper_set(path, None, None)
        assert str(path) in str(excinfo.value)

    def test_mismatched_format_tag_names_both_tags(self, tiny_ontology, tmp_path):
        from reference.prestige import scores_from_maps
        from repro.core.io import read_context_paper_set, write_prestige_scores

        path = tmp_path / "artifact.npz"
        write_prestige_scores(scores_from_maps("text", {"met": {"M1": 1.0}}), path)
        with pytest.raises(ValueError, match="expected format") as excinfo:
            read_context_paper_set(path, tiny_ontology, None)
        assert "repro/context-paper-set/v2" in str(excinfo.value)
        assert "repro/prestige-scores/v2" in str(excinfo.value)
