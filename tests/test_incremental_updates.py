"""Incremental corpus updates: delta semantics, caches, and generations.

Covers the delta-aware build layer end to end:

- ``Pipeline.add_papers`` / ``remove_papers`` mutate the substrates and
  invalidate the serving caches (LRU result cache + engine memo) by
  revision bump -- no stale hits survive a delta;
- a no-op delta bumps nothing;
- invalid deltas raise before any mutation;
- a freshly built index mutates in place; the read-only packed index
  reopened from a workspace is rebuilt in memory on the first delta;
- workspace generations: manifest lineage fields, archives, chain
  validation, and the :func:`repro.workspace.ingest_delta` flow;
- ``POST /admin/ingest`` on the search service.
"""

import json

import pytest

from repro.corpus.corpus import Corpus, CorpusError
from repro.corpus.paper import Paper
from repro.pipeline import Pipeline, build_demo_pipeline


@pytest.fixture()
def pipeline():
    return build_demo_pipeline(seed=11, n_papers=60, n_terms=12)


def _new_paper(pid: str, reference: str) -> Paper:
    return Paper(
        paper_id=pid,
        title="fresh study of context based literature search",
        abstract="ranking functions for biomedical search engines",
        body="the corpus gains a new publication citing prior work",
        references=(reference,),
    )


class TestDeltaCacheInvalidation:
    def test_add_papers_invalidates_result_cache_and_engine_memo(self, pipeline):
        papers = list(pipeline.corpus)
        query = papers[0].title.split()[0]
        before_view = pipeline.serving_view
        first = pipeline.search(query, function="citation", limit=5)
        again = pipeline.search(query, function="citation", limit=5)
        assert [h.paper_id for h in first] == [h.paper_id for h in again]
        assert pipeline.serving_view.result_cache.hit_rate > 0.0  # repeat hit the LRU

        report = pipeline.add_papers([_new_paper("PDELTA01", papers[0].paper_id)])
        assert report.added == ("PDELTA01",)
        # The next search must come from a *new* serving view: fresh
        # result cache, fresh engine memo -- nothing borrowed from the
        # pre-delta snapshot can answer post-delta queries.
        pipeline.search(query, function="citation", limit=5)
        after_view = pipeline.serving_view
        assert after_view is not before_view
        assert after_view.revision > before_view.revision
        assert after_view.result_cache.hit_rate in (None, 0.0)
        assert after_view.engine_count() >= 1  # rebuilt, not carried over

    def test_removed_paper_disappears_from_results(self, pipeline):
        papers = list(pipeline.corpus)
        query = papers[0].title
        hits = pipeline.search(query, function="citation", limit=10)
        assert any(h.paper_id == papers[0].paper_id for h in hits)
        pipeline.remove_papers([papers[0].paper_id])
        hits_after = pipeline.search(query, function="citation", limit=10)
        assert all(h.paper_id != papers[0].paper_id for h in hits_after)

    def test_added_paper_becomes_searchable(self, pipeline):
        papers = list(pipeline.corpus)
        added = Paper(
            paper_id="PDELTA02",
            title="zyzzyvafold quantification methodology",
            abstract="a term no generated paper contains: zyzzyvafold",
            references=(papers[0].paper_id,),
        )
        assert not pipeline.keyword_engine.search("zyzzyvafold")
        pipeline.add_papers([added])
        keyword_hits = pipeline.keyword_engine.search("zyzzyvafold")
        assert [h.paper_id for h in keyword_hits] == ["PDELTA02"]


class TestDeltaSemantics:
    def test_noop_delta_bumps_nothing(self, pipeline):
        view = pipeline.serving_view
        revision = pipeline.substrates.revision
        report = pipeline.substrates.apply_delta()
        assert report.is_noop
        assert report.revision == revision
        assert pipeline.substrates.revision == revision
        assert pipeline.serving_view is view

    def test_single_revision_bump_per_delta(self, pipeline):
        papers = list(pipeline.corpus)
        revision = pipeline.substrates.revision
        pipeline.substrates.apply_delta(
            added_papers=[
                _new_paper("PDELTA10", papers[0].paper_id),
                _new_paper("PDELTA11", papers[1].paper_id),
            ],
            removed_ids=[papers[2].paper_id],
        )
        assert pipeline.substrates.revision == revision + 1

    def test_invalid_delta_leaves_store_untouched(self, pipeline):
        papers = list(pipeline.corpus)
        revision = pipeline.substrates.revision
        n_before = len(pipeline.corpus)
        with pytest.raises(CorpusError):
            pipeline.substrates.apply_delta(
                added_papers=[_new_paper("PDELTA20", papers[0].paper_id)],
                removed_ids=["NOT-A-PAPER"],
            )
        with pytest.raises(CorpusError):
            pipeline.add_papers([_new_paper(papers[0].paper_id, papers[1].paper_id)])
        assert pipeline.substrates.revision == revision
        assert len(pipeline.corpus) == n_before
        assert "PDELTA20" not in pipeline.corpus

    def test_replace_paper_in_one_delta(self, pipeline):
        papers = list(pipeline.corpus)
        replacement = Paper(
            paper_id=papers[0].paper_id,
            title="revised edition " + papers[0].title,
            abstract=papers[0].abstract,
            references=papers[0].references,
        )
        report = pipeline.substrates.apply_delta(
            added_papers=[replacement], removed_ids=[papers[0].paper_id]
        )
        assert report.added == (papers[0].paper_id,)
        assert report.removed == (papers[0].paper_id,)
        assert pipeline.corpus.paper(papers[0].paper_id).title.startswith(
            "revised edition"
        )


class TestIndexMutationCapability:
    def test_memory_backend_mutates_in_place(self, pipeline):
        papers = list(pipeline.corpus)
        index_before = pipeline.index
        assert index_before.supports_mutation
        report = pipeline.add_papers([_new_paper("PDELTA30", papers[0].paper_id)])
        assert not report.index_rebuilt
        assert pipeline.index is index_before
        assert pipeline.index.n_papers == len(pipeline.corpus)

    def test_readonly_backend_takes_rebuild_fallback(self, tmp_path):
        """The mmap-backed packed index reopened from a workspace cannot
        mutate in place: the first delta rebuilds it in memory, and the
        next one mutates the rebuilt index in place."""
        from repro.index import open_index
        from repro.workspace import ARTIFACTS

        pipeline = build_demo_pipeline(seed=11, n_papers=40, n_terms=10)
        papers = list(pipeline.corpus)
        pipeline.build_workspace(tmp_path, only=["index"])
        loaded = open_index(tmp_path / ARTIFACTS["index"].filename)
        try:
            assert not loaded.supports_mutation
            pipeline.substrates.install_index(loaded)
            report = pipeline.add_papers(
                [_new_paper("PDELTA31", papers[0].paper_id)]
            )
            assert report.index_rebuilt
            assert pipeline.index is not loaded
            assert pipeline.index.n_papers == len(pipeline.corpus)
            rebuilt = pipeline.index
            report = pipeline.add_papers(
                [_new_paper("PDELTA32", papers[1].paper_id)]
            )
            assert not report.index_rebuilt
            assert pipeline.index is rebuilt
        finally:
            loaded.close()


class TestManifestGenerations:
    def _entries(self):
        return {}

    def test_legacy_manifest_reads_as_generation_zero(self, tmp_path):
        from repro.workspace.manifest import read_manifest, MANIFEST_FORMAT

        legacy = {
            "format": MANIFEST_FORMAT,
            "inputs": {"corpus": "a", "ontology": "b", "training": "c"},
            "artifacts": {},
        }
        (tmp_path / "manifest.json").write_text(json.dumps(legacy))
        payload = read_manifest(tmp_path)
        assert payload.get("generation", 0) == 0
        assert payload.get("parent") is None

    @pytest.mark.parametrize(
        "patch",
        [
            {"generation": -1},
            {"generation": 2},  # generation > 0 without a parent
            {"generation": 0, "parent": "abc"},
            {"generation": 1, "parent": "abc", "delta": {"added": []}},
            {"generation": 1, "parent": "abc", "delta": {"added": [1], "removed": []}},
        ],
    )
    def test_bad_lineage_fields_rejected(self, patch):
        from repro.workspace.manifest import (
            MANIFEST_FORMAT,
            validate_manifest_payload,
        )

        payload = {
            "format": MANIFEST_FORMAT,
            "inputs": {"corpus": "a", "ontology": "b", "training": "c"},
            "artifacts": {},
        }
        payload.update(patch)
        with pytest.raises(ValueError):
            validate_manifest_payload(payload)

    def test_broken_chain_is_detected(self, tmp_path):
        from repro.workspace.manifest import (
            MANIFEST_FORMAT,
            generation_archive_name,
            read_generation_chain,
        )

        inputs = {"corpus": "a", "ontology": "b", "training": "c"}
        parent = {
            "format": MANIFEST_FORMAT,
            "generation": 0,
            "parent": None,
            "inputs": inputs,
            "artifacts": {},
        }
        child = {
            "format": MANIFEST_FORMAT,
            "generation": 1,
            "parent": "0" * 64,  # does not match the archived parent
            "inputs": inputs,
            "artifacts": {},
            "delta": {"added": ["P1"], "removed": []},
        }
        (tmp_path / generation_archive_name(0)).write_text(json.dumps(parent))
        (tmp_path / "manifest.json").write_text(json.dumps(child))
        with pytest.raises(ValueError, match="fingerprint"):
            read_generation_chain(tmp_path)


class TestWorkspaceIngestDelta:
    @pytest.fixture()
    def built(self, tmp_path):
        pipeline = build_demo_pipeline(seed=11, n_papers=50, n_terms=10)
        pipeline.build_workspace(tmp_path)
        return pipeline, tmp_path

    def test_ingest_creates_chained_generation(self, built):
        from repro.workspace import ingest_delta
        from repro.workspace.manifest import (
            generation_archive_name,
            manifest_fingerprint,
            read_generation_chain,
            read_manifest,
        )

        pipeline, workspace = built
        parent_payload = read_manifest(workspace)
        parent_fingerprint = manifest_fingerprint(parent_payload)
        papers = list(pipeline.corpus)
        report, build_report = ingest_delta(
            pipeline,
            workspace,
            added_papers=[_new_paper("PGEN01", papers[0].paper_id)],
            removed_ids=[papers[1].paper_id],
        )
        assert not report.is_noop
        assert build_report is not None
        manifest = read_manifest(workspace)
        assert manifest["generation"] == 1
        assert manifest["parent"] == parent_fingerprint
        assert manifest["delta"] == {
            "added": ["PGEN01"],
            "removed": [papers[1].paper_id],
        }
        archived = workspace / generation_archive_name(0)
        assert archived.exists()
        chain = read_generation_chain(workspace)
        assert [int(p["generation"]) for p in chain] == [1, 0]

    def test_noop_ingest_archives_nothing(self, built):
        from repro.workspace import ingest_delta
        from repro.workspace.manifest import generation_archive_name, read_manifest

        pipeline, workspace = built
        before = read_manifest(workspace)
        report, build_report = ingest_delta(pipeline, workspace)
        assert report.is_noop
        assert build_report is None
        assert read_manifest(workspace) == before
        assert not (workspace / generation_archive_name(0)).exists()

    def test_ingest_requires_built_workspace(self, tmp_path):
        from repro.workspace import StaleWorkspaceError, ingest_delta

        pipeline = build_demo_pipeline(seed=11, n_papers=30, n_terms=8)
        with pytest.raises(StaleWorkspaceError):
            ingest_delta(pipeline, tmp_path / "empty")

    def test_reopened_workspace_scores_keep_patchability(self, built):
        """Score artifacts persist pre-propagation maps, so a hydrated
        pipeline still takes the per-context patch path on delta."""
        from repro.workspace import open_workspace

        pipeline, workspace = built
        fresh = Pipeline(
            corpus=_copy_corpus(pipeline.corpus),
            ontology=pipeline.ontology,
            training_papers=pipeline.training_papers,
        )
        open_workspace(fresh, workspace)
        papers = list(fresh.corpus)
        report = fresh.add_papers([_new_paper("PGEN02", papers[0].paper_id)])
        assert "citation/text" in report.scores_patched


def _copy_corpus(corpus: Corpus) -> Corpus:
    copy = Corpus()
    for paper in corpus:
        copy.add(paper)
    return copy


class TestHttpIngest:
    @pytest.fixture()
    def service(self, pipeline):
        from repro.serving.service import SearchService

        svc = SearchService(pipeline, port=0)
        try:
            yield svc
        finally:
            svc.stop()

    def test_ingest_applies_delta_and_swaps_view(self, pipeline, service):
        papers = list(pipeline.corpus)
        new_paper = _new_paper("PHTTP01", papers[0].paper_id)
        body = json.dumps({"add": [new_paper.to_dict()], "remove": []})
        response = service.dispatch("POST", "/admin/ingest", {}, body)
        assert response.status == 200
        payload = json.loads(response.body)
        assert payload["status"] == "ingested"
        assert payload["report"]["added"] == ["PHTTP01"]
        assert "PHTTP01" in pipeline.corpus
        assert pipeline.serving_view.revision == payload["view_revision"]

    def test_ingest_noop_and_errors(self, service):
        noop = service.dispatch(
            "POST", "/admin/ingest", {}, json.dumps({"add": [], "remove": []})
        )
        assert json.loads(noop.body)["status"] == "noop"
        assert service.dispatch("POST", "/admin/ingest", {}, None).status == 400
        assert service.dispatch("POST", "/admin/ingest", {}, "not json").status == 400
        assert (
            service.dispatch(
                "POST", "/admin/ingest", {}, json.dumps({"nope": 1})
            ).status
            == 400
        )
        unknown = service.dispatch(
            "POST", "/admin/ingest", {}, json.dumps({"remove": ["ZZMISSING"]})
        )
        assert unknown.status == 400

    @pytest.mark.parametrize(
        "bad",
        [
            {"index_terms": [1]},
            {"index_terms": "abc"},
            {"title": ["a"]},
            {"year": "2001"},
        ],
        ids=["int-index-term", "string-index-terms", "list-title", "string-year"],
    )
    def test_malformed_paper_is_400_and_changes_nothing(
        self, pipeline, service, bad
    ):
        good = {"paper_id": "NEW2", "title": "dna repair", "index_terms": ["dna"]}
        corpus_ids = [paper.paper_id for paper in pipeline.corpus]
        revision = pipeline.serving_view.revision
        response = service.dispatch(
            "POST", "/admin/ingest", {}, json.dumps({"add": [{**good, **bad}]})
        )
        assert response.status == 400
        assert "bad paper in 'add'" in json.loads(response.body)["error"]
        assert [paper.paper_id for paper in pipeline.corpus] == corpus_ids
        assert pipeline.serving_view.revision == revision
        # Nothing was half-applied, so the corrected paper goes through.
        retry = service.dispatch(
            "POST", "/admin/ingest", {}, json.dumps({"add": [good]})
        )
        assert retry.status == 200
        assert "NEW2" in pipeline.corpus


def test_cli_ingest_delta_names_the_malformed_line(tmp_path, capsys):
    from repro.cli import main

    delta = tmp_path / "delta.jsonl"
    delta.write_text(
        json.dumps({"paper_id": "NEW1", "title": "dna repair"})
        + "\n"
        + json.dumps({"paper_id": "NEW2", "title": "dna repair", "index_terms": [1]})
        + "\n",
        encoding="utf-8",
    )
    code = main(["ingest-delta", "--data", str(tmp_path), "--add", str(delta)])
    assert code == 1
    error = capsys.readouterr().err
    assert f"{delta}:2:" in error
    assert "index_terms" in error
