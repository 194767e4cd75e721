"""Incremental corpus updates: delta semantics, caches, and generations.

Covers the delta-aware build layer end to end:

- ``Pipeline.add_papers`` / ``remove_papers`` mutate the substrates and
  invalidate the serving caches (LRU result cache + engine memo) by
  revision bump -- no stale hits survive a delta;
- a no-op delta bumps nothing;
- invalid deltas raise before any mutation;
- a freshly built index mutates in place; the read-only packed index
  reopened from a workspace is rebuilt in memory on the first delta;
- the first delta after a workspace open seeds the pattern memo from
  the persisted extractions and re-extracts only the touched contexts;
- workspace generations: manifest lineage fields, archives, chain
  validation, and the :func:`repro.workspace.ingest_delta` flow;
- ``POST /admin/ingest`` on the search service.
"""

import dataclasses
import json
import random

import pytest

from repro.citations.graph import CitationGraph
from repro.corpus.corpus import Corpus, CorpusError
from repro.corpus.paper import Paper
from repro.obs import get_registry, reset_registry
from repro.pipeline import Pipeline, build_demo_pipeline
from repro.workspace import ingest_delta


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

    def test_held_citation_graph_is_a_snapshot(self, pipeline):
        """A delta never mutates a built graph: the one read before a
        replace keeps its nodes and edges, and the next read derives the
        final corpus's graph, in the same node and edge order."""
        held = pipeline.citation_graph
        nodes, edges = held.nodes(), list(held.edges())
        papers = list(pipeline.corpus)
        victim = papers[5]
        others = [p.paper_id for p in papers if p.paper_id != victim.paper_id]
        replacement = dataclasses.replace(victim, references=tuple(others[10:14]))
        assert set(replacement.references) != set(held.out_neighbors(victim.paper_id))
        pipeline.substrates.apply_delta(
            added_papers=[replacement], removed_ids=[victim.paper_id]
        )
        assert held.nodes() == nodes
        assert list(held.edges()) == edges
        graph = pipeline.citation_graph
        expected = CitationGraph.from_corpus(pipeline.corpus)
        assert graph is not held
        assert graph.nodes() == expected.nodes()
        assert list(graph.edges()) == list(expected.edges())
        assert graph.out_neighbors(victim.paper_id) == list(replacement.references)

    def test_replaced_references_rescore_every_context_holding_the_paper(
        self, pipeline
    ):
        """Same id, same context membership, new references: the contexts
        holding the paper count as changed, so the patched citation scores
        (and ``combined``, which blends them) equal a scratch build's."""
        arms = (("citation", "text"), ("text", "text"), ("combined", "text"))
        for function, paper_set in arms:
            pipeline.prestige(function, paper_set)
        papers = list(pipeline.corpus)
        victim = papers[5]
        others = [p.paper_id for p in papers if p.paper_id != victim.paper_id]
        replacement = dataclasses.replace(victim, references=tuple(others[10:14]))
        report = pipeline.substrates.apply_delta(
            added_papers=[replacement], removed_ids=[victim.paper_id]
        )
        holding = [
            c.term_id for c in pipeline.text_paper_set if victim.paper_id in c.paper_ids
        ]
        assert holding and set(holding) <= set(report.changed_contexts["text"])
        assert "citation/text" in report.scores_patched
        scratch = Pipeline(
            Corpus(list(pipeline.corpus)),
            pipeline.ontology,
            pipeline.training_papers,
        )
        for function, paper_set in arms:
            ours = pipeline.prestige(function, paper_set)
            theirs = scratch.prestige(function, paper_set)
            assert [ours.of(cid) for cid in theirs.context_ids()] == [
                theirs.of(cid) for cid in theirs.context_ids()
            ], function


def _extraction_counts():
    registry = get_registry()
    return (
        registry.counter("patterns.extraction.computed").value,
        registry.counter("patterns.extraction.reused").value,
    )


class TestPatternExtractionScoping:
    """A delta re-extracts only the contexts whose training papers it touched."""

    def test_two_paper_delta_reextracts_exactly_the_touched_contexts(
        self, pipeline
    ):
        store = pipeline.substrates
        _ = store.pattern_paper_set
        extractions = store.pattern_assigner.pattern_builder.memo.extractions
        n_contexts = len(pipeline.ontology.term_ids())
        assert _extraction_counts() == (n_contexts, 0)
        before = {tid: record for tid, (_, record) in extractions.items()}
        training_ids = [
            pid for tid in sorted(extractions) for pid in extractions[tid][0]
        ]
        touched = {training_ids[0], training_ids[-1]}
        expected = {
            tid for tid, (ids, _) in extractions.items() if touched & set(ids)
        }
        assert 0 < len(expected) < n_contexts
        replacements = [
            dataclasses.replace(
                pipeline.corpus.paper(pid), title="revised " + pid
            )
            for pid in sorted(touched)
        ]
        store.apply_delta(added_papers=replacements, removed_ids=sorted(touched))
        _ = store.pattern_paper_set
        computed, reused = _extraction_counts()
        assert (computed - n_contexts, reused) == (
            len(expected),
            n_contexts - len(expected),
        )
        assert store.pattern_assigner.pattern_builder.memo.extractions is extractions
        fresh = {
            tid for tid, (_, record) in extractions.items() if record is not before[tid]
        }
        assert fresh == expected

    def test_cache_holds_one_record_per_context_across_deltas(self, pipeline):
        store = pipeline.substrates
        _ = store.pattern_paper_set
        term_ids = set(pipeline.ontology.term_ids())
        rng = random.Random(4)
        removed = []
        for _step in range(20):
            gone = rng.sample(pipeline.corpus.paper_ids(), 1)
            readd, removed = removed, [pipeline.corpus.paper(pid) for pid in gone]
            store.apply_delta(added_papers=readd, removed_ids=gone)
            _ = store.pattern_paper_set
            extractions = store.pattern_assigner.pattern_builder.memo.extractions
            assert set(extractions) <= term_ids
        assert sum(record.nbytes for _, record in extractions.values()) > 0


def _reopen(pipeline, workspace_dir):
    """A fresh pipeline over a copy of ``pipeline``'s inputs, hydrated
    from the workspace built at ``workspace_dir``."""
    from repro.workspace import open_workspace

    reopened = Pipeline(
        Corpus(list(pipeline.corpus)), pipeline.ontology, pipeline.training_papers
    )
    open_workspace(reopened, workspace_dir)
    return reopened


def _pattern_state(pipeline):
    """The pattern paper set and both pattern-set arms' scores, by value."""
    contexts = [
        (c.term_id, c.paper_ids, c.training_paper_ids, c.inherited_from, c.decay)
        for c in pipeline.pattern_paper_set
    ]
    scores = {}
    for function in ("pattern", "citation"):
        table = pipeline.prestige(function, "pattern")
        scores[function] = {cid: table.of(cid) for cid in table.context_ids()}
    return contexts, scores


class TestReopenedWorkspaceDelta:
    """The first delta after a workspace open reuses the persisted
    pattern extractions: it re-extracts only the contexts whose training
    papers it touched, and ends where a scratch build of the final
    corpus does."""

    @pytest.fixture()
    def built(self, pipeline, tmp_path):
        """The built pipeline, its workspace, and each context's training
        ids (those with any); counters restart after the build."""
        pipeline.build_workspace(tmp_path)
        training = {
            term_id: ids
            for term_id, (ids, _) in pipeline.substrates.pattern_extractions.items()
            if ids
        }
        reset_registry()
        return pipeline, tmp_path, training

    @staticmethod
    def _touching(training, paper_ids):
        return {tid for tid, ids in training.items() if set(ids) & set(paper_ids)}

    def _check_first_delta(self, pipeline, workspace, training, added, removed):
        reopened = _reopen(pipeline, workspace)
        report, _ = ingest_delta(
            reopened, workspace, added_papers=added, removed_ids=removed
        )
        expected = self._touching(training, set(report.added) | set(report.removed))
        n_contexts = len(reopened.ontology.term_ids())
        assert get_registry().counter("patterns.extraction.loaded").value == n_contexts
        assert _extraction_counts() == (len(expected), n_contexts - len(expected))
        scratch = Pipeline(
            Corpus(list(reopened.corpus)), reopened.ontology, reopened.training_papers
        )
        assert _pattern_state(reopened) == _pattern_state(scratch)
        return reopened, scratch, expected

    def test_delta_touching_no_training_paper_extracts_nothing(self, built):
        pipeline, workspace, training = built
        trained = {pid for ids in training.values() for pid in ids}
        victim = next(pid for pid in pipeline.corpus.paper_ids() if pid not in trained)
        _, _, expected = self._check_first_delta(
            pipeline, workspace, training, [], [victim]
        )
        assert expected == set()

    def test_removing_a_training_paper_extracts_its_contexts(self, built):
        pipeline, workspace, training = built
        victim = training[min(training)][0]
        _, _, expected = self._check_first_delta(
            pipeline, workspace, training, [], [victim]
        )
        assert expected

    def test_training_paper_replaced_in_place_is_reextracted(self, built, tmp_path):
        """Same id, new text: the seeded records of its contexts describe
        the old text, so the delta drops and re-mines them, and the
        generation's extractions file is the bytes a fresh build writes."""
        from repro.workspace import ARTIFACTS

        pipeline, workspace, training = built
        victim = pipeline.corpus.paper(training[max(training)][-1])
        replacement = dataclasses.replace(
            victim,
            title=f"{victim.abstract} {victim.title}",
            body=f"{victim.body} {victim.title}",
        )
        reopened, scratch, expected = self._check_first_delta(
            pipeline, workspace, training, [replacement], [victim.paper_id]
        )
        assert expected
        extractions = reopened.substrates.pattern_extractions
        assert all(
            extractions[tid][1] is not old
            for tid, (_, old) in pipeline.substrates.pattern_extractions.items()
            if tid in expected
        )
        fresh = tmp_path / "fresh"
        scratch.build_workspace(fresh)
        name = ARTIFACTS["pattern_extractions"].filename
        assert (workspace / name).read_bytes() == (fresh / name).read_bytes()

    def test_seeding_happens_once_and_keeps_live_records(self, built):
        """The open reads no records; the first pattern build seeds the
        memo and later builds and deltas do not seed it again."""
        pipeline, workspace, training = built
        reopened = _reopen(pipeline, workspace)
        store = reopened.substrates
        assert not store._pattern_memo.extractions
        _ = store.pattern_assigner
        registry = get_registry()
        n_contexts = len(reopened.ontology.term_ids())
        assert registry.counter("patterns.extraction.loaded").value == n_contexts
        assert registry.counter("patterns.extraction.computed").value == 0
        victim = training[min(training)][0]
        store.apply_delta(removed_ids=[victim])
        _ = store.pattern_paper_set
        assert registry.counter("patterns.extraction.loaded").value == n_contexts
        assert registry.counter("patterns.extraction.computed").value == len(
            self._touching(training, [victim])
        )

    def test_file_replaced_after_open_is_not_seeded(self, built, tmp_path):
        """A file rewritten after the open (another process's delta)
        describes another corpus: the delta mines cold instead."""
        pipeline, workspace, _ = built
        reopened = _reopen(pipeline, workspace)
        from repro.workspace import ARTIFACTS

        path = workspace / ARTIFACTS["pattern_extractions"].filename
        copy = tmp_path / "copy.npz"
        copy.write_bytes(path.read_bytes())
        copy.replace(path)
        reopened.substrates.apply_delta(removed_ids=[reopened.corpus.paper_ids()[0]])
        _ = reopened.pattern_paper_set
        registry = get_registry()
        assert registry.counter("patterns.extraction.loaded").value == 0
        assert registry.counter("patterns.extraction.computed").value == len(
            reopened.ontology.term_ids()
        )


class TestIndexRebuild:
    """The index is immutable: every delta builds a new one from the
    token cache, equal to a fresh build of the changed corpus."""

    def test_built_index_is_rebuilt_by_every_delta(self, pipeline):
        papers = list(pipeline.corpus)
        index_before = pipeline.index
        report = pipeline.add_papers([_new_paper("PDELTA30", papers[0].paper_id)])
        assert report.index_rebuilt
        assert pipeline.index is not index_before
        assert pipeline.index.n_papers == len(pipeline.corpus)
        assert index_before.n_papers == len(pipeline.corpus) - 1

    def test_opened_index_is_rebuilt_like_a_fresh_build(self, tmp_path):
        """The index opened from a workspace and the built index that
        replaces it are both rebuilt, each time to a fresh build's bytes."""
        from repro.index import build_index, open_index, save_index
        from repro.text.analyze import AnalyzedPaperCache
        from repro.workspace import ARTIFACTS

        pipeline = build_demo_pipeline(seed=11, n_papers=40, n_terms=10)
        papers = list(pipeline.corpus)
        pipeline.build_workspace(tmp_path, only=["index"])
        loaded = open_index(
            tmp_path / ARTIFACTS["index"].filename, pipeline.corpus.paper_rows
        )
        try:
            pipeline.substrates.install_index(loaded)
            previous = loaded
            deltas = (
                ([_new_paper("PDELTA31", papers[0].paper_id)], [papers[2].paper_id]),
                ([_new_paper("PDELTA32", papers[1].paper_id)], []),
            )
            for added, removed in deltas:
                report = pipeline.substrates.apply_delta(added, removed)
                assert report.index_rebuilt
                assert pipeline.index is not previous
                previous = pipeline.index
                fresh = build_index(AnalyzedPaperCache(Corpus(list(pipeline.corpus))))
                save_index(pipeline.index, tmp_path / "delta.bin")
                save_index(fresh, tmp_path / "fresh.bin")
                assert (tmp_path / "delta.bin").read_bytes() == (
                    tmp_path / "fresh.bin"
                ).read_bytes()
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

    def test_in_process_generations_equal_a_fresh_build(
        self, built, tmp_path_factory
    ):
        """Deltas applied one after another in the process that opened
        the workspace, each removing the corpus's first paper: every
        generation's ``index.bin`` is a fresh build's bytes for its
        corpus, whatever index the delta started from."""
        from repro.workspace import ARTIFACTS, ingest_delta, open_workspace

        _, workspace = built
        opened = build_demo_pipeline(seed=11, n_papers=50, n_terms=10)
        open_workspace(opened, workspace)
        filename = ARTIFACTS["index"].filename
        for generation in (1, 2, 3):
            ingest_delta(opened, workspace, removed_ids=[opened.corpus.paper_ids()[0]])
            fresh = Pipeline(
                Corpus(list(opened.corpus)), opened.ontology, opened.training_papers
            )
            fresh_dir = tmp_path_factory.mktemp(f"fresh-{generation}")
            fresh.build_workspace(fresh_dir, only=["index"])
            assert (workspace / filename).read_bytes() == (
                fresh_dir / filename
            ).read_bytes(), generation

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
        # The pattern arms rebuild from a token cache derived on demand
        # (a workspace persists none) and rank like a scratch build.
        scratch = Pipeline(
            corpus=_copy_corpus(fresh.corpus),
            ontology=pipeline.ontology,
            training_papers=pipeline.training_papers,
        )

        def ranking(target, function, query):
            hits = target.search(
                query, function=function, paper_set_name="pattern",
                limit=10, use_cache=False,
            )
            return [(hit.paper_id, hit.context_id, hit.relevancy) for hit in hits]

        for function in ("pattern", "citation"):
            for query in (paper.title for paper in papers[:3]):
                got = ranking(fresh, function, query)
                assert got == ranking(scratch, function, query), (function, query)
                assert got, (function, query)


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
