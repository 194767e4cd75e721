"""Integration tests for the end-to-end pipeline."""

import json

import pytest

from repro.cli import main
from repro.pipeline import Pipeline, build_demo_pipeline


@pytest.fixture(scope="module")
def pipeline(small_dataset):
    return Pipeline.from_dataset(small_dataset, min_context_size=3)


class TestArtifacts:
    def test_index_covers_corpus(self, pipeline):
        assert pipeline.index.n_papers == len(pipeline.corpus)

    def test_text_paper_set_built(self, pipeline):
        paper_set = pipeline.text_paper_set
        assert len(paper_set) > 0
        for context in paper_set:
            assert context.training_paper_ids

    def test_pattern_paper_set_built(self, pipeline):
        paper_set = pipeline.pattern_paper_set
        assert len(paper_set) > 0

    def test_representatives_are_training_papers(self, pipeline):
        for term_id, rep in pipeline.representatives.items():
            context = pipeline.text_paper_set.context(term_id)
            assert rep in context.training_paper_ids

    def test_artifacts_memoised(self, pipeline):
        assert pipeline.text_paper_set is pipeline.text_paper_set
        assert pipeline.index is pipeline.index
        assert pipeline.prestige("text", "text") is pipeline.prestige("text", "text")

    def test_unknown_prestige_function_rejected(self, pipeline):
        with pytest.raises(ValueError, match="unknown prestige"):
            pipeline.prestige("bogus")


class TestTextSimilarityThreshold:
    @pytest.mark.parametrize("threshold", [float("nan"), 0.0, -0.1, 1.5, float("inf")])
    def test_out_of_range_rejected(self, small_dataset, threshold):
        with pytest.raises(ValueError, match=r"threshold must be in \(0, 1\]"):
            Pipeline.from_dataset(small_dataset, text_similarity_threshold=threshold)

    def test_unit_threshold_keeps_training_papers(self, small_dataset):
        pipeline = Pipeline.from_dataset(small_dataset, text_similarity_threshold=1.0)
        for context in pipeline.text_paper_set:
            representative = pipeline.representatives[context.term_id]
            assert set(context.paper_ids) >= set(context.training_paper_ids)
            assert representative in context.paper_ids


class TestPrestigeScores:
    @pytest.mark.parametrize("function", ["citation", "text", "pattern"])
    def test_scores_in_unit_interval(self, pipeline, function):
        paper_set_name = "pattern" if function == "pattern" else "text"
        scores = pipeline.prestige(function, paper_set_name)
        assert len(scores) > 0
        for context_id in scores.context_ids():
            for value in scores.of(context_id).values():
                assert 0.0 <= value <= 1.0

    def test_scores_cover_context_papers(self, pipeline):
        scores = pipeline.prestige("text", "text")
        for context in pipeline.text_paper_set:
            if context.term_id in scores:
                context_scores = scores.of(context.term_id)
                for paper_id in context.paper_ids:
                    assert paper_id in context_scores


class TestSearch:
    def test_search_returns_hits_for_topical_query(self, pipeline, small_dataset):
        # Build a query from a mid-level term's jargon: guaranteed topical.
        ontology = small_dataset.ontology
        term_id = next(
            tid
            for tid in ontology.term_ids()
            if ontology.level(tid) >= 2
            and small_dataset.training_papers.get(tid)
        )
        jargon = small_dataset.topics.jargon_of(term_id)
        query = " ".join(jargon[:2])
        hits = pipeline.search(query, limit=10)
        assert hits, f"no hits for {query!r}"
        for hit in hits:
            assert 0.0 <= hit.relevancy <= 1.0

    def test_experiment_paper_set_filters(self, pipeline):
        full = pipeline.text_paper_set
        view = pipeline.experiment_paper_set("text")
        assert len(view) <= len(full)
        for context in view:
            assert context.size >= 3


class TestBuildDemoPipeline:
    def test_deterministic(self):
        a = build_demo_pipeline(seed=4, n_papers=80, n_terms=25)
        b = build_demo_pipeline(seed=4, n_papers=80, n_terms=25)
        assert [p.paper_id for p in a.corpus] == [p.paper_id for p in b.corpus]
        assert a.corpus.paper("P000010") == b.corpus.paper("P000010")

    def test_search_smoke(self):
        pipeline = build_demo_pipeline(seed=4, n_papers=80, n_terms=25)
        # Whatever the query, the call path must not blow up.
        pipeline.search("binding activity", limit=5)


class TestFromDirectory:
    """Failure paths of the standard data-directory layout."""

    def _write_valid(self, directory, dataset):
        from repro.corpus import write_corpus_jsonl
        from repro.ontology import write_obo

        write_corpus_jsonl(dataset.corpus, directory / "corpus.jsonl")
        write_obo(dataset.ontology, directory / "ontology.obo")
        with open(directory / "training.json", "w", encoding="utf-8") as handle:
            json.dump(dataset.training_papers, handle)

    @pytest.mark.parametrize(
        "missing", ["corpus.jsonl", "ontology.obo", "training.json"]
    )
    def test_missing_file_named_in_error(self, small_dataset, tmp_path, missing):
        self._write_valid(tmp_path, small_dataset)
        (tmp_path / missing).unlink()
        with pytest.raises(FileNotFoundError, match=missing):
            Pipeline.from_directory(tmp_path)

    def test_corrupt_training_json_names_path(self, small_dataset, tmp_path):
        self._write_valid(tmp_path, small_dataset)
        (tmp_path / "training.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="corrupt JSON") as excinfo:
            Pipeline.from_directory(tmp_path)
        assert str(tmp_path / "training.json") in str(excinfo.value)

    @pytest.mark.parametrize(
        "training, named",
        [
            (["P000004"], "found a JSON list"),
            ({"T1": "P000004"}, "entry 'T1'"),
            ({"T1": ["P000004", 4]}, "entry 'T1'"),
        ],
        ids=["list", "string-value", "non-string-id"],
    )
    def test_malformed_training_map_names_path_and_key(
        self, small_dataset, tmp_path, training, named
    ):
        self._write_valid(tmp_path, small_dataset)
        (tmp_path / "training.json").write_text(json.dumps(training), encoding="utf-8")
        with pytest.raises(ValueError, match=named) as excinfo:
            Pipeline.from_directory(tmp_path)
        assert str(tmp_path / "training.json") in str(excinfo.value)
        with pytest.raises(SystemExit, match=f"error: .*training.json.*{named}"):
            main(["search", "--data", str(tmp_path), "--query", "x"])

    def test_round_trip_matches_in_memory(self, small_dataset, tmp_path):
        self._write_valid(tmp_path, small_dataset)
        loaded = Pipeline.from_directory(tmp_path)
        assert loaded.corpus.paper_ids() == small_dataset.corpus.paper_ids()
        assert len(loaded.ontology) == len(small_dataset.ontology)
        assert loaded.training_papers == {
            k: list(v) for k, v in small_dataset.training_papers.items()
        }


class TestWorkspaceScoreArtifacts:
    def test_function_name_with_underscore(self, small_dataset, tmp_path):
        """scores_<function>_<set> where <function> itself contains an
        underscore hydrates under the ``<function>/<set>`` score key."""
        from repro.workspace.artifact import _score_artifact

        node = _score_artifact("citation_xctx", "text", deps=("text_paper_set",))
        assert node.filename == "scores_citation_xctx_text.npz"
        source = Pipeline.from_dataset(small_dataset)
        original = source.prestige("citation", "text")
        node.save(original, tmp_path / node.filename)
        pipeline = Pipeline.from_dataset(small_dataset)
        node.install(pipeline, node.load(tmp_path / node.filename, pipeline))
        assert node.installed(pipeline)
        assert pipeline.substrates.has("citation_xctx/text")
        restored = pipeline.substrates.scores["citation_xctx/text"]
        for context_id in original.context_ids():
            assert restored.of(context_id) == original.of(context_id)
