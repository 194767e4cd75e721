"""Tests for the score-function table.

The table in ``repro.scoring.functions`` is declared once, at import,
and checked by ``check_specs``; every derived surface -- the CLI
``--function`` choices, the workspace artifact list, the evaluation
sweeps -- must follow it.  No test here changes the table: the checks
run on local spec tuples, and the surfaces are checked against the
declared functions.
"""

import importlib.util
from pathlib import Path
from typing import Dict

import pytest

from reference.prestige import pre_maps
from repro import scoring
from repro.cli import build_parser
from repro.core.context import Context
from repro.core.search import ContextSearchEngine
from repro.pipeline import build_demo_pipeline
from repro.scoring import PrestigeScoreFunction, ScoreFunctionSpec
from repro.scoring.spec import check_specs
from repro.workspace import ARTIFACTS, topological_order
from repro.workspace import artifact as artifact_graph

REPO_ROOT = Path(__file__).resolve().parent.parent


class ToyPrestige(PrestigeScoreFunction):
    """Every paper equally prestigious -- the minimal valid scorer."""

    name = "toy"
    normalization = "none"

    def score_context(self, context: Context) -> Dict[str, float]:
        return {paper_id: 1.0 for paper_id in context.paper_ids}


def _load_tool(name):
    path = REPO_ROOT / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _toy_spec(**overrides) -> ScoreFunctionSpec:
    fields = dict(
        name="toy",
        factory=lambda substrates: ToyPrestige(),
        substrates=(),
        paper_sets=("text",),
        description="uniform prestige (test fixture)",
    )
    fields.update(overrides)
    return ScoreFunctionSpec(**fields)


class TestRegistryBasics:
    def test_builtins_registered_in_order(self):
        assert scoring.function_names() == (
            "text", "citation", "pattern", "hits", "combined",
        )
        assert [spec.name for spec in scoring.specs()] == list(
            scoring.function_names()
        )

    def test_evaluation_arms_follow_registration_order(self):
        assert scoring.evaluation_arms() == (
            ("text", "text"),
            ("citation", "text"),
            ("citation", "pattern"),
            ("pattern", "pattern"),
            ("combined", "text"),
        )

    def test_hits_is_searchable_but_not_swept(self):
        spec = scoring.get("hits")
        assert spec.paper_sets == ()
        assert spec.arms() == []
        assert "hits" in scoring.function_names()
        assert all(fn != "hits" for fn, _ in scoring.evaluation_arms())

    def test_overlap_pairs_are_the_figure_53_grid(self):
        assert scoring.overlap_pairs() == (
            ("text", "citation"),
            ("text", "pattern"),
            ("citation", "pattern"),
        )

    def test_get_unknown_names_known_functions(self):
        with pytest.raises(ValueError, match="unknown prestige function"):
            scoring.get("pagerank2")
        with pytest.raises(ValueError, match="citation"):
            scoring.get("pagerank2")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="'text' is declared twice"):
            check_specs([*scoring.specs(), _toy_spec(name="text")])
        table = check_specs([*scoring.specs(), _toy_spec()])
        assert tuple(table) == scoring.function_names() + ("toy",)

    def test_invalid_names_rejected(self):
        for bad in ("", "Text", "9lives", "has-dash", "has space"):
            with pytest.raises(ValueError, match="must match"):
                _toy_spec(name=bad)

    def test_unknown_paper_set_rejected(self):
        with pytest.raises(ValueError, match="unknown paper set"):
            _toy_spec(paper_sets=("full",))

    def test_non_callable_factory_rejected(self):
        with pytest.raises(ValueError, match="not callable"):
            _toy_spec(factory="toy")


class TestPluginSeam:
    """One table entry, zero core edits -- everything derives."""

    def test_every_function_joins_every_derived_surface(self):
        parser = build_parser()
        for spec in scoring.specs():
            # CLI: both --function choice lists accept it.
            for argv in (
                ["search", "--data", "d", "--query", "q"],
                ["tune", "--data", "d"],
            ):
                args = parser.parse_args(argv + ["--function", spec.name])
                assert args.function == spec.name
            for paper_set in spec.paper_sets:
                # Evaluation sweep: every declared paper set is an arm.
                assert (spec.name, paper_set) in scoring.evaluation_arms()
                # Workspace: a fingerprinted score artifact is derived.
                assert f"scores_{spec.name}_{paper_set}" in ARTIFACTS
        score_artifacts = [name for name in ARTIFACTS if name.startswith("scores_")]
        assert score_artifacts == [
            f"scores_{function}_{paper_set}"
            for function, paper_set in scoring.evaluation_arms()
        ]
        with pytest.raises(SystemExit):
            parser.parse_args(
                ["search", "--data", "d", "--query", "q", "--function", "toy"]
            )

    def test_substrates_become_artifact_deps(self):
        for function, paper_set in scoring.evaluation_arms():
            node = ARTIFACTS[f"scores_{function}_{paper_set}"]
            assert node.deps == (
                (f"{paper_set}_paper_set",) + scoring.get(function).substrates
            )
        assert ARTIFACTS["scores_text_text"].deps == ("text_paper_set", "vectors")
        assert ARTIFACTS["scores_citation_pattern"].deps == ("pattern_paper_set",)

    # ``citation_graph`` and ``representatives`` were artifacts once: the
    # graph now derives from the corpus and the text paper set carries
    # the representatives, so a spec still naming either must learn that
    # clearly.
    @pytest.mark.parametrize("unknown", ["graph", "citation_graph", "representatives"])
    def test_unknown_substrate_is_named(self, unknown, monkeypatch):
        derive = artifact_graph._derive_artifacts

        def with_toy():
            nodes = derive()
            toy = artifact_graph._score_artifact(
                "toy", "text", deps=("text_paper_set", unknown)
            )
            nodes[toy.name] = toy
            return nodes

        monkeypatch.setattr(artifact_graph, "_derive_artifacts", with_toy)
        ARTIFACTS._cached_revision = None
        try:
            with pytest.raises(ValueError) as excinfo:
                topological_order()
        finally:
            monkeypatch.undo()
            ARTIFACTS._cached_revision = None
        message = str(excinfo.value)
        assert "'scores_toy_text'" in message
        assert f"unknown artifact {unknown!r}" in message
        assert "known: index, vectors, text_paper_set" in message
        assert "scores_toy_text" not in ARTIFACTS

    def test_toy_function_searches_end_to_end(self):
        """A spec's factory is all a search needs: the toy scorer feeds a
        context search engine, while the pipeline, which reads only the
        declared table, refuses the undeclared name."""
        pipeline = build_demo_pipeline(seed=11, n_papers=60, n_terms=20)
        store = pipeline.substrates
        paper_set = pipeline.paper_set("text")
        scores = _toy_spec().factory(store).score_all(paper_set)
        assert scores.function_name == "toy"
        assert len(scores) > 0
        engine = ContextSearchEngine(
            pipeline.ontology, paper_set, scores, store.keyword_engine
        )
        hits = engine.search("gene expression regulation", limit=5)
        assert hits
        assert all(hit.prestige == 1.0 for hit in hits)
        with pytest.raises(ValueError, match="unknown prestige function"):
            pipeline.prestige("toy", "text")


class TestCombinedFunction:
    """The worked example: rank fusion declared as one table entry."""

    def test_registered_with_union_substrates(self):
        spec = scoring.get("combined")
        assert spec.substrates == ("vectors",)
        assert spec.paper_sets == ("text",)
        assert not spec.in_overlap

    def test_workspace_artifact_derived(self):
        artifact = ARTIFACTS["scores_combined_text"]
        assert artifact.deps == ("text_paper_set", "vectors")

    def test_blend_is_convex_combination_of_normalised_components(self):
        pipeline = build_demo_pipeline(seed=11, n_papers=80, n_terms=25)
        spec = ScoreFunctionSpec(
            name="blend",
            components=(("citation", 1.0), ("text", 3.0)),
            paper_sets=("text",),
        )
        assert spec.components == (("citation", 0.25), ("text", 0.75))
        declared = check_specs([*scoring.specs(), spec])["blend"]
        assert declared.substrates == scoring.get("combined").substrates
        store = pipeline.substrates
        blend = pre_maps(
            store._derive_scores(declared, "text", store.paper_set("text"))
        )
        citation = pre_maps(pipeline.prestige("citation", "text"))
        text = pre_maps(pipeline.prestige("text", "text"))
        assert blend
        for context_id, scores in blend.items():
            c_norm = citation.get(context_id, {})
            t_norm = text.get(context_id, {})
            assert set(scores) == set(c_norm) | set(t_norm)
            for paper_id, value in scores.items():
                expected = (
                    0.25 * c_norm.get(paper_id, 0.0)
                    + 0.75 * t_norm.get(paper_id, 0.0)
                )
                assert value == pytest.approx(expected, abs=1e-12)
                assert 0.0 <= value <= 1.0

    def test_component_validation(self):
        def derived(**overrides):
            fields = dict(
                name="blend",
                components=(("citation", 0.5), ("text", 0.5)),
                paper_sets=("text",),
            )
            fields.update(overrides)
            return ScoreFunctionSpec(**fields)

        cases = [
            (dict(components=(("nope", 1.0),)), "must be another declared"),
            (dict(components=(("blend", 1.0),)), "must be another declared"),
            (dict(paper_sets=("pattern",)), "not declared on paper set"),
            (dict(components=(("text", 0.0),)), "positive"),
            (dict(components=(("text", 1.0), ("citation", -1.0))), "positive"),
            (dict(factory=lambda substrates: ToyPrestige()), "exactly one"),
            (dict(components=()), "exactly one"),
            (dict(delta_scope="contexts"), "delta_scope"),
        ]
        for overrides, message in cases:
            with pytest.raises(ValueError, match=message):
                check_specs([*scoring.specs(), derived(**overrides)])
        # A derived component is refused, so no component chain can loop.
        with pytest.raises(ValueError, match="with a factory"):
            check_specs([*scoring.specs(), derived(components=(("combined", 1.0),))])
        # Components must be declared before the function that blends them.
        with pytest.raises(ValueError, match="must be another declared"):
            check_specs([derived(), *scoring.specs()])
        assert "blend" not in scoring.function_names()

    def test_combined_searches_end_to_end(self):
        pipeline = build_demo_pipeline(seed=7, n_papers=80, n_terms=25)
        scores = pipeline.prestige("combined", "text")
        assert scores.function_name == "combined"
        assert len(scores) > 0
        hits = pipeline.search(
            "gene expression regulation", function="combined",
            paper_set_name="text",
        )
        for hit in hits:
            assert 0.0 <= hit.prestige <= 1.0


class TestCheckRegistries:
    """The table lint and the docs table generated from the table."""

    def test_docs_table_follows_registry_and_lint_passes(self, capsys):
        lint = _load_tool("check_registries")
        docs = _load_tool("gen_api_docs")
        architecture = (REPO_ROOT / "docs" / "architecture.md").read_text(
            encoding="utf-8"
        )
        def score_table(text):
            return docs.with_table(
                text, docs.SCORE_TABLE_HEADING, docs.score_function_table()
            )

        hits_row = next(
            line for line in architecture.split("\n") if line.startswith("| `hits` |")
        )
        stale = architecture.replace(hits_row + "\n", "")
        assert stale != architecture
        assert score_table(stale) == architecture
        assert score_table(architecture) == architecture
        assert docs.with_table(
            architecture,
            docs.ARTIFACT_TABLE_HEADING,
            docs.structural_artifact_table(),
        ) == architecture
        assert lint.main() == 0
        assert "agree with the score-function table" in capsys.readouterr().out

    def test_raw_paper_text_only_in_the_token_cache_and_raw_readers(
        self, tmp_path, monkeypatch
    ):
        """Outside the token cache, only snippets and corpus validation
        may read raw section text; anywhere else it is a second analysis."""
        lint = _load_tool("check_registries")
        read = "words = paper.section_text(section) + paper.all_text()\n"
        for relative in (
            "src/repro/text/analyze.py",
            "src/repro/index/snippets.py",
            "src/repro/corpus/validate.py",
            "src/repro/core/vectors.py",
        ):
            (tmp_path / relative).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / relative).write_text(read, encoding="utf-8")
        (tmp_path / "src/repro/corpus/paper.py").write_text(
            "def section_text(self, section):\n"
            "    return self.title  # paper.all_text() is fine in a comment\n",
            encoding="utf-8",
        )
        monkeypatch.setattr(lint, "REPO_ROOT", tmp_path)
        assert lint.scan_src(scoring) == [
            "src: src/repro/core/vectors.py:1: raw paper text .section_text() "
            "(read analysed terms from AnalyzedPaperCache instead)"
        ]

    def test_score_table_dicts_only_outside_scoring_and_the_store(
        self, tmp_path, monkeypatch
    ):
        """A prestige table is ScoreRows from scoring to the store; a
        ``{context: {paper: score}}`` annotation there is a second form."""
        lint = _load_tool("check_registries")
        table = "by_context: Dict[str, Dict[str, float]] = {}\n"
        for relative in (
            "src/repro/scoring/base.py",
            "src/repro/serving/substrate.py",
            "src/repro/serving/view.py",
            "src/repro/eval/experiments.py",
        ):
            (tmp_path / relative).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / relative).write_text(table, encoding="utf-8")
        (tmp_path / "src/repro/scoring/text.py").write_text(
            "scores: Dict[str, float] = {}  # Dict[str, Dict[str, float]]\n",
            encoding="utf-8",
        )
        monkeypatch.setattr(lint, "REPO_ROOT", tmp_path)
        assert lint.scan_src(scoring) == [
            f"src: {relative}:1: {{context: {{paper: score}}}} map (keep "
            f"prestige tables as ScoreRows)"
            for relative in (
                "src/repro/scoring/base.py",
                "src/repro/serving/substrate.py",
            )
        ]
