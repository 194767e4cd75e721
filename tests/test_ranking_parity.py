"""Golden-file ranking parity for the scoring/serving refactor.

``tests/data/golden_rankings.json`` was captured from the demo pipeline
*before* the score-function registry and the build/serve layer split, so
these tests pin the refactor's acceptance criterion: ``search``,
``search_grouped``, and ``explain`` must reproduce the pre-refactor
rankings bit for bit (floats survive the JSON round-trip exactly --
``json`` serialises with ``repr`` precision).

If a future change *intentionally* alters ranking semantics, regenerate
with ``PYTHONPATH=src python tools/gen_golden_rankings.py`` -- never to
paper over an unexplained diff.
"""

import json
from pathlib import Path

import pytest

from repro.pipeline import build_demo_pipeline

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_rankings.json"


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["format"] == "repro/golden-rankings/v1"
    return payload


@pytest.fixture(scope="module")
def pipeline(golden):
    demo = golden["demo"]
    return build_demo_pipeline(
        seed=demo["seed"], n_papers=demo["n_papers"], n_terms=demo["n_terms"]
    )


def _hit_rows(hits):
    return [
        [h.paper_id, h.context_id, h.relevancy, h.prestige, h.matching]
        for h in hits
    ]


def _combo_cases(golden):
    return sorted(golden["combos"])


def _explain_row(engine, query, hits):
    if not hits:
        return []
    explanation = engine.explain(query, hits[0].paper_id)
    return [
        explanation.matching,
        list(explanation.selected_context_ids),
        [list(row) for row in explanation.in_selected_contexts],
        explanation.best_relevancy,
    ]


def _golden_mismatches(golden, pipeline, checks=("search", "grouped", "explain")):
    """``(combo, query, check)`` for each golden answer ``pipeline`` misses;
    a query's ``checks`` run in order up to its first miss."""
    mismatches = []
    for combo in _combo_cases(golden):
        engine = pipeline.search_engine(*combo.split("/"))
        for query, expected in golden["combos"][combo].items():
            hits = engine.search(query, limit=10)
            answers = {
                "search": lambda: _hit_rows(hits),
                "grouped": lambda: [
                    [group.context_id, group.selection_strength, _hit_rows(group.hits)]
                    for group in engine.search_grouped(query, per_context_limit=5)
                ],
                "explain": lambda: _explain_row(engine, query, hits),
            }
            for check in checks:
                if answers[check]() != expected[check]:
                    mismatches.append((combo, query, check))
                    break
    return mismatches


class TestRankingParity:
    def test_golden_covers_every_seed_function(self, golden):
        functions = {combo.split("/")[0] for combo in golden["combos"]}
        assert {"citation", "hits", "text", "pattern", "combined"} <= functions

    def test_golden_has_nonempty_rankings(self, golden):
        nonempty = sum(
            1
            for per_query in golden["combos"].values()
            for record in per_query.values()
            if record["search"]
        )
        assert nonempty > 0

    def test_search_grouped_explain_match_golden(self, golden, pipeline):
        assert _golden_mismatches(golden, pipeline) == []

    def test_pipeline_search_matches_engine_path(self, golden, pipeline):
        """The cached pipeline.search fast path returns the same rankings."""
        combo = next(
            c for c in _combo_cases(golden)
            if any(r["search"] for r in golden["combos"][c].values())
        )
        function, paper_set, strategy = combo.split("/")
        for query, expected in golden["combos"][combo].items():
            for use_cache in (True, True, False):  # miss, hit, bypass
                hits = pipeline.search(
                    query,
                    function=function,
                    paper_set_name=paper_set,
                    selection_strategy=strategy,
                    limit=10,
                    use_cache=use_cache,
                )
                assert _hit_rows(hits) == expected["search"], (query, use_cache)


class TestDeltaParity:
    """A delta-reached substrate ranks byte-identically to a scratch build.

    The incremental-update acceptance criterion: starting from a corpus
    that is missing the demo's last papers and carries extra transient
    ones, one ``apply_delta`` (removing the noise, adding the held-out
    papers) must land on a substrate whose rankings equal the golden
    files for *every* registered score function -- same floats, same
    order.  Prestige memos are warmed *before* the delta so the test
    exercises the per-context patch path, not a trivial cold rebuild.
    """

    HELD_OUT = 4

    @pytest.fixture(scope="class")
    def delta_outcome(self, golden, pipeline):
        from repro import scoring
        from repro.corpus.corpus import Corpus
        from repro.corpus.paper import Paper
        from repro.pipeline import Pipeline

        papers = list(pipeline.corpus)
        held_out = papers[-self.HELD_OUT:]
        base = Corpus()
        for paper in papers[: -self.HELD_OUT]:
            base.add(paper)
        noise = [
            Paper(
                paper_id=f"ZZNOISE{i:02d}",
                title="transient noise paper on ranking functions",
                abstract="temporarily present, removed by the delta",
                body="citation graph literature search context",
                references=(papers[i].paper_id,),
            )
            for i in range(3)
        ]
        for paper in noise:
            base.add(paper)
        delta_pipeline = Pipeline(
            corpus=base,
            ontology=pipeline.ontology,
            training_papers=pipeline.training_papers,
        )
        warmed = sorted(
            {tuple(combo.split("/")[:2]) for combo in golden["combos"]}
        )
        for function, paper_set in warmed:
            delta_pipeline.prestige(function, paper_set)
        report = delta_pipeline.substrates.apply_delta(
            added_papers=held_out,
            removed_ids=[paper.paper_id for paper in noise],
        )
        expected_patched = {
            f"{function}/{paper_set}"
            for function, paper_set in warmed
            if scoring.get(function).delta_scope == "contexts"
            and paper_set == "text"
        }
        return delta_pipeline, report, expected_patched

    def test_delta_report_shape(self, delta_outcome, pipeline):
        delta_pipeline, report, _ = delta_outcome
        assert len(report.added) == self.HELD_OUT
        assert len(report.removed) == 3
        # Final insertion order must equal the scratch corpus order --
        # the precondition for byte-identical downstream substrates.
        assert [p.paper_id for p in delta_pipeline.corpus] == [
            p.paper_id for p in pipeline.corpus
        ]

    def test_contexts_scoped_functions_were_patched_not_dropped(
        self, delta_outcome
    ):
        _, report, expected_patched = delta_outcome
        assert set(report.scores_patched) == expected_patched
        assert expected_patched, "delta must exercise the patch path"
        assert not expected_patched & set(report.scores_dropped)

    def test_delta_substrate_matches_golden_for_every_function(
        self, golden, delta_outcome
    ):
        delta_pipeline, _, _ = delta_outcome
        assert _golden_mismatches(golden, delta_pipeline, ("search", "grouped")) == []


class TestIndexParity:
    """The freshly built index and the packed index reopened from the
    workspace must both reproduce the golden rankings.

    The reopened form is installed into the serving substrate; rankings
    for every golden combo/query must stay byte-identical -- the
    persisted layout must never be able to change what a query returns.
    """

    @pytest.mark.parametrize("form", ["fresh", "reopened"])
    def test_index_matches_golden(self, golden, pipeline, tmp_path, form):
        from repro.index import open_index
        from repro.workspace import ARTIFACTS

        source = pipeline.index
        installed = source
        if form == "reopened":
            pipeline.build_workspace(tmp_path, only=["index"])
            installed = open_index(
                tmp_path / ARTIFACTS["index"].filename, pipeline.corpus.paper_rows
            )
        try:
            pipeline.substrates.install_index(installed)
            mismatches = _golden_mismatches(golden, pipeline, ("search",))
        finally:
            pipeline.substrates.install_index(source)
            if installed is not source:
                installed.close()
        assert mismatches == []
