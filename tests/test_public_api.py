"""Public-API surface tests: exports, doctests, determinism."""

import doctest

import pytest

import repro
import repro.baselines
import repro.citations
import repro.core
import repro.corpus
import repro.datagen
import repro.eval
import repro.index
import repro.ingest
import repro.ontology
import repro.scoring
import repro.text


PACKAGES = [
    repro,
    repro.text,
    repro.ontology,
    repro.corpus,
    repro.citations,
    repro.index,
    repro.datagen,
    repro.core,
    repro.scoring,
    repro.eval,
    repro.baselines,
    repro.ingest,
]


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
    def test_all_names_resolve(self, package):
        if not hasattr(package, "__all__"):
            pytest.skip("no __all__")
        for name in package.__all__:
            assert hasattr(package, name), f"{package.__name__}.{name} missing"

    @pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
    def test_all_has_no_duplicates(self, package):
        if not hasattr(package, "__all__"):
            pytest.skip("no __all__")
        assert len(package.__all__) == len(set(package.__all__))

    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)

    def test_top_level_convenience(self):
        # The README quickstart names must exist at the top level.
        for name in ("build_demo_pipeline", "Pipeline", "Corpus", "Paper",
                     "Ontology", "pagerank"):
            assert hasattr(repro, name)


DOCTEST_MODULES = [
    "repro.text.tokenize",
    "repro.text.stem",
    "repro.text.stopwords",
    "repro.text.analyze",
    "repro.ontology.term",
    "repro.eval.ascii_plot",
    "repro.scoring.base",
]


class TestDoctests:
    @pytest.mark.parametrize("module_name", DOCTEST_MODULES)
    def test_module_doctests(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        results = doctest.testmod(module, verbose=False)
        assert results.failed == 0, f"{results.failed} doctest failures"
        assert results.attempted > 0, "expected at least one doctest example"


class TestEndToEndDeterminism:
    def test_identical_precision_curves_across_runs(self, small_dataset):
        """The entire experiment stack is seed-deterministic."""
        from repro.datagen.queries import generate_queries
        from repro.eval.experiments import PrecisionExperiment
        from repro.pipeline import Pipeline

        queries = [
            w.query for w in generate_queries(small_dataset, n_queries=4, seed=6)
        ]

        def run_curve():
            pipeline = Pipeline.from_dataset(small_dataset, min_context_size=3)
            experiment = PrecisionExperiment(
                pipeline, queries, thresholds=(0.2, 0.4)
            )
            return experiment.run("text", "text")

        first = run_curve()
        second = run_curve()
        assert first.average == second.average
        assert first.median_ == second.median_
        assert first.empty_queries == second.empty_queries
