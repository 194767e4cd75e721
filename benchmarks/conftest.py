"""Shared fixtures for the figure-reproduction benchmarks.

One seeded dataset + pipeline is built per session and reused by every
bench.  Scale is environment-configurable:

- ``REPRO_BENCH_PAPERS``  (default 1600)
- ``REPRO_BENCH_TERMS``   (default 400)
- ``REPRO_BENCH_QUERIES`` (default 60; the paper used ~120)
- ``REPRO_BENCH_SEED``    (default 42)

Each bench writes its table to ``benchmarks/results/<name>.txt`` in
addition to printing it, so results survive output capture.
"""

import os
from pathlib import Path

import pytest

from repro.datagen import CorpusGenerator, OntologyGenerator, generate_queries
from repro.eval.experiments import PrecisionExperiment
from repro.pipeline import Pipeline

RESULTS_DIR = Path(__file__).parent / "results"


def _env_int(name, default):
    return int(os.environ.get(name, default))


@pytest.fixture(scope="session")
def bench_seed():
    return _env_int("REPRO_BENCH_SEED", 42)


@pytest.fixture(scope="session")
def dataset(bench_seed):
    generator = CorpusGenerator(
        n_papers=_env_int("REPRO_BENCH_PAPERS", 1600),
        ontology_generator=OntologyGenerator(
            n_terms=_env_int("REPRO_BENCH_TERMS", 400),
            max_depth=7,
            min_children=2,
            max_children=3,
        ),
    )
    return generator.generate(seed=bench_seed)


@pytest.fixture(scope="session")
def pipeline(dataset):
    return Pipeline.from_dataset(dataset, min_context_size=10)


@pytest.fixture(scope="session")
def queries(dataset, bench_seed):
    workload = generate_queries(
        dataset, n_queries=_env_int("REPRO_BENCH_QUERIES", 60), seed=bench_seed
    )
    return [w.query for w in workload]


@pytest.fixture(scope="session")
def precision_experiment(pipeline, queries):
    """Shared so AC-answer sets are built once across figures 5.1/5.2."""
    return PrecisionExperiment(pipeline, queries)


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_result(results_dir: Path, name: str, text: str) -> None:
    """Print a bench table and persist it under benchmarks/results/."""
    print(f"\n{'=' * 72}\n{name}\n{'=' * 72}\n{text}")
    (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")

