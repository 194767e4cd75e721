"""Unit tests for relevancy-weight calibration."""

import pytest

from repro.core.tuning import RelevancyTuner
from repro.datagen.queries import generate_queries
from repro.pipeline import Pipeline


@pytest.fixture(scope="module")
def tuner(small_dataset):
    pipeline = Pipeline.from_dataset(small_dataset, min_context_size=3)
    queries = [w.query for w in generate_queries(small_dataset, n_queries=6, seed=8)]
    return RelevancyTuner(pipeline, queries)


class TestRelevancyTuner:
    @pytest.fixture(scope="class")
    def result(self, tuner):
        return tuner.tune(
            w_prestige_grid=(0.3, 0.7), threshold_grid=(0.1, 0.3)
        )

    def test_grid_fully_evaluated(self, result):
        assert len(result.points) == 4
        cells = {(p.w_prestige, p.threshold) for p in result.points}
        assert cells == {(0.3, 0.1), (0.3, 0.3), (0.7, 0.1), (0.7, 0.3)}

    def test_metrics_in_bounds(self, result):
        for point in result.points:
            assert 0.0 <= point.precision <= 1.0
            assert 0.0 <= point.recall <= 1.0
            assert 0.0 <= point.f1 <= 1.0
            assert point.empty_queries >= 0

    def test_best_is_max_f1(self, result):
        assert result.best.f1 == max(p.f1 for p in result.points)

    def test_f1_is_harmonic_mean(self, result):
        for point in result.points:
            if point.precision + point.recall > 0:
                expected = (
                    2 * point.precision * point.recall
                    / (point.precision + point.recall)
                )
                assert point.f1 == pytest.approx(expected)

    def test_format_table_marks_best(self, result):
        table = result.format_table()
        assert "*" in table
        assert "prec" in table

    def test_empty_queries_monotone_in_threshold(self, result):
        for w in (0.3, 0.7):
            cells = sorted(
                (p for p in result.points if p.w_prestige == w),
                key=lambda p: p.threshold,
            )
            empties = [p.empty_queries for p in cells]
            assert empties == sorted(empties)

    def test_validation(self, small_dataset):
        pipeline = Pipeline.from_dataset(small_dataset, min_context_size=3)
        with pytest.raises(ValueError, match="at least one"):
            RelevancyTuner(pipeline, [])

    def test_empty_grid_rejected(self, tuner):
        with pytest.raises(ValueError, match="non-empty"):
            tuner.tune(w_prestige_grid=(), threshold_grid=(0.1,))
