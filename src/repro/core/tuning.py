"""Relevancy-weight calibration.

The paper leaves w_prestige / w_matching and the relevancy threshold
open.  :class:`RelevancyTuner` grid-searches them against AC-answer sets
on a validation query set, optimising F1 (precision alone rewards
degenerate near-empty result sets; recall alone rewards returning
everything -- the harmonic mean keeps the operating point honest).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.search import ContextSearchEngine
from repro.eval.ac_answer import ACAnswerBuilder
from repro.pipeline import Pipeline


@dataclass(frozen=True)
class TuningPoint:
    """One grid cell's validation metrics."""

    w_prestige: float
    threshold: float
    precision: float
    recall: float
    f1: float
    empty_queries: int


@dataclass
class TuningResult:
    """The full grid plus the F1-best cell."""

    points: List[TuningPoint]
    best: TuningPoint

    def format_table(self) -> str:
        lines = ["w_p    t      prec   recall f1     empty"]
        for point in self.points:
            marker = " *" if point == self.best else ""
            lines.append(
                f"{point.w_prestige:.2f}   {point.threshold:.2f}   "
                f"{point.precision:.3f}  {point.recall:.3f}  "
                f"{point.f1:.3f}  {point.empty_queries}{marker}"
            )
        return "\n".join(lines)


class RelevancyTuner:
    """Grid search over (w_prestige, threshold) for one score function."""

    def __init__(
        self,
        pipeline: Pipeline,
        queries: Sequence[str],
        function: str = "text",
        paper_set_name: str = "text",
        ac_builder: Optional[ACAnswerBuilder] = None,
    ) -> None:
        if not queries:
            raise ValueError("need at least one validation query")
        self.pipeline = pipeline
        self.queries = list(queries)
        self.function = function
        self.paper_set_name = paper_set_name
        self.ac_builder = (
            ac_builder
            if ac_builder is not None
            else ACAnswerBuilder(
                pipeline.keyword_engine,
                pipeline.vectors,
                pipeline.citation_graph,
            )
        )
        self._answers: Dict[str, frozenset] = {}

    def tune(
        self,
        w_prestige_grid: Sequence[float] = (0.3, 0.5, 0.7, 0.9),
        threshold_grid: Sequence[float] = (0.1, 0.2, 0.3, 0.4),
    ) -> TuningResult:
        """Evaluate the grid; returns every point plus the F1-best.

        Search hits per (query, w_prestige) are computed once and
        re-thresholded for every threshold cell, so the grid costs
        |w grid| x |queries| searches, not the full product.
        """
        if not w_prestige_grid or not threshold_grid:
            raise ValueError("grids must be non-empty")
        paper_set = self.pipeline.paper_set(self.paper_set_name)
        prestige = self.pipeline.prestige(self.function, self.paper_set_name)
        points: List[TuningPoint] = []
        for w_prestige in w_prestige_grid:
            engine = ContextSearchEngine(
                self.pipeline.ontology,
                paper_set,
                prestige,
                self.pipeline.keyword_engine,
                w_prestige=w_prestige,
                w_matching=1.0 - w_prestige,
            )
            hits_per_query = list(zip(self.queries, engine.search_many(self.queries)))
            for threshold in threshold_grid:
                points.append(
                    self._evaluate_cell(w_prestige, threshold, hits_per_query)
                )
        best = max(points, key=lambda p: (p.f1, -p.threshold))
        return TuningResult(points=points, best=best)

    # -- internals --------------------------------------------------------------------

    def _answer_set(self, query: str) -> frozenset:
        cached = self._answers.get(query)
        if cached is None:
            cached = self.ac_builder.build(query).papers
            self._answers[query] = cached
        return cached

    def _evaluate_cell(
        self,
        w_prestige: float,
        threshold: float,
        hits_per_query: List[Tuple[str, list]],
    ) -> TuningPoint:
        precisions: List[float] = []
        recalls: List[float] = []
        empty = 0
        for query, hits in hits_per_query:
            answers = self._answer_set(query)
            surviving = {h.paper_id for h in hits if h.relevancy >= threshold}
            if not surviving:
                empty += 1
                precisions.append(0.0)
                recalls.append(0.0)
                continue
            true_positives = len(surviving & answers)
            precisions.append(true_positives / len(surviving))
            recalls.append(true_positives / len(answers) if answers else 0.0)
        mean_precision = sum(precisions) / len(precisions)
        mean_recall = sum(recalls) / len(recalls)
        denominator = mean_precision + mean_recall
        f1 = 2 * mean_precision * mean_recall / denominator if denominator else 0.0
        return TuningPoint(
            w_prestige=w_prestige,
            threshold=threshold,
            precision=mean_precision,
            recall=mean_recall,
            f1=f1,
            empty_queries=empty,
        )
