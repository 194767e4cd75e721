"""Experiment runners producing the series behind figures 5.1-5.7.

Each runner consumes a :class:`~repro.pipeline.Pipeline` (or its parts)
and returns plain result dataclasses with ``format_table()`` helpers, so
the benchmark harness can print the same rows the paper plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.context import ContextPaperSet
from repro.eval.ac_answer import ACAnswerBuilder, ACAnswerConfig
from repro.eval.metrics import (
    median,
    precision,
    sd_histogram,
    separability_sd,
    topk_overlap,
)
from repro.obs import get_registry, span
from repro.pipeline import Pipeline
from repro.scoring.base import PrestigeScores


# ---------------------------------------------------------------------------
# Precision vs relevancy threshold (figures 5.1 and 5.2)
# ---------------------------------------------------------------------------


@dataclass
class PrecisionCurve:
    """Average/median precision per relevancy threshold for one function."""

    function_name: str
    thresholds: List[float]
    average: List[float]
    median_: List[Optional[float]]
    #: Queries returning nothing at each threshold (precision counted 0 in
    #: the average, excluded from the median) -- the effect the paper uses
    #: to explain the average's high-t dip.
    empty_queries: List[int]

    def format_table(self) -> str:
        lines = [f"precision[{self.function_name}]"]
        lines.append("  t      avg     median  empty")
        for i, t in enumerate(self.thresholds):
            med = self.median_[i]
            med_text = f"{med:.3f}" if med is not None else "  -  "
            lines.append(
                f"  {t:.2f}   {self.average[i]:.3f}   {med_text}   {self.empty_queries[i]}"
            )
        return "\n".join(lines)


class PrecisionExperiment:
    """Figures 5.1/5.2: precision of context-based search per threshold.

    For every query an AC-answer set is built once; then each score
    function's search results are thresholded on relevancy and compared
    against it.
    """

    def __init__(
        self,
        pipeline: Pipeline,
        queries: Sequence[str],
        thresholds: Sequence[float] = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5),
        ac_config: Optional[ACAnswerConfig] = None,
        max_contexts: int = 5,
    ) -> None:
        self.pipeline = pipeline
        self.queries = list(queries)
        self.thresholds = list(thresholds)
        self.max_contexts = max_contexts
        self.ac_builder = ACAnswerBuilder(
            pipeline.keyword_engine,
            pipeline.vectors,
            pipeline.citation_graph,
            config=ac_config,
        )
        self._answer_cache: Dict[str, frozenset] = {}

    def answer_set(self, query: str) -> frozenset:
        cached = self._answer_cache.get(query)
        if cached is None:
            cached = self.ac_builder.build(query).papers
            self._answer_cache[query] = cached
        return cached

    def run(
        self, function: str, paper_set_name: str
    ) -> PrecisionCurve:
        """Precision curve of one (score function, paper set) arm."""
        with span(
            "eval.precision.run", function=function, paper_set=paper_set_name
        ), get_registry().timer("eval.precision.seconds"):
            return self._run(function, paper_set_name)

    def _run(self, function: str, paper_set_name: str) -> PrecisionCurve:
        engine = self.pipeline.search_engine(function, paper_set_name)
        per_threshold: List[List[float]] = [[] for _ in self.thresholds]
        empties = [0] * len(self.thresholds)
        hits_per_query = engine.search_many(
            self.queries, max_contexts=self.max_contexts
        )
        for query, hits in zip(self.queries, hits_per_query):
            answers = self.answer_set(query)
            for i, t in enumerate(self.thresholds):
                surviving = [h.paper_id for h in hits if h.relevancy >= t]
                value = precision(surviving, answers)
                if value is None:
                    empties[i] += 1
                    per_threshold[i].append(0.0)  # average counts empties as 0
                else:
                    per_threshold[i].append(value)
        average = [
            sum(values) / len(values) if values else 0.0
            for values in per_threshold
        ]
        # Median over all queries: like the paper's median curves it is
        # robust to the zero-precision empties until they dominate.
        medians = [median(values) for values in per_threshold]
        return PrecisionCurve(
            function_name=function,
            thresholds=list(self.thresholds),
            average=average,
            median_=medians,
            empty_queries=empties,
        )


# ---------------------------------------------------------------------------
# Context-based search vs the keyword baseline (the [2] claims of section 1)
# ---------------------------------------------------------------------------


@dataclass
class BaselineComparison:
    """Output-size and accuracy comparison against the keyword baseline."""

    queries_evaluated: int
    mean_output_reduction: float
    max_output_reduction: float
    keyword_mean_precision: float
    context_mean_precision: float

    @property
    def accuracy_improvement(self) -> float:
        """Relative precision gain of context search over the baseline."""
        if self.keyword_mean_precision == 0.0:
            return float("nan")
        return self.context_mean_precision / self.keyword_mean_precision - 1.0

    def format_table(self) -> str:
        return "\n".join(
            [
                f"queries evaluated:       {self.queries_evaluated}",
                f"mean output reduction:   {self.mean_output_reduction:.1%}",
                f"max output reduction:    {self.max_output_reduction:.1%}",
                f"keyword mean precision:  {self.keyword_mean_precision:.3f}",
                f"context mean precision:  {self.context_mean_precision:.3f}",
                f"accuracy improvement:    {self.accuracy_improvement:.1%}",
            ]
        )


class BaselineComparisonExperiment:
    """Reproduces the section-1 claims quoted from reference [2]:

    context-based search "reduce[s] the query output size by up to 70%
    and increase[s] the search result accuracy by up to 50%" relative to
    the PubMed-style keyword engine.  Output size compares full result
    sets; accuracy compares precision of each full output against the
    AC-answer set.
    """

    def __init__(
        self,
        pipeline: Pipeline,
        queries: Sequence[str],
        ac_config: Optional[ACAnswerConfig] = None,
        function: str = "text",
        paper_set_name: str = "text",
    ) -> None:
        if not queries:
            raise ValueError("need at least one query")
        self.pipeline = pipeline
        self.queries = list(queries)
        self.function = function
        self.paper_set_name = paper_set_name
        self.ac_builder = ACAnswerBuilder(
            pipeline.keyword_engine,
            pipeline.vectors,
            pipeline.citation_graph,
            config=ac_config,
        )

    def run(self) -> BaselineComparison:
        with span(
            "eval.baseline.run", function=self.function
        ), get_registry().timer("eval.baseline.seconds"):
            return self._run()

    def _run(self) -> BaselineComparison:
        from repro.eval.metrics import precision as precision_metric

        engine = self.pipeline.search_engine(self.function, self.paper_set_name)
        keyword = self.pipeline.keyword_engine
        reductions: List[float] = []
        keyword_precisions: List[float] = []
        context_precisions: List[float] = []
        evaluated = 0
        for query in self.queries:
            keyword_ids = [hit.paper_id for hit in keyword.search(query)]
            if not keyword_ids:
                continue
            evaluated += 1
            answers = self.ac_builder.build(query).papers
            context_ids = engine.result_ids(query)
            reductions.append(1.0 - len(context_ids) / len(keyword_ids))
            keyword_precisions.append(
                precision_metric(keyword_ids, answers) or 0.0
            )
            context_precisions.append(
                precision_metric(context_ids, answers) or 0.0
            )
        if not evaluated:
            raise ValueError("no query produced keyword output")
        return BaselineComparison(
            queries_evaluated=evaluated,
            mean_output_reduction=sum(reductions) / evaluated,
            max_output_reduction=max(reductions),
            keyword_mean_precision=sum(keyword_precisions) / evaluated,
            context_mean_precision=sum(context_precisions) / evaluated,
        )


# ---------------------------------------------------------------------------
# Top-k% overlapping ratio per context level (figure 5.3)
# ---------------------------------------------------------------------------


@dataclass
class OverlapSeries:
    """Average overlap of one score-function pair, per level and k%."""

    pair: Tuple[str, str]
    levels: List[int]
    k_percents: List[float]
    #: values[level_index][k_index] -> average overlap (None if no contexts)
    values: List[List[Optional[float]]]
    contexts_counted: List[int]

    def format_table(self) -> str:
        lines = [f"overlap[{self.pair[0]}-{self.pair[1]}]"]
        header = "  level  n_ctx  " + "  ".join(f"k={int(k*100)}%" for k in self.k_percents)
        lines.append(header)
        for i, level in enumerate(self.levels):
            cells = []
            for j in range(len(self.k_percents)):
                value = self.values[i][j]
                cells.append(f"{value:.3f}" if value is not None else "  -  ")
            lines.append(
                f"  {level:<5}  {self.contexts_counted[i]:<5}  " + "  ".join(cells)
            )
        return "\n".join(lines)


class OverlapExperiment:
    """Figure 5.3: top-k% overlap between score-function pairs by level."""

    def __init__(
        self,
        paper_set: ContextPaperSet,
        levels: Sequence[int] = (3, 5, 7),
        k_percents: Sequence[float] = (0.05, 0.10, 0.15, 0.20),
    ) -> None:
        self.paper_set = paper_set
        self.levels = list(levels)
        self.k_percents = list(k_percents)

    def run(
        self,
        scores_a: PrestigeScores,
        scores_b: PrestigeScores,
    ) -> OverlapSeries:
        with span(
            "eval.overlap.run",
            pair=f"{scores_a.function_name}-{scores_b.function_name}",
        ), get_registry().timer("eval.overlap.seconds"):
            return self._run(scores_a, scores_b)

    def _run(
        self, scores_a: PrestigeScores, scores_b: PrestigeScores
    ) -> OverlapSeries:
        values: List[List[Optional[float]]] = []
        counted: List[int] = []
        for level in self.levels:
            contexts = self.paper_set.contexts_at_level(level)
            row: List[Optional[float]] = []
            usable = 0
            for k_percent in self.k_percents:
                samples = []
                for context in contexts:
                    a = scores_a.of(context.term_id)
                    b = scores_b.of(context.term_id)
                    if not a or not b:
                        continue
                    value = topk_overlap(a, b, k_percent=k_percent)
                    if value is not None:
                        samples.append(value)
                usable = max(usable, len(samples))
                row.append(sum(samples) / len(samples) if samples else None)
            values.append(row)
            counted.append(usable)
        return OverlapSeries(
            pair=(scores_a.function_name, scores_b.function_name),
            levels=list(self.levels),
            k_percents=list(self.k_percents),
            values=values,
            contexts_counted=counted,
        )


# ---------------------------------------------------------------------------
# Separability (figures 5.4-5.7)
# ---------------------------------------------------------------------------


@dataclass
class SeparabilityResult:
    """SD distribution of one score function over one paper set."""

    function_name: str
    #: context id -> separability SD
    sd_by_context: Dict[str, float]
    #: overall (bin_edge, percent) series -- one curve of figure 5.4
    histogram: List[Tuple[float, float]]
    #: level -> (bin_edge, percent) series -- figures 5.5/5.6/5.7
    histogram_by_level: Dict[int, List[Tuple[float, float]]]

    def mean_sd(self) -> Optional[float]:
        if not self.sd_by_context:
            return None
        return sum(self.sd_by_context.values()) / len(self.sd_by_context)

    def percent_below(self, sd_cut: float) -> float:
        """Share of contexts with SD below ``sd_cut`` (higher = better)."""
        if not self.sd_by_context:
            return 0.0
        good = sum(1 for v in self.sd_by_context.values() if v < sd_cut)
        return 100.0 * good / len(self.sd_by_context)

    def format_table(self) -> str:
        lines = [f"separability[{self.function_name}]  "
                 f"(mean SD {self.mean_sd():.2f}, {len(self.sd_by_context)} contexts)"]
        lines.append("  SD-bin  %contexts")
        for edge, percent in self.histogram:
            lines.append(f"  {edge:>5.0f}   {percent:6.1f}")
        return "\n".join(lines)


class SeparabilityExperiment:
    """Figures 5.4-5.7: SD histograms overall and per context level."""

    def __init__(
        self,
        paper_set: ContextPaperSet,
        levels: Sequence[int] = (3, 5, 7),
        n_ranges: int = 10,
    ) -> None:
        self.paper_set = paper_set
        self.levels = list(levels)
        self.n_ranges = n_ranges

    def run(self, scores: PrestigeScores) -> SeparabilityResult:
        with span(
            "eval.separability.run", function=scores.function_name
        ), get_registry().timer("eval.separability.seconds"):
            return self._run(scores)

    def _run(self, scores: PrestigeScores) -> SeparabilityResult:
        sd_by_context: Dict[str, float] = {}
        for context in self.paper_set:
            context_scores = scores.of(context.term_id)
            if not context_scores:
                continue
            sd = separability_sd(context_scores.values(), n_ranges=self.n_ranges)
            if sd is not None:
                sd_by_context[context.term_id] = sd
        by_level: Dict[int, List[Tuple[float, float]]] = {}
        for level in self.levels:
            level_sds = [
                sd
                for cid, sd in sd_by_context.items()
                if self.paper_set.ontology.level(cid) == level
            ]
            by_level[level] = sd_histogram(level_sds)
        return SeparabilityResult(
            function_name=scores.function_name,
            sd_by_context=sd_by_context,
            histogram=sd_histogram(sd_by_context.values()),
            histogram_by_level=by_level,
        )
