#!/usr/bin/env python3
"""Compare two sets of recorded benchmark runs, metric by metric.

Usage::

    python3 benchmarks/e2e/compare.py PARENT.jsonl CHANGE.jsonl

Both files are written by ``run.py --record``; untraced runs are
compared.  For every workload and every ``end_to_end`` metric of
``BENCHMARK.json`` this prints each side's median and quartiles, the
change of the median, the parent's spread (interquartile range over
median), and a verdict:

- ``gain``: the change wins at least nine tenths of the pairs (runs
  paired by seed when no seed repeats on either side, else by order; ties
  count for neither) and the medians differ by more than the parent's
  interquartile range;
- ``regression``: the change's median is worse than the parent's by more
  than the metric's bound;
- ``unresolved``: the parent's spread is wider than the bound, and not
  every run of the change reads better than every run of the parent;
- ``within bound``: none of the above.

A workload is failing, and none of its metrics is compared, when any run
on either side is not ``correct`` or the change's runs failed more
operations than the parent's.  Exits 1 when any workload is failing or
any metric is a regression or unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]


@dataclass
class Runs:
    """The untraced runs of one workload in one file, in file order."""

    seeds: List[int] = field(default_factory=list)
    metrics: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    failed: int = 0
    incorrect: List[int] = field(default_factory=list)  # seeds of runs not correct


def load(path: str) -> Tuple[Dict[str, Runs], List[dict]]:
    """``{workload: Runs}`` of the untraced runs in ``path``, plus stamps."""
    runs: Dict[str, Runs] = defaultdict(Runs)
    stamps = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            run = json.loads(line)
            if run["trace"]:
                continue
            stamps.append(run["stamp"])
            result = run["result"]
            side = runs[run["workload"]]
            side.seeds.append(run["seed"])
            side.failed += result["failed"]
            if not result["correct"]:
                side.incorrect.append(run["seed"])
            for name, metric in result["metrics"].items():
                side.metrics[name].append(metric["value"])
    return runs, stamps


def pairs(parent: Runs, change: Runs, name: str) -> List[Tuple[float, float]]:
    """(parent, change) values paired by seed when each side's seeds are
    unique, else by order."""
    a, b = parent.metrics[name], change.metrics[name]
    if len(set(parent.seeds)) == len(a) and len(set(change.seeds)) == len(b):
        by_seed = dict(zip(change.seeds, b))
        return [(x, by_seed[s]) for s, x in zip(parent.seeds, a) if s in by_seed]
    return list(zip(a, b))


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _spread_text(values: List[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def verdict(a: List[float], b: List[float], paired: List[Tuple[float, float]],
            better: str, bound: float) -> Tuple[str, float, float]:
    """(verdict, signed worsening of the median, parent spread)."""
    sign = 1.0 if better == "lower" else -1.0
    q1, median_a, q3 = quartiles(a)
    median_b = statistics.median(b)
    worse = sign * (median_b - median_a) / median_a
    spread = (q3 - q1) / median_a
    wins = sum(1 for x, y in paired if sign * (y - x) < 0)
    if paired and wins >= 0.9 * len(paired) and worse < 0 and abs(
        median_b - median_a
    ) > q3 - q1:
        return "gain", worse, spread
    if worse > bound:
        return "regression", worse, spread
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if spread > bound and not all_better:
        return "unresolved", worse, spread
    return "within bound", worse, spread


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark, "r", encoding="utf-8") as handle:
        declaration = json.load(handle)
    parent, parent_stamps = load(args.parent)
    change, change_stamps = load(args.change)
    for label, stamps in (("parent", parent_stamps), ("change", change_stamps)):
        kernels = [s["kernel_p50_ms"] for s in stamps if s.get("kernel_p50_ms")]
        first = stamps[0] if stamps else {}
        print(
            f"{label}: {len(stamps)} runs, nproc {first.get('nproc')}, "
            f"python {first.get('python')}, numpy {first.get('numpy')}, "
            f"kernel p50 {statistics.median(kernels) if kernels else float('nan'):.3f} ms"
        )
    print(
        f"{'workload':<16} {'metric':<12} {'parent median [q1, q3]':>32} "
        f"{'change median [q1, q3]':>32} {'worse':>7} {'spread':>7}  verdict"
    )
    failing = 0
    for workload in (w["name"] for w in declaration["workloads"]):
        a_runs, b_runs = parent.get(workload), change.get(workload)
        if a_runs is None or b_runs is None:
            print(f"{workload:<16} missing runs")
            failing += 1
            continue
        # A side whose runs failed operations or answered wrongly is not
        # compared on speed: a gain does not count when more operations fail.
        broken = [
            f"{label} seed {seed} not correct"
            for label, side in (("parent", a_runs), ("change", b_runs))
            for seed in side.incorrect
        ]
        if b_runs.failed > a_runs.failed:
            broken.append(
                f"change failed {b_runs.failed} operations, parent {a_runs.failed}"
            )
        if broken:
            print(f"{workload:<16} failing: {'; '.join(broken)}")
            failing += 1
            continue
        for metric in declaration["end_to_end"]:
            name = metric["name"]
            a, b = a_runs.metrics.get(name), b_runs.metrics.get(name)
            if not a or not b:
                print(f"{workload:<16} {name:<12} missing runs")
                failing += 1
                continue
            outcome, worse, spread = verdict(
                a, b, pairs(a_runs, b_runs, name), metric["better"], metric["bound"]
            )
            print(
                f"{workload:<16} {name:<12} {_spread_text(a):>32} "
                f"{_spread_text(b):>32} {worse:>+7.1%} {spread:>7.1%}  {outcome}"
            )
            if outcome in ("regression", "unresolved"):
                failing += 1
    print(f"{failing} workload(s) or metric(s) failing, regressed or unresolved")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
