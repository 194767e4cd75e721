#!/usr/bin/env python3
"""End-to-end benchmark of the context-search service, in reference time.

One run::

    python3 benchmarks/e2e/run.py --workload search_uncached --seed 1 \
        --seconds 12 --trace 0

prepares the inputs once per checkout (cached under
``benchmarks/e2e/.cache``), runs the workload's seeded operation list,
checks the answers against an oracle, and prints two JSON lines: ungated
detail, then the result ``{"correct", "attempted", "failed", "metrics"}``
whose metrics are the ``end_to_end`` ones of ``BENCHMARK.json`` with
``--trace 0`` and the ``per_layer`` ones with ``--trace 1``.

Other modes:

- ``--calibrate``: the calibration kernel's distribution over 20 s, then
  a fixed synthetic operation timed alone and beside spinning sibling
  processes; fails when the two reference times differ by more than 5%.
- ``--smoke``: every workload at the ``tiny`` preset, untraced and
  traced, asserting that each declared metric is emitted with its unit,
  the oracle checked answers, the cache behaves as each workload intends,
  and the calibration guard stayed clean.

``--record PATH`` appends the run, stamped with the host's CPU count,
Python and numpy versions and kernel median, to a JSON-lines file that
``compare.py`` reads.  See ``README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import data

HERE = Path(__file__).resolve().parent
#: The keys of ``workloads.WORKLOADS``, which cannot be imported before the
#: program's source is found.
WORKLOAD_NAMES = ("search_uncached", "search_hot", "batch_eval", "ingest_delta")
SMOKE_LIMIT_S = 180.0


def declared_metrics(trace: bool) -> dict:
    """``{name: unit}`` of the metrics BENCHMARK.json declares for a mode."""
    with open(data.ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        declaration = json.load(handle)
    key = "per_layer" if trace else "end_to_end"
    return {metric["name"]: metric["unit"] for metric in declaration[key]}


def run_workload(args) -> tuple:
    import layers
    import workloads

    started = time.monotonic()
    run = workloads.Run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.preset
    )
    measured = workloads.WORKLOADS[args.workload](run)
    calibration = run.calibrator.summary()
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "preset": args.preset,
        "trace": args.trace,
        "attempted": run.attempted,
        "failed": run.failed,
        "oracle_checked": run.oracle_checked,
        "errors": run.errors,
        "guard_clean": run.calibrator.guard_clean,
        **calibration,
        **run.detail,
    }
    if args.trace:
        measured, checks = layers.summarise(
            run.tracer.spans, run.windows, run.trace_overhead,
            over_http=args.workload == "search_hot",
        )
        detail["layer_checks"] = checks
    units = declared_metrics(bool(args.trace))
    if set(measured) != set(units):
        raise RuntimeError(
            f"measured metrics {sorted(set(measured) ^ set(units))} do not "
            f"match BENCHMARK.json"
        )
    result = {
        "correct": (
            run.failed == 0
            and run.oracle_checked > 0
            and run.calibrator.guard_clean
        ),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": measured[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    detail["elapsed_s"] = time.monotonic() - started
    return result, detail


def record(path: str, result: dict, detail: dict) -> None:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    stamp = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel_p50_ms": detail.get("kernel_p50_ms"),
    }
    line = {
        "workload": detail["workload"],
        "seed": detail["seed"],
        "trace": detail["trace"],
        "stamp": stamp,
        "result": result,
        "detail": detail,
    }
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")


# -- --calibrate ------------------------------------------------------------------


_WORDS = tuple(f"word{i:04d}" for i in range(2500))


def synthetic_op() -> list:
    """A fixed pure-Python operation of a few milliseconds."""
    counts = {}
    for _ in range(4):
        for word in _WORDS:
            counts[word] = counts.get(word, 0) + len(word)
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:50]


def calibrate() -> int:
    from calib import Calibrator, OpTimer, percentile

    calibrator = Calibrator()
    per_second = []
    deadline = time.monotonic() + 20.0
    while time.monotonic() < deadline:
        second_end = min(time.monotonic() + 1.0, deadline)
        batch = []
        while time.monotonic() < second_end:
            batch.append(calibrator.run_kernel() * 1000.0)
        per_second.append(statistics.median(batch))
    samples = [s * 1000.0 for s in calibrator.samples_s]
    print(
        f"kernel over 20 s: {len(samples)} runs, p5 {percentile(samples, 0.05):.3f} "
        f"p50 {statistics.median(samples):.3f} p95 {percentile(samples, 0.95):.3f} "
        f"max {max(samples):.3f} ms"
    )
    print("per-second medians (ms): " + " ".join(f"{m:.3f}" for m in per_second))

    def reference_median() -> float:
        timer = OpTimer(calibrator)
        for _ in range(400):
            timer.time(synthetic_op)
        return statistics.median(timer.timings().ref_ms)

    alone = reference_median()
    spinners = [
        subprocess.Popen([sys.executable, "-c", "while True: pass"])
        for _ in range(os.cpu_count() or 1)
    ]
    try:
        loaded = reference_median()
    finally:
        for spinner in spinners:
            spinner.kill()
            spinner.wait()
    change = loaded / alone - 1.0
    print(
        f"synthetic op: {alone:.3f} ref ms alone, {loaded:.3f} ref ms beside "
        f"{len(spinners)} spinning process(es): {change:+.1%}"
    )
    if abs(change) > 0.05:
        print("FAIL: reference timing does not hold on this host", file=sys.stderr)
        return 1
    print("ok: reference timing holds within 5%")
    return 0


# -- --smoke ------------------------------------------------------------------------


def smoke() -> int:
    started = time.monotonic()
    problems = []
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            before = len(problems)
            completed = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "2", "--trace", str(trace),
                 "--preset", "tiny"],
                stdout=subprocess.PIPE, text=True, timeout=SMOKE_LIMIT_S,
            )
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or len(lines) < 2:
                problems.append(f"{label}: exit {completed.returncode}")
                continue
            detail = json.loads(lines[-2])["detail"]
            result = json.loads(lines[-1])
            metrics = result["metrics"]
            units = declared_metrics(bool(trace))
            for name, unit in units.items():
                if metrics.get(name, {}).get("unit") != unit:
                    problems.append(f"{label}: {name} not emitted with unit {unit}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: incorrect ({detail['errors']})")
            if detail["oracle_checked"] < 1:
                problems.append(f"{label}: the oracle checked no answer")
            if not detail["guard_clean"]:
                problems.append(
                    f"{label}: calibration guard {detail['guard_share']:.1%}"
                )
            value = {name: metric["value"] for name, metric in metrics.items()}
            if trace and workload == "search_hot":
                if value["view.cache_hit_ratio"] != 1.0:
                    problems.append(f"{label}: cache hit ratio "
                                    f"{value['view.cache_hit_ratio']}")
                if value["index.evaluate_calls"] != 0:
                    problems.append(f"{label}: index evaluated on cache hits")
            if trace and workload == "search_uncached":
                if value["view.cache_lookups"] != 0:
                    problems.append(f"{label}: result cache consulted")
            status = "ok" if len(problems) == before else "FAILED"
            print(f"{label}: {status} ({detail['elapsed_s']:.1f}s)", flush=True)
    elapsed = time.monotonic() - started
    if elapsed > SMOKE_LIMIT_S:
        problems.append(f"smoke took {elapsed:.0f}s (limit {SMOKE_LIMIT_S:.0f}s)")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print(f"smoke {'failed' if problems else 'passed'} in {elapsed:.0f}s")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=12,
                        help="run length; BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--preset", choices=("tiny", "default"), default=None,
        help="override every workload's data preset (the smoke test uses tiny)",
    )
    parser.add_argument("--record", metavar="PATH",
                        help="append the stamped run to this JSON-lines file")
    parser.add_argument("--calibrate", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not data.source_present():
        print(f"error: no program source at {data.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(data.SRC))
    if args.calibrate:
        return calibrate()
    if args.smoke:
        return smoke()
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    result, detail = run_workload(args)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result))
    if args.record:
        record(args.record, result, detail)
    return 0


if __name__ == "__main__":
    sys.exit(main())
