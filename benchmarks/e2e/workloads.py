"""The four workloads, their set-up, and the correctness oracle.

Every workload is closed loop with one caller in one process and runs a
fixed, seeded list of operations whose length scales with ``--seconds``,
so two commits always run the identical multiset of operations.

- ``search_uncached``: distinct ``GET /search`` requests dispatched
  in-process through ``SearchService.dispatch`` on a pipeline opened like
  ``repro serve --no-result-cache`` with telemetry on, balanced over
  arms and selection strategies; the index and context search do nearly
  all the work.
- ``search_hot``: a real ``repro serve`` child with default flags, one
  connection at a time, Zipf(1.1) draws over 128 distinct requests after
  an untimed fill pass, so every request is a result-cache hit and the
  index does nothing.
- ``batch_eval``: rounds of ``Pipeline.search_many(use_cache=False)``
  calls with the default 4 workers, the same 30 topical queries in one
  call on every evaluation arm -- the call shape of ``repro evaluate``.
- ``ingest_delta``: corpus deltas on a copy of the ``tiny`` workspace via
  ``repro.workspace.ingest_delta``; time to searchable is the delta plus
  a first answer on every arm, followed by uncached reads.
"""

from __future__ import annotations

import gc
import http.client
import json
import math
import os
import random
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.parse
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import data
import layers
from calib import WINDOW, Calibrator, LongOp, OpTimer, Timings, percentile
from repro import scoring, workspace
from repro.core.search import SELECTION_STRATEGIES, ContextSearchEngine
from repro.corpus.corpus import Corpus
from repro.datagen.queries import generate_queries
from repro.index.search import KeywordSearchEngine
from repro.obs import configure_telemetry, reset_telemetry
from repro.pipeline import Pipeline
from repro.serving.service import SearchService

HERE = Path(__file__).resolve().parent
ARMS: Tuple[Tuple[str, str], ...] = tuple(scoring.evaluation_arms())
STRATEGIES: Tuple[str, ...] = tuple(SELECTION_STRATEGIES)
#: One answer in this many is compared with the oracle (batch: calls).
ORACLE_EVERY = 25
ORACLE_EVERY_BATCH = 10
TOP_K = 10
#: ``repro evaluate``'s default ``--queries``: one call per arm carries them.
BATCH_QUERIES = 30
#: ``batch_eval`` rounds and ``ingest_delta`` deltas per ``--seconds``.
ROUNDS_PER_SECOND = 4 / 3
DELTAS_PER_SECOND = 1 / 3

Arm = Tuple[str, str]  # (score function, paper set)
Request = Tuple[str, Arm, str]  # (query, arm, selection strategy)


class Run:
    """State of one benchmark run: counters, calibration, trace windows."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool,
                 preset: Optional[str]) -> None:
        self.seed = seed
        self.seconds = seconds
        self.preset_override = preset
        self.rng = random.Random(f"{workload}:{seed}")
        self.calibrator = Calibrator()
        self.tracer: Optional[layers.Tracer] = layers.Tracer() if trace else None
        self.windows: List[layers.Window] = []
        self.attempted = 0
        self.failed = 0
        self.oracle_checked = 0
        self.errors: List[str] = []
        self.detail: Dict[str, object] = {}
        self.setup_samples: List[LongOp] = []
        self.trace_overhead = 0.0

    def preset(self, default: str) -> str:
        return self.preset_override or default

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def compare(self, what: str, got: Sequence, expected: Sequence) -> None:
        self.oracle_checked += 1
        if list(got) != list(expected):
            self.fail(f"oracle mismatch on {what}: got {list(got)[:2]}..., "
                      f"expected {list(expected)[:2]}...")

    # -- set-up ------------------------------------------------------------------

    def open(self, data_dir: Path, first_query: str, opens: int = 1,
             **pipeline_kwargs) -> Pipeline:
        """``opens`` timed cold opens, each with a first answer on every arm.

        Each open is one set-up sample; returns the last pipeline.
        """
        pipeline = None
        for _ in range(opens):
            pipeline = None
            gc.collect()
            if self.tracer is not None:
                self.tracer.install()
            try:
                with LongOp(self.calibrator) as op:
                    pipeline = Pipeline.open_workspace(data_dir, **pipeline_kwargs)
                    for function, paper_set in ARMS:
                        pipeline.search(
                            first_query, function=function, paper_set_name=paper_set
                        )
            finally:
                if self.tracer is not None:
                    self.tracer.uninstall()
            self.windows.append(layers.Window("setup", op.start, op.end, op.factor))
            self.setup_samples.append(op)
        return pipeline

    # -- the measured phase ----------------------------------------------------------

    def measured(self, measure: Callable[[bool], Timings]) -> Timings:
        """Run the measured phase; traced runs measure it untraced first.

        The untraced pass gives ``bench.trace_overhead``; only the traced
        pass's windows are kept for attribution.
        """
        if self.tracer is None:
            return measure(False)
        kept = len(self.windows)
        plain = measure(False)
        del self.windows[kept:]
        self.tracer.install()
        try:
            traced = measure(True)
        finally:
            self.tracer.uninstall()
        self.trace_overhead = sum(traced.ref_ms) / sum(plain.ref_ms) - 1.0
        return traced

    def closed_loop(self, ops: Sequence, call: Callable, check: Callable,
                    kernel: Optional[Callable[[], float]] = None,
                    window: int = WINDOW, kind: str = "op") -> Timings:
        """Time ``call(op)`` for every op; ``check(index, op, answer)`` untimed."""
        timer = OpTimer(self.calibrator, kernel, window)
        for index, op in enumerate(ops):
            self.attempted += 1
            try:
                answer = timer.time(call, op)
            except Exception as error:  # one failed operation, not a broken run
                self.fail(f"{op!r}: {type(error).__name__}: {error}")
                continue
            check(index, op, answer)
        for (start, end), factor in zip(timer.windows, timer.factors()):
            self.windows.append(layers.Window(kind, start, end, factor))
        return timer.timings()


# -- shared helpers -----------------------------------------------------------------


def distinct_queries(preset: str, count: int, seed: int) -> List[str]:
    """``count`` distinct topical queries (cycled if the topic space is small)."""
    dataset = data.generated_dataset(preset)
    drawn = generate_queries(dataset, n_queries=2 * count, seed=seed)
    queries = list(dict.fromkeys(workload.query for workload in drawn))
    while len(queries) < count:
        queries.extend(queries[:count - len(queries)])
    return queries[:count]


def draw_requests(rng: random.Random, queries: Sequence[str]) -> List[Request]:
    """Pair queries with arm x strategy combinations, each used equally often.

    Balanced rather than independent draws: the combinations differ in
    cost by up to 3x, so their mix would otherwise move the latency
    percentiles from seed to seed.
    """
    combos = [(arm, strategy) for arm in ARMS for strategy in STRATEGIES]
    drawn = combos * -(-len(queries) // len(combos))
    rng.shuffle(drawn)
    return [(query, arm, strategy) for query, (arm, strategy) in zip(queries, drawn)]


def search_params(request: Request) -> Dict[str, List[str]]:
    query, (function, paper_set), strategy = request
    return {
        "q": [query],
        "score_function": [function],
        "paper_set": [paper_set],
        "selection_strategy": [strategy],
    }


def hits_of_body(body) -> List[Tuple[str, float]]:
    return [(hit["paper_id"], hit["relevancy"]) for hit in json.loads(body)["hits"]]


def hits_of(results) -> List[Tuple[str, float]]:
    return [(hit.paper_id, hit.relevancy) for hit in results]


def vm_hwm_mb(pid: "int | str" = "self") -> float:
    """Peak resident set size of a process (``VmHWM``) in MB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def warm(pipeline: Pipeline, queries: Iterable[str],
         engines: Iterable[Tuple[Arm, str]]) -> None:
    """Fill the program's warm-up caches before timing (untimed).

    Per-term postings contributions and per-engine context caches are
    built once per process in a long-running server, so a steady-state
    measurement starts with them filled.
    """
    for query in queries:
        pipeline.keyword_engine.evaluate(query)
    for (function, paper_set), strategy in engines:
        pipeline.search_engine(function, paper_set, strategy).warm()


class Oracle:
    """Reference answers from a plain ``ContextSearchEngine``.

    Built from the opened substrate with a fresh ``KeywordSearchEngine``:
    no result cache, no service, no thread pool, no serving view.
    """

    def __init__(self, pipeline: Pipeline) -> None:
        self.pipeline = pipeline
        self._revision: Optional[int] = None
        self._engines: Dict[Tuple[str, str, str], ContextSearchEngine] = {}
        self._keyword: Optional[KeywordSearchEngine] = None

    def answer(self, request: Request) -> List[Tuple[str, float]]:
        query, (function, paper_set), strategy = request
        store = self.pipeline.substrates
        if store.revision != self._revision:
            self._revision = store.revision
            self._engines = {}
            self._keyword = KeywordSearchEngine(store.index)
        key = (function, paper_set, strategy)
        engine = self._engines.get(key)
        if engine is None:
            representative = strategy == "representative"
            engine = self._engines[key] = ContextSearchEngine(
                store.ontology,
                store.paper_set(paper_set),
                store.prestige(function, paper_set),
                self._keyword,
                w_prestige=self.pipeline.w_prestige,
                w_matching=self.pipeline.w_matching,
                selection_strategy=strategy,
                vectors=store.vectors if representative else None,
                representatives=store.representatives if representative else None,
            )
        return hits_of(engine.search(query, threshold=0.0, limit=TOP_K))


def end_to_end(run: Run, timings: Timings, rss_mb: float,
               units_per_op: float = 1.0) -> Dict[str, float]:
    """The end-to-end metrics of one run; ungated extras go to ``run.detail``."""
    ref, wall = timings.ref_ms, timings.wall_ms
    run.detail.update({
        "ops": len(ref),
        # Nearest-rank: the samples beyond a percentile are those ranked
        # above it.  Fewer than ten make it a reported, not a resolved, value.
        "p90_samples_beyond": len(ref) - max(math.ceil(0.9 * len(ref)), 1),
        "p99_ms": percentile(ref, 0.99),
        "p99_samples_beyond": len(ref) - max(math.ceil(0.99 * len(ref)), 1),
        "wall_p50_ms": statistics.median(wall),
        "wall_p90_ms": percentile(wall, 0.9),
        "wall_throughput": len(wall) * units_per_op / (sum(wall) / 1000.0),
        "setup_wall_s": [op.wall_ms / 1000.0 for op in run.setup_samples],
    })
    return {
        "setup_s": statistics.median(op.ref_ms for op in run.setup_samples) / 1000.0,
        "p50_ms": statistics.median(ref),
        "p90_ms": percentile(ref, 0.9),
        "throughput": len(ref) * units_per_op / (sum(ref) / 1000.0),
        "peak_rss_mb": rss_mb,
    }


# -- search_uncached ------------------------------------------------------------------


def search_uncached(run: Run) -> Dict[str, float]:
    preset = run.preset("default")
    data_dir = data.prepared(preset)
    queries = distinct_queries(preset, 150 * run.seconds, run.seed)
    requests = draw_requests(run.rng, queries)
    configure_telemetry(enabled=True, sample_rate=0.05, slow_ms=100.0, seed=run.seed)
    try:
        # The measured pipeline is the first one opened, so the peak RSS
        # is one open plus the workload; the other set-up samples follow.
        pipeline = run.open(data_dir, queries[0], result_cache_size=0)
        service = SearchService(pipeline, port=0).start()
        try:
            warm(pipeline, queries, {(arm, s) for _, arm, s in requests})
            saved: List[Tuple[Request, str]] = []

            def call(request: Request):
                return service.dispatch("GET", "/search", search_params(request))

            def check(index: int, request: Request, response) -> None:
                if response.status != 200:
                    run.fail(f"{request}: HTTP {response.status}")
                elif index % ORACLE_EVERY == 0:
                    saved.append((request, response.body))

            timings = run.measured(
                lambda traced: run.closed_loop(requests, call, check)
            )
        finally:
            service.stop()
        rss_mb = vm_hwm_mb()
        del service, pipeline
        pipeline = run.open(data_dir, queries[0], opens=2, result_cache_size=0)
        oracle = Oracle(pipeline)
        for request, body in saved:
            run.compare(repr(request), hits_of_body(body), oracle.answer(request))
    finally:
        reset_telemetry()
    return end_to_end(run, timings, rss_mb)


# -- search_hot -----------------------------------------------------------------------


class ServeChild:
    """A ``repro serve`` child process on an ephemeral port."""

    BANNER = re.compile(rb" on http://[0-9.]+:(\d+) ")

    def __init__(self, data_dir: Path, trace_file: Optional[Path]) -> None:
        command = [sys.executable, str(HERE / "serve_child.py")]
        if trace_file is not None:
            command += ["--trace-file", str(trace_file)]
        # --for-seconds bounds the child's life should this process die.
        command += ["serve", "--data", str(data_dir), "--port", "0",
                    "--for-seconds", "300"]
        env = data.child_env()
        env["PYTHONUNBUFFERED"] = "1"
        self.process = subprocess.Popen(command, env=env, stdout=subprocess.PIPE)
        try:
            self.port = self._await_port(deadline=time.monotonic() + 120.0)
        except BaseException:
            self.stop()
            raise

    @property
    def pid(self) -> int:
        return self.process.pid

    def _await_port(self, deadline: float) -> int:
        out = self.process.stdout.fileno()
        seen = b""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("repro serve did not print its address in time")
            ready, _, _ = select.select([out], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(out, 4096)
            if not chunk:
                raise RuntimeError(
                    f"repro serve exited early with {self.process.wait()}"
                )
            seen += chunk
            match = self.BANNER.search(seen)
            if match:
                return int(match.group(1))

    def get(self, path: str) -> Tuple[int, bytes]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def zipf_draws(rng: random.Random, count: int, draws: int,
               exponent: float = 1.1) -> List[int]:
    weights = [1.0 / rank ** exponent for rank in range(1, count + 1)]
    return rng.choices(range(count), weights=weights, k=draws)


def search_hot(run: Run) -> Dict[str, float]:
    preset = run.preset("default")
    queries = distinct_queries(preset, 128, run.seed)
    distinct = draw_requests(run.rng, queries)
    paths = [
        "/search?" + urllib.parse.urlencode(search_params(r), doseq=True)
        for r in distinct
    ]
    draws = zipf_draws(run.rng, len(distinct), 300 * run.seconds)
    data_dir = data.prepared(preset)
    pipeline = run.open(data_dir, queries[0], opens=3)
    saved: List[Tuple[Request, bytes]] = []
    rss_mb: List[float] = []
    trace_dir = data.run_dir("trace")

    def check(position: int, index: int, answer: Tuple[int, bytes]) -> None:
        status, body = answer
        if status != 200:
            run.fail(f"{distinct[index]}: HTTP {status}")
        elif position % ORACLE_EVERY == 0:
            saved.append((distinct[index], body))

    def measure(traced: bool) -> Timings:
        trace_file = trace_dir / "serve_spans.json"
        # Client and server share one CPU (the child inherits the mask),
        # so the kernel times the CPU that serves every request; a
        # request bouncing between CPUs would also wait on the other one,
        # which the client's kernel never sees.
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(allowed)})
        try:
            child = ServeChild(data_dir, trace_file if traced else None)
            try:
                for path in paths:  # fill the result cache, untimed
                    child.get(path)
                run.calibrator.watch(child.pid)
                try:
                    with run.calibrator.loopback() as loopback:

                        def kernel() -> float:
                            # Let the server finish the last request (the
                            # CPU is shared) before the kernel runs.
                            os.sched_yield()
                            return loopback()

                        timings = run.closed_loop(
                            draws, lambda index: child.get(paths[index]), check,
                            kernel=kernel,
                        )
                finally:
                    run.calibrator.watch(None)
                rss_mb.append(vm_hwm_mb(child.pid))
            finally:
                child.stop()
        finally:
            os.sched_setaffinity(0, allowed)
        if traced:
            run.tracer.spans.extend(layers.Tracer.load(str(trace_file)))
        return timings

    try:
        timings = run.measured(measure)
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    oracle = Oracle(pipeline)
    for request, body in saved:
        run.compare(repr(request), hits_of_body(body), oracle.answer(request))
    return end_to_end(run, timings, rss_mb[0])


# -- batch_eval -----------------------------------------------------------------------


def batch_eval(run: Run) -> Dict[str, float]:
    preset = run.preset("default")
    data_dir = data.prepared(preset)
    # One operation is a round in the shape of ``repro evaluate``: the
    # same BATCH_QUERIES queries in one call on every arm.  Calls on
    # different arms differ in cost by up to 3x, so percentiles over
    # single calls would jump between the arms' modes.
    rounds = max(2, round(ROUNDS_PER_SECOND * run.seconds))
    n_calls = rounds * len(ARMS)
    # Every seed runs the same queries, as ``repro evaluate`` does, in a
    # seeded order: their cost varies so much that seeded draws of 480
    # moved a run's throughput by up to 9% from seed to seed.
    queries = distinct_queries(preset, BATCH_QUERIES * rounds, data.CORPUS_SEED)
    run.rng.shuffle(queries)
    calls = [
        (queries[BATCH_QUERIES * r:BATCH_QUERIES * (r + 1)], arm)
        for r in range(rounds)
        for arm in ARMS
    ]
    pipeline = run.open(data_dir, queries[0])
    warm(pipeline, queries, [(arm, "probe") for arm in ARMS])
    saved: List[Tuple[Tuple[List[str], Arm], List]] = []

    def call(batch):
        batch_queries, (function, paper_set) = batch
        return pipeline.search_many(
            batch_queries, function=function, paper_set_name=paper_set,
            use_cache=False,
        )

    def check(index: int, batch, answers) -> None:
        if len(answers) != len(batch[0]):
            run.fail(f"batch {index}: {len(answers)} answers for {len(batch[0])}")
        # One call in ORACLE_EVERY_BATCH, moving through the arms (calls
        # cycle over them, so a fixed offset would check one arm only).
        elif index % ORACLE_EVERY_BATCH == (index // ORACLE_EVERY_BATCH) % len(ARMS):
            saved.append((batch, answers))

    def measure(traced: bool) -> Timings:
        # Each call is scaled by the pooled kernel run just before it: the
        # pool's speed follows the host's within a call or two.  Over 28
        # seeds this cut the spread of p50_ms from 4.9% to 4.0% and of
        # p90_ms from 7.9% to 6.2%, against the median of 13 kernel runs.
        with run.calibrator.pooled() as kernel:
            per_call = run.closed_loop(calls, call, check, kernel=kernel, window=1)
        starts = range(0, n_calls, len(ARMS))
        return Timings(
            [sum(per_call.ref_ms[i:i + len(ARMS)]) for i in starts],
            [sum(per_call.wall_ms[i:i + len(ARMS)]) for i in starts],
        )

    timings = run.measured(measure)
    rss_mb = vm_hwm_mb()
    del pipeline
    oracle = Oracle(run.open(data_dir, queries[0], opens=2))
    for (batch_queries, arm), answers in saved:
        for query, hits in zip(batch_queries, answers):
            request = (query, arm, "probe")
            run.compare(repr(request), hits_of(hits), oracle.answer(request))
    return end_to_end(run, timings, rss_mb, units_per_op=BATCH_QUERIES * len(ARMS))


# -- ingest_delta ---------------------------------------------------------------------


def ingest_delta(run: Run) -> Dict[str, float]:
    preset = run.preset("tiny")
    deltas = max(2, round(DELTAS_PER_SECOND * run.seconds))
    queries = distinct_queries(preset, 200, run.seed)
    scratch = data.run_dir("ingest")
    try:
        data_dir = scratch / preset
        shutil.copytree(data.prepared(preset), data_dir)
        pipeline = run.open(data_dir, queries[0], opens=21)
        passes = 2 if run.tracer is not None else 1
        victims = run.rng.sample(pipeline.corpus.paper_ids(), 2 * deltas * passes)
        removed: List = []  # the Paper objects the latest delta removed
        reads: List[float] = []
        oracle = Oracle(pipeline)

        def check_leaks(request, hits) -> List[Tuple[str, float]]:
            answer = hits_of(hits)
            leaked = {pid for pid, _ in answer} & {p.paper_id for p in removed}
            if leaked:
                run.fail(f"removed papers {sorted(leaked)} answered {request}")
            return answer

        def check_read(index: int, request: Request, hits) -> None:
            answer = check_leaks(request, hits)
            if index % ORACLE_EVERY == 0:
                run.compare(repr(request), answer, oracle.answer(request))

        def read(request: Request):
            query, (function, paper_set), strategy = request
            return pipeline.search(
                query, function=function, paper_set_name=paper_set,
                selection_strategy=strategy, use_cache=False,
            )

        def measure(traced: bool) -> Timings:
            nonlocal removed
            tts = Timings()
            for _ in range(deltas):
                gone = [victims.pop() for _ in range(2)]
                readd, removed = removed, [pipeline.corpus.paper(p) for p in gone]
                run.attempted += 1
                with LongOp(run.calibrator) as op:
                    workspace.ingest_delta(
                        pipeline, data_dir / "workspace",
                        added_papers=readd, removed_ids=gone,
                    )
                    first = [
                        pipeline.search(queries[0], function=f, paper_set_name=p)
                        for f, p in ARMS
                    ]
                tts.ref_ms.append(op.ref_ms)
                tts.wall_ms.append(op.wall_ms)
                run.windows.append(layers.Window("delta", op.start, op.end, op.factor))
                for arm, hits in zip(ARMS, first):
                    check_leaks((queries[0], arm, "probe"), hits)
                requests = draw_requests(run.rng, run.rng.sample(queries, 20))
                reads.extend(
                    run.closed_loop(requests, read, check_read, kind="read").ref_ms
                )
            return tts

        timings = run.measured(measure)
        rss_mb = vm_hwm_mb()
        run.detail["read_p50_ms"] = statistics.median(reads)
        # After the last delta, rankings must equal a pipeline built from
        # scratch on the final corpus.
        rebuilt = Pipeline(
            Corpus(list(pipeline.corpus)), pipeline.ontology, pipeline.training_papers
        )
        for query in run.rng.sample(queries, 20):
            for arm in ARMS:
                for strategy in STRATEGIES:
                    run.compare(
                        f"scratch {(query, arm, strategy)!r}",
                        hits_of(read((query, arm, strategy))),
                        hits_of(rebuilt.search(
                            query, function=arm[0], paper_set_name=arm[1],
                            selection_strategy=strategy, use_cache=False,
                        )),
                    )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return end_to_end(run, timings, rss_mb)


WORKLOADS: Dict[str, Callable[[Run], Dict[str, float]]] = {
    "search_uncached": search_uncached,
    "search_hot": search_hot,
    "batch_eval": batch_eval,
    "ingest_delta": ingest_delta,
}
