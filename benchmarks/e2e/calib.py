"""Reference-speed timing for a host whose speed drifts.

A shared two-vCPU host runs the same pure-Python loop anywhere between
roughly 1x and 2x its best speed as neighbouring load comes and goes, so
raw wall-clock times do not repeat.  Every timed interval is therefore
converted to *reference milliseconds*::

    ref_ms = wall_ms * K_REF_MS / K_now

where ``K_now`` is the time a fixed calibration kernel takes at that
moment, and ``K_REF_MS`` is a constant.  Two ways of finding ``K_now``:

- :class:`OpTimer` (short operations): one kernel run before every
  operation; ``K_now`` is the median of the 31 kernel runs centred on
  the operation, or only the one before it for batch calls, which are
  longer.  The kernel runs the way the operation does: on one
  thread, on a pool of four threads for operations that fan out over
  the program's thread pool, or behind a loopback HTTP request for
  requests to the search service (:meth:`Calibrator.loopback`).
- :class:`LongOp` (set-up, a corpus delta): a ``SIGALRM`` timer runs the
  kernel every 50 ms on the timed thread and the interval is integrated
  piecewise, each piece scaled by the kernel runs around it.

:class:`Calibrator` also keeps the guard's books.  Background work
running while the kernel runs would slow the kernel and make the program
look faster, so during every kernel run it compares the process's CPU
time with this thread's (other threads) and reads a watched child's
``/proc/<pid>/stat`` (other processes).  More than 5% of kernel time
spent elsewhere fails the run.
"""

from __future__ import annotations

import contextlib
import gc
import http.client
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from operator import itemgetter
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

#: The kernel time that defines reference speed (ms).  Fixed here rather
#: than measured so that results from different runs and commits share
#: one unit.
K_REF_MS = 1.0
#: Kernel runs whose median calibrates one short operation.
WINDOW = 31
#: Period of the kernel timer during long operations (s).
TIMER_PERIOD_S = 0.05
#: Largest share of kernel time other threads or processes may use.
GUARD_LIMIT = 0.05
#: Dict updates the loopback kernel's server runs per request.
LOOPBACK_UPDATES = 1500
#: Threads of the pooled kernel: ``Pipeline.search_many``'s default.
POOL_WORKERS = 4

_KEYS = tuple(f"key{i:03d}" for i in range(500))
_BY_COUNT = itemgetter(1)


def kernel(updates: int = 6000) -> List[Tuple[str, int]]:
    """The calibration kernel: dict updates over 500 keys, a top-10 sort."""
    counts = {}
    keys = _KEYS
    for i in range(updates):
        key = keys[(i * 7919) % 500]
        counts[key] = counts.get(key, 0) + i
    return sorted(counts.items(), key=_BY_COUNT, reverse=True)[:10]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    rank = max(math.ceil(q * len(ordered)), 1)
    return ordered[rank - 1]


def _timed_kernels(runs: int) -> float:
    """``runs`` kernel runs on this thread; returns the thread's CPU time (s)."""
    started = time.thread_time()
    for _ in range(runs):
        kernel()
    return time.thread_time() - started


class _LoopbackHandler(BaseHTTPRequestHandler):
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        body = repr(kernel(LOOPBACK_UPDATES)).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args) -> None:
        pass


def serve_loopback() -> None:
    """The loopback kernel's server: prints its port, serves until killed."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _LoopbackHandler)
    server.daemon_threads = True
    print(server.server_address[1], flush=True)
    server.serve_forever()


class Calibrator:
    """Runs the kernel and accounts for CPU used elsewhere while it runs."""

    def __init__(self) -> None:
        self.samples_s: List[float] = []
        self.kernel_wall_s = 0.0
        self.other_cpu_s = 0.0
        self._stat_path: Optional[str] = None
        self._ticks = os.sysconf("SC_CLK_TCK")
        self._loopback_port: Optional[int] = None

    def watch(self, pid: Optional[int]) -> None:
        """Also charge the CPU of process ``pid`` to the guard (None stops)."""
        self._stat_path = None if pid is None else f"/proc/{pid}/stat"

    def _watched_cpu_s(self) -> float:
        if self._stat_path is None:
            return 0.0
        with open(self._stat_path, "rb") as handle:
            fields = handle.read().rsplit(b")", 1)[1].split()
        # Fields after the command name: utime and stime are the 12th and
        # 13th (fields 14 and 15 of proc(5)), in clock ticks.
        return (int(fields[11]) + int(fields[12])) / self._ticks

    def _timed(self, body: Callable[[], float]) -> float:
        """Run ``body`` with GC paused, keeping the guard's books.

        ``body`` returns the CPU time its own helper threads used, which
        is kernel work rather than background work.  Returns wall time (s).
        """
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            other_before = self._watched_cpu_s()
            process_before = time.process_time()
            thread_before = time.thread_time()
            started = time.perf_counter()
            helpers_cpu = body()
            elapsed = time.perf_counter() - started
            thread_used = time.thread_time() - thread_before
            process_used = time.process_time() - process_before
            other_used = self._watched_cpu_s() - other_before
        finally:
            if gc_was_enabled:
                gc.enable()
        self.kernel_wall_s += elapsed
        self.other_cpu_s += (
            max(process_used - thread_used - helpers_cpu, 0.0) + other_used
        )
        return elapsed

    def run_kernel(self) -> float:
        """One kernel run on this thread; returns its wall time (s)."""

        def once() -> float:
            kernel()
            return 0.0

        elapsed = self._timed(once)
        self.samples_s.append(elapsed)
        return elapsed

    @contextlib.contextmanager
    def pooled(self) -> Iterator[Callable[[], float]]:
        """Start a pool of ``POOL_WORKERS`` threads; yields the pooled kernel.

        The pooled kernel runs four kernel runs on every worker at once
        and returns the wall time per kernel run.  A thread pool
        contending for the interpreter lock slows with the host in ways
        one thread does not see (it needs both CPUs to hand the lock
        over), so operations on the program's pool are calibrated by this.
        """
        with ThreadPoolExecutor(max_workers=POOL_WORKERS) as pool:

            def run_pooled_kernel() -> float:
                def body() -> float:
                    return sum(pool.map(_timed_kernels, [4] * POOL_WORKERS))

                per_kernel = self._timed(body) / (4 * POOL_WORKERS)
                self.samples_s.append(per_kernel)
                return per_kernel

            yield run_pooled_kernel

    @contextlib.contextmanager
    def loopback(self) -> Iterator[Callable[[], float]]:
        """Start the loopback kernel's server; yields the kernel to run.

        The loopback kernel is one HTTP request over a fresh loopback
        connection to a stdlib ``ThreadingHTTPServer`` in a child process
        whose handler runs a quarter of the kernel: the same client,
        socket, thread-per-connection and parsing work as a request to the
        search service, none of it the program's.  HTTP round trips slow
        with the host less than pure Python does, so they are calibrated
        by this.  The child inherits this process's CPU affinity.
        """
        process = subprocess.Popen(
            [sys.executable, __file__, "--loopback"],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            self._loopback_port = int(process.stdout.readline())
            yield self.run_loopback_kernel
        finally:
            self._loopback_port = None
            process.kill()
            process.wait()
            process.stdout.close()

    def run_loopback_kernel(self) -> float:
        """One loopback kernel request; returns its wall time (s)."""

        def request() -> float:
            connection = http.client.HTTPConnection(
                "127.0.0.1", self._loopback_port, timeout=30
            )
            try:
                connection.request("GET", "/")
                connection.getresponse().read()
            finally:
                connection.close()
            return 0.0

        elapsed = self._timed(request)
        self.samples_s.append(elapsed)
        return elapsed

    @property
    def guard_share(self) -> float:
        """CPU used by other threads/processes as a share of kernel time."""
        if not self.kernel_wall_s:
            return 0.0
        return self.other_cpu_s / self.kernel_wall_s

    @property
    def guard_clean(self) -> bool:
        return self.guard_share <= GUARD_LIMIT

    def summary(self) -> dict:
        samples = [s * 1000.0 for s in self.samples_s]
        if not samples:
            return {"kernel_runs": 0}
        return {
            "kernel_runs": len(samples),
            "kernel_p50_ms": statistics.median(samples),
            "kernel_p95_over_p5": percentile(samples, 0.95)
            / percentile(samples, 0.05),
            "guard_share": self.guard_share,
        }


def _window_median(values: Sequence[float], centre: int, window: int) -> float:
    """Median of the ``window`` values centred on index ``centre``."""
    if len(values) <= window:
        return statistics.median(values)
    low = min(max(centre - window // 2, 0), len(values) - window)
    return statistics.median(values[low:low + window])


class OpTimer:
    """Times short operations, each preceded by one kernel run.

    ``kernel`` is the calibrator method to run (the plain, pooled or
    loopback kernel) and ``window`` the number of kernel runs whose median
    calibrates an operation: it should span about the seconds over which
    the host's speed holds, so longer operations use fewer.
    Records each operation's wall window; :meth:`timings` converts them
    once the run is over, when the kernel runs after the last operations
    are known too.
    """

    def __init__(self, calibrator: Calibrator,
                 kernel: Optional[Callable[[], float]] = None,
                 window: int = WINDOW) -> None:
        self.kernel = kernel or calibrator.run_kernel
        self.window = window
        self.kernels_s: List[float] = []
        self.windows: List[Tuple[float, float]] = []

    def time(self, fn: Callable, *args):
        self.kernels_s.append(self.kernel())
        started = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.windows.append((started, time.perf_counter()))

    def wall_ms(self) -> List[float]:
        return [(end - start) * 1000.0 for start, end in self.windows]

    def factors(self) -> List[float]:
        """Per operation, ``K_REF / K_now``."""
        return [
            K_REF_MS / (1000.0 * _window_median(self.kernels_s, i, self.window))
            for i in range(len(self.windows))
        ]

    def timings(self) -> "Timings":
        wall = self.wall_ms()
        return Timings(
            [ms * factor for ms, factor in zip(wall, self.factors())], wall
        )


@dataclass
class Timings:
    """Per-operation times of one measured phase, reference and raw."""

    ref_ms: List[float] = field(default_factory=list)
    wall_ms: List[float] = field(default_factory=list)


class LongOp:
    """Context manager timing one long interval in reference milliseconds.

    A kernel run brackets the interval on each side and a ``SIGALRM``
    timer runs one every ``TIMER_PERIOD_S`` inside it.  The kernel runs
    are cut out of the interval; each remaining piece is scaled by the
    median of the kernel runs around it.
    """

    def __init__(self, calibrator: Calibrator) -> None:
        self.calibrator = calibrator
        self.wall_ms = 0.0
        self.ref_ms = 0.0
        self.start = self.end = 0.0
        self._before = 0.0
        self._marks: List[Tuple[float, float, float]] = []
        self._previous_handler = None

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        kernel_s = self.calibrator.run_kernel()
        self._marks.append((started, time.perf_counter(), kernel_s))

    def __enter__(self) -> "LongOp":
        self._before = self.calibrator.run_kernel()
        self._marks = []
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TIMER_PERIOD_S, TIMER_PERIOD_S)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous_handler)
        after = self.calibrator.run_kernel()
        kernels = [self._before] + [mark[2] for mark in self._marks] + [after]
        pieces: List[float] = []
        cursor = self.start
        for started, ended, _ in self._marks:
            pieces.append(started - cursor)
            cursor = ended
        pieces.append(self.end - cursor)
        wall = ref = 0.0
        for index, piece in enumerate(pieces):
            # Piece ``index`` lies between kernels[index] and
            # kernels[index + 1]; use the six runs around it.
            around = kernels[max(index - 2, 0):index + 4]
            wall += piece
            ref += piece * K_REF_MS / (1000.0 * statistics.median(around))
        self.wall_ms = wall * 1000.0
        self.ref_ms = ref * 1000.0
        return False

    @property
    def factor(self) -> float:
        """Average ``K_REF / K_now`` over the interval."""
        return self.ref_ms / self.wall_ms if self.wall_ms else 1.0


if __name__ == "__main__" and sys.argv[1:] == ["--loopback"]:
    serve_loopback()
