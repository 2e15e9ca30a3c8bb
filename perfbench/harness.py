"""Measurement machinery shared by every workload of the benchmark.

- :func:`percentile` — nearest-rank percentiles that refuse to report a
  tail the sample cannot support (at least ten samples beyond it);
- :func:`run_closed_loop` — one generator thread keeping a fixed window
  of requests in flight, timing each request from submit to the moment
  its answer arrives;
- :class:`ProcessMeter` — CPU time and peak RSS of this process plus
  its child processes, read from ``/proc`` and ``resource``;
- :func:`run_metadata` — interpreter, library and BLAS facts of a run,
  including the thread variables exactly as found (never set here).
"""

from __future__ import annotations

import ctypes
import math
import os
import platform
import queue
import resource
import statistics
import time
from dataclasses import dataclass, field

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    OverloadedError,
    QuotaExceededError,
    ServiceOverloadedError,
)

#: A reported percentile needs at least this many samples ranked above it.
MIN_BEYOND = 10

#: A request with no answer this long after the latest arrival times out.
REQUEST_TIMEOUT_S = 30.0

#: Thread-count variables recorded as found; the benchmark never sets them.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_CLK_TCK = os.sysconf("SC_CLK_TCK")


class InsufficientSamples(ValueError):
    """The sample is too small to support the requested percentile."""


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``samples``.

    Failed requests enter as ``math.inf``, so they rank above every
    answer and count as missing the percentile. Raises
    :class:`InsufficientSamples` unless at least :data:`MIN_BEYOND`
    samples rank strictly above the reported one.
    """
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if len(ordered) - rank < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{q:g} of {len(ordered)} samples leaves {len(ordered) - rank} "
            f"beyond it; need {MIN_BEYOND}"
        )
    return ordered[rank - 1]


# ----------------------------------------------------------------------
# closed-loop load generation
# ----------------------------------------------------------------------


@dataclass
class LoopResult:
    """Outcome of one closed-loop phase."""

    attempted: int = 0
    completed: int = 0
    #: Failure kind ("rejected", "failed", "timed-out", ...) -> count.
    failures: dict = field(default_factory=dict)
    #: One entry per attempted request; ``inf`` for every failure.
    latencies_s: list = field(default_factory=list)
    wall_s: float = 0.0
    max_in_flight: int = 0

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def fail(self, kind: str, count: int = 1) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + count
        self.latencies_s.extend([math.inf] * count)


def merge_loops(loops) -> LoopResult:
    """Pool several phases: counts and walls add, samples concatenate."""
    out = LoopResult()
    for loop in loops:
        out.attempted += loop.attempted
        out.completed += loop.completed
        for kind, count in loop.failures.items():
            out.failures[kind] = out.failures.get(kind, 0) + count
        out.latencies_s.extend(loop.latencies_s)
        out.wall_s += loop.wall_s
        out.max_in_flight = max(out.max_in_flight, loop.max_in_flight)
    return out


def failure_kind(exc: BaseException) -> str:
    """Failure class of a serving error, for the failure table."""
    if isinstance(exc, (ServiceOverloadedError, CircuitOpenError, QuotaExceededError)):
        return "rejected"
    if isinstance(exc, OverloadedError):
        return "shed"
    if isinstance(exc, DeadlineExceededError):
        return "timed-out"
    return "failed"


def on_done(ticket, callback) -> None:
    """Run ``callback()`` in whichever thread completes ``ticket``.

    Serving tickets expose only blocking accessors, so the arrival hook
    attaches to the future they wrap.
    """
    ticket._future.add_done_callback(lambda _future: callback())


def run_closed_loop(
    submit,
    request_at,
    *,
    window: int,
    seconds: float,
    on_answer=None,
    timeout_s: float = REQUEST_TIMEOUT_S,
) -> LoopResult:
    """Drive ``submit`` as a closed loop for ``seconds``.

    ``request_at(i)`` yields the ``i``-th request of the stream;
    ``submit(request)`` returns a ticket (``result``/``exception``
    accessors over a wrapped future) or raises when refused. The loop
    keeps ``window`` requests in flight and launches the next one only
    when an earlier one completes, so it never exceeds the window. Each
    request's latency runs from just before ``submit`` to the moment its
    answer arrives (stamped in the completing thread, not when this
    thread gets round to it). After ``seconds`` no new request starts;
    the ones in flight drain. A request with no answer ``timeout_s``
    after the latest arrival counts as timed out. ``on_answer(i,
    result)`` sees every successful answer.
    """
    out = LoopResult()
    arrivals: queue.SimpleQueue = queue.SimpleQueue()
    next_index = 0
    in_flight = 0
    start = time.perf_counter()
    deadline = start + seconds
    last = start

    def launch() -> None:
        nonlocal next_index, in_flight
        index = next_index
        next_index += 1
        request = request_at(index)
        out.attempted += 1
        sent = time.perf_counter()
        try:
            ticket = submit(request)
        except Exception as exc:  # a refused submit is a counted failure
            out.fail(failure_kind(exc))
            return
        in_flight += 1
        out.max_in_flight = max(out.max_in_flight, in_flight)
        on_done(
            ticket,
            lambda: arrivals.put((index, sent, time.perf_counter(), ticket)),
        )

    while True:
        while in_flight < window and time.perf_counter() < deadline:
            launch()
        if in_flight == 0:
            break
        try:
            index, sent, arrived, ticket = arrivals.get(timeout=timeout_s)
        except queue.Empty:
            out.fail("timed-out", in_flight)
            in_flight = 0
            break
        in_flight -= 1
        last = max(last, arrived)
        exc = ticket.exception(0)
        if exc is not None:
            out.fail(failure_kind(exc))
            continue
        out.completed += 1
        out.latencies_s.append(arrived - sent)
        if on_answer is not None:
            on_answer(index, ticket.result(0))
    out.wall_s = (last if out.completed else time.perf_counter()) - start
    return out


def end_to_end(measured: dict, setup_s: float, accuracy: dict, *, serve: bool) -> dict:
    """Every end-to-end metric of one measured phase, with units.

    ``serve`` names the throughput ``throughput_rps`` (requests) rather
    than ``trials_per_s``; ``ops_per_s`` carries it under one name.
    """
    loop = measured["loop"]
    # The median of the rounds' p99s; the pooled p99 where there are no
    # rounds or a round is too short to support its own (a slow tier).
    try:
        p99 = statistics.median(
            percentile(r.latencies_s, 99) for r in measured["round_loops"]
        )
    except (KeyError, InsufficientSamples):
        p99 = percentile(loop.latencies_s, 99)
    # A percentile that lands on a failed request reads as the timeout.
    p50, p99 = (min(p, REQUEST_TIMEOUT_S) for p in (percentile(loop.latencies_s, 50), p99))
    values = {
        "throughput_rps" if serve else "trials_per_s": (
            loop.completed / loop.wall_s,
            "req/s" if serve else "trials/s",
        ),
        "latency_p50_ms": (p50 * 1e3, "ms"),
        "latency_p99_ms": (p99 * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "failed_frac": (loop.failed / loop.attempted, "ratio"),
        "rel_error_mean": (accuracy["rel_error_mean"], "ratio"),
        "saturated_frac": (accuracy["saturated_frac"], "ratio"),
        "analog_time_us_mean": (accuracy["analog_time_us_mean"], "us"),
        "unsettled_frac": (accuracy["unsettled_frac"], "ratio"),
        "cpu_ms_per_op": (measured["cpu_s"] * 1e3 / max(1, loop.completed), "ms"),
        "peak_rss_mb": (measured["peak_rss_mb"], "MB"),
    }
    values["ops_per_s"] = (loop.completed / loop.wall_s, "1/s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


# ----------------------------------------------------------------------
# process accounting
# ----------------------------------------------------------------------


def _stat(pid) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name (state first)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()
    except OSError:  # exited
        return None


def _parents() -> dict[int, int]:
    """pid -> parent pid of every live process."""
    parents = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit() and (fields := _stat(entry)) is not None:
            parents[int(entry)] = int(fields[1])
    return parents


def child_pids() -> list[int]:
    """Live child processes of this process."""
    me = os.getpid()
    return [pid for pid, parent in _parents().items() if parent == me]


def descendants() -> set[int]:
    """Every live process below this one (children, grandchildren, ...)."""
    parents = _parents()
    found, frontier = set(), {os.getpid()}
    while frontier:
        frontier = {pid for pid, parent in parents.items() if parent in frontier} - found
        found |= frontier
    return found


def wait_gone(pids, timeout_s: float = 10.0) -> set[int]:
    """Wait until none of ``pids`` runs any more; returns the ones left."""
    deadline = time.monotonic() + timeout_s
    left = set(pids)
    while left:
        left = {pid for pid in left if (fields := _stat(pid)) and fields[0] != "Z"}
        if not left or time.monotonic() > deadline:
            break
        time.sleep(0.02)
    return left


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of ``pid`` (0 once it has exited)."""
    fields = _stat(pid)
    return 0.0 if fields is None else (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_status(pid: int, key: str) -> int:
    """Integer field ``key`` of ``/proc/<pid>/status`` (kB for sizes)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class ProcessMeter:
    """CPU time of this process and its children over one phase.

    Live children are read from ``/proc`` at both ends of the phase;
    children reaped during it are covered by ``RUSAGE_CHILDREN``.
    """

    def start(self) -> "ProcessMeter":
        self._self0 = time.process_time()
        self._reaped0 = _rusage_cpu(resource.RUSAGE_CHILDREN)
        self._kids0 = {pid: proc_cpu_s(pid) for pid in child_pids()}
        return self

    def stop(self) -> "ProcessMeter":
        self.self_cpu_s = time.process_time() - self._self0
        #: Live child pid -> CPU seconds spent during the phase.
        self.child_cpu_by_pid = {
            pid: proc_cpu_s(pid) - self._kids0.get(pid, 0.0) for pid in child_pids()
        }
        self.child_cpu_s = sum(self.child_cpu_by_pid.values()) + (
            _rusage_cpu(resource.RUSAGE_CHILDREN) - self._reaped0
        )
        return self

    @property
    def cpu_s(self) -> float:
        return self.self_cpu_s + self.child_cpu_s


def _rusage_cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the peaks of its live children."""
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids_kb = sum(proc_status(pid, "VmHWM") for pid in child_pids())
    return (own_kb + kids_kb) / 1024.0


# ----------------------------------------------------------------------
# run metadata
# ----------------------------------------------------------------------

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _loaded_blas_threads() -> dict:
    """Effective thread count of every OpenBLAS loaded in this process."""
    paths = set()
    with open("/proc/self/maps", encoding="utf-8", errors="replace") as handle:
        for line in handle:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower() and path.endswith(".so"):
                paths.add(path)
    threads = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in _THREAD_SYMBOLS:
            function = getattr(lib, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                threads[os.path.basename(path)] = function()
                break
    return threads


def run_metadata() -> dict:
    """Facts a reader needs to compare this run with another one."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads SciPy's own OpenBLAS)

    def blas(config) -> str:
        info = config(mode="dicts")["Build Dependencies"]["blas"]
        return info.get("openblas configuration") or info.get("name", "?")

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "blas_threads": _loaded_blas_threads(),
        "env": {name: os.environ.get(name) for name in THREAD_ENV},
    }
