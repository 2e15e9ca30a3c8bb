"""Process-based service workers behind the network front-end.

The in-process :class:`~repro.serve.service.SolverService` shards onto
*threads*; this pool shards the same way onto *processes*, so heavy
solves scale past the GIL on multi-core hosts. Each worker process runs
the same :class:`~repro.serve.shard.ShardEngine` a thread shard runs —
batching, deadlines, breakers, bisection and the digital fallback are
one code path in both tiers — so results are bit-identical to
:func:`~repro.serve.service.run_sequential` regardless of process count
or scheduling. What the worker adds is the process transport: admission
against its matrix table, the chaos kill escalation (the engine's
kernel), and publishing outcomes over shared memory.

Plumbing per shard: an unbounded request queue in (small
:class:`WorkItem` messages — the rhs vector, plus the matrix payload
only the first time a digest is seen), a response queue out (tiny
descriptors), and the actual ``(batch, n)`` solution blocks crossing via
:mod:`repro.serve.net.transport` shared memory. A **pump thread** in the
front-end process drains each shard's responses, copies result rows out
of shared memory, and fires the completion callbacks.

Failure story:

- the parent detects worker death (the pump notices ``is_alive()`` went
  false), fails every in-flight request of that shard with
  :class:`~repro.errors.ShardFailedError` (retryable), and restarts the
  worker with **fresh queues** up to the policy's
  ``max_shard_restarts`` — fresh queues make "which requests died with
  the worker" exact: everything in flight did, nothing else;
- a restart empties the worker's matrix table, so digest-only traffic
  may answer :class:`~repro.errors.UnknownDigestError`; the parent
  forgets the digest and the network client transparently re-sends the
  payload;
- deadlines cross the process boundary as absolute wall-clock
  (``time.time()``) instants, valid on one host; admission converts
  them to ``perf_counter`` instants for the engine, and expired jobs
  fail with :class:`~repro.errors.DeadlineExceededError` before
  occupying a batch slot;
- an admitted job holds its matrix, so an eviction from the matrix
  table while the job is queued cannot strand it or its fallback;
- the worker's metric events (retries, breaker transitions, deadline
  misses, degraded answers, batch sizes) travel as counter deltas on
  its response messages, so the parent counts each exactly once;
- chaos (``REPRO_CHAOS``) injects inside the worker: solve failures and
  slow calls exercise bisection/breakers/fallback, and
  :class:`~repro.testing.chaos.WorkerKillChaos` escalates to a genuine
  ``SIGKILL`` of the worker process (budgeted through the plan's
  ``state_dir`` markers, so a resubmitted request cannot kill every
  restart forever).
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import queue
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import (
    ServiceClosedError,
    ServiceOverloadedError,
    ShardFailedError,
    UnknownDigestError,
    error_to_wire,
)
from repro.obs import tracer as obs
from repro.serve.batching import execute_batch
from repro.serve.cache import PreparedKey
from repro.serve.metrics import MetricsRecorder
from repro.serve.net.protocol import (
    STATUS_BREAKER_OPEN,
    STATUS_CLOSED,
    STATUS_DEADLINE,
    STATUS_DEGRADED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SHARD_FAILED,
    STATUS_UNKNOWN_DIGEST,
)
from repro.serve.net.transport import AttachedBlock, BlockRef, publish_block
from repro.serve.service import ServiceConfig, resolve_request
from repro.serve.shard import ShardEngine
from repro.testing.chaos import WorkerKillChaos, chaos_entry_transform, plan_from_env

__all__ = ["ProcessWorkerPool", "WorkDone", "WorkFailed", "WorkItem", "WorkOutcome"]

#: Idle-poll period of worker loops and pump threads.
_POLL_S = 0.02

#: Non-failure statuses (the outcome carries result arrays).
_SUCCESS_STATUSES = (STATUS_OK, STATUS_DEGRADED)

_ERROR_STATUS = {
    "DeadlineExceededError": STATUS_DEADLINE,
    "CircuitOpenError": STATUS_BREAKER_OPEN,
    "UnknownDigestError": STATUS_UNKNOWN_DIGEST,
    "ShardFailedError": STATUS_SHARD_FAILED,
    "ServiceClosedError": STATUS_CLOSED,
}


def status_for_error(exc: BaseException) -> str:
    """Typed wire status for a request-level failure."""
    return _ERROR_STATUS.get(type(exc).__name__, STATUS_FAILED)


# ----------------------------------------------------------------------
# queue messages
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WorkItem:
    """One request crossing the request queue (parent → worker)."""

    id: int
    digest: str
    b: np.ndarray
    #: Matrix payload; ``None`` once the worker is known to hold the digest.
    matrix: np.ndarray | None = None
    solver: str | None = None
    prep_seed: int | None = None
    seed: int = 0
    #: Absolute wall-clock (``time.time()``) expiry, or ``None``.
    deadline_at: float | None = None
    #: Propagated trace context (:meth:`repro.obs.Span.context` of the
    #: server-side span), or ``None``; stitches the cross-process tree.
    trace: dict | None = None


@dataclass(frozen=True)
class WorkDone:
    """Successful response descriptor (worker → parent)."""

    id: int
    status: str
    block: BlockRef
    row: int
    telemetry: dict
    #: Counter deltas since the worker's previous message.
    counters: dict
    #: Cumulative (hits, misses, evictions, prepare_s) of the worker cache.
    cache: tuple


@dataclass(frozen=True)
class WorkFailed:
    """Failure response (worker → parent); the error is wire-encoded."""

    id: int
    status: str
    error: dict
    digest: str
    counters: dict
    cache: tuple


@dataclass(frozen=True)
class WorkOutcome:
    """What the pool delivers to a completion callback."""

    id: int
    status: str
    x: np.ndarray | None = None
    reference: np.ndarray | None = None
    telemetry: dict = field(default_factory=dict)
    error: dict | None = None

    @property
    def ok(self) -> bool:
        """True when the outcome carries result arrays."""
        return self.status in _SUCCESS_STATUSES


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------

#: Engine stage → span name of this tier.
_SPANS = {
    "queue": "shard.queue",
    "batch": "shard.batch",
    "prepare": "shard.prepare",
    "solve": "shard.solve",
    "assemble": "shard.assemble",
}


class _RequestView:
    """Duck-typed stand-in for :class:`~repro.serve.requests.SolveRequest`.

    Carries what ``resolve_request``, the kernel and the digital fallback
    read, without a real request's validation and re-hashing cost (the
    front end already validated the payload).
    """

    __slots__ = ("digest", "solver", "hardware", "prep_seed", "matrix", "b", "seed")

    def __init__(self, item: WorkItem, matrix: np.ndarray):
        self.digest = item.digest
        self.solver = item.solver
        self.hardware = None  # net requests always use the service default
        self.prep_seed = item.prep_seed
        self.matrix = matrix
        self.b = item.b
        self.seed = item.seed


class _Job:
    """An admitted :class:`WorkItem`: one job of the worker's shard engine."""

    __slots__ = (
        "id", "request", "key", "hardware", "span", "submitted_at", "deadline_at"
    )

    #: Items carry only an absolute deadline, not its length.
    deadline_s = None

    def __init__(
        self, item: WorkItem, request: _RequestView, key: PreparedKey, hardware
    ):
        self.id = item.id
        #: Holds the matrix from admission on, so a matrix-table eviction
        #: while the job is queued cannot strand it or its fallback.
        self.request = request
        self.key = key
        self.hardware = hardware
        #: Worker-side request span (NOOP when tracing is disabled).
        self.span = obs.NOOP_SPAN
        self.submitted_at = time.perf_counter()
        # The engine runs on one clock: convert the wall-clock deadline.
        self.deadline_at = (
            None
            if item.deadline_at is None
            else self.submitted_at + (item.deadline_at - time.time())
        )


class _WorkerMetrics:
    """The engine's metrics sink inside a worker: events become deltas.

    Every response message carries the deltas since the previous one and
    the parent replays them into its :class:`MetricsRecorder`, so each
    event is counted exactly once. Prepare time is kept cumulative
    instead and travels in the cache snapshot.
    """

    def __init__(self):
        self.prepare_s = 0.0
        self.deltas: dict = {}

    def _count(self, name: str) -> None:
        self.deltas[name] = self.deltas.get(name, 0) + 1

    def record_retry(self) -> None:
        self._count("retries")

    def record_breaker_transition(self) -> None:
        self._count("breaker_transitions")

    def record_deadline_miss(self) -> None:
        self._count("deadline_misses")

    def record_degraded(self) -> None:
        self._count("degraded")

    def record_batch(self, size: int) -> None:
        self.deltas.setdefault("batch_sizes", []).append(size)

    def record_prepare(self, seconds: float) -> None:
        self.prepare_s += seconds

    def drain(self) -> dict:
        deltas, self.deltas = self.deltas, {}
        return deltas


def _run_kernel(plan, entry, bs, seeds, *, lean: bool):
    """``execute_batch`` with the chaos-kill escalation seam.

    :class:`WorkerKillChaos` becomes a genuine ``SIGKILL`` of this
    process — unless the plan's ``state_dir`` kill budget for the
    triggering rhs is exhausted, in which case the batch re-executes
    clean (the chaos wrapper kills each tag at most once per process).
    """
    while True:
        try:
            return execute_batch(entry, bs, seeds, lean=lean)
        except WorkerKillChaos as chaos:
            tag = getattr(chaos, "tag", "")
            if (
                plan is not None
                and plan.state_dir is not None
                and not plan._consume_budget("kill", tag, plan.max_kills_per_unit)
            ):
                continue
            os.kill(os.getpid(), signal.SIGKILL)
            raise  # pragma: no cover - unreachable


class _WorkerState:
    """One worker process: admission, its :class:`ShardEngine`, its responses.

    The engine does the serving; this class is the process transport
    around it: admission against the matrix table, the chaos kill
    escalation (the engine's kernel), and publishing outcomes over
    shared memory.
    """

    def __init__(self, config: ServiceConfig, request_q, response_q):
        self.config = config
        self.request_q = request_q
        self.response_q = response_q
        #: digest → matrix, bounded LRU (evictions answer UnknownDigestError).
        self.matrices: dict[str, np.ndarray] = {}
        self.matrix_capacity = max(64, 4 * config.cache_capacity)
        plan = plan_from_env()
        entry_transform = config.entry_transform
        if entry_transform is None and plan is not None:
            entry_transform = chaos_entry_transform(plan)
        self.metrics = _WorkerMetrics()
        self.engine = ShardEngine(
            config,
            self.metrics,
            _SPANS,
            span_attributes={"pid": os.getpid()},
            kernel=functools.partial(_run_kernel, plan),
            entry_transform=entry_transform,
            lean=True,
        )

    def run(self) -> None:
        batcher = self.engine.batcher
        while True:
            if not len(batcher) and not self.pull(_POLL_S):
                continue
            # Bounded like the thread tier: stop pulling at queue_depth.
            while len(batcher) < self.config.queue_depth and self.pull(0.0):
                pass
            key = batcher.next_key()
            if key is not None:
                self._serve(key)

    def pull(self, timeout_s: float) -> bool:
        """Admit one queued item; False on timeout. The close sentinel exits.

        Exiting from any pull (not only an idle one) means close() never
        strands a put.
        """
        try:
            item = self.request_q.get(timeout=timeout_s)
        except queue.Empty:
            return False
        if item is None:
            raise SystemExit(0)
        self._admit(item)
        return True

    def _admit(self, item: WorkItem) -> None:
        """Resolve one item to its cache identity; fail it typed if impossible."""
        matrix = item.matrix
        if matrix is not None:
            self.matrices[item.digest] = matrix
            while len(self.matrices) > self.matrix_capacity:
                self.matrices.pop(next(iter(self.matrices)))
        else:
            matrix = self.matrices.get(item.digest)
        if matrix is None:
            self._respond_failure(
                item.id,
                item.digest,
                UnknownDigestError(
                    f"worker holds no matrix for digest {item.digest[:12]} "
                    "(restarted or evicted); re-send with the payload"
                ),
            )
            return
        request = _RequestView(item, matrix)
        try:
            key, hardware = resolve_request(request, self.config)
        except Exception as exc:
            self._respond_failure(item.id, item.digest, exc)
            return
        job = _Job(item, request, key, hardware)
        tracer = obs.active()
        if tracer.enabled:
            # item.trace stitches this span under the server-side request
            # span even though we are in a different process.
            job.span = tracer.start_span(
                "shard.request",
                trace=item.trace,
                attributes={
                    "digest": item.digest[:12],
                    "seed": item.seed,
                    "pid": os.getpid(),
                },
            )
        self.engine.batcher.add(job)

    def _serve(self, key: PreparedKey) -> None:
        """Serve one key group: failures answer at once, results in one block."""
        successes: list = []

        def emit(job: _Job, outcome, status) -> None:
            if status is None:
                job.span.fail(outcome)
                self._respond_failure(job.id, job.request.digest, outcome)
            else:
                successes.append((job, outcome, status))

        served = self.engine.serve(key, self.pull, emit)
        if served is not None:
            size, per_request_s = served
            self.metrics.deltas["service_per_request_s"] = per_request_s
            self._publish(successes, size)

    def _publish(self, successes: list, batch: int) -> None:
        """Ship one batch's results: one shm block, one message per request."""
        counters = self.metrics.drain()
        cache = self.cache_snapshot()
        if not successes:
            return
        block = publish_block(
            np.stack([result.x for _, result, _ in successes]),
            np.stack([result.reference for _, result, _ in successes]),
        )
        for row, (job, result, status) in enumerate(successes):
            job.span.end(status=status)
            self.response_q.put(
                WorkDone(
                    id=job.id,
                    status=status,
                    block=block,
                    row=row,
                    telemetry=_telemetry(result, batch),
                    counters=counters,
                    cache=cache,
                )
            )
            counters = {}

    def _respond_failure(self, request_id: int, digest: str, exc) -> None:
        self.response_q.put(
            WorkFailed(
                id=request_id,
                status=status_for_error(exc),
                error=error_to_wire(exc),
                digest=digest,
                counters=self.metrics.drain(),
                cache=self.cache_snapshot(),
            )
        )

    def cache_snapshot(self) -> tuple:
        stats = self.engine.cache.stats
        return (stats.hits, stats.misses, stats.evictions, self.metrics.prepare_s)


def _worker_main(config: ServiceConfig, request_q, response_q) -> None:
    """Entry point of one worker process (module-level for picklability)."""
    if config.trace_dir is not None:
        # Fresh tracer in the child: own lock, own spans-<pid>.jsonl.
        obs.configure(trace_dir=config.trace_dir)
    _WorkerState(config, request_q, response_q).run()


def _telemetry(result, batch: int) -> dict:
    metadata = {
        key: (float(value) if isinstance(value, (int, float, np.floating)) else value)
        for key, value in result.metadata.items()
        if isinstance(value, (str, bool, int, float, np.floating))
    }
    return {
        "solver": result.solver,
        "saturated": bool(result.saturated),
        "analog_time_s": float(result.analog_time_s),
        "batch": batch,
        "metadata": metadata,
    }


# ----------------------------------------------------------------------
# front-end pool
# ----------------------------------------------------------------------


class _Pending:
    """One in-flight request as the front end tracks it."""

    __slots__ = ("callback", "submitted_at")

    def __init__(self, callback: Callable[[WorkOutcome], None], submitted_at: float):
        self.callback = callback
        self.submitted_at = submitted_at


class _ProcShard:
    """One worker process plus the parent-side state that shadows it."""

    def __init__(self, index: int):
        self.index = index
        self.lock = threading.Lock()
        self.generation = 0
        self.process = None
        self.request_q = None
        self.response_q = None
        self.pump: threading.Thread | None = None
        #: id → _Pending of requests handed to the current incarnation.
        self.inflight: dict[int, _Pending] = {}
        #: Digests the current worker incarnation holds matrices for.
        self.known_digests: set[str] = set()
        #: Attached (partially consumed) shm blocks, by segment name.
        self.blocks: dict[str, AttachedBlock] = {}
        self.service_ewma_s = 0.0
        self.restarts = 0
        self.closing = False
        self.dead = False
        #: True between a death being handled and the fresh queues being
        #: live; submits in that window are refused (retryable) instead
        #: of landing on the orphaned incarnation's queue.
        self.restarting = False
        #: Cache counters carried over from dead incarnations.
        self.cache_base = (0, 0, 0, 0.0)
        self.cache_latest = (0, 0, 0, 0.0)

    def backlog(self) -> int:
        return len(self.inflight)

    def cache_totals(self) -> tuple:
        return tuple(a + b for a, b in zip(self.cache_base, self.cache_latest))


class ProcessWorkerPool:
    """Digest-sharded pool of worker processes with shared-memory results.

    The network server submits with a completion callback; the shard's
    pump thread invokes it with a :class:`WorkOutcome` once the worker
    answers (or the shard dies). Thread-safe; one pump thread per shard
    incarnation.
    """

    def __init__(self, config: ServiceConfig, recorder: MetricsRecorder | None = None):
        self.config = config
        self.recorder = recorder or MetricsRecorder()
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            self._ctx = multiprocessing.get_context()
        self._closed = False
        self._shards = [_ProcShard(i) for i in range(config.workers)]
        for shard in self._shards:
            self._start_shard(shard)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _start_shard(self, shard: _ProcShard) -> None:
        """Launch a (fresh) worker incarnation. Caller holds no locks."""
        shard.request_q = self._ctx.Queue()
        shard.response_q = self._ctx.Queue()
        shard.known_digests = set()
        shard.generation += 1
        shard.process = self._ctx.Process(
            target=_worker_main,
            args=(self.config, shard.request_q, shard.response_q),
            name=f"repro-net-worker-{shard.index}",
            daemon=True,
        )
        shard.process.start()
        shard.pump = threading.Thread(
            target=self._pump,
            args=(shard, shard.generation),
            name=f"repro-net-pump-{shard.index}.{shard.generation}",
            daemon=True,
        )
        shard.pump.start()
        with shard.lock:
            shard.restarting = False

    @staticmethod
    def _retire_queues(*queues) -> None:
        """Release queue resources for a finished/killed incarnation.

        ``cancel_join_thread`` matters: multiprocessing joins every
        queue's feeder thread at interpreter exit, and a feeder holding
        data for a SIGKILLed reader never drains — without this the
        parent process completes all work and then hangs on exit.
        """
        for q in queues:
            if q is None:
                continue
            try:
                q.cancel_join_thread()
                q.close()
            except (OSError, ValueError):  # pragma: no cover - already gone
                pass

    def close(self) -> None:
        """Stop the workers; fail anything still in flight as closed."""
        self._closed = True
        for shard in self._shards:
            with shard.lock:
                shard.closing = True
                request_q = shard.request_q
            try:
                request_q.put(None)
            except (OSError, ValueError):  # pragma: no cover - queue torn down
                pass
        for shard in self._shards:
            process, pump = shard.process, shard.pump
            if process is not None:
                process.join(timeout=5.0)
                if process.is_alive():  # pragma: no cover - wedged worker
                    process.kill()
                    process.join(timeout=5.0)
            if pump is not None:
                pump.join(timeout=5.0)
            self._fail_inflight(
                shard,
                ServiceClosedError("service closed while this request was in flight"),
            )
            self._retire_queues(shard.request_q, shard.response_q)
            with shard.lock:
                for block in shard.blocks.values():
                    block.release()
                shard.blocks.clear()

    def __enter__(self) -> "ProcessWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def shard_index(self, digest: str) -> int:
        """Stable digest → shard routing (same scheme as the cache key)."""
        return int(digest[:16], 16) % len(self._shards)

    def estimated_wait_s(self, digest: str) -> float:
        """Backlog × recent service time of the owning shard (shed input)."""
        shard = self._shards[self.shard_index(digest)]
        with shard.lock:
            return shard.backlog() * shard.service_ewma_s

    def submit(
        self,
        *,
        request_id: int,
        digest: str,
        b: np.ndarray,
        matrix: np.ndarray | None,
        solver: str | None,
        prep_seed: int | None,
        seed: int,
        deadline_at: float | None,
        callback: Callable[[WorkOutcome], None],
        trace: dict | None = None,
    ) -> None:
        """Hand one request to its shard; ``callback`` fires exactly once.

        Raises typed errors for conditions known before dispatch: a dead
        shard (:class:`ShardFailedError`), a full shard
        (:class:`ServiceOverloadedError` — the network tier always
        rejects rather than blocking the event loop), and a digest-only
        request whose matrix this worker incarnation has never seen
        (:class:`UnknownDigestError` — decided parent-side, saving the
        round trip).
        """
        if self._closed:
            raise ServiceClosedError("service is closed; no further requests accepted")
        shard = self._shards[self.shard_index(digest)]
        with shard.lock:
            if shard.dead:
                raise ShardFailedError(
                    f"shard {shard.index} is dead (crashed {shard.restarts} times); "
                    "request refused"
                )
            if shard.restarting:
                raise ShardFailedError(
                    f"shard {shard.index} is restarting after a crash; retry shortly"
                )
            if len(shard.inflight) >= self.config.queue_depth:
                raise ServiceOverloadedError(
                    f"shard {shard.index} has {len(shard.inflight)} requests "
                    "in flight (queue_depth reached)"
                )
            if matrix is None and digest not in shard.known_digests:
                raise UnknownDigestError(
                    f"server holds no matrix for digest {digest[:12]}; "
                    "re-send with the payload"
                )
            shard.inflight[request_id] = _Pending(callback, time.perf_counter())
            if matrix is not None:
                shard.known_digests.add(digest)
            shard.request_q.put(
                WorkItem(
                    id=request_id,
                    digest=digest,
                    b=b,
                    matrix=matrix,
                    solver=solver,
                    prep_seed=prep_seed,
                    seed=seed,
                    deadline_at=deadline_at,
                    trace=trace,
                )
            )
        self.recorder.record_submit()

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def cache_stats(self):
        """Aggregated prepared-cache stats across shards (all incarnations)."""
        from repro.serve.cache import CacheStats

        totals = [shard.cache_totals() for shard in self._shards]
        return CacheStats(
            hits=sum(t[0] for t in totals),
            misses=sum(t[1] for t in totals),
            evictions=sum(t[2] for t in totals),
        )

    def alive_workers(self) -> int:
        """How many shards currently have a live worker process."""
        return sum(
            1
            for shard in self._shards
            if shard.process is not None and shard.process.is_alive()
        )

    # ------------------------------------------------------------------
    # pump (parent side of each shard)
    # ------------------------------------------------------------------
    def _pump(self, shard: _ProcShard, generation: int) -> None:
        while True:
            try:
                msg = shard.response_q.get(timeout=_POLL_S)
            except queue.Empty:
                with shard.lock:
                    if shard.generation != generation:
                        return
                    process = shard.process
                if process is None or not process.is_alive():
                    self._handle_death(shard, generation)
                    return
                continue
            except (OSError, ValueError):  # pragma: no cover - queue torn down
                return
            self._handle_message(shard, msg)

    def _handle_message(self, shard: _ProcShard, msg) -> None:
        now = time.perf_counter()
        self._absorb_counters(shard, msg.counters, msg.cache)
        with shard.lock:
            pending = shard.inflight.pop(msg.id, None)
        if isinstance(msg, WorkDone):
            x, reference = self._consume_row(shard, msg.block, msg.row)
            outcome = WorkOutcome(
                id=msg.id,
                status=msg.status,
                x=x,
                reference=reference,
                telemetry=msg.telemetry,
            )
        else:
            if msg.status == STATUS_UNKNOWN_DIGEST:
                with shard.lock:
                    shard.known_digests.discard(msg.digest)
            outcome = WorkOutcome(id=msg.id, status=msg.status, error=msg.error)
        if pending is None:  # pragma: no cover - defensive (stale response)
            return
        self.recorder.record_done(
            now - pending.submitted_at, failed=not outcome.ok
        )
        pending.callback(outcome)

    def _consume_row(self, shard: _ProcShard, ref: BlockRef, row: int):
        if ref.inline:
            return AttachedBlock(ref).row(row)
        with shard.lock:
            block = shard.blocks.get(ref.name)
            if block is None:
                block = AttachedBlock(ref)
                shard.blocks[ref.name] = block
            x, reference = block.row(row)
            if block.released:
                shard.blocks.pop(ref.name, None)
        return x, reference

    def _absorb_counters(self, shard: _ProcShard, counters: dict, cache: tuple) -> None:
        for _ in range(counters.get("retries", 0)):
            self.recorder.record_retry()
        for _ in range(counters.get("breaker_transitions", 0)):
            self.recorder.record_breaker_transition()
        for _ in range(counters.get("deadline_misses", 0)):
            self.recorder.record_deadline_miss()
        for _ in range(counters.get("degraded", 0)):
            self.recorder.record_degraded()
        for size in counters.get("batch_sizes", ()):
            self.recorder.record_batch(size)
        per_request = counters.get("service_per_request_s")
        with shard.lock:
            prepare_delta = max(0.0, cache[3] - shard.cache_latest[3])
            shard.cache_latest = cache
            if per_request is not None:
                shard.service_ewma_s = (
                    per_request
                    if shard.service_ewma_s == 0.0
                    else 0.8 * shard.service_ewma_s + 0.2 * per_request
                )
        if prepare_delta:
            self.recorder.record_prepare(prepare_delta)

    def _handle_death(self, shard: _ProcShard, generation: int) -> None:
        """A worker incarnation died: deliver stragglers, fail the rest."""
        # Drain whatever the worker managed to answer before dying.
        while True:
            try:
                msg = shard.response_q.get_nowait()
            except (queue.Empty, OSError, ValueError):
                break
            self._handle_message(shard, msg)
        with shard.lock:
            if shard.generation != generation:  # pragma: no cover - defensive
                return
            closing = shard.closing
            shard.restarting = True
            for block in shard.blocks.values():
                block.release()
            shard.blocks.clear()
        self._retire_queues(shard.request_q, shard.response_q)
        if closing:
            self._fail_inflight(
                shard,
                ServiceClosedError("service closed while this request was in flight"),
            )
            return
        self.recorder.record_shard_crash()
        self._fail_inflight(
            shard,
            ShardFailedError(
                f"shard {shard.index} worker died while this request was in flight"
            ),
        )
        with shard.lock:
            # Fold the dead incarnation's cache counters into the base so
            # pool-level totals survive restarts.
            shard.cache_base = shard.cache_totals()
            shard.cache_latest = (0, 0, 0, 0.0)
            shard.restarts += 1
            if shard.restarts > self.config.resilience.max_shard_restarts:
                shard.dead = True
                return
        self._start_shard(shard)

    def _fail_inflight(self, shard: _ProcShard, error) -> None:
        with shard.lock:
            pending, shard.inflight = shard.inflight, {}
        payload = error_to_wire(error)
        status = status_for_error(error)
        now = time.perf_counter()
        for request_id, entry in pending.items():
            self.recorder.record_done(now - entry.submitted_at, failed=True)
            entry.callback(
                WorkOutcome(id=request_id, status=status, error=payload)
            )
