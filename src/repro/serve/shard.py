"""One shard's serving policy, shared by both serving tiers.

A BlockAMC service answers each request on one programmed macro (a
prepared solver), and a shard owns a set of those macros.
:class:`ShardEngine` is everything a shard does between "a job is
queued" and "its outcome is known", independent of how jobs arrive and
how outcomes leave:

- coalesce queued jobs by :class:`~repro.serve.cache.PreparedKey`
  (:class:`~repro.serve.batching.MicroBatcher`), linger briefly for
  stragglers, and fail jobs whose deadline expired while queued with
  :class:`~repro.errors.DeadlineExceededError`;
- prepare each key's macro once, in a
  :class:`~repro.serve.cache.PreparedSolverCache`, behind a per-key
  :class:`~repro.serve.resilience.CircuitBreaker` (a trip invalidates
  the cached entry, so the half-open probe re-prepares);
- execute a batch through one kernel call
  (:func:`~repro.serve.batching.execute_batch` by default). A failed
  batch is bisected and re-executed so only the culprit fails
  (**blast-radius isolation**); a culprit that still fails is answered
  by the digital reference solve when the policy says
  ``fallback="digital"`` (the **degradation ladder**).

Both tiers wrap one engine per shard and keep only their transport: the
thread tier (:class:`~repro.serve.service.SolverService`) resolves
ticket futures from the outcomes, and the process tier
(:mod:`repro.serve.net.workers`) ships them over shared memory. Every
re-execution restarts from each job's own seed through the same kernel,
so surviving results are bit-identical to
:func:`~repro.serve.service.run_sequential` in both tiers by
construction.

A **job** is any object with ``key``, ``hardware``, ``request`` (with
``matrix``, ``b`` and ``seed``), ``span`` (its tracing root),
``submitted_at`` and ``deadline_at`` (``time.perf_counter`` instants;
no deadline is ``None``) and ``deadline_s`` (for the error message, may
be ``None``).

The engine holds no reference to its tier. The tier passes ``pull`` and
``emit`` into each :meth:`ShardEngine.serve` call instead of storing
them, so no tier → engine → tier reference cycle keeps a closed service
and its prepared macros alive until a full garbage collection.
"""

from __future__ import annotations

import threading
import time

from repro.errors import CircuitOpenError, DeadlineExceededError
from repro.obs import tracer as obs
from repro.serve.batching import MicroBatcher, execute_batch
from repro.serve.cache import PreparedKey, PreparedSolverCache, prepare_entry
from repro.serve.resilience import DEGRADABLE_ERRORS, CircuitBreaker, digital_fallback

__all__ = ["STATUS_DEGRADED", "STATUS_OK", "ShardEngine"]

#: Statuses of a successful outcome; a failure is emitted with ``None``.
#: They equal the wire statuses of :mod:`repro.serve.net.protocol`.
STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"


def _open_error(key: PreparedKey, breaker: CircuitBreaker) -> CircuitOpenError:
    return CircuitOpenError(
        f"circuit breaker open for prepared solver {key.solver!r} "
        f"on matrix {key.matrix_digest[:12]}",
        retry_after_s=breaker.retry_after_s(),
    )


class ShardEngine:
    """One shard's cache, batcher and breakers, and the policy over them.

    Parameters
    ----------
    config:
        The :class:`~repro.serve.service.ServiceConfig`: batch size,
        linger, queue depth, cache capacity and resilience policy.
    metrics:
        Receives ``record_batch``, ``record_retry``,
        ``record_deadline_miss``, ``record_degraded``,
        ``record_breaker_transition`` and ``record_prepare`` calls — a
        :class:`~repro.serve.metrics.MetricsRecorder` or a stand-in.
    spans:
        Tracing span name of each stage: ``queue``, ``batch``,
        ``prepare``, ``solve`` and ``assemble``.
    span_attributes:
        Extra attributes of every batch span (the shard index, the pid).
    kernel:
        Batch kernel with the signature of
        :func:`~repro.serve.batching.execute_batch`.
    entry_transform:
        Hook applied to every freshly prepared entry before it is cached
        (the fault-injection seam).
    lean:
        Serve :class:`~repro.core.solution.LeanSolveResult` payloads.
    """

    def __init__(
        self,
        config,
        metrics,
        spans: dict[str, str],
        *,
        span_attributes: dict | None = None,
        kernel=execute_batch,
        entry_transform=None,
        lean: bool = False,
    ):
        self.config = config
        self.metrics = metrics
        self.spans = spans
        self.span_attributes = span_attributes or {}
        self.kernel = kernel
        self.entry_transform = entry_transform
        self.lean = lean
        self.cache = PreparedSolverCache(config.cache_capacity)
        self.batcher = MicroBatcher(config.max_batch_size)
        #: Circuit breakers by PreparedKey (created lazily).
        self.breakers: dict[PreparedKey, CircuitBreaker] = {}
        self.breaker_lock = threading.Lock()
        #: Jobs of the batch currently executing (the tier's crash-rescue list).
        self.inflight: list = []

    def breaker_error(self, key: PreparedKey) -> CircuitOpenError | None:
        """The error to refuse ``key`` with while its breaker is open, else None.

        Safe to call from other threads (the submit-side fail-fast check).
        """
        with self.breaker_lock:
            breaker = self.breakers.get(key)
        if breaker is not None and breaker.is_open():
            return _open_error(key, breaker)
        return None

    def serve(self, key: PreparedKey, pull, emit) -> tuple[int, float] | None:
        """Execute (or fail) the pending group of ``key``.

        ``pull(timeout_s)`` adds newly arrived jobs to :attr:`batcher`
        while the batch lingers, returning False to end the linger.
        ``emit(job, outcome, status)`` receives every job's outcome:
        its result with :data:`STATUS_OK` or :data:`STATUS_DEGRADED`, or
        its exception with ``None``. Returns ``(size, seconds per
        request)`` of the executed batch, or ``None`` if none executed.
        """
        breaker = self._breaker_for(key)
        if breaker is not None and not breaker.allow():
            self._fail_key_group(key, _open_error(key, breaker), emit)
            return None
        entry = self._entry_for(key, breaker, emit)
        if entry is None:
            return None
        if (
            entry.coalescible
            and self.config.max_linger_s > 0.0
            and self.batcher.pending_for(key) < self.config.max_batch_size
        ):
            self._linger(key, pull)
        batch = self._expire(self.batcher.take(key), emit)
        if not batch:
            return None
        self.cache.credit_hits(len(batch) - 1)
        return self._execute(entry, batch, breaker, emit)

    def _linger(self, key: PreparedKey, pull) -> None:
        """Hold the batch open briefly, hoping to coalesce stragglers."""
        deadline = time.perf_counter() + self.config.max_linger_s
        while (
            self.batcher.pending_for(key) < self.config.max_batch_size
            and len(self.batcher) < self.config.queue_depth
        ):
            remaining = deadline - time.perf_counter()
            if remaining <= 0.0 or not pull(remaining):
                return

    def _breaker_for(self, key: PreparedKey) -> CircuitBreaker | None:
        """The key's circuit breaker, created lazily (None when disabled)."""
        policy = self.config.resilience
        if policy.breaker_threshold < 1:
            return None
        with self.breaker_lock:
            breaker = self.breakers.get(key)
            if breaker is None:
                breaker = CircuitBreaker(
                    policy.breaker_threshold,
                    policy.breaker_reset_s,
                    on_transition=self.metrics.record_breaker_transition,
                )
                self.breakers[key] = breaker
            return breaker

    def _record_key_failure(self, key: PreparedKey, breaker) -> None:
        """Count one failure against the key's breaker; trip → drop the entry.

        Invalidating on trip makes the eventual half-open probe
        re-prepare from scratch instead of re-trying a possibly corrupt
        programmed macro.
        """
        if breaker is not None and breaker.record_failure():
            self.cache.invalidate(key)

    def _entry_for(self, key: PreparedKey, breaker, emit):
        head = self.batcher.peek(key)

        def factory():
            entry = prepare_entry(key, head.request.matrix, head.hardware)
            self.metrics.record_prepare(entry.prepare_seconds)
            if self.entry_transform is not None:
                entry = self.entry_transform(entry)
            tracer = obs.active()
            if tracer.enabled:
                # Retroactive: bounds come from the measured prepare time,
                # so the untraced path performs no extra timing calls.
                now = time.perf_counter()
                tracer.record_span(
                    self.spans["prepare"],
                    parent=head.span,
                    start_s=now - entry.prepare_seconds,
                    end_s=now,
                    attributes={"solver": key.solver, "digest": key.matrix_digest[:12]},
                )
            return entry

        try:
            return self.cache.get_or_prepare(key, factory)
        except Exception as exc:  # fail the whole group, keep the shard alive
            self._record_key_failure(key, breaker)
            self._fail_key_group(key, exc, emit)
            return None

    def _expire(self, batch: list, emit) -> list:
        """Fail jobs whose deadline passed; return the live remainder."""
        live = []
        now = time.perf_counter()
        for job in batch:
            if job.deadline_at is not None and now >= job.deadline_at:
                self.metrics.record_deadline_miss()
                what = "deadline"
                if job.deadline_s is not None:
                    what = f"deadline of {job.deadline_s:.3f}s"
                error = DeadlineExceededError(
                    f"{what} expired before the request reached execution"
                )
                emit(job, error, None)
            else:
                live.append(job)
        return live

    def _execute(self, entry, batch: list, breaker, emit) -> tuple[int, float]:
        self.inflight = batch
        self.metrics.record_batch(len(batch))
        start = time.perf_counter()
        tracer = obs.active()
        batch_span = obs.NOOP_SPAN
        if tracer.enabled:
            # Queue-wait stages are retroactive (submit stamp → now), so
            # the untraced path stays untouched; the batch span links its
            # member requests by span id.
            for job in batch:
                tracer.record_span(
                    self.spans["queue"],
                    parent=job.span,
                    start_s=job.submitted_at,
                    end_s=start,
                )
            batch_span = tracer.start_span(
                self.spans["batch"],
                attributes={
                    "size": len(batch),
                    "solver": entry.key.solver,
                    "coalescible": entry.coalescible,
                    "members": [job.span.span_id for job in batch],
                    **self.span_attributes,
                },
                start_s=start,
            )
        #: (job, result, kernel-return stamp) of every success, for tracing.
        solved: list = []
        # Activation (not a `with Span`): kernel spans nest under the
        # batch, which ends later, after assembly.
        with tracer.use_span(batch_span):
            error = self._attempt(entry, batch, breaker, emit, solved)
            if error is not None:
                batch_span.fail(error)
                self._isolate(entry, batch, breaker, emit, solved)
        if tracer.enabled:
            for job, result, done in solved:
                tracer.record_span(
                    self.spans["solve"],
                    parent=job.span,
                    start_s=start,
                    end_s=done,
                    attributes={
                        "batch_span": batch_span.span_id,
                        "analog_time_s": float(getattr(result, "analog_time_s", 0.0)),
                    },
                )
            tracer.record_span(
                self.spans["assemble"],
                parent=batch_span,
                start_s=solved[-1][2] if solved else start,
                end_s=time.perf_counter(),
            )
            batch_span.end()
        # Normal-path bookkeeping only: on a crash (BaseException) the
        # inflight list must survive for the tier's rescue.
        self.inflight = []
        return len(batch), (time.perf_counter() - start) / len(batch)

    def _attempt(self, entry, jobs: list, breaker, emit, solved: list):
        """One kernel call over ``jobs``; returns its error, or None on success.

        Successes are emitted at once, so a crash later in the batch
        cannot take back an outcome already delivered.
        """
        try:
            results = self.kernel(
                entry,
                [job.request.b for job in jobs],
                [job.request.seed for job in jobs],
                lean=self.lean,
            )
        except Exception as exc:
            return exc
        done = time.perf_counter()
        for job, result in zip(jobs, results):
            solved.append((job, result, done))
            emit(job, result, STATUS_OK)
        if breaker is not None:
            breaker.record_success()
        return None

    def _isolate(self, entry, jobs: list, breaker, emit, solved: list) -> None:
        """Bisect a failed batch so only the culprit job(s) fail.

        Each half counts one retry; a failed singleton is retried once
        more before it degrades or fails. Every re-execution restarts
        from each job's own seed through the same kernel, so isolation
        can never perturb a success, only rescue it.
        """
        if len(jobs) == 1:
            self.metrics.record_retry()
            error = self._attempt(entry, jobs, breaker, emit, solved)
            if error is not None:
                self._degrade_or_fail(entry, jobs[0], error, breaker, emit, solved)
            return
        mid = len(jobs) // 2
        for half in (jobs[:mid], jobs[mid:]):
            self.metrics.record_retry()
            if self._attempt(entry, half, breaker, emit, solved) is not None:
                self._isolate(entry, half, breaker, emit, solved)

    def _degrade_or_fail(self, entry, job, exc, breaker, emit, solved: list) -> None:
        """Bottom of the ladder: digital fallback if allowed, else fail."""
        self._record_key_failure(entry.key, breaker)
        if self.config.resilience.fallback == "digital" and isinstance(
            exc, DEGRADABLE_ERRORS
        ):
            try:
                result = digital_fallback(job.request, lean=self.lean)
            except Exception as fallback_exc:
                exc = fallback_exc
            else:
                self.metrics.record_degraded()
                solved.append((job, result, time.perf_counter()))
                emit(job, result, STATUS_DEGRADED)
                return
        emit(job, exc, None)

    def _fail_key_group(self, key: PreparedKey, error, emit) -> None:
        """Fail every job pending for ``key`` with ``error``."""
        while True:
            group = self.batcher.take(key)
            if not group:
                return
            for job in group:
                emit(job, error, None)
