"""Tests for ``repro.serve.shard`` — the one shard engine under both tiers.

The engine is driven directly here, with stub jobs and a fake batch
kernel, so each rung of the per-shard policy is checked in isolation:

- a poisoned job in a coalesced batch is bisected out and fails alone,
  with the retry count of the bisection recursion;
- an expired job is emitted with ``DeadlineExceededError`` and counted
  once;
- an open breaker, or a failing prepare, fails the whole key group;
- the digital fallback answers an analog failure, tagged ``degraded``;
- the engine keeps no reference to its tier, so a closed
  ``SolverService`` is freed by reference counting alone.
"""

from __future__ import annotations

import gc
import time
import weakref

import numpy as np
import pytest

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ProgrammingError,
    SolverError,
)
from repro.obs import tracer as obs
from repro.serve import ResiliencePolicy, ServiceConfig, SolverService
from repro.serve.metrics import MetricsRecorder
from repro.serve.requests import SolveRequest
from repro.serve.service import resolve_request
from repro.serve.shard import STATUS_DEGRADED, STATUS_OK, ShardEngine
from repro.workloads.matrices import random_vector, wishart_matrix

SPANS = {
    "queue": "t.queue",
    "batch": "t.batch",
    "prepare": "t.prepare",
    "solve": "t.solve",
    "assemble": "t.assemble",
}

N = 8


class _Job:
    """The smallest object the engine accepts as a job."""

    def __init__(self, config, seed, deadline_at=None, deadline_s=None):
        self.request = SolveRequest(
            matrix=wishart_matrix(N, rng=0), b=random_vector(N, rng=seed), seed=seed
        )
        self.key, self.hardware = resolve_request(self.request, config)
        self.span = obs.NOOP_SPAN
        self.submitted_at = time.perf_counter()
        self.deadline_at = deadline_at
        self.deadline_s = deadline_s


class _Result:
    def __init__(self, seed):
        self.seed = seed
        self.analog_time_s = 1e-6


class _FakeKernel:
    """Answers each seed with a stub result; a poisoned seed fails its call."""

    def __init__(self, poisoned=()):
        self.poisoned = set(poisoned)
        self.calls: list[list[int]] = []

    def __call__(self, entry, bs, seeds, *, lean):
        self.calls.append(list(seeds))
        if self.poisoned & set(seeds):
            raise SolverError(f"poisoned seed in {list(seeds)}")
        return [_Result(seed) for seed in seeds]


def _engine(config, kernel, **kwargs):
    metrics = MetricsRecorder()
    return ShardEngine(config, metrics, SPANS, kernel=kernel, **kwargs), metrics


def _serve(engine, jobs, pull=lambda timeout_s: False):
    """Queue ``jobs`` and serve their key once; returns (emitted, served)."""
    for job in jobs:
        engine.batcher.add(job)
    emitted = []
    served = engine.serve(
        jobs[0].key, pull, lambda job, outcome, status: emitted.append(
            (job, outcome, status)
        )
    )
    return emitted, served


def _config(**policy):
    return ServiceConfig(
        workers=1,
        max_batch_size=8,
        max_linger_s=0.0,
        resilience=ResiliencePolicy(**{"breaker_threshold": 0, **policy}),
    )


class TestBlastRadius:
    def test_poisoned_job_fails_alone_with_bisection_retries(self):
        config = _config()
        kernel = _FakeKernel(poisoned={5})
        engine, metrics = _engine(config, kernel)
        jobs = [_Job(config, seed) for seed in range(8)]
        emitted, served = _serve(engine, jobs)
        assert served is not None and served[0] == 8
        by_seed = {job.request.seed: (out, status) for job, out, status in emitted}
        assert sorted(by_seed) == list(range(8))
        for seed, (outcome, status) in by_seed.items():
            if seed == 5:
                assert status is None and isinstance(outcome, SolverError)
            else:
                assert status == STATUS_OK and outcome.seed == seed
        # Halves count one retry each and the failed singleton is retried
        # once more: [0-3] [4-7] [4,5] [4] [5] [5] [6,7].
        assert metrics.retries == 7
        assert len(kernel.calls) == 8
        assert dict(metrics.batch_sizes) == {8: 1}
        assert engine.inflight == []

    def test_crash_mid_bisection_keeps_delivered_outcomes(self):
        class _Crash(BaseException):
            pass

        config = _config()
        poisoned = _FakeKernel(poisoned={5})

        def kernel(entry, bs, seeds, *, lean):
            if list(seeds) == [6, 7]:  # the last half of the bisection
                raise _Crash()
            return poisoned(entry, bs, seeds, lean=lean)

        engine, _ = _engine(config, kernel)
        jobs = [_Job(config, seed) for seed in range(8)]
        emitted = []
        for job in jobs:
            engine.batcher.add(job)
        with pytest.raises(_Crash):
            engine.serve(jobs[0].key, lambda t: False, lambda *out: emitted.append(out))
        # Outcomes settled before the crash were delivered as they
        # settled; the tier's rescue sees the whole batch in flight.
        assert [job.request.seed for job, _, _ in emitted] == [0, 1, 2, 3, 4, 5]
        assert emitted[-1][2] is None
        assert engine.inflight == jobs

    def test_failed_singleton_is_retried_once_then_fails(self):
        config = _config()
        kernel = _FakeKernel(poisoned={0})
        engine, metrics = _engine(config, kernel)
        emitted, _ = _serve(engine, [_Job(config, 0)])
        assert [status for _, _, status in emitted] == [None]
        assert metrics.retries == 1
        assert kernel.calls == [[0], [0]]


class TestDeadlines:
    def test_expired_job_is_emitted_and_counted_once(self):
        config = _config()
        kernel = _FakeKernel()
        engine, metrics = _engine(config, kernel)
        past = time.perf_counter() - 1.0
        jobs = [
            _Job(config, 0),
            _Job(config, 1, deadline_at=past, deadline_s=0.25),
            _Job(config, 2, deadline_at=time.perf_counter() + 60.0),
        ]
        emitted, served = _serve(engine, jobs)
        failed = [(job, outcome) for job, outcome, status in emitted if status is None]
        assert len(failed) == 1 and failed[0][0] is jobs[1]
        assert isinstance(failed[0][1], DeadlineExceededError)
        assert "0.250s" in str(failed[0][1])
        assert metrics.deadline_misses == 1
        assert kernel.calls == [[0, 2]]
        assert served[0] == 2

    def test_whole_batch_expired_executes_nothing(self):
        config = _config()
        kernel = _FakeKernel()
        engine, metrics = _engine(config, kernel)
        past = time.perf_counter() - 1.0
        emitted, served = _serve(engine, [_Job(config, 0, deadline_at=past)])
        assert served is None
        assert "deadline expired" in str(emitted[0][1])
        assert kernel.calls == []
        assert metrics.deadline_misses == 1


class TestKeyGroupFailures:
    def test_open_breaker_fails_the_whole_key_group(self):
        config = _config(breaker_threshold=1, breaker_reset_s=60.0)
        kernel = _FakeKernel(poisoned={0})
        engine, metrics = _engine(config, kernel)
        emitted, _ = _serve(engine, [_Job(config, 0)])
        assert emitted[0][2] is None  # the failure tripped the breaker
        key = emitted[0][0].key
        assert isinstance(engine.breaker_error(key), CircuitOpenError)
        calls = len(kernel.calls)
        emitted, served = _serve(engine, [_Job(config, seed) for seed in (1, 2, 3)])
        assert served is None
        assert len(emitted) == 3
        assert all(isinstance(outcome, CircuitOpenError) for _, outcome, _ in emitted)
        assert len(kernel.calls) == calls
        assert metrics.breaker_transitions >= 1
        # The trip dropped the cached entry, so the probe re-prepares.
        assert key not in engine.cache

    def test_failing_prepare_fails_the_whole_key_group(self):
        config = _config()
        kernel = _FakeKernel()

        def broken(entry):
            raise ProgrammingError("injected prepare failure")

        engine, _ = _engine(config, kernel, entry_transform=broken)
        emitted, served = _serve(engine, [_Job(config, seed) for seed in range(4)])
        assert served is None
        assert len(emitted) == 4
        assert all(isinstance(outcome, ProgrammingError) for _, outcome, _ in emitted)
        assert kernel.calls == []
        assert len(engine.batcher) == 0


class TestDegradationLadder:
    def test_digital_fallback_emits_degraded(self):
        config = _config(fallback="digital")
        kernel = _FakeKernel(poisoned={0, 1})
        engine, metrics = _engine(config, kernel, lean=True)
        jobs = [_Job(config, 0), _Job(config, 1)]
        emitted, _ = _serve(engine, jobs)
        assert [status for _, _, status in emitted] == [STATUS_DEGRADED] * 2
        for job, result, _ in emitted:
            assert result.solver == "digital-fallback"
            assert np.allclose(job.request.matrix @ result.x, job.request.b)
        assert metrics.degraded == 2
        assert metrics.retries == 4  # two halves, each singleton retried once

    def test_non_degradable_error_fails(self):
        config = _config(fallback="digital")

        def kernel(entry, bs, seeds, *, lean):
            raise ValueError("not an analog failure")

        engine, metrics = _engine(config, kernel)
        emitted, _ = _serve(engine, [_Job(config, 0)])
        assert emitted[0][2] is None and isinstance(emitted[0][1], ValueError)
        assert metrics.degraded == 0


class TestLingerAndTracing:
    def test_linger_pulls_stragglers_into_one_batch(self):
        config = ServiceConfig(workers=1, max_batch_size=4, max_linger_s=5.0)
        kernel = _FakeKernel()
        engine, metrics = _engine(config, kernel)
        stragglers = [_Job(config, seed) for seed in (1, 2, 3)]

        def pull(timeout_s):
            assert 0.0 < timeout_s <= 5.0
            engine.batcher.add(stragglers.pop(0))
            return True

        emitted, served = _serve(engine, [_Job(config, 0)], pull)
        # The batch filled to max_batch_size, which ended the linger.
        assert kernel.calls == [[0, 1, 2, 3]]
        assert served[0] == 4 and not stragglers
        assert dict(metrics.batch_sizes) == {4: 1}

    def test_traced_batch_emits_every_stage_span(self):
        config = _config()
        kernel = _FakeKernel(poisoned={1})
        tracer = obs.configure()
        try:
            engine, _ = _engine(config, kernel, span_attributes={"shard": 3})
            jobs = [_Job(config, seed) for seed in range(4)]
            for job in jobs:
                job.span = tracer.start_span("t.request")
            _serve(engine, jobs)
            spans = tracer.spans()
        finally:
            obs.disable()
        by_name: dict[str, list] = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        assert len(by_name["t.queue"]) == 4
        assert len(by_name["t.prepare"]) == 1
        (batch,) = by_name["t.batch"]
        assert batch["status"] == "error"  # the first execution failed
        assert batch["attributes"]["shard"] == 3
        assert batch["attributes"]["size"] == 4
        assert len(by_name["t.solve"]) == 3  # the three survivors
        assert len(by_name["t.assemble"]) == 1


def test_closed_service_is_freed_by_reference_counting():
    """No service → engine → service cycle: with the cyclic collector off,
    dropping the last reference to a closed service frees it (and its
    prepared macros) at once."""
    gc.collect()
    gc.disable()
    try:
        service = SolverService(ServiceConfig(workers=2, max_linger_s=0.0))
        ticket = service.submit(wishart_matrix(N, rng=0), random_vector(N, rng=1))
        ticket.result(timeout=60)
        service.close()
        ref = weakref.ref(service)
        del service
        assert ref() is None
    finally:
        gc.enable()

