"""Tests for the ``repro.serve`` solver service.

The load-bearing guarantees:

- **determinism under concurrency** — results are bit-identical to the
  sequential reference executor no matter how many workers run, how
  requests interleave, or how the micro-batcher grouped them;
- **coalescing correctness** — a coalesced multi-RHS batch equals
  per-request execution;
- **cache behaviour** — eviction at capacity, hits on re-use, isolation
  between configs/seeds;
- **backpressure** — a full bounded queue rejects (or stalls) instead of
  growing without bound.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.amc.config import HardwareConfig
from repro.errors import (
    ServeError,
    ServiceClosedError,
    ServiceOverloadedError,
    ValidationError,
)
from repro.serve import (
    SOLVER_KINDS,
    CacheStats,
    MetricsRecorder,
    MicroBatcher,
    PreparedKey,
    PreparedSolverCache,
    ServiceConfig,
    ServiceMetrics,
    SolveRequest,
    SolverService,
    execute_batch,
    matrix_digest,
    prepare_entry,
    run_sequential,
)
from repro.workloads.matrices import random_vector, wishart_matrix
from repro.workloads.traffic import mixed_traffic


def _requests(n=12, unique=3, sizes=(12, 16), seed=0):
    return mixed_traffic(n, unique_matrices=unique, sizes=sizes, seed=seed)


def _identical(a, b) -> bool:
    return np.array_equal(a.x, b.x) and a.relative_error == b.relative_error


class TestMatrixDigest:
    def test_equal_matrices_share_digest(self):
        m = wishart_matrix(8, rng=0)
        assert matrix_digest(m) == matrix_digest(m.copy())

    def test_distinct_matrices_differ(self):
        assert matrix_digest(wishart_matrix(8, rng=0)) != matrix_digest(
            wishart_matrix(8, rng=1)
        )

    def test_shape_participates(self):
        flat = np.zeros((4, 4))
        assert matrix_digest(flat) != matrix_digest(np.zeros((2, 8)))

    def test_digest_recipe_pinned(self):
        # SHA-256 of b"float64", the shape and the bytes: net clients
        # compute this digest on their side, so it must never move.
        assert matrix_digest(np.arange(6.0).reshape(2, 3)) == (
            "d0670540ef36a8c3a0e614268c98a3dec5eba009361fa99e813af09fd1a267b0"
        )

    def test_digest_canonicalizes_exotic_dtypes_to_f64(self):
        ints = np.eye(4, dtype=np.int64)
        assert matrix_digest(ints) == matrix_digest(np.eye(4))
        m32 = wishart_matrix(8, rng=0).astype(np.float32)
        assert matrix_digest(m32) == matrix_digest(m32.astype(np.float64))

    def test_digest_stable_across_layout(self):
        m = np.asfortranarray(wishart_matrix(8, rng=1))
        assert matrix_digest(m) == matrix_digest(np.ascontiguousarray(m))


class TestSolveRequest:
    def test_digest_computed(self):
        m = wishart_matrix(8, rng=0)
        request = SolveRequest(matrix=m, b=random_vector(8, rng=1))
        assert request.digest == matrix_digest(m)
        assert request.size == 8

    def test_precomputed_digest_kept(self):
        m = wishart_matrix(8, rng=0)
        request = SolveRequest(matrix=m, b=random_vector(8, rng=1), digest="abc")
        assert request.digest == "abc"

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValidationError):
            SolveRequest(matrix=wishart_matrix(8, rng=0), b=np.ones(9))

    def test_request_coerces_to_float64(self):
        m = wishart_matrix(8, rng=0).astype(np.float32)
        request = SolveRequest(matrix=m, b=random_vector(8, rng=1).astype(np.float32))
        assert request.matrix.dtype == np.float64 and request.b.dtype == np.float64
        assert request.digest == matrix_digest(m.astype(np.float64))

    def test_complex_system_rejected(self):
        m = wishart_matrix(4, rng=0)
        with pytest.raises(ValidationError, match="embed_complex_system"):
            SolveRequest(matrix=m + 1j * np.eye(4), b=np.ones(4))


class TestMicroBatcher:
    def test_groups_by_key_and_takes_in_order(self):
        class Item:
            def __init__(self, key, tag):
                self.key, self.tag = key, tag

        batcher = MicroBatcher(max_batch_size=2)
        for item in [Item("a", 1), Item("b", 2), Item("a", 3), Item("a", 4)]:
            batcher.add(item)
        assert len(batcher) == 4
        assert batcher.next_key() == "a"
        assert batcher.peek("a").tag == 1
        assert [i.tag for i in batcher.take("a")] == [1, 3]
        assert batcher.pending_for("a") == 1
        assert [i.tag for i in batcher.take("a")] == [4]
        assert batcher.next_key() == "b"
        assert len(batcher) == 1

    def test_bad_batch_size(self):
        with pytest.raises(ServeError):
            MicroBatcher(max_batch_size=0)

    def test_partially_drained_hot_key_does_not_starve_others(self):
        class Item:
            def __init__(self, key, tag):
                self.key, self.tag = key, tag

        batcher = MicroBatcher(max_batch_size=2)
        for tag in range(5):
            batcher.add(Item("hot", tag))
        batcher.add(Item("cold", 99))
        assert batcher.next_key() == "hot"
        batcher.take("hot")  # partial: 3 hot items remain
        # Even if the hot key keeps refilling, the cold key serves next.
        batcher.add(Item("hot", 5))
        assert batcher.next_key() == "cold"
        assert [i.tag for i in batcher.take("cold")] == [99]
        assert batcher.next_key() == "hot"


class TestCanonicalKernel:
    """Coalesced execution must equal per-request execution."""

    @pytest.fixture(scope="class")
    def entry(self):
        matrix = wishart_matrix(16, rng=3)
        config = HardwareConfig.paper_variation()
        key = PreparedKey(matrix_digest(matrix), config.cache_key(), "blockamc-1stage", 0)
        return prepare_entry(key, matrix, config)

    def test_entry_is_coalescible(self, entry):
        assert entry.coalescible

    def test_coalesced_equals_per_request(self, entry):
        bs = [random_vector(16, rng=i) for i in range(6)]
        seeds = list(range(6))
        batch = execute_batch(entry, bs, seeds)
        singles = [execute_batch(entry, [b], [s])[0] for b, s in zip(bs, seeds)]
        for a, b in zip(batch, singles):
            assert _identical(a, b)

    def test_batch_composition_invariance(self, entry):
        bs = [random_vector(16, rng=i) for i in range(8)]
        full = execute_batch(entry, bs, list(range(8)))
        sub = execute_batch(entry, [bs[5], bs[1], bs[6]], [5, 1, 6])
        assert _identical(sub[0], full[5])
        assert _identical(sub[1], full[1])
        assert _identical(sub[2], full[6])

    def test_rng_independent_after_warm(self, entry):
        b = random_vector(16, rng=9)
        assert _identical(
            execute_batch(entry, [b], [0])[0], execute_batch(entry, [b], [123])[0]
        )

    def test_mismatched_seeds_rejected(self, entry):
        with pytest.raises(ServeError):
            execute_batch(entry, [np.ones(16)], [1, 2])

    def test_noisy_config_not_coalescible_but_seed_deterministic(self):
        matrix = wishart_matrix(12, rng=4)
        config = HardwareConfig.paper_variation().with_(
            opamp=HardwareConfig.paper_variation().opamp
        )
        noisy = config.with_(opamp=config.opamp.__class__(output_noise_sigma_v=1e-4))
        key = PreparedKey(matrix_digest(matrix), noisy.cache_key(), "blockamc-1stage", 0)
        entry = prepare_entry(key, matrix, noisy)
        assert not entry.coalescible
        b = random_vector(12, rng=1)
        one = execute_batch(entry, [b], [7])[0]
        two = execute_batch(entry, [b], [7])[0]
        other = execute_batch(entry, [b], [8])[0]
        assert _identical(one, two)
        assert not np.array_equal(one.x, other.x)


class TestSequentialReference:
    def test_replays_bit_exactly(self):
        requests = _requests()
        first, metrics = run_sequential(requests)
        second, _ = run_sequential(requests)
        for a, b in zip(first, second):
            assert _identical(a, b)
        assert metrics.requests_completed == len(requests)
        assert metrics.cache.misses == 3

    def test_solver_kinds_execute(self):
        matrix = wishart_matrix(12, rng=0)
        b = random_vector(12, rng=1)
        for kind in sorted(SOLVER_KINDS):
            results, _ = run_sequential(
                [SolveRequest(matrix=matrix, b=b, solver=kind)]
            )
            assert results[0].x.shape == (12,)


class TestServiceDeterminism:
    def test_bit_identical_to_reference(self):
        requests = _requests(n=16)
        config = ServiceConfig(workers=2, max_batch_size=4, max_linger_s=0.001)
        reference, _ = run_sequential(requests, config)
        with SolverService(config) as service:
            results = service.solve_all(requests)
        for a, b in zip(reference, results):
            assert _identical(a, b)

    def test_bit_identical_under_concurrent_submitters(self):
        requests = _requests(n=24, unique=4)
        config = ServiceConfig(workers=3, max_batch_size=5, max_linger_s=0.002)
        reference, _ = run_sequential(requests, config)
        with SolverService(config) as service:
            with ThreadPoolExecutor(max_workers=6) as pool:
                tickets = list(pool.map(service.submit_request, requests))
            results = [t.result(timeout=60) for t in tickets]
        for a, b in zip(reference, results):
            assert _identical(a, b)

    def test_worker_count_does_not_change_results(self):
        requests = _requests(n=10, unique=2)
        outcomes = []
        for workers in (1, 3):
            config = ServiceConfig(workers=workers, max_batch_size=3, max_linger_s=0.0)
            with SolverService(config) as service:
                outcomes.append(service.solve_all(requests))
        for a, b in zip(*outcomes):
            assert _identical(a, b)

    def test_distinct_prep_seeds_are_distinct_entries(self):
        matrix = wishart_matrix(12, rng=0)
        b = random_vector(12, rng=1)
        with SolverService(ServiceConfig(workers=1)) as service:
            r0 = service.submit(matrix, b, prep_seed=0).result()
            r1 = service.submit(matrix, b, prep_seed=1).result()
            metrics = service.metrics()
        assert metrics.cache.misses == 2
        assert not np.array_equal(r0.x, r1.x)


class TestCacheBehaviour:
    def test_hits_on_reuse(self):
        matrix = wishart_matrix(12, rng=0)
        with SolverService(ServiceConfig(workers=1)) as service:
            for i in range(5):
                service.submit(matrix, random_vector(12, rng=i), seed=i).result()
            metrics = service.metrics()
        assert metrics.cache.misses == 1
        assert metrics.cache.hits == 4
        assert metrics.cache.hit_rate == pytest.approx(0.8)

    def test_eviction_at_capacity(self):
        matrices = [wishart_matrix(10, rng=i) for i in range(3)]
        config = ServiceConfig(workers=1, cache_capacity=2)
        with SolverService(config) as service:
            for m in matrices:
                service.submit(m, random_vector(10, rng=0)).result()
            assert len(service.cached_solvers()) == 2
            # Oldest matrix was evicted; touching it re-prepares.
            service.submit(matrices[0], random_vector(10, rng=1)).result()
            metrics = service.metrics()
        assert metrics.cache.evictions >= 2
        assert metrics.cache.misses == 4

    def test_standalone_cache_lru_order(self):
        cache = PreparedSolverCache(capacity=2)
        matrix = wishart_matrix(8, rng=0)
        config = HardwareConfig.ideal()

        def key(tag):
            return PreparedKey(matrix_digest(matrix), config.cache_key(), "blockamc-1stage", tag)

        def entry_for(k):
            return lambda: prepare_entry(k, matrix, config)

        a, b, c = key(0), key(1), key(2)
        cache.get_or_prepare(a, entry_for(a))
        cache.get_or_prepare(b, entry_for(b))
        cache.get_or_prepare(a, entry_for(a))  # refresh a
        cache.get_or_prepare(c, entry_for(c))  # evicts b (LRU)
        assert set(cache.keys()) == {a, c}
        assert cache.stats.evictions == 1

    def test_factory_key_mismatch_rejected(self):
        cache = PreparedSolverCache(capacity=2)
        matrix = wishart_matrix(8, rng=0)
        config = HardwareConfig.ideal()
        good = PreparedKey(matrix_digest(matrix), config.cache_key(), "blockamc-1stage", 0)
        bad = PreparedKey("nope", config.cache_key(), "blockamc-1stage", 0)
        with pytest.raises(ServeError):
            cache.get_or_prepare(bad, lambda: prepare_entry(good, matrix, config))


class TestBackpressureAndLifecycle:
    @pytest.fixture
    def slow_kind(self):
        """A solver kind whose prepare blocks until released (deterministic
        way to wedge the single worker while we fill its bounded queue)."""
        started = threading.Event()
        release = threading.Event()

        class _SlowPrepared:
            def __init__(self, n):
                self.n = n

            def solve(self, b, rng=None):
                class _R:
                    x = np.zeros(self.n)
                    relative_error = 0.0
                return _R()

        class _SlowSolver:
            def __init__(self, config):
                pass

            def prepare(self, matrix, rng=None):
                started.set()
                assert release.wait(timeout=30)
                return _SlowPrepared(matrix.shape[0])

        SOLVER_KINDS["slow-test"] = lambda config: _SlowSolver(config)
        try:
            yield started, release
        finally:
            release.set()
            SOLVER_KINDS.pop("slow-test", None)

    def test_reject_policy_raises_when_full(self, slow_kind):
        started, release = slow_kind
        config = ServiceConfig(
            workers=1, queue_depth=1, backpressure="reject", max_linger_s=0.0
        )
        matrix = wishart_matrix(8, rng=0)
        b = random_vector(8, rng=1)
        with SolverService(config) as service:
            blocker = service.submit(matrix, b, solver="slow-test")
            assert started.wait(timeout=30)  # worker is wedged in prepare
            queued = service.submit(matrix, b, solver="slow-test")
            with pytest.raises(ServiceOverloadedError):
                service.submit(matrix, b, solver="slow-test")
            assert service.metrics().requests_rejected == 1
            release.set()
            blocker.result(timeout=30)
            queued.result(timeout=30)

    def test_closed_service_rejects(self):
        service = SolverService(ServiceConfig(workers=1))
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(wishart_matrix(8, rng=0), np.ones(8))

    def test_close_drains_queued_work(self):
        config = ServiceConfig(workers=1, max_linger_s=0.0)
        service = SolverService(config)
        tickets = [
            service.submit(wishart_matrix(10, rng=0), random_vector(10, rng=i))
            for i in range(6)
        ]
        service.close(wait=True)
        assert all(t.done() for t in tickets)
        assert service.metrics().requests_completed == 6

    def test_abort_fails_pending(self, slow_kind):
        started, release = slow_kind
        config = ServiceConfig(workers=1, max_linger_s=0.0)
        service = SolverService(config)
        matrix = wishart_matrix(8, rng=0)
        blocker = service.submit(matrix, np.ones(8), solver="slow-test")
        assert started.wait(timeout=30)
        pending = service.submit(matrix, np.ones(8), solver="slow-test")
        release.set()
        service.close(wait=False)
        # The wedged request finishes or fails; the queued one must resolve
        # rather than hang (either executed before shutdown or aborted).
        assert blocker.done() or blocker.exception(timeout=30) is not None
        assert pending.done() or pending.exception(timeout=30) is not None

    def test_unknown_solver_rejected_at_submit(self):
        with SolverService(ServiceConfig(workers=1)) as service:
            with pytest.raises(ServeError):
                service.submit(wishart_matrix(8, rng=0), np.ones(8), solver="nope")

    def test_failed_solve_sets_exception_and_service_survives(self):
        singular = np.zeros((8, 8))
        singular[0, 0] = 1.0
        with SolverService(ServiceConfig(workers=1)) as service:
            bad = service.submit(singular, np.ones(8))
            assert bad.exception(timeout=60) is not None
            good = service.submit(wishart_matrix(8, rng=0), random_vector(8, rng=1))
            assert good.result(timeout=60).x.shape == (8,)
            metrics = service.metrics()
        assert metrics.requests_failed >= 1
        assert metrics.requests_completed >= 1

    def test_config_validation(self):
        with pytest.raises(ServeError):
            ServiceConfig(workers=0)
        with pytest.raises(ServeError):
            ServiceConfig(backpressure="drop")
        with pytest.raises(ServeError):
            ServiceConfig(default_solver="nope")


class TestMetrics:
    def test_dict_shape_and_consistency(self):
        requests = _requests(n=8, unique=2)
        config = ServiceConfig(workers=2, max_batch_size=4)
        with SolverService(config) as service:
            service.solve_all(requests)
            metrics = service.metrics()
        payload = metrics.as_dict()
        for field in (
            "requests_submitted",
            "requests_completed",
            "batches_executed",
            "batch_size_histogram",
            "latency_p50_s",
            "latency_p95_s",
            "throughput_rps",
            "cache_hits",
            "cache_misses",
            "cache_hit_rate",
        ):
            assert field in payload
        assert payload["requests_submitted"] == 8
        assert payload["requests_completed"] == 8
        assert sum(
            size * count for size, count in payload["batch_size_histogram"].items()
        ) == 8
        assert payload["latency_p95_s"] >= payload["latency_p50_s"] >= 0.0
        assert payload["throughput_rps"] > 0.0
        assert metrics.table()  # renders without error

    def test_traffic_replays_deterministically(self):
        a = mixed_traffic(10, unique_matrices=3, sizes=(8, 12), seed=5)
        b = mixed_traffic(10, unique_matrices=3, sizes=(8, 12), seed=5)
        for ra, rb in zip(a, b):
            assert ra.digest == rb.digest
            assert np.array_equal(ra.b, rb.b)
            assert ra.seed == rb.seed
        c = mixed_traffic(10, unique_matrices=3, sizes=(8, 12), seed=6)
        assert any(ra.digest != rc.digest for ra, rc in zip(a, c))

    def test_traffic_validation(self):
        with pytest.raises(ValidationError):
            mixed_traffic(0)
        with pytest.raises(ValidationError):
            mixed_traffic(4, unique_matrices=0)
        with pytest.raises(ValidationError):
            mixed_traffic(4, families=("nope",))

    def test_json_round_trip(self):
        requests = _requests(n=6, unique=2)
        config = ServiceConfig(workers=1, max_batch_size=4)
        with SolverService(config) as service:
            service.solve_all(requests)
            metrics = service.metrics()
        rebuilt = ServiceMetrics.from_json(metrics.as_json())
        assert rebuilt == metrics


class TestMetricsRecorderConcurrency:
    """The recorder's counters stay exact when many threads hammer it.

    Every service tier — thread shards, pump threads of the process
    pool, the asyncio front-end — records into one shared
    :class:`MetricsRecorder`; a lost update would silently corrupt the
    bench artifacts. Threads record a known per-bucket mix, and the
    final snapshot must account for every event exactly. Snapshots
    taken *during* the storm must also be internally consistent:
    resolved requests never exceed submitted ones.
    """

    THREADS = 8
    PER_THREAD = 250  # multiple of 5 so each bucket count is exact

    def _hammer(self, recorder, index):
        for i in range(self.PER_THREAD):
            recorder.record_submit()
            bucket = (index + i) % 5
            if bucket == 0:
                recorder.record_shed()
            elif bucket == 1:
                recorder.record_deadline_miss()
                recorder.record_done(0.002, failed=True)
            elif bucket == 2:
                recorder.record_done(0.003, failed=True)
            else:
                recorder.record_done(0.001)
            recorder.record_batch(1 + bucket)
            recorder.record_prepare(0.001)
            recorder.record_retry()

    def test_concurrent_recording_is_exact(self):
        recorder = MetricsRecorder()
        with ThreadPoolExecutor(max_workers=self.THREADS) as pool:
            list(pool.map(lambda i: self._hammer(recorder, i), range(self.THREADS)))
        metrics = recorder.snapshot(CacheStats())
        total = self.THREADS * self.PER_THREAD
        per_bucket = total // 5
        assert metrics.requests_submitted == total
        assert metrics.requests_shed == per_bucket
        assert metrics.deadline_misses == per_bucket
        assert metrics.requests_failed == 2 * per_bucket
        assert metrics.requests_completed == 2 * per_bucket
        resolved = (
            metrics.requests_completed
            + metrics.requests_failed
            + metrics.requests_shed
        )
        assert resolved == metrics.requests_submitted
        assert metrics.retries == total
        assert sum(metrics.batch_size_histogram.values()) == total
        assert metrics.batch_size_histogram == {
            size: per_bucket for size in range(1, 6)
        }
        assert metrics.prepare_s == pytest.approx(total * 0.001)
        assert len(recorder.latencies) == 4 * per_bucket

    def test_snapshots_during_storm_stay_consistent(self):
        recorder = MetricsRecorder()
        stop = threading.Event()
        snapshots = []

        def observe():
            while not stop.is_set():
                snapshots.append(recorder.snapshot(CacheStats()))

        observer = threading.Thread(target=observe)
        observer.start()
        try:
            with ThreadPoolExecutor(max_workers=self.THREADS) as pool:
                list(
                    pool.map(
                        lambda i: self._hammer(recorder, i), range(self.THREADS)
                    )
                )
        finally:
            stop.set()
            observer.join()
        assert snapshots
        for metrics in snapshots:
            # Each thread submits before it resolves, so no snapshot may
            # ever show more resolved requests than submitted ones.
            resolved = (
                metrics.requests_completed
                + metrics.requests_failed
                + metrics.requests_shed
            )
            assert resolved <= metrics.requests_submitted
            # A deadline miss precedes its failed completion; at most
            # one can be in flight per thread at any instant.
            assert metrics.deadline_misses <= metrics.requests_failed + self.THREADS


class TestLeanResults:
    """Lean serving mode: same solution bits, no per-step telemetry."""

    def test_lean_solve_many_matches_full(self):
        from repro.core.blockamc import BlockAMCSolver
        from repro.core.solution import LeanSolveResult

        matrix = wishart_matrix(14, rng=2)
        rhs = [random_vector(14, rng=i) for i in range(5)]
        prep = BlockAMCSolver(HardwareConfig.paper_variation()).prepare(matrix, rng=5)
        full = prep.solve_many(rhs, np.random.default_rng(0))
        lean = prep.solve_many(rhs, np.random.default_rng(0), lean=True)
        for f, l in zip(full, lean):
            assert isinstance(l, LeanSolveResult)
            assert np.array_equal(f.x, l.x)
            assert np.array_equal(f.reference, l.reference)
            assert f.relative_error == l.relative_error
            assert f.saturated == l.saturated
            assert f.analog_time_s == l.analog_time_s
            assert f.metadata["input_scale"] == l.metadata["input_scale"]
            assert l.operations == ()

    def test_lean_execute_batch_noncoalescible_fallback(self):
        from repro.core.solution import LeanSolveResult

        matrix = wishart_matrix(10, rng=1)
        hardware = HardwareConfig.paper_variation()
        key = PreparedKey(matrix_digest(matrix), hardware.cache_key(), "original-amc", 0)
        entry = prepare_entry(key, matrix, hardware)
        assert not entry.coalescible
        bs = [random_vector(10, rng=i) for i in range(3)]
        full = execute_batch(entry, bs, [7, 8, 9])
        lean = execute_batch(entry, bs, [7, 8, 9], lean=True)
        for f, l in zip(full, lean):
            assert isinstance(l, LeanSolveResult)
            assert np.array_equal(f.x, l.x)
            assert f.saturated == l.saturated
            assert f.analog_time_s == l.analog_time_s

    def test_lean_service_bit_identical_to_full_reference(self):
        requests = _requests(n=10, unique=2)
        full, _ = run_sequential(requests, ServiceConfig(workers=1))
        with SolverService(ServiceConfig(workers=2, lean_results=True)) as service:
            lean = service.solve_all(requests)
        for f, l in zip(full, lean):
            assert _identical(f, l)

    def test_lean_sequential_reference(self):
        requests = _requests(n=6, unique=2)
        config = ServiceConfig(workers=1, lean_results=True)
        lean, _ = run_sequential(requests, config)
        full, _ = run_sequential(requests, ServiceConfig(workers=1))
        for f, l in zip(full, lean):
            assert _identical(f, l)
            assert l.operations == ()


class TestMultiStageCoalescing:
    """Two-stage prepared solvers coalesce like one-stage ones."""

    @pytest.fixture(scope="class")
    def entry(self):
        matrix = wishart_matrix(16, rng=6)
        config = HardwareConfig.paper_variation()
        key = PreparedKey(
            matrix_digest(matrix), config.cache_key(), "blockamc-2stage", 0
        )
        return prepare_entry(key, matrix, config)

    def test_entry_is_coalescible(self, entry):
        assert entry.coalescible

    def test_noisy_two_stage_not_coalescible(self):
        matrix = wishart_matrix(12, rng=6)
        config = HardwareConfig.paper_variation()
        noisy = config.with_(
            opamp=config.opamp.__class__(output_noise_sigma_v=1e-4)
        )
        key = PreparedKey(
            matrix_digest(matrix), noisy.cache_key(), "blockamc-2stage", 0
        )
        assert not prepare_entry(key, matrix, noisy).coalescible

    def test_coalesced_equals_per_request(self, entry):
        bs = [random_vector(16, rng=i) for i in range(6)]
        seeds = list(range(6))
        batch = execute_batch(entry, bs, seeds)
        singles = [execute_batch(entry, [b], [s])[0] for b, s in zip(bs, seeds)]
        for a, b in zip(batch, singles):
            assert np.array_equal(a.x, b.x)
            assert a.relative_error == b.relative_error

    def test_batch_composition_invariance(self, entry):
        bs = [random_vector(16, rng=i) for i in range(8)]
        full = execute_batch(entry, bs, list(range(8)))
        sub = execute_batch(entry, [bs[5], bs[1], bs[6]], [5, 1, 6])
        for a, b in zip(sub, (full[5], full[1], full[6])):
            assert np.array_equal(a.x, b.x)

    def test_lean_two_stage_matches_full(self, entry):
        from repro.core.solution import LeanSolveResult

        bs = [random_vector(16, rng=i) for i in range(4)]
        full = execute_batch(entry, bs, [0, 1, 2, 3])
        lean = execute_batch(entry, bs, [0, 1, 2, 3], lean=True)
        for f, l in zip(full, lean):
            assert isinstance(l, LeanSolveResult)
            assert np.array_equal(f.x, l.x)
            assert f.relative_error == l.relative_error
            assert f.saturated == l.saturated
            assert f.analog_time_s == l.analog_time_s
            assert l.operations == ()

    def test_multistage_traffic_service_bit_identical(self):
        """A mixed 1-/2-stage stream through the concurrent service is
        bit-identical to the sequential reference executor."""
        requests = mixed_traffic(
            16,
            unique_matrices=4,
            sizes=(12, 16),
            solvers=("blockamc-1stage", "blockamc-2stage"),
            seed=21,
        )
        assert {r.solver for r in requests} == {
            "blockamc-1stage", "blockamc-2stage"
        }
        reference, _ = run_sequential(requests, ServiceConfig(workers=1))
        with SolverService(ServiceConfig(workers=2)) as service:
            results = service.solve_all(requests)
            metrics = service.metrics()
        for a, b in zip(reference, results):
            assert _identical(a, b)
        assert metrics.requests_completed == len(requests)

    def test_traffic_solver_mix_does_not_disturb_stream(self):
        plain = mixed_traffic(8, unique_matrices=3, sizes=(8, 12), seed=5)
        mixed = mixed_traffic(
            8,
            unique_matrices=3,
            sizes=(8, 12),
            solvers=("blockamc-1stage", "blockamc-2stage"),
            seed=5,
        )
        for a, b in zip(plain, mixed):
            assert a.digest == b.digest
            assert np.array_equal(a.b, b.b)
            assert a.seed == b.seed
        assert all(r.solver is None for r in plain)

    def test_traffic_rejects_unknown_solver(self):
        with pytest.raises(ValidationError):
            mixed_traffic(4, solvers=("warp-drive",))
        with pytest.raises(ValidationError):
            mixed_traffic(4, solvers=())
