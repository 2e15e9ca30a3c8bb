"""Self-tests of the benchmark harness.

Run from the repository root::

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import math
import sys
import threading
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402
from repro.errors import (  # noqa: E402
    CircuitOpenError,
    DeadlineExceededError,
    OverloadedError,
    ServiceOverloadedError,
)


class FakeTicket:
    """Ticket over a future, completed by whoever holds it."""

    def __init__(self):
        self._future = Future()

    def result(self, timeout=None):
        return self._future.result(timeout)

    def exception(self, timeout=None):
        return self._future.exception(timeout)


class FakeService:
    """Completes each ticket from a timer thread after ``delay(i)`` seconds."""

    def __init__(self, delay, outcome=None):
        self.delay = delay
        self.outcome = outcome or (lambda i: ("ok", i))
        self.lock = threading.Lock()
        self.outstanding = 0
        self.peak = 0
        self.timers = []

    def submit(self, i):
        kind, value = self.outcome(i)
        if kind == "refuse":
            raise value
        ticket = FakeTicket()
        if kind == "hang":
            return ticket
        with self.lock:
            self.outstanding += 1
            self.peak = max(self.peak, self.outstanding)

        def finish():
            with self.lock:
                self.outstanding -= 1
            if kind == "error":
                ticket._future.set_exception(value)
            else:
                ticket._future.set_result(value)

        timer = threading.Timer(self.delay(i), finish)
        self.timers.append(timer)
        timer.start()
        return ticket

    def join(self):
        for timer in self.timers:
            timer.join(5.0)
            assert not timer.is_alive()


class TestPercentile:
    def test_p99_needs_ten_samples_beyond(self):
        samples = list(range(1, 1001))
        assert harness.percentile(samples, 99) == 990
        with pytest.raises(harness.InsufficientSamples):
            harness.percentile(samples[:999], 99)

    def test_p50_boundary(self):
        assert harness.percentile(list(range(1, 21)), 50) == 10
        with pytest.raises(harness.InsufficientSamples):
            harness.percentile(list(range(1, 20)), 50)

    def test_order_does_not_matter(self):
        rng = np.random.default_rng(0)
        samples = list(rng.random(2000))
        assert harness.percentile(samples, 99) == harness.percentile(sorted(samples), 99)


class TestFailures:
    def test_refused_and_failed_requests_count_and_miss_latency(self):
        refusals = {
            3: ("refuse", OverloadedError("shed")),
            5: ("refuse", ServiceOverloadedError("queue full")),
            7: ("refuse", CircuitOpenError("open")),
            9: ("error", DeadlineExceededError("late")),
            11: ("error", RuntimeError("boom")),
        }
        service = FakeService(lambda i: 0.001, lambda i: refusals.get(i, ("ok", i)))
        loop = harness.run_closed_loop(
            service.submit, lambda i: i, window=4, seconds=0.05
        )
        service.join()
        assert loop.failures == {"shed": 1, "rejected": 2, "timed-out": 1, "failed": 1}
        assert loop.failed == 5
        assert loop.attempted == loop.completed + loop.failed
        assert len(loop.latencies_s) == loop.attempted
        assert sum(math.isinf(x) for x in loop.latencies_s) == 5
        # Misses rank above every answer, so a percentile that reaches
        # them reports a miss.
        assert sorted(loop.latencies_s)[-5:] == [math.inf] * 5
        assert math.isinf(harness.percentile([0.001] * 10 + [math.inf] * 15, 50))

    def test_unanswered_requests_time_out(self):
        service = FakeService(
            lambda i: 0.001, lambda i: ("hang", None) if i < 2 else ("ok", i)
        )
        loop = harness.run_closed_loop(
            service.submit, lambda i: i, window=4, seconds=0.1, timeout_s=0.2
        )
        service.join()
        assert loop.failures == {"timed-out": 2}
        assert sum(math.isinf(x) for x in loop.latencies_s) == 2


    def test_percentile_on_a_miss_reads_as_the_timeout(self):
        loop = harness.LoopResult(
            attempted=2000, completed=1000, latencies_s=[0.01] * 1000, wall_s=1.0
        )
        loop.fail("shed", 1000)
        accuracy = {"rel_error_mean": 0.1, "saturated_frac": 0.0,
                    "analog_time_us_mean": 1.0, "unsettled_frac": 0.0}
        metrics = harness.end_to_end(
            {"loop": loop, "cpu_s": 1.0, "peak_rss_mb": 1.0}, 0.1, accuracy, serve=True
        )
        assert metrics["failed_frac"]["value"] == 0.5
        assert metrics["latency_p50_ms"]["value"] == pytest.approx(10.0)
        assert metrics["latency_p99_ms"]["value"] == harness.REQUEST_TIMEOUT_S * 1e3


class TestClosedLoop:
    def test_never_exceeds_window(self):
        rng = np.random.default_rng(1)
        delays = rng.uniform(0.0, 0.004, size=100_000)
        service = FakeService(lambda i: float(delays[i % len(delays)]))
        loop = harness.run_closed_loop(
            service.submit, lambda i: i, window=8, seconds=0.5
        )
        service.join()
        assert loop.completed > 100
        assert loop.max_in_flight == 8
        assert service.peak <= 8

    def test_latency_is_stamped_on_arrival(self):
        # Two answers arrive 20 ms and 40 ms after submit; the generator
        # is stuck for 150 ms handling the first, so it gathers the
        # second long after it arrived.
        service = FakeService(lambda i: 0.02 * (i + 1))
        seen = []

        def slow_gather(index, result):
            seen.append(index)
            if len(seen) == 1:
                time.sleep(0.15)

        loop = harness.run_closed_loop(
            service.submit, lambda i: i, window=2, seconds=0.005, on_answer=slow_gather
        )
        service.join()
        assert loop.completed == 2
        assert loop.latencies_s[0] == pytest.approx(0.02, abs=0.015)
        assert loop.latencies_s[1] == pytest.approx(0.04, abs=0.015)


class TestDeterminism:
    def test_same_seed_same_stream(self, tmp_path):
        import workloads

        def fingerprint(seed):
            workload = workloads.ServeWorkload("serve-hot", seed, tmp_path)
            return [
                (r.digest, r.b.tobytes(), r.seed, r.solver)
                for work in workload.rounds
                for r in work.stream
            ]

        assert fingerprint(3) == fingerprint(3)
        assert fingerprint(3) != fingerprint(4)

    def test_same_seed_same_campaign(self, tmp_path):
        import workloads

        a = workloads.CampaignWorkload("campaign-mc", 3, tmp_path)
        b = workloads.CampaignWorkload("campaign-mc", 3, tmp_path)
        assert a.spec.digest() == b.spec.digest()
        assert [u.key for u in a.units] == [u.key for u in b.units]
        assert workloads.CampaignWorkload("campaign-mc", 4, tmp_path).spec.digest() != (
            a.spec.digest()
        )
