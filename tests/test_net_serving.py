"""Tests for ``repro.serve.net`` — the TCP front-end over process workers.

The load-bearing guarantees, mirroring the acceptance criteria:

- **bit-exact wire transport** — frames carry raw float64 bytes; a
  network round-trip returns the server's exact bits;
- **bit-identity under concurrency** — results served over TCP through
  process workers equal :func:`repro.serve.run_sequential`, including
  under chaos (worker SIGKILL + slow-call storms);
- **typed failures** — every refusal and fault surfaces as a typed
  :class:`~repro.errors.ReproError` subclass over the wire, never a
  bare traceback or a hung ticket;
- **admission control** — per-tenant token buckets and deadline
  propagation act before work reaches a worker.
"""

from __future__ import annotations

import json
import socket

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.solution import LeanSolveResult
from repro.errors import (
    DeadlineExceededError,
    OverloadedError,
    QuotaExceededError,
    ReproError,
    ServeError,
    SolverError,
    ValidationError,
    WireProtocolError,
    error_from_wire,
    error_to_wire,
    is_retryable,
)
from repro.serve import ResiliencePolicy, ServiceConfig, SolveRequest, run_sequential
from repro.serve.net import (
    AttachedBlock,
    BlockRef,
    NetClient,
    NetServer,
    NetServerConfig,
    QuotaPolicy,
    TenantQuotas,
    TokenBucket,
    publish_block,
)
from repro.serve.net.protocol import (
    MAX_FRAME_BYTES,
    STATUS_UNKNOWN_DIGEST,
    array_from_bytes,
    array_to_bytes,
    check_wire_dtypes,
    decode_frame,
    encode_frame,
    recv_frame,
)
from repro.serve.net.quotas import ANONYMOUS_TENANT
from repro.testing.chaos import CHAOS_ENV, ChaosPlan
from repro.workloads.matrices import wishart_matrix
from repro.workloads.traffic import drive_network, mixed_traffic


def _body(head: bytes) -> bytes:
    """A frame body whose header is the bytes ``head`` verbatim."""
    return len(head).to_bytes(4, "big") + head


def _raw_body(header: dict) -> bytes:
    """A frame body with ``header`` verbatim (encode_frame rewrites blobs)."""
    return _body(json.dumps(header).encode())


#: Headers json.loads refuses with a non-JSON error: a nesting deeper
#: than the recursion limit, and an integer past the digit limit.
_DEEP_HEADER = b"[" * 100_000 + b"]" * 100_000
_HUGE_INT_HEADER = b'{"blobs":[' + b"9" * 5000 + b"]}"


def _requests(n=16, unique=3, sizes=(12, 16), seed=0, **kwargs):
    return mixed_traffic(n, unique_matrices=unique, sizes=sizes, seed=seed, **kwargs)


def _server_config(**kwargs):
    service = kwargs.pop("service", None) or ServiceConfig(
        workers=kwargs.pop("workers", 2), max_batch_size=8
    )
    return NetServerConfig(service=service, **kwargs)


# ----------------------------------------------------------------------
# wire protocol
# ----------------------------------------------------------------------


class TestWireProtocol:
    def test_frame_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(37)
        m = rng.standard_normal((7, 7)) * 1e-308  # denormal-adjacent bits
        header = {"type": "solve", "id": 3, "n": 37, "tenant": "t"}
        frame = encode_frame(header, [array_to_bytes(x), array_to_bytes(m)])
        decoded, blobs = decode_frame(frame[4:])
        assert decoded["type"] == "solve" and decoded["id"] == 3
        assert decoded["blobs"] == [37 * 8, 49 * 8]
        assert np.array_equal(array_from_bytes(blobs[0], (37,)), x)
        assert np.array_equal(array_from_bytes(blobs[1], (7, 7)), m)

    def test_encode_rewrites_stale_blob_lengths(self):
        # A desynchronized header cannot poison the frame: lengths are
        # always derived from the actual payload.
        frame = encode_frame({"type": "x", "blobs": [999]}, [b"abcd"])
        header, blobs = decode_frame(frame[4:])
        assert header["blobs"] == [4]
        assert bytes(blobs[0]) == b"abcd"

    def test_decode_rejects_malformed_frames(self):
        with pytest.raises(WireProtocolError, match="no header length"):
            decode_frame(b"\x00")
        with pytest.raises(WireProtocolError, match="overruns"):
            decode_frame(b"\x00\x00\x00\xff{}")
        with pytest.raises(WireProtocolError, match="not valid JSON"):
            decode_frame(b"\x00\x00\x00\x03nah")
        with pytest.raises(WireProtocolError, match="must be an object"):
            decode_frame(b"\x00\x00\x00\x02[]")
        # blob lengths overrunning the body
        bad = encode_frame({"type": "x"}, [b"abcd"])[4:-2]
        with pytest.raises(WireProtocolError, match="overrun"):
            decode_frame(bad)
        # trailing bytes not covered by any declared blob
        with pytest.raises(WireProtocolError, match="trailing"):
            decode_frame(encode_frame({"type": "x"})[4:] + b"zz")
        # a blob-length list that is not a list, or holds a bool
        with pytest.raises(WireProtocolError, match="list of lengths"):
            decode_frame(_raw_body({"type": "x", "blobs": 5}))
        with pytest.raises(WireProtocolError, match="list of lengths"):
            decode_frame(_raw_body({"type": "x", "blobs": None}))
        with pytest.raises(WireProtocolError, match="overrun"):
            decode_frame(_raw_body({"type": "x", "blobs": [True]}) + b"z")
        for head in (_DEEP_HEADER, _HUGE_INT_HEADER):
            with pytest.raises(WireProtocolError, match="not valid JSON"):
                decode_frame(_body(head))

    def test_array_from_bytes_validates_byte_count(self):
        with pytest.raises(WireProtocolError, match="expected"):
            array_from_bytes(b"\x00" * 24, (4,))
        for shape in [(-1, -1), (True,), ("a",), [1]]:
            with pytest.raises(WireProtocolError, match="shape"):
                array_from_bytes(b"\x00" * 8, shape)
        with pytest.raises(WireProtocolError, match="dtypes"):
            check_wire_dtypes({"dtypes": "float64"})
        # a shape whose int64 product wraps to 0 bytes, and an empty
        # block with an extent NumPy cannot index
        with pytest.raises(WireProtocolError, match="expected"):
            array_from_bytes(b"", (2**40, 2**40))
        with pytest.raises(WireProtocolError, match="shape"):
            array_from_bytes(b"", (0, 2**70))

    @given(
        body=st.one_of(
            st.binary(max_size=64),
            st.builds(
                lambda header, tail: _raw_body(header) + tail,
                st.recursive(
                    st.none()
                    | st.booleans()
                    | st.integers()
                    | st.floats()
                    | st.text(max_size=8),
                    lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(
                        st.sampled_from(["type", "id", "blobs", "n"]) | st.text(max_size=4),
                        inner,
                        max_size=4,
                    ),
                    max_leaves=12,
                ),
                st.binary(max_size=16),
            ),
        )
    )
    @example(body=_body(_DEEP_HEADER))
    @example(body=_body(_HUGE_INT_HEADER))
    @settings(max_examples=200, deadline=None)
    def test_decode_raises_only_wire_errors(self, body):
        """Any body either decodes or raises WireProtocolError."""
        try:
            header, blobs = decode_frame(body)
        except WireProtocolError:
            return
        assert isinstance(header, dict)
        assert sum(len(blob) for blob in blobs) <= len(body)

    def test_recv_frame_rejects_hostile_length_prefix(self):
        a, b = socket.socketpair()
        try:
            a.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            with pytest.raises(WireProtocolError, match="MAX_FRAME_BYTES"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_recv_frame_clean_eof_is_none(self):
        a, b = socket.socketpair()
        try:
            a.sendall(encode_frame({"type": "ping", "id": 1}))
            a.close()
            assert recv_frame(b) is not None
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_wire_error_codec_round_trips_types(self):
        exc = QuotaExceededError("too chatty", retry_after_s=1.5)
        rebuilt = error_from_wire(error_to_wire(exc))
        assert isinstance(rebuilt, QuotaExceededError)
        assert rebuilt.retry_after_s == 1.5
        assert is_retryable(rebuilt)
        plain = error_from_wire(error_to_wire(SolverError("diverged")))
        assert isinstance(plain, SolverError)
        assert not is_retryable(plain)
        unknown = error_from_wire({"code": "NoSuchError", "message": "?"})
        assert isinstance(unknown, ServeError)


# ----------------------------------------------------------------------
# token buckets
# ----------------------------------------------------------------------


class TestTokenBuckets:
    def test_burst_then_dry_with_retry_after(self):
        clock = FakeClock()
        bucket = TokenBucket(QuotaPolicy(rate_per_s=2.0, burst=3), clock)
        assert [bucket.try_acquire() for _ in range(3)] == [0.0, 0.0, 0.0]
        retry_after = bucket.try_acquire()
        assert retry_after == pytest.approx(0.5)  # 1 token at 2/s
        clock.advance(0.5)
        assert bucket.try_acquire() == 0.0

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(QuotaPolicy(rate_per_s=10.0, burst=2), clock)
        clock.advance(100.0)
        assert bucket.tokens == pytest.approx(2.0)

    def test_tenants_are_isolated(self):
        clock = FakeClock()
        quotas = TenantQuotas(QuotaPolicy(rate_per_s=1.0, burst=1), clock)
        quotas.acquire("a")
        with pytest.raises(QuotaExceededError) as info:
            quotas.acquire("a")
        assert info.value.retry_after_s == pytest.approx(1.0)
        assert isinstance(info.value, OverloadedError)  # typed as overload
        quotas.acquire("b")  # unaffected by a's exhaustion
        assert quotas.tokens("a") == pytest.approx(0.0)

    def test_anonymous_tenant_shares_one_bucket(self):
        clock = FakeClock()
        quotas = TenantQuotas(QuotaPolicy(rate_per_s=1.0, burst=1), clock)
        quotas.acquire(None)
        with pytest.raises(QuotaExceededError, match=ANONYMOUS_TENANT):
            quotas.acquire(None)

    def test_policy_validation(self):
        with pytest.raises(ValidationError):
            QuotaPolicy(rate_per_s=0.0, burst=4)
        with pytest.raises(ValidationError):
            QuotaPolicy(rate_per_s=1.0, burst=0.5)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# shared-memory transport
# ----------------------------------------------------------------------


class TestSharedMemoryTransport:
    def test_publish_attach_round_trip_bit_exact(self):
        rng = np.random.default_rng(1)
        xs = rng.standard_normal((3, 5))
        refs = rng.standard_normal((3, 5))
        ref = publish_block(xs, refs)
        block = AttachedBlock(ref)
        for i in range(3):
            x, reference = block.row(i)
            assert np.array_equal(x, xs[i])
            assert np.array_equal(reference, refs[i])
        # consuming the last row released the segment
        assert block.released
        if not ref.inline:
            from multiprocessing import shared_memory

            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=ref.name)

    def test_single_row_block(self):
        x = np.arange(4.0)
        ref = publish_block(x, x + 1)
        block = AttachedBlock(ref)
        got_x, got_ref = block.row(0)
        assert np.array_equal(got_x, x) and np.array_equal(got_ref, x + 1)
        assert block.released

    def test_release_is_idempotent_and_guards_rows(self):
        ref = publish_block(np.ones((2, 3)), np.zeros((2, 3)))
        block = AttachedBlock(ref)
        block.release()
        block.release()
        assert block.released
        with pytest.raises(ServeError, match="released"):
            block.row(0)

    def test_row_bounds_checked(self):
        block = AttachedBlock(publish_block(np.ones((2, 3)), np.ones((2, 3))))
        with pytest.raises(ServeError, match="out of range"):
            block.row(2)
        block.release()

    def test_inline_fallback_preserves_bits(self):
        rng = np.random.default_rng(2)
        stacked = np.stack([rng.standard_normal((2, 4)) for _ in range(2)])
        ref = BlockRef(name=None, batch=2, n=4, payload=stacked.tobytes())
        assert ref.inline
        block = AttachedBlock(ref)
        x, reference = block.row(1)
        assert np.array_equal(x, stacked[0, 1])
        assert np.array_equal(reference, stacked[1, 1])

    def test_mismatched_blocks_rejected(self):
        with pytest.raises(ServeError, match="disagree"):
            publish_block(np.ones((2, 3)), np.ones((3, 3)))


# ----------------------------------------------------------------------
# end-to-end serving
# ----------------------------------------------------------------------


class TestNetServing:
    def test_round_trip_bit_identical_to_sequential(self):
        requests = _requests(n=20, unique=4)
        config = _server_config(workers=2)
        reference, _ = run_sequential(requests, config.service)
        with NetServer(config) as server:
            host, port = server.address
            with NetClient(host, port) as client:
                results = client.solve_all(requests, timeout=120.0)
                metrics = client.metrics()
                assert client.ping()
                alive = client.alive_workers()
        for res, ref in zip(results, reference):
            assert isinstance(res, LeanSolveResult)
            assert np.array_equal(res.x, ref.x)
            assert np.array_equal(res.reference, ref.reference)
            assert res.relative_error == ref.relative_error
        assert metrics.requests_completed == len(requests)
        assert metrics.requests_failed == 0
        assert metrics.batches_executed >= 1
        assert alive == 2

    def test_ticket_telemetry_and_status(self):
        requests = _requests(n=4, unique=1)
        with NetServer(_server_config(workers=1)) as server:
            host, port = server.address
            with NetClient(host, port) as client:
                tickets = [client.submit_request(r) for r in requests]
                for ticket in tickets:
                    result = ticket.result(60.0)
                    assert ticket.status == "ok"
                    assert ticket.telemetry["solver"] == result.solver
                    assert ticket.telemetry["batch"] >= 1

    def test_deadline_propagates_over_the_wire(self):
        requests = _requests(n=3, unique=1, deadline_s=1e-5)
        with NetServer(_server_config(workers=1)) as server:
            host, port = server.address
            with NetClient(host, port) as client:
                for request in requests:
                    exc = client.submit_request(request).exception(60.0)
                    assert isinstance(exc, DeadlineExceededError)
                metrics = client.metrics()
        assert metrics.deadline_misses == len(requests)

    def test_quota_enforced_per_tenant(self):
        quota = QuotaPolicy(rate_per_s=0.001, burst=2)
        with NetServer(_server_config(workers=1, quota=quota)) as server:
            host, port = server.address
            matrix = _requests(n=1)[0].matrix
            n = matrix.shape[0]
            with NetClient(host, port, tenant="chatty") as client:
                first = [
                    client.submit(matrix, np.ones(n), seed=i) for i in range(2)
                ]
                for ticket in first:
                    ticket.result(60.0)
                exc = client.submit(matrix, np.ones(n), seed=9).exception(60.0)
                assert isinstance(exc, QuotaExceededError)
                assert exc.retry_after_s is not None and exc.retry_after_s > 0.0
                # another tenant still has its full burst
                other = client.submit(
                    matrix, np.ones(n), seed=3, tenant="quiet"
                )
                assert other.result(60.0) is not None

    def test_unknown_digest_without_payload_is_typed(self):
        # Digest-only submit for a matrix the worker has never seen: the
        # wire answers with the typed coherency status (the client
        # normally reacts by re-sending the payload).
        with NetServer(_server_config(workers=1)) as server:
            host, port = server.address
            sock = socket.create_connection((host, port), timeout=30.0)
            try:
                header = {
                    "type": "solve",
                    "id": 1,
                    "n": 8,
                    "digest": "f" * 64,
                    "seed": 0,
                }
                sock.sendall(encode_frame(header, [array_to_bytes(np.ones(8))]))
                response, _ = recv_frame(sock)
                assert response["type"] == "error"
                assert response["status"] == STATUS_UNKNOWN_DIGEST
                assert is_retryable(error_from_wire(response["error"]))
            finally:
                sock.close()

    def test_malformed_solve_is_typed_not_fatal(self):
        with NetServer(_server_config(workers=1)) as server:
            host, port = server.address
            sock = socket.create_connection((host, port), timeout=30.0)
            try:
                sock.sendall(encode_frame({"type": "solve", "id": 7, "n": -2}))
                response, _ = recv_frame(sock)
                assert response["type"] == "error" and response["id"] == 7
                assert isinstance(
                    error_from_wire(response["error"]), WireProtocolError
                )
                # the connection survived the bad request
                sock.sendall(encode_frame({"type": "ping", "id": 8}))
                response, _ = recv_frame(sock)
                assert response["type"] == "pong" and response["id"] == 8
            finally:
                sock.close()

    def test_unparseable_header_gets_typed_error_frame(self):
        # A header json.loads cannot parse without a RecursionError used
        # to escape the connection handler: the peer saw a bare EOF.
        with NetServer(_server_config(workers=1)) as server:
            host, port = server.address
            sock = socket.create_connection((host, port), timeout=30.0)
            try:
                body = _body(_DEEP_HEADER)
                sock.sendall(len(body).to_bytes(4, "big") + body)
                response, _ = recv_frame(sock)
                assert response["type"] == "error" and response["id"] is None
                assert isinstance(
                    error_from_wire(response["error"]), WireProtocolError
                )
            finally:
                sock.close()

    def test_untyped_header_fields_answer_typed_errors(self):
        with NetServer(_server_config(workers=1)) as server:
            host, port = server.address
            sock = socket.create_connection((host, port), timeout=30.0)
            try:
                # "n": true is not a size, even though the one-float blob
                # would match n == 1: a typed request error, connection kept.
                sock.sendall(
                    encode_frame(
                        {"type": "solve", "id": 3, "n": True, "digest": "f" * 64},
                        [array_to_bytes(np.ones(1))],
                    )
                )
                response, _ = recv_frame(sock)
                assert response["type"] == "error" and response["id"] == 3
                assert isinstance(
                    error_from_wire(response["error"]), WireProtocolError
                )
                # A non-list blob-length field breaks framing: typed error
                # frame first, then the server hangs up.
                body = _raw_body({"type": "ping", "id": 4, "blobs": 5})
                sock.sendall(len(body).to_bytes(4, "big") + body)
                response, _ = recv_frame(sock)
                assert response["type"] == "error" and response["id"] is None
                assert isinstance(
                    error_from_wire(response["error"]), WireProtocolError
                )
                assert recv_frame(sock) is None
            finally:
                sock.close()

    def test_broken_framing_answers_typed_then_hangs_up(self):
        with NetServer(_server_config(workers=1)) as server:
            host, port = server.address
            sock = socket.create_connection((host, port), timeout=30.0)
            try:
                # Declared frame length smaller than the actual header
                # region — undecodable, the byte stream is toast.
                sock.sendall(b"\x00\x00\x00\x05\x00\x00\x00\xffgarbage")
                response, _ = recv_frame(sock)
                assert response["type"] == "error" and response["id"] is None
                assert recv_frame(sock) is None  # server hung up
            finally:
                sock.close()

    def test_metrics_json_round_trip_over_wire(self):
        requests = _requests(n=6, unique=2)
        with NetServer(_server_config(workers=1)) as server:
            host, port = server.address
            with NetClient(host, port) as client:
                client.solve_all(requests, timeout=120.0)
                metrics = client.metrics()
        from repro.serve import ServiceMetrics

        assert ServiceMetrics.from_json(metrics.as_json()) == metrics
        assert metrics.requests_submitted == len(requests)

    def test_drive_network_validation(self):
        with pytest.raises(ValidationError):
            drive_network(None, [], max_rounds=0)
        with pytest.raises(ValidationError):
            drive_network(None, [], backoff_s=-1.0)


# ----------------------------------------------------------------------
# chaos: worker kills + slow storms over the wire
# ----------------------------------------------------------------------


class TestNetChaos:
    def test_storm_failures_typed_and_successes_bit_identical(
        self, tmp_path, monkeypatch
    ):
        """The acceptance criterion: mixed traffic under worker SIGKILL +
        slow-call storm + injected solve failures. Every outcome must be
        a result or a typed error, and every success must be
        bit-identical to the sequential reference."""
        plan = ChaosPlan(
            seed=7,
            solve_failure_rate=0.15,
            slow_call_rate=0.2,
            slow_call_s=0.02,
            worker_kill_rate=0.08,
            state_dir=str(tmp_path),
        )
        monkeypatch.setenv(CHAOS_ENV, list(plan.chaos_env().values())[0])
        requests = _requests(n=40, unique=4, sizes=(12, 16), seed=1)
        service = ServiceConfig(
            workers=2,
            max_batch_size=8,
            resilience=ResiliencePolicy(breaker_threshold=0, max_shard_restarts=10),
        )
        reference, _ = run_sequential(requests, ServiceConfig(workers=2))
        with NetServer(NetServerConfig(service=service)) as server:
            host, port = server.address
            with NetClient(host, port, timeout_s=120.0) as client:
                outcomes = drive_network(
                    client, requests, max_rounds=8, timeout_s=120.0
                )
                metrics = client.metrics()
        monkeypatch.delenv(CHAOS_ENV)

        assert len(outcomes) == len(requests)
        successes = 0
        for outcome, ref in zip(outcomes, reference):
            if isinstance(outcome, LeanSolveResult):
                successes += 1
                assert np.array_equal(outcome.x, ref.x)
                assert np.array_equal(outcome.reference, ref.reference)
            else:
                # every failure is a typed library error, never a bare
                # traceback, and only deterministic solver faults
                # survive the retry rounds
                assert isinstance(outcome, ReproError)
                assert isinstance(outcome, SolverError)
                assert not is_retryable(outcome)
        assert successes >= len(requests) // 2  # the storm didn't take the service down
        # the plan genuinely fired kills, and the pool rode them out
        assert plan.injected("kill") >= 1
        assert metrics.shard_crashes >= 1

    def test_worker_restart_keeps_serving(self, tmp_path, monkeypatch):
        """A kill storm on a single-worker pool: the shard restarts and
        later requests (including transparent matrix re-sends) succeed."""
        plan = ChaosPlan(seed=3, worker_kill_rate=1.0, state_dir=str(tmp_path))
        monkeypatch.setenv(CHAOS_ENV, list(plan.chaos_env().values())[0])
        requests = _requests(n=6, unique=1, sizes=(12,), seed=4)
        service = ServiceConfig(
            workers=1,
            max_batch_size=4,
            resilience=ResiliencePolicy(max_shard_restarts=20),
        )
        reference, _ = run_sequential(requests, ServiceConfig(workers=1))
        with NetServer(NetServerConfig(service=service)) as server:
            host, port = server.address
            with NetClient(host, port, timeout_s=120.0) as client:
                outcomes = drive_network(
                    client, requests, max_rounds=10, timeout_s=120.0
                )
                metrics = client.metrics()
        monkeypatch.delenv(CHAOS_ENV)
        assert all(isinstance(o, LeanSolveResult) for o in outcomes)
        for outcome, ref in zip(outcomes, reference):
            assert np.array_equal(outcome.x, ref.x)
        assert metrics.shard_crashes >= 1
        assert plan.injected("kill") >= 1

    def test_queued_job_survives_matrix_eviction(self):
        """A job holds its matrix from admission: evicting the digest from
        the worker's matrix table while the job is queued must not fail it."""
        import queue

        from repro.serve.net.workers import WorkItem, _WorkerState

        requests = [
            SolveRequest(matrix=wishart_matrix(8, rng=i), b=np.ones(8), seed=i)
            for i in range(3)
        ]
        config = ServiceConfig(workers=1, max_linger_s=0.0)
        reference, _ = run_sequential(requests, config)
        responses: queue.Queue = queue.Queue()
        state = _WorkerState(config, queue.Queue(), responses)
        state.matrix_capacity = 1
        for i, r in enumerate(requests):
            state._admit(
                WorkItem(id=i, digest=r.digest, b=r.b, matrix=r.matrix, seed=r.seed)
            )
        # The first two digests were evicted while their jobs were queued.
        assert list(state.matrices) == [requests[-1].digest]
        while len(state.engine.batcher):
            state._serve(state.engine.batcher.next_key())
        for _ in requests:
            msg = responses.get_nowait()
            assert msg.status == "ok"
            x, _ = AttachedBlock(msg.block).row(msg.row)  # one row per block
            assert np.array_equal(x, reference[msg.id].x)

    def test_degraded_answers_counted_once(self, monkeypatch):
        """Every analog solve fails: the digital ladder answers each
        request, and the worker's counter deltas count each exactly once."""
        plan = ChaosPlan(seed=0, solve_failure_rate=1.0)
        monkeypatch.setenv(CHAOS_ENV, list(plan.chaos_env().values())[0])
        requests = _requests(n=5, unique=1, sizes=(12,), seed=2)
        service = ServiceConfig(
            workers=1,
            max_batch_size=4,
            resilience=ResiliencePolicy(breaker_threshold=0, fallback="digital"),
        )
        with NetServer(NetServerConfig(service=service)) as server:
            host, port = server.address
            with NetClient(host, port) as client:
                tickets = [client.submit_request(r) for r in requests]
                results = [t.result(60.0) for t in tickets]
                metrics = client.metrics()
        monkeypatch.delenv(CHAOS_ENV)
        assert [t.status for t in tickets] == ["degraded"] * len(requests)
        for request, result in zip(requests, results):
            assert result.solver == "digital-fallback"
            assert np.allclose(request.matrix @ result.x, request.b)
        assert metrics.degraded == len(requests)
        assert metrics.requests_failed == 0


# ----------------------------------------------------------------------
# one element dtype on the wire and in shared memory
# ----------------------------------------------------------------------


class TestWireDtypes:
    """Every binary block is float64. A frame may carry a ``dtypes`` list
    (older peers send one per blob): it decodes when absent or when every
    entry is ``"float64"``, and is refused with a typed error otherwise."""

    def test_missing_dtype_defaults_to_float64(self):
        # old-peer interop: peers send no dtypes list, or an all-float64 one
        x = np.random.default_rng(1).standard_normal(5)
        assert np.array_equal(array_from_bytes(array_to_bytes(x), (5,)), x)
        check_wire_dtypes({"type": "solve"})
        for dtypes in (None, [], ["float64"], ["float64", "float64"]):
            check_wire_dtypes({"dtypes": dtypes})

    def test_unknown_dtype_name_is_typed(self):
        for dtypes in (["float32"], ["float64", "float16"], [None], "float64", {}):
            with pytest.raises(WireProtocolError, match="float64 only"):
                check_wire_dtypes({"dtypes": dtypes})

    def test_size_mismatch_is_typed_per_dtype(self):
        # a float32 payload holds half the bytes of the float64 block
        blob = np.zeros(4, dtype=np.float32).tobytes()
        with pytest.raises(WireProtocolError, match="expected"):
            array_from_bytes(blob, (4,))

    def test_exotic_dtypes_canonicalize_to_f64_on_the_wire(self):
        for array in (np.arange(4), np.arange(4, dtype=np.float32)):
            blob = array_to_bytes(array)
            assert len(blob) == 4 * 8
            decoded = array_from_bytes(blob, (4,))
            assert decoded.dtype == np.float64 and np.array_equal(decoded, array)


class TestSharedMemoryDtypes:
    """Both regions of a published block are float64, whatever the
    publisher hands in, and a size disagreement between publisher and
    consumer is detected rather than reinterpreted."""

    def test_non_float64_rows_publish_as_float64(self):
        rng = np.random.default_rng(4)
        xs = rng.standard_normal((3, 4)).astype(np.float32)
        refs = rng.standard_normal((3, 4))
        block = AttachedBlock(publish_block(xs, refs))
        x, reference = block.row(1)
        assert x.dtype == np.float64 and np.array_equal(x, xs[1])
        assert reference.dtype == np.float64 and np.array_equal(reference, refs[1])
        block.release()

    def test_dtype_disagreement_detected_not_reinterpreted(self):
        from dataclasses import replace

        ref = publish_block(np.ones((3, 5)), np.zeros((3, 5)))
        # a consumer that believes the regions are wider than published
        lying = replace(ref, n=8)
        with pytest.raises(ServeError, match="bytes"):
            AttachedBlock(lying)
        # the refusal closed its mapping without unlinking: the honest
        # descriptor still attaches, then releases the segment
        AttachedBlock(ref).release()

    def test_inline_payload_size_checked_exactly(self):
        # 2 x 3 float32 rows next to 2 x 3 float64 rows: not a float64 block
        bad = BlockRef(name=None, batch=2, n=3, payload=b"\x00" * (6 * 4 + 6 * 8))
        with pytest.raises(ServeError, match="expected"):
            AttachedBlock(bad)

    def test_old_descriptor_defaults_to_float64(self):
        stacked = np.stack([np.ones((2, 4)), np.zeros((2, 4))])
        ref = BlockRef(name=None, batch=2, n=4, payload=stacked.tobytes())
        x, reference = AttachedBlock(ref).row(0)
        assert np.array_equal(x, np.ones(4)) and np.array_equal(reference, np.zeros(4))


class TestNetServingDtypes:
    def test_non_float64_request_gets_typed_error_frame(self):
        request = _requests(n=1, unique=1, sizes=(12,), seed=5)[0]
        reference, _ = run_sequential([request], ServiceConfig(workers=1))
        with NetServer(_server_config(workers=1)) as server:
            host, port = server.address
            sock = socket.create_connection((host, port), timeout=30.0)
            try:
                header = {
                    "type": "solve", "id": 1, "n": 12, "solver": request.solver,
                    "prep_seed": request.prep_seed, "seed": request.seed,
                }
                blobs = [array_to_bytes(request.b), array_to_bytes(request.matrix)]
                sock.sendall(encode_frame({**header, "dtypes": ["float32"]}, blobs))
                response, _ = recv_frame(sock)
                assert response["type"] == "error" and response["id"] == 1
                error = error_from_wire(response["error"])
                assert isinstance(error, WireProtocolError)
                assert "float64 only" in str(error)
                # the connection survived; an all-float64 list still decodes
                sock.sendall(
                    encode_frame(
                        {**header, "id": 2, "dtypes": ["float64", "float64"]}, blobs
                    )
                )
                response, result_blobs = recv_frame(sock)
                assert response["type"] == "result" and response["id"] == 2
                assert "dtypes" not in response
                x = array_from_bytes(result_blobs[0], (12,))
                assert np.array_equal(x, reference[0].x)
            finally:
                sock.close()

    def test_f64_results_round_trip_over_real_sockets(self):
        requests = _requests(n=4, unique=1, sizes=(12,), seed=5)
        reference, _ = run_sequential(requests, ServiceConfig(workers=1))
        with NetServer(_server_config(workers=1)) as server:
            host, port = server.address
            with NetClient(host, port) as client:
                results = client.solve_all(requests, timeout=120.0)
        for res, ref in zip(results, reference):
            assert res.x.dtype == np.float64
            assert np.array_equal(res.x, ref.x)
