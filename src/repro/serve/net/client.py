"""Blocking TCP client for the ``repro.serve.net`` wire protocol.

:class:`NetClient` pipelines: submits return a :class:`NetTicket`
immediately, a background reader thread matches out-of-order responses
by request id, and results re-materialize as
:class:`~repro.core.solution.LeanSolveResult` with the server's exact
bits (the wire carries raw float64 array bytes — see ``protocol.py``).

Matrix transfer is content-addressed: the first submit of a digest sends
the matrix payload, later submits send the digest alone. When the server
answers ``unknown-digest`` (its worker restarted or evicted the matrix),
the client transparently re-sends that request **with** the payload —
callers never see the coherency traffic, only a result.

Failures arrive as typed exceptions rebuilt by
:func:`repro.errors.error_from_wire`: a shed request raises
:class:`~repro.errors.OverloadedError` with the server's retry-after
hint, an expired deadline raises
:class:`~repro.errors.DeadlineExceededError`, and so on — the same
taxonomy the in-process service raises, now spanning the network.
"""

from __future__ import annotations

import itertools
import socket
import threading
from concurrent.futures import Future

from repro.core.solution import LeanSolveResult
from repro.errors import (
    ServeError,
    ServiceClosedError,
    UnknownDigestError,
    error_from_wire,
)
from repro.obs import tracer as obs
from repro.serve.metrics import ServiceMetrics
from repro.serve.net.protocol import (
    STATUS_UNKNOWN_DIGEST,
    array_from_bytes,
    array_to_bytes,
    check_wire_dtypes,
    encode_frame,
    recv_frame,
)
from repro.serve.requests import SolveRequest

__all__ = ["NetClient", "NetTicket"]


class NetTicket:
    """Handle to one in-flight network solve (a thin Future wrapper)."""

    def __init__(self, request: SolveRequest):
        self.request = request
        #: Wire status of the response (``None`` until it arrives).
        self.status: str | None = None
        #: Per-request server telemetry (result responses only).
        self.telemetry: dict = {}
        #: Client-side request span (NOOP when tracing is disabled).
        self.span = obs.NOOP_SPAN
        self._future: Future = Future()

    def result(self, timeout: float | None = None) -> LeanSolveResult:
        """Block for the response; re-raises typed server errors."""
        return self._future.result(timeout)

    def exception(self, timeout: float | None = None):
        """The typed error, or ``None`` on success (blocks like result)."""
        return self._future.exception(timeout)

    def done(self) -> bool:
        return self._future.done()


class _Call:
    """Reader-thread bookkeeping for one outstanding request id."""

    __slots__ = ("kind", "ticket", "header", "matrix", "resent", "future")

    def __init__(self, kind, ticket=None, header=None, matrix=None, future=None):
        self.kind = kind
        self.ticket = ticket
        self.header = header
        self.matrix = matrix
        self.resent = False
        self.future = future if future is not None else Future()


class NetClient:
    """Client connection to a :class:`~repro.serve.net.server.NetServer`.

    Use as a context manager::

        with NetClient(host, port, tenant="team-a") as client:
            ticket = client.submit(matrix, b, seed=3, deadline_ms=250)
            result = ticket.result()
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        tenant: str | None = None,
        timeout_s: float = 60.0,
    ):
        self.tenant = tenant
        self.timeout_s = timeout_s
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        # Responses can be minutes apart on a loaded server; the reader
        # blocks on recv without an artificial per-read timeout.
        self._sock.settimeout(None)
        self._send_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._calls: dict[int, _Call] = {}
        self._known_digests: set[str] = set()
        self._closed = False
        self._reader = threading.Thread(
            target=self._read_loop, name="repro-net-client", daemon=True
        )
        self._reader.start()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, matrix, b, **kwargs) -> NetTicket:
        """Build a :class:`SolveRequest` and submit it (kwargs pass through)."""
        kwargs.setdefault("tenant", self.tenant)
        return self.submit_request(SolveRequest(matrix=matrix, b=b, **kwargs))

    def submit_request(self, request: SolveRequest) -> NetTicket:
        """Send one request; returns immediately with a ticket."""
        ticket = NetTicket(request)
        tracer = obs.active()
        if tracer.enabled:
            ticket.span = tracer.start_span(
                "client.request",
                attributes={
                    "digest": request.digest[:12],
                    "seed": request.seed,
                    "n": request.size,
                },
            )
        header = {
            "type": "solve",
            "n": request.size,
            "digest": request.digest,
            "solver": request.solver,
            "prep_seed": request.prep_seed,
            "seed": request.seed,
            "tenant": request.tenant if request.tenant is not None else self.tenant,
            "deadline_ms": (
                None if request.deadline_s is None else request.deadline_s * 1e3
            ),
        }
        if ticket.span.enabled:
            # Free-form header field: old servers ignore it, tracing
            # servers parent their request span under ours.
            header["trace"] = ticket.span.context()
        call = _Call("solve", ticket=ticket, header=header, matrix=request.matrix)
        with self._state_lock:
            if self._closed:
                error = ServiceClosedError("client is closed")
                ticket.span.fail(error)
                raise error
            request_id = next(self._ids)
            header["id"] = request_id
            send_matrix = request.digest not in self._known_digests
            # Optimistic: requests on one connection reach the shard in
            # send order, so later digest-only submits ride behind the
            # payload-carrying one even before its response arrives.
            self._known_digests.add(request.digest)
            self._calls[request_id] = call
        self._send_solve(call, with_matrix=send_matrix)
        return ticket

    def _send_solve(self, call: _Call, *, with_matrix: bool) -> None:
        arrays = [call.ticket.request.b]
        if with_matrix:
            arrays.append(call.matrix)
        self._send(encode_frame(call.header, [array_to_bytes(a) for a in arrays]))

    def solve(self, matrix, b, timeout: float | None = None, **kwargs):
        """Submit one request and block for its result."""
        return self.submit(matrix, b, **kwargs).result(
            timeout if timeout is not None else self.timeout_s
        )

    def solve_all(self, requests, timeout: float | None = None) -> list:
        """Submit every request, then gather results in request order.

        Like :meth:`SolverService.solve_all`: if any request failed, the
        first failure re-raises after every ticket resolved.
        """
        tickets = [self.submit_request(request) for request in requests]
        deadline = timeout if timeout is not None else self.timeout_s
        errors = [ticket.exception(deadline) for ticket in tickets]
        for error in errors:
            if error is not None:
                raise error
        return [ticket.result(0) for ticket in tickets]

    # ------------------------------------------------------------------
    # control-plane requests
    # ------------------------------------------------------------------
    def metrics(self, timeout: float | None = None) -> ServiceMetrics:
        """Fetch the server's metrics snapshot over the wire."""
        return self._control("metrics", timeout)

    def alive_workers(self, timeout: float | None = None) -> int:
        """How many worker processes the server currently has live."""
        call = self._control_call("metrics")
        payload = call.future.result(timeout if timeout is not None else self.timeout_s)
        return payload["alive_workers"]

    def ping(self, timeout: float | None = None) -> bool:
        """Round-trip a ping frame (liveness check)."""
        self._control("ping", timeout)
        return True

    def _control_call(self, kind: str) -> _Call:
        call = _Call(kind)
        with self._state_lock:
            if self._closed:
                raise ServiceClosedError("client is closed")
            request_id = next(self._ids)
            self._calls[request_id] = call
        self._send(encode_frame({"type": kind, "id": request_id}))
        return call

    def _control(self, kind: str, timeout: float | None):
        call = self._control_call(kind)
        payload = call.future.result(timeout if timeout is not None else self.timeout_s)
        if kind == "metrics":
            return ServiceMetrics.from_dict(payload["metrics"])
        return payload

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the connection; unresolved tickets fail as closed."""
        with self._state_lock:
            self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self._reader.join(timeout=5.0)
        self._fail_all(ServiceClosedError("client connection closed"))

    def __enter__(self) -> "NetClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # reader thread
    # ------------------------------------------------------------------
    def _send(self, frame: bytes) -> None:
        with self._send_lock:
            self._sock.sendall(frame)

    def _read_loop(self) -> None:
        try:
            while True:
                frame = recv_frame(self._sock)
                if frame is None:
                    break
                self._handle(*frame)
        except (OSError, ServeError):
            pass
        self._fail_all(ServiceClosedError("server closed the connection"))

    def _fail_all(self, error: Exception) -> None:
        with self._state_lock:
            calls, self._calls = self._calls, {}
        for call in calls.values():
            if call.ticket is not None:
                if not call.ticket._future.done():
                    call.ticket.span.fail(error)
                    call.ticket._future.set_exception(error)
            elif not call.future.done():
                call.future.set_exception(error)

    def _handle(self, header: dict, blobs) -> None:
        request_id = header.get("id")
        if request_id is None:
            # Connection-level protocol error: the server is hanging up.
            raise ServeError(header.get("error", {}).get("message", "protocol error"))
        with self._state_lock:
            call = self._calls.get(request_id)
        if call is None:  # pragma: no cover - defensive (duplicate response)
            return
        kind = header.get("type")
        if kind == "result":
            self._finish_result(request_id, call, header, blobs)
        elif kind == "error":
            self._finish_error(request_id, call, header)
        elif kind in ("pong", "metrics"):
            with self._state_lock:
                self._calls.pop(request_id, None)
            call.future.set_result(header)
        else:  # pragma: no cover - defensive
            with self._state_lock:
                self._calls.pop(request_id, None)
            call.future.set_exception(ServeError(f"unknown response type {kind!r}"))

    def _finish_result(self, request_id: int, call: _Call, header: dict, blobs) -> None:
        with self._state_lock:
            self._calls.pop(request_id, None)
        ticket = call.ticket
        n = ticket.request.size
        telemetry = header.get("telemetry", {})
        ticket.status = header.get("status")
        ticket.telemetry = telemetry
        check_wire_dtypes(header)
        result = LeanSolveResult(
            x=array_from_bytes(blobs[0], (n,)),
            reference=array_from_bytes(blobs[1], (n,)),
            solver=telemetry.get("solver", "unknown"),
            saturated=bool(telemetry.get("saturated", False)),
            analog_time_s=float(telemetry.get("analog_time_s", 0.0)),
            metadata=dict(telemetry.get("metadata", {})),
        )
        ticket.span.end(status=ticket.status or "ok")
        ticket._future.set_result(result)

    def _finish_error(self, request_id: int, call: _Call, header: dict) -> None:
        error = error_from_wire(header.get("error", {}))
        status = header.get("status")
        if (
            status == STATUS_UNKNOWN_DIGEST
            and call.kind == "solve"
            and call.matrix is not None
            and not call.resent
        ):
            # Coherency miss (worker restart/eviction): re-send the same
            # request id with the matrix payload attached, transparently.
            call.resent = True
            try:
                self._send_solve(call, with_matrix=True)
                return
            except OSError:
                error = ServiceClosedError("connection lost during re-send")
        with self._state_lock:
            self._calls.pop(request_id, None)
            if status == STATUS_UNKNOWN_DIGEST:
                self._known_digests.discard(call.ticket.request.digest)
        ticket = call.ticket
        ticket.status = status
        if isinstance(error, UnknownDigestError) and call.resent:
            error = ServeError(
                f"server repeatedly lost the matrix for digest "
                f"{ticket.request.digest[:12]}: {error}"
            )
        ticket.span.fail(error)
        ticket._future.set_exception(error)
