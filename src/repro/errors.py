"""Exception hierarchy for the BlockAMC reproduction.

All library errors derive from :class:`ReproError` so callers can catch one
base class. Subclasses mark the subsystem that raised them; each carries a
human-readable message describing which constraint was violated.

Every class also carries a ``retryable`` flag: ``True`` marks transient
conditions where re-submitting the *same* request later may succeed
(overload, deadline pressure, an open circuit breaker, a crashed
worker); ``False`` marks deterministic failures that will recur until
the request itself changes (bad arguments, a singular system, a
non-convergent configuration). :func:`is_retryable` extends the
classification to the stdlib faults the campaign runner retries
(``BrokenProcessPool`` worker crashes).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by this library.

    ``retryable`` is a class-level classification: ``True`` when the
    failure is transient and retrying the identical request can
    succeed, ``False`` when it is deterministic for that request.
    """

    retryable = False


class ValidationError(ReproError, ValueError):
    """An argument failed validation (bad shape, dtype, range, ...)."""


class DeviceError(ReproError):
    """A device model constraint was violated (conductance range, levels)."""


class ProgrammingError(DeviceError):
    """Write-and-verify programming could not reach the target conductance."""


class MappingError(ReproError):
    """A matrix could not be mapped onto a crossbar array."""


class CircuitError(ReproError):
    """The circuit netlist is malformed or cannot be solved."""


class SingularCircuitError(CircuitError):
    """The MNA system is singular (floating node, broken feedback, ...)."""


class ConvergenceError(ReproError):
    """An iterative routine failed to converge within its iteration budget."""


class PartitionError(ReproError):
    """A block partition request is invalid for the given matrix."""


class SolverError(ReproError):
    """A solver could not produce a solution (singular block, saturation)."""


class ScheduleError(ReproError):
    """The macro scheduler was asked to do something the hardware cannot."""


class CostModelError(ReproError):
    """The area/power model received an unknown component or architecture."""


class ServeError(ReproError):
    """The solver service could not accept or execute a request."""


class OverloadedError(ServeError):
    """The service shed a request it could not absorb (transient — retry later).

    ``retry_after_s`` is a hint: the submitter's estimated wait (from
    backlog and recent per-request service time) when latency-aware
    shedding refused the request, or ``None`` when no estimate applies.
    """

    retryable = True

    def __init__(self, message: str, *, retry_after_s: float | None = None):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class ServiceOverloadedError(OverloadedError):
    """A bounded request queue was full under the ``reject`` backpressure policy."""


class DeadlineExceededError(ServeError):
    """A request's deadline expired before it could execute."""

    retryable = True


class CircuitOpenError(ServeError):
    """The circuit breaker for this prepared solver is open (failing fast).

    ``retry_after_s`` hints how long until the breaker admits a
    half-open probe.
    """

    retryable = True

    def __init__(self, message: str, *, retry_after_s: float | None = None):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class ShardFailedError(ServeError):
    """A shard worker crashed while this request was queued or executing."""

    retryable = True


class ServiceClosedError(ServeError):
    """The service has shut down and no longer accepts requests."""


class QuotaExceededError(OverloadedError):
    """A tenant's token-bucket quota is exhausted (retry after the hint)."""


class UnknownDigestError(ServeError):
    """A digest-only network request named a matrix the server has not seen.

    Retryable by re-submitting **with the matrix payload attached** —
    the network client does this transparently. A server worker restart
    empties its matrix table, so digest-only traffic can hit this at any
    time; it is a cache-coherency signal, not a failure of the request.
    """

    retryable = True


class WireProtocolError(ServeError):
    """A network frame violated the ``repro.serve.net`` wire protocol."""


class CampaignError(ReproError):
    """A campaign spec, artifact store, or runner invariant was violated."""


def _wire_codes() -> dict[str, type]:
    """Class-name → class table of every :class:`ReproError` subclass.

    Computed on demand (not at import) so late-defined subclasses —
    including ones defined outside this module — decode as themselves
    rather than as :class:`ReproError`.
    """
    codes: dict[str, type] = {"ReproError": ReproError}
    pending = [ReproError]
    while pending:
        for cls in pending.pop().__subclasses__():
            if cls.__name__ not in codes:
                codes[cls.__name__] = cls
                pending.append(cls)
    return codes


def error_to_wire(exc: BaseException) -> dict:
    """Encode an exception as the wire-protocol error payload.

    The payload is plain JSON data: the class name as ``code`` (any
    non-library exception encodes as ``ServeError`` — the wire never
    leaks arbitrary exception types), the message, the ``retryable``
    classification, and the retry-after hint in milliseconds when the
    error carries one (load shedding, quotas, open breakers).
    """
    code = type(exc).__name__ if isinstance(exc, ReproError) else "ServeError"
    retry_after_s = getattr(exc, "retry_after_s", None)
    return {
        "code": code,
        "message": str(exc),
        "retryable": is_retryable(exc),
        "retry_after_ms": None if retry_after_s is None else retry_after_s * 1e3,
    }


def error_from_wire(payload: dict) -> ReproError:
    """Reconstruct the typed exception from a wire error payload.

    An unknown ``code`` decodes as :class:`ServeError` (a newer server
    may grow error classes an older client lacks); the retry-after hint
    survives the round-trip for classes that accept one.
    """
    cls = _wire_codes().get(payload.get("code", ""), ServeError)
    if not isinstance(cls, type) or not issubclass(cls, ReproError):
        cls = ServeError
    message = payload.get("message", "")
    retry_after_ms = payload.get("retry_after_ms")
    try:
        if retry_after_ms is not None:
            return cls(message, retry_after_s=retry_after_ms * 1e-3)
        return cls(message)
    except TypeError:
        # The class takes no retry_after_s keyword (or no plain-message
        # constructor); degrade to the closest constructible form.
        return ServeError(message)


def is_retryable(exc: BaseException) -> bool:
    """Whether re-submitting the request that raised ``exc`` may succeed.

    Covers the library hierarchy via :attr:`ReproError.retryable` plus
    the stdlib faults the campaign runner treats as transient: a
    ``BrokenProcessPool`` / ``BrokenExecutor`` (worker crash — the unit
    itself may be fine) and ``TimeoutError``.
    """
    from concurrent.futures import BrokenExecutor

    if isinstance(exc, ReproError):
        return exc.retryable
    return isinstance(exc, (BrokenExecutor, TimeoutError))
