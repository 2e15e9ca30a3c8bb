"""Shared-memory result transport between service workers and the front-end.

A process worker answers a coalesced batch with two ``(batch, n)``
blocks — solution rows and digital-reference rows, laid out
back-to-back in one segment. At production sizes that block is
megabytes per batch; round-tripping it through a
``multiprocessing.Queue`` would pickle-copy it twice (worker → pipe →
parent). Instead the worker publishes the block **once** into a
:class:`multiprocessing.shared_memory.SharedMemory` segment and ships a
tiny :class:`BlockRef` descriptor (name + shape) over the queue; the
front-end maps the same physical pages and copies each row straight
into its response frame.

Bit-identity is preserved by construction: the segment holds the
worker's raw float64 bytes — no serialization, rounding, or re-encoding
touches them between ``execute_batch`` and the wire (see DESIGN.md).

Lifecycle: the **consumer owns the segment**. :func:`publish_block`
unregisters the segment from the worker's resource tracker and closes
the worker-side mapping, so the front-end's :class:`AttachedBlock`
releases the pages (``close`` + ``unlink``) once every row of the batch
is consumed — or immediately, via :meth:`AttachedBlock.release`, when
the owning worker dies mid-batch. A worker SIGKILLed between publish
and descriptor delivery leaks its segment until interpreter exit, where
the (fork-shared) resource tracker reaps it.

Hosts without POSIX shared memory fall back to carrying the block bytes
inline in the :class:`BlockRef` (one pickle copy — correct, just
slower); ``ref.inline`` tells which path was taken.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.errors import ServeError

__all__ = ["AttachedBlock", "BlockRef", "publish_block"]


@dataclass(frozen=True)
class BlockRef:
    """Descriptor of one published result block (queue-sized, picklable)."""

    #: Shared-memory segment name, or ``None`` for the inline fallback.
    name: str | None
    #: Rows in the block (requests of the batch).
    batch: int
    #: System size: each region holds ``batch`` rows of ``n`` values.
    n: int
    #: Inline payload when shared memory was unavailable.
    payload: bytes | None = None

    @property
    def inline(self) -> bool:
        """True when the block bytes travelled in the descriptor itself."""
        return self.name is None


def publish_block(xs: np.ndarray, references: np.ndarray) -> BlockRef:
    """Publish one batch's solution/reference rows; returns the descriptor.

    ``xs`` and ``references`` are ``(batch, n)`` arrays (a lone ``(n,)``
    pair is treated as a batch of one), stored as float64. Called in the
    worker process; the returned :class:`BlockRef` is what crosses the
    queue.
    """
    xs = np.ascontiguousarray(np.atleast_2d(xs), dtype=np.float64)
    references = np.ascontiguousarray(np.atleast_2d(references), dtype=np.float64)
    if xs.shape != references.shape:
        raise ServeError(
            f"solution block {xs.shape} and reference block "
            f"{references.shape} disagree"
        )
    ref = BlockRef(name=None, batch=xs.shape[0], n=xs.shape[1])
    # Layout: the solution region's raw bytes, then the reference
    # region's, back to back.
    nbytes = xs.nbytes + references.nbytes
    try:
        shm = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
    except OSError:
        return replace(ref, payload=xs.tobytes() + references.tobytes())
    try:
        shm.buf[: xs.nbytes] = xs.tobytes()
        shm.buf[xs.nbytes : nbytes] = references.tobytes()
    except BaseException:
        shm.close()
        shm.unlink()
        raise
    # Hand ownership to the consumer: without this, the worker-side
    # tracker registration would flag (or reap) the segment when this
    # process exits, racing the front-end's read.
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass
    name = shm.name
    shm.close()
    return replace(ref, name=name)


class AttachedBlock:
    """Front-end view of one published block; releases after the last row.

    ``row(i)`` returns independent ``(x, reference)`` copies, so the
    response encoder never holds a view into pages about to be
    unlinked. Thread-confined to the owning shard's pump thread — no
    internal locking.
    """

    def __init__(self, ref: BlockRef):
        self.ref = ref
        self._remaining = ref.batch
        count = ref.batch * ref.n
        x_nbytes = count * np.dtype(np.float64).itemsize
        needed = 2 * x_nbytes
        if ref.inline:
            self._shm = None
            buf = ref.payload
            if len(buf) != needed:
                raise ServeError(
                    f"result block holds {len(buf)} bytes, expected {needed} "
                    f"for batch={ref.batch} n={ref.n}"
                )
        else:
            self._shm = shared_memory.SharedMemory(name=ref.name)
            buf = self._shm.buf
            # Segment sizes are page-rounded upward, so undersized is the
            # detectable corruption.
            held = len(buf)
            if held < needed:
                self._shm.close()
                self._shm = None
                raise ServeError(
                    f"shared segment {ref.name!r} holds {held} bytes, "
                    f"needs {needed} for batch={ref.batch} n={ref.n}"
                )
        self._xs = np.frombuffer(buf, dtype=np.float64, count=count).reshape(
            ref.batch, ref.n
        )
        self._refs = np.frombuffer(
            buf, dtype=np.float64, count=count, offset=x_nbytes
        ).reshape(ref.batch, ref.n)

    @property
    def released(self) -> bool:
        """True once the segment has been unmapped and unlinked."""
        return self._xs is None

    def row(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """Copy out row ``index`` and consume one count."""
        if self._xs is None:
            raise ServeError("result block already released")
        if not 0 <= index < self.ref.batch:
            raise ServeError(
                f"row {index} out of range for batch of {self.ref.batch}"
            )
        x = np.array(self._xs[index])
        reference = np.array(self._refs[index])
        self._remaining -= 1
        if self._remaining <= 0:
            self.release()
        return x, reference

    def release(self) -> None:
        """Unmap and unlink the segment (idempotent; also the crash path)."""
        if self._xs is None:
            return
        self._xs = None
        self._refs = None
        if self._shm is not None:
            self._shm.close()
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double-release race
                pass
            self._shm = None
