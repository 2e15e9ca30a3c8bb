"""Hold NumPy's bundled OpenBLAS at one thread around a block of calls.

LAPACK results are not independent of the BLAS thread count: on the
reference build a stacked ``eigvals`` at n >= 256 and a ``solve`` at
n >= 128 change bits between one and two OpenBLAS threads, because the
blocked kernels split their reductions differently. Code that must give
the same bits on every host — the settling-margin analysis of
:mod:`repro.circuits.dynamics` — runs its LAPACK calls inside
:func:`single_blas_thread`.

The shim talks to the library through ``ctypes``: it finds the loaded
``libscipy_openblas64_`` (the OpenBLAS wheel NumPy ships) in
``/proc/self/maps`` and calls its ``scipy_openblas_{get,set}_num_threads64_``
entry points — the same move as ``threadpoolctl.threadpool_limits``,
which is not a dependency of this package. When the library cannot be
found (another BLAS, another OS) the pin is a no-op and
:func:`single_blas_thread` yields ``False``.

The thread count is process-global in OpenBLAS, so the pin is too: it
is lock-guarded and depth-counted, the first entry saves the count and
the last exit restores it (also on exceptions and when several threads
enter at once). A forked child starts with a fresh lock and depth zero.

At one BLAS thread a stacked LAPACK call leaves the other CPUs idle;
:func:`map_chunks` gets them back by splitting the stack into one
contiguous chunk per usable CPU, the caller running the first and a
lazily built thread pool the rest (LAPACK releases the GIL). The pool
too is rebuilt in a forked child — the parent's threads do not exist
there, and a pool without threads never runs its queue.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np  # noqa: F401  (loads the OpenBLAS this shim drives)

__all__ = ["blas_threads", "map_chunks", "single_blas_thread", "usable_cpus"]

#: File-name prefix of the OpenBLAS wheel bundled with NumPy.
_LIBRARY_PREFIX = "libscipy_openblas64_"


def _find_library(maps_path: str = "/proc/self/maps") -> str | None:
    """Path of the loaded NumPy OpenBLAS, or ``None`` when absent."""
    try:
        with open(maps_path, encoding="utf-8") as handle:
            for line in handle:
                path = line.rstrip("\n").split(maxsplit=5)[-1]
                if os.path.basename(path).startswith(_LIBRARY_PREFIX):
                    return path
    except OSError:
        return None
    return None


class _OpenBLAS:
    """The two thread-count entry points of one loaded OpenBLAS."""

    def __init__(self, path: str):
        library = ctypes.CDLL(path)
        self.get = library.scipy_openblas_get_num_threads64_
        self.get.argtypes = []
        self.get.restype = ctypes.c_int
        self.set = library.scipy_openblas_set_num_threads64_
        self.set.argtypes = [ctypes.c_int]
        self.set.restype = None


def _load() -> _OpenBLAS | None:
    path = _find_library()
    if path is None:
        return None
    try:
        return _OpenBLAS(path)
    except (OSError, AttributeError):
        return None


_LIBRARY = _load()
_lock = threading.Lock()
_depth = 0
_saved = 1


def blas_threads() -> int | None:
    """Current OpenBLAS thread count, or ``None`` without the library."""
    return None if _LIBRARY is None else int(_LIBRARY.get())


@contextmanager
def single_blas_thread():
    """Run the block with NumPy's OpenBLAS at one thread.

    Yields ``True`` when the pin is in force and ``False`` when the
    library is unavailable (the block then runs at whatever count the
    process has).
    """
    global _depth, _saved
    if _LIBRARY is None:
        yield False
        return
    with _lock:
        if _depth == 0:
            _saved = int(_LIBRARY.get())
            if _saved != 1:
                _LIBRARY.set(1)
        _depth += 1
    try:
        yield True
    finally:
        with _lock:
            # A forked child resets the depth; a block it inherited
            # mid-flight must not drive the count negative.
            if _depth > 0:
                _depth -= 1
                if _depth == 0 and _saved != 1:
                    _LIBRARY.set(_saved)


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, not the host's)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API (macOS)
        return os.cpu_count() or 1


_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _helpers() -> ThreadPoolExecutor:
    """The chunk pool: one thread per usable CPU beyond the caller's."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=max(1, usable_cpus() - 1),
                thread_name_prefix="repro-blas-chunk",
            )
        return _pool


def map_chunks(fn, stack) -> list:
    """``[fn(chunk) for chunk in stack split along axis 0]``, in parallel.

    The stack is cut into ``min(len(stack), usable_cpus())`` contiguous
    chunks; the calling thread runs chunk 0 while the pool runs the
    rest, and every chunk has finished before this returns or raises
    (the first chunk's exception wins). Pair it with
    :func:`single_blas_thread` so the chunks do not also compete for
    BLAS threads.
    """
    count = min(len(stack), usable_cpus())
    if count <= 1:
        return [fn(stack)]
    bounds = [len(stack) * i // count for i in range(count + 1)]
    chunks = [stack[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    pool = _helpers()
    futures = [pool.submit(fn, chunk) for chunk in chunks[1:]]
    try:
        first = fn(chunks[0])
    finally:
        rest = [future.exception() for future in futures]
    for error in rest:
        if error is not None:
            raise error
    return [first] + [future.result() for future in futures]


def _reset_after_fork() -> None:
    """Fresh locks and no pool in the child; undo a pin held at fork."""
    global _lock, _depth, _pool, _pool_lock
    _lock = threading.Lock()
    if _depth > 0 and _saved != 1:
        _LIBRARY.set(_saved)
    _depth = 0
    _pool_lock = threading.Lock()
    _pool = None


if hasattr(os, "register_at_fork"):  # POSIX only
    os.register_at_fork(after_in_child=_reset_after_fork)
