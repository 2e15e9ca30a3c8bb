"""The OpenBLAS thread pin and the trial-split settling margins.

- :func:`repro.utils.blas.single_blas_thread` restores the thread count
  on normal exit, on exceptions, and when threads enter concurrently;
- :func:`repro.utils.blas.map_chunks` returns per-chunk results in
  order and surfaces a failing chunk's exception;
- :func:`repro.circuits.dynamics.inv_eigenvalue_margins` gives every
  slice the bits of its one-slice call, under any chunking;
- the scalar and trial-batched engines agree bit for bit on settling
  times at n=256 when OpenBLAS would otherwise run two threads;
- a process that has used the trial split forks campaign workers that
  still run it (no inherited, threadless pool).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.campaigns import (
    ArtifactStore,
    CampaignSpec,
    run_campaign,
    store_diff,
    stores_equal,
)
from repro.circuits import dynamics
from repro.circuits.dynamics import inv_eigenvalue_margin, inv_eigenvalue_margins
from repro.errors import ValidationError
from repro.utils import blas

needs_openblas = pytest.mark.skipif(
    blas.blas_threads() is None, reason="NumPy's bundled OpenBLAS not loaded"
)

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def two_threads():
    """Run the test with OpenBLAS at two threads, then put it back."""
    before = blas.blas_threads()
    blas._LIBRARY.set(2)
    yield
    blas._LIBRARY.set(before)


def _stack(trials: int, n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((trials, n, n)) + n * np.eye(n)


# ----------------------------------------------------------------------
# the pin
# ----------------------------------------------------------------------


@needs_openblas
class TestPin:
    def test_pins_and_restores(self, two_threads):
        with blas.single_blas_thread() as pinned:
            assert pinned
            assert blas.blas_threads() == 1
        assert blas.blas_threads() == 2

    def test_nested_entries_restore_once(self, two_threads):
        with blas.single_blas_thread():
            with blas.single_blas_thread():
                assert blas.blas_threads() == 1
            assert blas.blas_threads() == 1
        assert blas.blas_threads() == 2

    def test_restores_after_linalg_error(self, two_threads):
        singular = np.full((2, 3, 3), np.nan)
        with pytest.raises(np.linalg.LinAlgError):
            inv_eigenvalue_margins(singular)
        assert blas.blas_threads() == 2
        assert blas._depth == 0

    def test_concurrent_entries_restore(self, two_threads):
        """Two threads inside at once: the first exit keeps the pin, the
        last one restores."""
        inside = threading.Barrier(2)
        first_left = threading.Event()
        seen = {}

        def early():
            with blas.single_blas_thread():
                inside.wait(5.0)
            first_left.set()

        def late():
            with blas.single_blas_thread():
                inside.wait(5.0)
                first_left.wait(5.0)
                seen["after_first_exit"] = blas.blas_threads()

        threads = [threading.Thread(target=early), threading.Thread(target=late)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        assert seen == {"after_first_exit": 1}
        assert blas.blas_threads() == 2
        assert blas._depth == 0

    def test_one_thread_process_is_left_alone(self):
        before = blas.blas_threads()
        blas._LIBRARY.set(1)
        try:
            with blas.single_blas_thread():
                assert blas.blas_threads() == 1
            assert blas.blas_threads() == 1
        finally:
            blas._LIBRARY.set(before)

    def test_forked_child_starts_unpinned(self, two_threads):
        inv_eigenvalue_margins(_stack(4, 8))  # build the chunk pool
        with blas.single_blas_thread():
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:  # child: fresh lock, count restored, no pool
                os.close(read)
                state = (blas._depth, blas.blas_threads(), blas._pool is None)
                os.write(write, json.dumps(state).encode())
                os._exit(0)
            os.close(write)
            with os.fdopen(read) as handle:
                depth, threads, no_pool = json.loads(handle.read())
            os.waitpid(pid, 0)
        assert (depth, threads, no_pool) == (0, 2, True)
        assert blas.blas_threads() == 2


class TestWithoutLibrary:
    def test_pin_is_a_noop(self, monkeypatch):
        monkeypatch.setattr(blas, "_LIBRARY", None)
        assert blas.blas_threads() is None
        with blas.single_blas_thread() as pinned:
            assert pinned is False

    def test_margins_take_one_stacked_call(self, monkeypatch):
        stack = _stack(3, 6)
        expected = inv_eigenvalue_margins(stack)
        monkeypatch.setattr(blas, "_LIBRARY", None)
        monkeypatch.setattr(dynamics, "map_chunks", None)  # must not be used
        assert np.array_equal(inv_eigenvalue_margins(stack), expected)

    def test_missing_maps_file(self, tmp_path):
        assert blas._find_library(str(tmp_path / "absent")) is None

    def test_maps_without_openblas(self, tmp_path):
        maps = tmp_path / "maps"
        maps.write_text("7f00-7f01 r-xp 00000000 08:01 42 /usr/lib/libc.so.6\n")
        assert blas._find_library(str(maps)) is None

    def test_load_survives_a_missing_library(self, monkeypatch):
        monkeypatch.setattr(blas, "_find_library", lambda: None)
        assert blas._load() is None
        monkeypatch.setattr(blas, "_find_library", lambda: "/nonexistent/libx.so")
        assert blas._load() is None


# ----------------------------------------------------------------------
# the trial split
# ----------------------------------------------------------------------


class TestMapChunks:
    def test_chunks_cover_the_stack_in_order(self, monkeypatch):
        monkeypatch.setattr(blas, "usable_cpus", lambda: 3)
        stack = np.arange(7)
        parts = blas.map_chunks(lambda chunk: chunk.copy(), stack)
        assert len(parts) == 3
        assert np.array_equal(np.concatenate(parts), stack)

    def test_single_cpu_runs_inline(self, monkeypatch):
        monkeypatch.setattr(blas, "usable_cpus", lambda: 1)
        caller = threading.get_ident()
        assert blas.map_chunks(lambda chunk: threading.get_ident(), np.arange(4)) == [
            caller
        ]

    def test_failing_chunk_raises_after_all_finish(self, monkeypatch):
        monkeypatch.setattr(blas, "usable_cpus", lambda: 2)
        done = []

        def fn(chunk):
            done.append(int(chunk[0]))
            if chunk[0] > 0:
                raise ValueError("late chunk")
            return chunk

        with pytest.raises(ValueError, match="late chunk"):
            blas.map_chunks(fn, np.arange(4))
        assert sorted(done) == [0, 2]


class TestMargins:
    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    def test_slices_bit_identical_under_any_chunking(self, monkeypatch, cpus):
        stack = _stack(5, 40, seed=cpus)
        expected = [inv_eigenvalue_margin(matrix) for matrix in stack]
        monkeypatch.setattr(blas, "usable_cpus", lambda: cpus)
        margins = inv_eigenvalue_margins(stack)
        assert margins.tolist() == expected

    def test_rejects_non_square_stacks(self):
        with pytest.raises(ValidationError):
            inv_eigenvalue_margins(np.zeros((2, 3, 4)))
        with pytest.raises(ValidationError):
            inv_eigenvalue_margins(np.zeros((3, 3)))


# ----------------------------------------------------------------------
# scalar vs trial-batched at two BLAS threads
# ----------------------------------------------------------------------

_THREAD_COUNT_SCRIPT = """
import json
from repro.amc.config import HardwareConfig
from repro.analysis.accuracy import run_trials, run_trials_batched
from repro.core.original import OriginalAMCSolver
from repro.utils.blas import blas_threads
from repro.workloads.matrices import wishart_matrix

config = HardwareConfig.paper_variation()
family = lambda n, rng: wishart_matrix(n, rng)
threads = blas_threads()
seq = run_trials({"o": lambda: OriginalAMCSolver(config)}, family, (256,), 3, seed=5)
bat = run_trials_batched({"o": OriginalAMCSolver(config)}, family, (256,), 3, seed=5)
print(json.dumps({
    "threads": threads,
    "seq": [r.analog_time_s.hex() for r in seq],
    "bat": [r.analog_time_s.hex() for r in bat],
}))
"""


def test_settling_times_independent_of_blas_threads():
    """At two OpenBLAS threads, n=256 ``eigvals`` bits differ from one
    thread; scalar and batched settling times still agree bitwise,
    because both take their margins under the same pin."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", _THREAD_COUNT_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if result["threads"] is not None and result["threads"] < 2:
        pytest.skip("OpenBLAS runs one thread on this host")
    assert result["seq"] == result["bat"]


# ----------------------------------------------------------------------
# fork safety: trial split in the parent, then forked campaign workers
# ----------------------------------------------------------------------

SPLIT_SPEC = CampaignSpec(
    name="split-fork",
    title="trial split under forked workers",
    solvers=("original-amc", "blockamc-1stage"),
    families=("wishart",),
    sizes=(8, 16),
    trials=4,
    seed=31,
    hardware="variation",
)


def test_forked_campaign_after_trial_split_matches_inline(tmp_path):
    """The parent builds the chunk pool; forked workers must rebuild
    theirs (a naive module pool has no threads after a fork and hangs)."""
    inv_eigenvalue_margins(_stack(4, 16))
    if blas.usable_cpus() > 1 and blas.blas_threads() is not None:
        assert blas._pool is not None
    run_campaign(SPLIT_SPEC, tmp_path / "inline", workers=0)
    finished = threading.Event()

    def forked():
        run_campaign(SPLIT_SPEC, tmp_path / "forked", workers=2, start_method="fork")
        finished.set()

    runner = threading.Thread(target=forked, daemon=True)
    runner.start()
    runner.join(240.0)
    if not finished.is_set():
        for child in multiprocessing.active_children():
            child.kill()  # unblock the pool so pytest can exit
        pytest.fail("forked campaign workers hung")
    a, b = ArtifactStore(tmp_path / "inline"), ArtifactStore(tmp_path / "forked")
    assert stores_equal(a, b), store_diff(a, b)
