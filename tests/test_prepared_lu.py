"""One LU per prepared matrix: the reference and ideal-output contract.

- every prepared solver reports the *same* digital reference for the
  same ``(A, b)`` — bit-identical to
  ``solve_columns(A, b, what="system matrix")`` through ``solve``,
  ``solve_many`` (full and lean) and the service's digital fallback;
- a warmed one- or two-stage serve entry factors nothing per batch: no
  ``getrf`` (every dense factorization goes through
  :func:`repro.core.common.lapack_solvers`) and no ``numpy.linalg``
  call, full telemetry or lean;
- the ideal-output LUs live on the programmed arrays and are shared by
  the scalar ops and the multi-RHS engine;
- a shared LU gives every thread the sequential bits.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.amc.config import HardwareConfig
from repro.core import common
from repro.core.common import solve_columns
from repro.serve import (
    SOLVER_KINDS,
    PreparedKey,
    SolveRequest,
    execute_batch,
    matrix_digest,
    prepare_entry,
)
from repro.serve.resilience import digital_fallback
from repro.workloads.matrices import random_vector, wishart_matrix

CONFIG = HardwareConfig.paper_variation()


def _system(n: int):
    matrix = wishart_matrix(n, rng=n)
    bs = np.stack([random_vector(n, rng=1000 * n + i) for i in range(3)])
    return matrix, bs


def _expected(matrix, bs):
    return [solve_columns(matrix, b, what="system matrix") for b in bs]


@pytest.mark.parametrize("n", [16, 64, 128])
class TestOneReferencePerMatrix:
    @pytest.mark.parametrize("solver", sorted(SOLVER_KINDS))
    def test_solve(self, n, solver):
        matrix, bs = _system(n)
        prepared = SOLVER_KINDS[solver](CONFIG).prepare(matrix, rng=0)
        for b, expected in zip(bs, _expected(matrix, bs)):
            assert np.array_equal(prepared.solve(b, rng=1).reference, expected)

    @pytest.mark.parametrize("solver", ["blockamc-1stage", "blockamc-2stage"])
    @pytest.mark.parametrize("lean", [False, True])
    def test_solve_many(self, n, solver, lean):
        matrix, bs = _system(n)
        prepared = SOLVER_KINDS[solver](CONFIG).prepare(matrix, rng=0)
        results = prepared.solve_many(list(bs), rng=1, lean=lean)
        for result, expected in zip(results, _expected(matrix, bs)):
            assert np.array_equal(result.reference, expected)

    def test_digital_fallback(self, n):
        matrix, bs = _system(n)
        for b, expected in zip(bs, _expected(matrix, bs)):
            result = digital_fallback(SolveRequest(matrix=matrix, b=b))
            assert np.array_equal(result.reference, expected)


# ----------------------------------------------------------------------
# no factorization per batch on a warmed entry
# ----------------------------------------------------------------------


class _Counts:
    """Counts factorizations and ``numpy.linalg`` calls while installed."""

    def __init__(self, monkeypatch):
        self.factorizations = 0
        self.getrf = 0
        self.linalg: list[str] = []
        real_solvers = common.lapack_solvers

        def counting_solvers(dtype):
            self.factorizations += 1
            getrf, getrs = real_solvers(dtype)

            def counting_getrf(*args, **kwargs):
                self.getrf += 1
                return getrf(*args, **kwargs)

            return counting_getrf, getrs

        monkeypatch.setattr(common, "lapack_solvers", counting_solvers)
        for name in dir(np.linalg):
            func = getattr(np.linalg, name)
            if name.startswith("_") or not callable(func) or isinstance(func, type):
                continue
            monkeypatch.setattr(np.linalg, name, self._counting(name, func))

    def _counting(self, name, func):
        def counted(*args, **kwargs):
            self.linalg.append(name)
            return func(*args, **kwargs)

        return counted


@pytest.mark.parametrize("solver", ["blockamc-1stage", "blockamc-2stage"])
@pytest.mark.parametrize("lean", [False, True])
def test_warmed_entry_factors_nothing_per_batch(monkeypatch, solver, lean):
    n = 32
    matrix = wishart_matrix(n, rng=5)
    key = PreparedKey(matrix_digest(matrix), CONFIG.cache_key(), solver, 0)
    entry = prepare_entry(key, matrix, CONFIG)
    assert entry.coalescible
    bs = [random_vector(n, rng=i) for i in range(4)]
    seeds = list(range(len(bs)))
    warm = execute_batch(entry, bs, seeds, lean=lean)

    counts = _Counts(monkeypatch)
    again = execute_batch(entry, bs, seeds, lean=lean)
    assert (counts.factorizations, counts.getrf, counts.linalg) == (0, 0, [])
    for first, second in zip(warm, again):
        assert np.array_equal(first.x, second.x)
        assert np.array_equal(first.reference, second.reference)


def test_counter_sees_a_cold_batch(monkeypatch):
    """Guard against a counter that cannot fire: the first batch of a
    fresh entry builds the engine's two finite-gain LUs."""
    matrix = wishart_matrix(16, rng=5)
    key = PreparedKey(matrix_digest(matrix), CONFIG.cache_key(), "blockamc-1stage", 0)
    entry = prepare_entry(key, matrix, CONFIG)
    counts = _Counts(monkeypatch)
    execute_batch(entry, [random_vector(16, rng=0)], [0])
    assert counts.getrf == counts.factorizations == 2


def test_ideal_lus_are_shared_by_scalar_and_batched_paths():
    matrix, bs = _system(16)
    prepared = SOLVER_KINDS["blockamc-1stage"](CONFIG).prepare(matrix, rng=0)
    scalar = prepared.solve(bs[0], rng=1)
    arrays = prepared.macro.arrays
    a1, a4s, schur = (
        arrays.a1.ideal_system(), arrays.a4s.ideal_system(), prepared.macro.schur_system
    )
    batched = prepared.solve_many(list(bs), rng=1)
    assert arrays.a1.ideal_system() is a1
    assert arrays.a4s.ideal_system() is a4s
    assert prepared.macro.schur_system is schur
    for step, batch_step in zip(scalar.operations, batched[0].operations):
        assert np.array_equal(step.ideal_output, batch_step.ideal_output)
    for name, rows in scalar.metadata["reference_steps"].items():
        assert np.array_equal(rows, batched[0].metadata["reference_steps"][name])



def test_concurrent_first_use_of_the_lazy_lus():
    """Threads racing on a fresh prepared solver may each factor (the
    caches fill without a lock), then share one ``FactoredSystem``;
    its solve lock keeps SciPy's in-place pivot shift from corrupting
    overlapping ``getrs`` calls. All get the sequential bits."""
    matrix, bs = _system(64)
    prepared = SOLVER_KINDS["blockamc-1stage"](CONFIG).prepare(matrix, rng=0)
    macro = prepared.macro
    a1 = macro.arrays.a1
    k = a1.shape[0]
    schur = macro.arrays.a4s.ideal_matrix() / macro.arrays.schur_input_scale
    expected = (
        solve_columns(matrix, bs, what="system matrix"),
        solve_columns(a1.ideal_matrix(), bs[:, :k]),
        solve_columns(schur, bs[:, k:]),
    )

    def first_use():
        return (
            prepared.reference_solve(bs),
            a1.ideal_system().solve(bs[:, :k]),
            macro.schur_system.solve(bs[:, k:]),
        )

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(first_use) for _ in range(32)]
            outcomes = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(switch)
    for outcome in outcomes:
        for got, want in zip(outcome, expected):
            assert np.array_equal(got, want)
