"""Flexible GMRES with an analog (AMC) preconditioner.

The paper frames AMC as "equivalently a preconditioner" for digital
iterative methods. A noisy, run-to-run-varying preconditioner breaks
standard preconditioned Krylov methods (they assume a *fixed* linear
operator), but **flexible GMRES** (Saad 1993 — the paper's own ref. [1]
author) tolerates a preconditioner that changes every application,
which is exactly what analog hardware with per-solve noise is.

``fgmres`` applies the user-supplied ``preconditioner(r) -> z`` (e.g. a
prepared BlockAMC solver) inside the Arnoldi loop, storing the
preconditioned vectors so the final update is exact regardless of the
preconditioner's variability.
"""

from __future__ import annotations

import numpy as np

from repro.core.digital import (
    BREAKDOWN_TOL,
    DEFAULT_TOL,
    IterativeResult,
    setup_many,
)
from repro.errors import SolverError
from repro.utils.validation import check_square_matrix, check_vector


def fgmres(
    matrix: np.ndarray,
    b: np.ndarray,
    preconditioner,
    x0: np.ndarray | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int | None = None,
    restart: int = 30,
) -> IterativeResult:
    """Flexible GMRES: right preconditioning with a varying operator.

    Parameters
    ----------
    matrix, b:
        The system ``A x = b``.
    preconditioner:
        Callable ``z = M(r)`` approximating ``A^-1 r``; may be noisy and
        different on every call (an analog solver qualifies).
    x0:
        Optional warm start.
    tol:
        Relative-residual target.
    max_iter:
        Total matrix-vector product budget (default ``10 n``).
    restart:
        Krylov subspace dimension between restarts.

    Returns
    -------
    IterativeResult
        With ``method="fgmres"``; ``iterations`` counts products with
        ``A`` (each also costs one preconditioner application).
    """
    matrix = check_square_matrix(matrix)
    b = check_vector(b, "b", size=matrix.shape[0])
    n = b.size
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        raise SolverError("b must be non-zero")
    if restart < 1:
        raise SolverError(f"restart must be >= 1, got {restart}")
    if max_iter is None:
        max_iter = 10 * n

    x = np.zeros_like(b) if x0 is None else check_vector(x0, "x0", size=n).copy()
    residuals = [float(np.linalg.norm(b - matrix @ x)) / b_norm]
    if residuals[0] <= tol:
        return IterativeResult(x, 0, tuple(residuals), True, "fgmres")

    total = 0
    while total < max_iter:
        r = b - matrix @ x
        beta = float(np.linalg.norm(r))
        if beta / b_norm <= tol:
            return IterativeResult(x, total, tuple(residuals), True, "fgmres")
        m = min(restart, max_iter - total)
        q = np.zeros((n, m + 1))
        z = np.zeros((n, m))  # preconditioned vectors (flexible part)
        h = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = beta
        q[:, 0] = r / beta

        k_done = 0
        for k in range(m):
            z[:, k] = np.asarray(preconditioner(q[:, k]), dtype=float)
            w = matrix @ z[:, k]
            total += 1
            for i in range(k + 1):
                h[i, k] = float(q[:, i] @ w)
                w = w - h[i, k] * q[:, i]
            h[k + 1, k] = float(np.linalg.norm(w))
            # Happy breakdown: the (preconditioned) Krylov space is
            # exhausted — terminate the cycle instead of iterating on a
            # zero basis vector (which would also hand the *next*
            # preconditioner application an all-zero input; an analog
            # preconditioner rejects that outright). Same rule as
            # :func:`repro.core.digital.gmres`.
            breakdown = h[k + 1, k] <= BREAKDOWN_TOL
            if not breakdown:
                q[:, k + 1] = w / h[k + 1, k]
            for i in range(k):
                temp = cs[i] * h[i, k] + sn[i] * h[i + 1, k]
                h[i + 1, k] = -sn[i] * h[i, k] + cs[i] * h[i + 1, k]
                h[i, k] = temp
            denom = float(np.hypot(h[k, k], h[k + 1, k]))
            if denom == 0.0:
                cs[k], sn[k] = 1.0, 0.0
            else:
                cs[k], sn[k] = h[k, k] / denom, h[k + 1, k] / denom
            h[k, k] = cs[k] * h[k, k] + sn[k] * h[k + 1, k]
            h[k + 1, k] = 0.0
            g[k + 1] = -sn[k] * g[k]
            g[k] = cs[k] * g[k]
            k_done = k + 1
            residuals.append(abs(float(g[k + 1])) / b_norm)
            if residuals[-1] <= tol or breakdown:
                break

        # Least-squares guards against a breakdown column (e.g. a
        # degenerate preconditioner returning zero vectors).
        y, *_ = np.linalg.lstsq(h[:k_done, :k_done], g[:k_done], rcond=None)
        # Flexible update: combine the *preconditioned* basis vectors.
        x = x + z[:, :k_done] @ y
        true_res = float(np.linalg.norm(b - matrix @ x)) / b_norm
        residuals[-1] = true_res
        if true_res <= tol:
            return IterativeResult(x, total, tuple(residuals), True, "fgmres")

    return IterativeResult(x, total, tuple(residuals), False, "fgmres")


class _FgmresCycle:
    """One column's Krylov state for a single restart cycle.

    Arrays keep the exact scalar :func:`fgmres` layout — ``q``/``z`` are
    ``(n, m + 1)``/``(n, m)`` with *column* views feeding the dots — so
    every per-column operation reproduces the scalar call bit for bit
    (strided-vs-contiguous ``dot`` inputs differ in low bits; see
    :mod:`repro.core.digital`).
    """

    __slots__ = ("q", "z", "h", "cs", "sn", "g", "m", "k_done")

    def __init__(self, n: int, m: int):
        self.q = np.zeros((n, m + 1))
        self.z = np.zeros((n, m))
        self.h = np.zeros((m + 1, m))
        self.cs = np.zeros(m)
        self.sn = np.zeros(m)
        self.g = np.zeros(m + 1)
        self.m = m
        self.k_done = 0


def fgmres_many(
    matrix: np.ndarray,
    bs,
    preconditioner,
    x0=None,
    tol: float = DEFAULT_TOL,
    max_iter: int | None = None,
    restart: int = 30,
) -> tuple[IterativeResult, ...]:
    """Lockstep flexible GMRES over a row-stacked block of systems.

    Solves ``A x_j = bs[j]`` for every row, advancing all columns one
    Arnoldi step at a time. The point of the lockstep: each step's
    preconditioner applications — the expensive part when the
    preconditioner is an analog solver — are gathered into **one block
    call** ``Z = M(R)`` on a ``(rows, n)`` block (see
    :func:`amc_block_preconditioner`, which routes it through a prepared
    solver's multi-RHS ``solve_many``), instead of ``rows`` scalar
    applications per step.

    Per-column arithmetic is exactly :func:`fgmres`'s (scalar-layout
    Krylov bases, per-column Givens/residual bookkeeping, per-column
    restart budgets and convergence), so results are **bit-identical to
    a sequential loop of scalar** :func:`fgmres` **calls** whenever the
    block preconditioner is row-wise identical to the scalar one — the
    prepared solvers' batch-invariance contract. Preconditioners with
    per-application noise carry no such guarantee (their draw order
    depends on scheduling, exactly as in the serving layer).

    Parameters mirror :func:`fgmres`; ``bs`` is ``(batch, n)`` and
    ``x0`` may be ``None``, ``(n,)``, or ``(batch, n)``. Returns one
    :class:`~repro.core.digital.IterativeResult` per row.
    """
    matrix, bs, x_block, b_norms = setup_many(matrix, bs, x0)
    batch, n = bs.shape
    if restart < 1:
        raise SolverError(f"restart must be >= 1, got {restart}")
    if max_iter is None:
        max_iter = 10 * n

    hist = [
        [float(np.linalg.norm(bs[j] - matrix @ x_block[j])) / b_norms[j]]
        for j in range(batch)
    ]
    total = np.zeros(batch, dtype=int)
    conv = np.array([hist[j][0] <= tol for j in range(batch)])
    active = [j for j in range(batch) if not conv[j]]

    while active:
        # Open a restart cycle for every still-active column.
        states: dict[int, _FgmresCycle] = {}
        opened = []
        for j in active:
            r = bs[j] - matrix @ x_block[j]
            beta = float(np.linalg.norm(r))
            if beta / b_norms[j] <= tol:
                conv[j] = True
                continue
            cycle = _FgmresCycle(n, min(restart, max_iter - int(total[j])))
            cycle.g[0] = beta
            cycle.q[:, 0] = r / beta
            states[j] = cycle
            opened.append(j)
        active = opened

        # Advance all open cycles in lockstep; columns whose residual
        # estimate hits tol (or whose cycle fills) wait at the barrier.
        live = list(active)
        k = 0
        while live:
            block = np.stack([states[j].q[:, k] for j in live])
            z_rows = np.asarray(preconditioner(block), dtype=float)
            if z_rows.shape != (len(live), n):
                raise SolverError(
                    f"block preconditioner must return a ({len(live)}, {n}) "
                    f"block, got {z_rows.shape}"
                )
            finished = []
            for idx, j in enumerate(live):
                st = states[j]
                q, z, h = st.q, st.z, st.h
                cs, sn, g = st.cs, st.sn, st.g
                z[:, k] = z_rows[idx]
                w = matrix @ z[:, k]
                total[j] += 1
                for i in range(k + 1):
                    h[i, k] = float(q[:, i] @ w)
                    w = w - h[i, k] * q[:, i]
                h[k + 1, k] = float(np.linalg.norm(w))
                # Happy breakdown: finish this column's cycle (same rule
                # as the scalar path above) so the next lockstep tick
                # never stacks a zero Krylov row into the block handed
                # to the preconditioner.
                breakdown = h[k + 1, k] <= BREAKDOWN_TOL
                if not breakdown:
                    q[:, k + 1] = w / h[k + 1, k]
                for i in range(k):
                    temp = cs[i] * h[i, k] + sn[i] * h[i + 1, k]
                    h[i + 1, k] = -sn[i] * h[i, k] + cs[i] * h[i + 1, k]
                    h[i, k] = temp
                denom = float(np.hypot(h[k, k], h[k + 1, k]))
                if denom == 0.0:
                    cs[k], sn[k] = 1.0, 0.0
                else:
                    cs[k], sn[k] = h[k, k] / denom, h[k + 1, k] / denom
                h[k, k] = cs[k] * h[k, k] + sn[k] * h[k + 1, k]
                h[k + 1, k] = 0.0
                g[k + 1] = -sn[k] * g[k]
                g[k] = cs[k] * g[k]
                st.k_done = k + 1
                hist[j].append(abs(float(g[k + 1])) / b_norms[j])
                if hist[j][-1] <= tol or st.k_done == st.m or breakdown:
                    finished.append(j)
            for j in finished:
                live.remove(j)
            k += 1

        # Close the cycle per column: flexible update from the stored
        # preconditioned basis, then the true-residual check.
        next_active = []
        for j in active:
            st = states[j]
            kd = st.k_done
            y, *_ = np.linalg.lstsq(st.h[:kd, :kd], st.g[:kd], rcond=None)
            x_block[j] = x_block[j] + st.z[:, :kd] @ y
            true_res = float(np.linalg.norm(bs[j] - matrix @ x_block[j])) / b_norms[j]
            hist[j][-1] = true_res
            if true_res <= tol:
                conv[j] = True
            elif total[j] < max_iter:
                next_active.append(j)
        active = next_active

    return tuple(
        IterativeResult(
            x_block[j].copy(), int(total[j]), tuple(hist[j]), bool(conv[j]), "fgmres"
        )
        for j in range(batch)
    )


def amc_block_preconditioner(prepared, rng=None):
    """Wrap a prepared analog solver's multi-RHS path for :func:`fgmres_many`.

    Parameters
    ----------
    prepared:
        Object with ``solve_many(rhs_batch, rng, lean=True)`` bound to
        the system matrix (``BlockAMCSolver.prepare(...)`` or
        ``MultiStageSolver.prepare(...)`` output).
    rng:
        Generator driving per-application hardware noise (only consumed
        by configurations that draw fresh noise per operation).

    Returns
    -------
    callable
        ``Z = M(R)`` mapping a row-stacked ``(rows, n)`` block to the
        analog solutions, row-wise bit-identical to
        :func:`amc_preconditioner` applications for batch-invariant
        (coalescible) configurations.
    """
    generator = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng

    def apply(rows: np.ndarray) -> np.ndarray:
        results = prepared.solve_many(np.asarray(rows, dtype=float), generator, lean=True)
        return np.stack([result.x for result in results])

    return apply


def amc_preconditioner(prepared, rng=None):
    """Wrap a prepared analog solver as an FGMRES preconditioner.

    Parameters
    ----------
    prepared:
        Object with ``solve(rhs, rng) -> SolveResult`` bound to the
        system matrix (``BlockAMCSolver.prepare(...)`` output).
    rng:
        Generator driving the per-application hardware noise.

    Returns
    -------
    callable
        ``z = M(r)`` suitable for :func:`fgmres`.
    """
    generator = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng

    def apply(r: np.ndarray) -> np.ndarray:
        return prepared.solve(r, rng=generator).x

    return apply
