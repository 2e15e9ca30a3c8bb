"""Digital reference solvers.

The paper positions AMC as "a seed solution (or equivalently as a
preconditioner) for digital computers, to speed up the convergence of
iterative algorithms" (Sec. IV). These are the digital algorithms that
consume such seeds: a direct LU solver (the accuracy reference used by
every experiment) and the classic stationary/Krylov iterative methods,
all accepting a warm-start ``x0``.

All iterative routines are implemented directly (no scipy black boxes) so
iteration counts are well-defined and comparable across methods.

Multi-RHS variants (the ``*_many`` functions)
---------------------------------------------
Every iterative method also has a block entry point taking a row-stacked
``(batch, n)`` block of right-hand sides (and optionally a matching
warm-start block) and returning one :class:`IterativeResult` per row.
Column ``j`` of a block solve is **bit-identical** to the scalar call on
``bs[j]`` — the same contract the analog kernel keeps in
:mod:`repro.core.common` — and therefore invariant to batch composition.
Two implementation rules make that hold:

- **reductions stay per column**: BLAS picks different accumulation
  orders for ``gemv`` vs ``gemm``, for batched row dots vs single dots,
  and even for *strided vs contiguous* inputs to ``dot`` (measured on
  this stack: ``q[:, i] @ w`` and ``q[:, i].copy() @ w`` differ in low
  bits), so every matrix-vector product, dot, and norm runs the exact
  scalar call on a contiguous row — C-speed per column, never a block
  BLAS call;
- **element-wise block updates vectorize freely**: axpy-style updates,
  scalings, and convergence masks are per-element IEEE operations whose
  bits cannot depend on the batch shape, so they run once over the
  whole ``(active, n)`` block.

That split is where the speedup lives for the stationary methods and CG
(one shared Python iteration loop, vectorized element-wise traffic,
converged columns masked out and dropped). Gauss-Seidel's forward sweep
is an order-sequential recurrence (each dot runs against a half-updated
solution) and GMRES's Arnoldi state lives in strided column views whose
dot bits are layout-dependent, so their block variants execute columns
one at a time — same API, shared validation, block warm starts, and
per-column early exit, with no pretence of cross-column BLAS sharing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.solution import SolveResult
from repro.errors import ConvergenceError, SolverError, ValidationError
from repro.utils.validation import check_square_matrix, check_vector

DEFAULT_TOL = 1e-10

#: Arnoldi happy-breakdown threshold: a new Krylov vector with norm at or
#: below this is treated as zero — the Krylov space is exhausted and the
#: current least-squares solution is exact (up to rounding), so the cycle
#: terminates instead of iterating on a zero basis vector.
BREAKDOWN_TOL = 1e-14


@dataclass(frozen=True)
class IterativeResult:
    """Outcome of an iterative solve.

    ``iterations`` counts matrix-vector products with ``A`` (the standard
    cost unit); ``residuals`` holds the relative residual after each
    iteration, starting with the initial guess's residual.
    """

    x: np.ndarray
    iterations: int
    residuals: tuple[float, ...]
    converged: bool
    method: str

    @property
    def final_residual(self) -> float:
        """Relative residual of the returned solution."""
        return self.residuals[-1]


class DigitalDirectSolver:
    """LU-based exact solver with the common :class:`SolveResult` shape."""

    name = "digital-lu"

    def solve(self, matrix: np.ndarray, b: np.ndarray, rng=None) -> SolveResult:
        """Solve ``A x = b`` with ``numpy.linalg.solve``."""
        matrix = check_square_matrix(matrix)
        b = check_vector(b, "b", size=matrix.shape[0])
        try:
            x = np.linalg.solve(matrix, b)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"matrix is singular: {exc}") from exc
        return SolveResult(x=x, reference=x.copy(), solver=self.name)


def _setup(matrix, b, x0):
    matrix = check_square_matrix(matrix)
    b = check_vector(b, "b", size=matrix.shape[0])
    if x0 is None:
        x = np.zeros_like(b)
    else:
        x = check_vector(x0, "x0", size=b.size).copy()
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        raise SolverError("b must be non-zero")
    return matrix, b, x, b_norm


def jacobi(matrix, b, x0=None, tol=DEFAULT_TOL, max_iter=10_000) -> IterativeResult:
    """Jacobi iteration ``x <- D^-1 (b - (A - D) x)``.

    Converges for strictly diagonally dominant matrices; may diverge
    otherwise (reported via ``converged=False`` once the budget runs out,
    or :class:`ConvergenceError` on numerical blow-up).
    """
    matrix, b, x, b_norm = _setup(matrix, b, x0)
    diag = np.diag(matrix)
    if np.any(diag == 0.0):
        raise SolverError("Jacobi requires a zero-free diagonal")
    off = matrix - np.diag(diag)
    residuals = [float(np.linalg.norm(b - matrix @ x)) / b_norm]
    for iteration in range(1, max_iter + 1):
        x = (b - off @ x) / diag
        res = float(np.linalg.norm(b - matrix @ x)) / b_norm
        residuals.append(res)
        if not np.isfinite(res):
            raise ConvergenceError(f"Jacobi diverged at iteration {iteration}")
        if res <= tol:
            return IterativeResult(x, iteration, tuple(residuals), True, "jacobi")
    return IterativeResult(x, max_iter, tuple(residuals), False, "jacobi")


def gauss_seidel(matrix, b, x0=None, tol=DEFAULT_TOL, max_iter=10_000) -> IterativeResult:
    """Gauss-Seidel iteration (forward sweep)."""
    matrix, b, x, b_norm = _setup(matrix, b, x0)
    n = b.size
    diag = np.diag(matrix)
    if np.any(diag == 0.0):
        raise SolverError("Gauss-Seidel requires a zero-free diagonal")
    residuals = [float(np.linalg.norm(b - matrix @ x)) / b_norm]
    for iteration in range(1, max_iter + 1):
        for i in range(n):
            sigma = matrix[i, :] @ x - matrix[i, i] * x[i]
            x[i] = (b[i] - sigma) / matrix[i, i]
        res = float(np.linalg.norm(b - matrix @ x)) / b_norm
        residuals.append(res)
        if not np.isfinite(res):
            raise ConvergenceError(f"Gauss-Seidel diverged at iteration {iteration}")
        if res <= tol:
            return IterativeResult(x, iteration, tuple(residuals), True, "gauss-seidel")
    return IterativeResult(x, max_iter, tuple(residuals), False, "gauss-seidel")


def richardson(matrix, b, x0=None, omega=None, tol=DEFAULT_TOL, max_iter=10_000) -> IterativeResult:
    """Richardson iteration ``x <- x + omega (b - A x)``.

    ``omega=None`` picks the optimal step ``2 / (lambda_min + lambda_max)``
    for symmetric positive definite matrices.
    """
    matrix, b, x, b_norm = _setup(matrix, b, x0)
    if omega is None:
        eigenvalues = np.linalg.eigvalsh((matrix + matrix.T) / 2.0)
        lo, hi = float(eigenvalues[0]), float(eigenvalues[-1])
        if lo <= 0.0:
            raise SolverError("automatic omega requires a positive definite symmetric part")
        omega = 2.0 / (lo + hi)
    residuals = [float(np.linalg.norm(b - matrix @ x)) / b_norm]
    for iteration in range(1, max_iter + 1):
        r = b - matrix @ x
        x = x + omega * r
        res = float(np.linalg.norm(b - matrix @ x)) / b_norm
        residuals.append(res)
        if not np.isfinite(res):
            raise ConvergenceError(f"Richardson diverged at iteration {iteration}")
        if res <= tol:
            return IterativeResult(x, iteration, tuple(residuals), True, "richardson")
    return IterativeResult(x, max_iter, tuple(residuals), False, "richardson")


def conjugate_gradient(matrix, b, x0=None, tol=DEFAULT_TOL, max_iter=None) -> IterativeResult:
    """Conjugate gradients for symmetric positive definite systems."""
    matrix, b, x, b_norm = _setup(matrix, b, x0)
    n = b.size
    if max_iter is None:
        max_iter = 10 * n
    r = b - matrix @ x
    p = r.copy()
    rs = float(r @ r)
    residuals = [float(np.sqrt(rs)) / b_norm]
    if residuals[0] <= tol:
        return IterativeResult(x, 0, tuple(residuals), True, "cg")
    for iteration in range(1, max_iter + 1):
        ap = matrix @ p
        denom = float(p @ ap)
        if denom <= 0.0:
            raise ConvergenceError("CG breakdown: matrix is not positive definite")
        alpha = rs / denom
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = float(r @ r)
        res = float(np.sqrt(rs_new)) / b_norm
        residuals.append(res)
        if res <= tol:
            return IterativeResult(x, iteration, tuple(residuals), True, "cg")
        p = r + (rs_new / rs) * p
        rs = rs_new
    return IterativeResult(x, max_iter, tuple(residuals), False, "cg")


def gmres(matrix, b, x0=None, tol=DEFAULT_TOL, max_iter=None, restart=None) -> IterativeResult:
    """GMRES with optional restarts (plain Arnoldi + Givens rotations)."""
    matrix, b, x, b_norm = _setup(matrix, b, x0)
    n = b.size
    if max_iter is None:
        max_iter = 10 * n
    if restart is None:
        restart = min(n, 50)

    total_iters = 0
    residuals = [float(np.linalg.norm(b - matrix @ x)) / b_norm]
    if residuals[0] <= tol:
        return IterativeResult(x, 0, tuple(residuals), True, "gmres")

    while total_iters < max_iter:
        r = b - matrix @ x
        beta = float(np.linalg.norm(r))
        if beta / b_norm <= tol:
            return IterativeResult(x, total_iters, tuple(residuals), True, "gmres")
        m = min(restart, max_iter - total_iters)
        q = np.zeros((n, m + 1))
        h = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = beta
        q[:, 0] = r / beta

        k_done = 0
        for k in range(m):
            w = matrix @ q[:, k]
            total_iters += 1
            for i in range(k + 1):
                h[i, k] = float(q[:, i] @ w)
                w = w - h[i, k] * q[:, i]
            h[k + 1, k] = float(np.linalg.norm(w))
            # Happy breakdown: the Krylov space is exhausted, so the
            # least-squares solution over the current basis is already
            # exact (up to rounding). The cycle must terminate here —
            # iterating on would orthogonalize against a zero basis
            # vector, stalling the residual and eventually handing the
            # triangular solve a singular (zero) column.
            breakdown = h[k + 1, k] <= BREAKDOWN_TOL
            if not breakdown:
                q[:, k + 1] = w / h[k + 1, k]
            # Apply previous Givens rotations to the new column.
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

        y = np.linalg.solve(h[:k_done, :k_done], g[:k_done])
        x = x + q[:, :k_done] @ y
        true_res = float(np.linalg.norm(b - matrix @ x)) / b_norm
        residuals[-1] = true_res
        if true_res <= tol:
            return IterativeResult(x, total_iters, tuple(residuals), True, "gmres")

    return IterativeResult(x, total_iters, tuple(residuals), False, "gmres")


# ----------------------------------------------------------------------
# multi-RHS block variants
# ----------------------------------------------------------------------


def setup_many(matrix, bs, x0):
    """Validate a block solve: ``(matrix, bs, X, b_norms)``.

    ``bs`` is a row-stacked ``(batch, n)`` block (or any sequence of
    right-hand-side vectors); ``x0`` may be ``None`` (cold start), one
    ``(n,)`` warm start shared by every column, or a ``(batch, n)``
    block of per-column warm starts. Row norms go through the exact
    scalar call so downstream residuals match scalar solves bitwise.
    """
    matrix = check_square_matrix(matrix)
    bs = np.asarray(bs, dtype=float)
    if bs.ndim != 2:
        raise ValidationError(
            f"bs must be a (batch, n) block of right-hand sides, got ndim={bs.ndim}"
        )
    if bs.shape[0] == 0:
        raise ValidationError("bs must contain at least one right-hand side")
    n = matrix.shape[0]
    if bs.shape[1] != n:
        raise ValidationError(f"bs rows must have length {n}, got {bs.shape[1]}")
    if not np.all(np.isfinite(bs)):
        raise ValidationError("bs contains non-finite entries")
    bs = np.ascontiguousarray(bs)
    batch = bs.shape[0]
    b_norms = np.array([float(np.linalg.norm(bs[j])) for j in range(batch)])
    if np.any(b_norms == 0.0):
        raise SolverError("b must be non-zero")
    if x0 is None:
        x_block = np.zeros_like(bs)
    else:
        x0 = np.asarray(x0, dtype=float)
        if x0.ndim == 1:
            x0 = check_vector(x0, "x0", size=n)
            x_block = np.tile(x0, (batch, 1))
        elif x0.shape == bs.shape:
            if not np.all(np.isfinite(x0)):
                raise ValidationError("x0 contains non-finite entries")
            x_block = np.array(x0, dtype=float, order="C")
        else:
            raise ValidationError(
                f"x0 must be (n,) or match bs {bs.shape}, got {x0.shape}"
            )
    return matrix, bs, x_block, b_norms


def matvec_rows(matrix, rows: np.ndarray) -> np.ndarray:
    """Per-row ``matrix @ row`` — one contiguous ``gemv`` per row.

    A single ``(n, n) @ (n, batch)`` matmul would hand BLAS a ``gemm``
    whose per-column accumulation order differs from the scalar
    solvers' ``gemv``, breaking the bitwise contract; each row runs the
    exact scalar call instead.
    """
    out = np.empty_like(rows)
    for j in range(rows.shape[0]):
        out[j] = matrix @ rows[j]
    return out


def _norms_rows(rows: np.ndarray) -> np.ndarray:
    """Per-row ``np.linalg.norm`` (axis-norms differ bitwise at scale)."""
    return np.array([float(np.linalg.norm(rows[j])) for j in range(rows.shape[0])])


def _dots_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row contiguous dot products (``a[j] @ b[j]``)."""
    return np.array([float(a[j] @ b[j]) for j in range(a.shape[0])])


def _results_many(x_block, iters, hist, conv, method) -> tuple[IterativeResult, ...]:
    return tuple(
        IterativeResult(
            x_block[j].copy(), int(iters[j]), tuple(hist[j]), bool(conv[j]), method
        )
        for j in range(x_block.shape[0])
    )


def jacobi_many(matrix, bs, x0=None, tol=DEFAULT_TOL, max_iter=10_000):
    """Block Jacobi: per-column bit-identical to :func:`jacobi`.

    Carries the whole ``(batch, n)`` block through one vectorized
    iteration loop (element-wise update, per-row residual reductions),
    masking converged columns out. A diverging column raises
    :class:`ConvergenceError` exactly as a sequential loop over the
    batch would (the reported column may differ: lockstep iterations
    meet failures in iteration order, a loop in column order).
    """
    matrix, bs, x_block, b_norms = setup_many(matrix, bs, x0)
    diag = np.diag(matrix)
    if np.any(diag == 0.0):
        raise SolverError("Jacobi requires a zero-free diagonal")
    off = matrix - np.diag(diag)
    batch = bs.shape[0]
    hist = [
        [float(np.linalg.norm(bs[j] - matrix @ x_block[j])) / b_norms[j]]
        for j in range(batch)
    ]
    iters = np.full(batch, max_iter)
    conv = np.zeros(batch, dtype=bool)
    active = np.arange(batch)
    for iteration in range(1, max_iter + 1):
        if active.size == 0:
            break
        updated = (bs[active] - matvec_rows(off, x_block[active])) / diag
        x_block[active] = updated
        res = _norms_rows(bs[active] - matvec_rows(matrix, updated)) / b_norms[active]
        for idx, j in enumerate(active):
            hist[j].append(float(res[idx]))
        bad = ~np.isfinite(res)
        if np.any(bad):
            column = int(active[np.argmax(bad)])
            raise ConvergenceError(
                f"Jacobi diverged at iteration {iteration} (batch column {column})"
            )
        done = res <= tol
        iters[active[done]] = iteration
        conv[active[done]] = True
        active = active[~done]
    return _results_many(x_block, iters, hist, conv, "jacobi")


def gauss_seidel_many(matrix, bs, x0=None, tol=DEFAULT_TOL, max_iter=10_000):
    """Block Gauss-Seidel: per-column bit-identical to :func:`gauss_seidel`.

    The forward sweep is an order-sequential recurrence — every row's
    dot product runs against a half-updated solution — so there is no
    cross-column BLAS sharing that preserves the bitwise contract (see
    module docstring). Columns execute the scalar iteration one at a
    time; the block entry point contributes shared validation, block
    warm starts, and per-column results/early exit.
    """
    matrix, bs, x_block, _ = setup_many(matrix, bs, x0)
    return tuple(
        gauss_seidel(matrix, bs[j], x0=x_block[j], tol=tol, max_iter=max_iter)
        for j in range(bs.shape[0])
    )


def richardson_many(matrix, bs, x0=None, omega=None, tol=DEFAULT_TOL, max_iter=10_000):
    """Block Richardson: per-column bit-identical to :func:`richardson`.

    ``omega=None`` runs the symmetric-part eigenvalue analysis once for
    the whole block (the scalar path recomputes it per call — same
    matrix, same bits).
    """
    matrix, bs, x_block, b_norms = setup_many(matrix, bs, x0)
    if omega is None:
        eigenvalues = np.linalg.eigvalsh((matrix + matrix.T) / 2.0)
        lo, hi = float(eigenvalues[0]), float(eigenvalues[-1])
        if lo <= 0.0:
            raise SolverError("automatic omega requires a positive definite symmetric part")
        omega = 2.0 / (lo + hi)
    batch = bs.shape[0]
    hist = [
        [float(np.linalg.norm(bs[j] - matrix @ x_block[j])) / b_norms[j]]
        for j in range(batch)
    ]
    iters = np.full(batch, max_iter)
    conv = np.zeros(batch, dtype=bool)
    active = np.arange(batch)
    for iteration in range(1, max_iter + 1):
        if active.size == 0:
            break
        residual_rows = bs[active] - matvec_rows(matrix, x_block[active])
        updated = x_block[active] + omega * residual_rows
        x_block[active] = updated
        res = _norms_rows(bs[active] - matvec_rows(matrix, updated)) / b_norms[active]
        for idx, j in enumerate(active):
            hist[j].append(float(res[idx]))
        bad = ~np.isfinite(res)
        if np.any(bad):
            column = int(active[np.argmax(bad)])
            raise ConvergenceError(
                f"Richardson diverged at iteration {iteration} (batch column {column})"
            )
        done = res <= tol
        iters[active[done]] = iteration
        conv[active[done]] = True
        active = active[~done]
    return _results_many(x_block, iters, hist, conv, "richardson")


def conjugate_gradient_many(matrix, bs, x0=None, tol=DEFAULT_TOL, max_iter=None):
    """Block CG: per-column bit-identical to :func:`conjugate_gradient`.

    Search directions, step lengths, and residual energies are tracked
    per column; the axpy updates run element-wise over the active block
    while every dot product stays a contiguous per-row scalar call.
    """
    matrix, bs, x_block, b_norms = setup_many(matrix, bs, x0)
    batch, n = bs.shape
    if max_iter is None:
        max_iter = 10 * n
    residual_block = bs - matvec_rows(matrix, x_block)
    direction_block = residual_block.copy()
    rs = _dots_rows(residual_block, residual_block)
    hist = [[float(np.sqrt(rs[j])) / b_norms[j]] for j in range(batch)]
    iters = np.full(batch, max_iter)
    conv = np.zeros(batch, dtype=bool)
    converged_now = np.array([hist[j][0] <= tol for j in range(batch)])
    iters[converged_now] = 0
    conv[converged_now] = True
    active = np.flatnonzero(~converged_now)
    for iteration in range(1, max_iter + 1):
        if active.size == 0:
            break
        directions = direction_block[active]
        ap = matvec_rows(matrix, directions)
        denom = _dots_rows(directions, ap)
        if np.any(denom <= 0.0):
            raise ConvergenceError("CG breakdown: matrix is not positive definite")
        alpha = rs[active] / denom
        x_block[active] += alpha[:, None] * directions
        residual_block[active] -= alpha[:, None] * ap
        rs_new = _dots_rows(residual_block[active], residual_block[active])
        res = np.sqrt(rs_new) / b_norms[active]
        for idx, j in enumerate(active):
            hist[j].append(float(res[idx]))
        done = res <= tol
        iters[active[done]] = iteration
        conv[active[done]] = True
        keep = ~done
        still = active[keep]
        direction_block[still] = (
            residual_block[still] + (rs_new[keep] / rs[still])[:, None] * direction_block[still]
        )
        rs[still] = rs_new[keep]
        active = still
    return _results_many(x_block, iters, hist, conv, "cg")


def gmres_many(matrix, bs, x0=None, tol=DEFAULT_TOL, max_iter=None, restart=None):
    """Block GMRES: per-column bit-identical to :func:`gmres`.

    Arnoldi state lives in strided column views whose dot-product bits
    are layout-dependent (measured on this stack — see the module
    docstring), so sharing a basis block across columns would break the
    bitwise contract. Columns execute the scalar iteration one at a
    time; the block entry point contributes shared validation, block
    warm starts, and per-column results/early exit. For the batched
    *flexible* variant — where the expensive per-iteration step is a
    preconditioner application that genuinely batches — see
    :func:`repro.core.preconditioned.fgmres_many`.
    """
    matrix, bs, x_block, _ = setup_many(matrix, bs, x0)
    return tuple(
        gmres(
            matrix, bs[j], x0=x_block[j], tol=tol, max_iter=max_iter, restart=restart
        )
        for j in range(bs.shape[0])
    )
