"""First-order settling-time models for the AMC circuits.

The paper states (Sec. II) that the MVM circuit's computing time is
"linearly dependent on the maximal sum of conductance along a row in the
array, also controlled by the feedback conductance and gain-bandwidth
product (GBWP) of TIAs" [22], and that the INV circuit's settling is
"related to the minimal eigenvalue of an associated matrix and the GBWP of
OPAs" [23]. We implement exactly those first-order models; they feed the
latency/energy accounting of the macro model and the cost benches.

Model sketch (single-pole op-amp with unity-gain bandwidth ``f_GBW``):

- MVM row ``i`` behaves as a first-order system with closed-loop time
  constant ``tau_i = (1 + (G0 + sum_j G_ij) / G0) / (2 pi f_GBW)``; the
  computation settles within ``ln(1/eps)`` time constants.
- INV settles with the slowest mode ``tau = (1 + 1/lambda_min) /
  (2 pi f_GBW)`` where ``lambda_min`` is the smallest eigenvalue real part
  of the normalized matrix; the circuit is stable only if every
  eigenvalue has positive real part.

Every eigenvalue margin — one matrix or a stack of trials — comes from
:func:`inv_eigenvalue_margins`, which runs ``eigvals`` with NumPy's
OpenBLAS held at one thread (:mod:`repro.utils.blas`). ``eigvals`` bits
depend on the BLAS thread count at n >= 256, so a margin computed any
other way would differ between hosts, and between the scalar and the
trial-batched engines.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConvergenceError, ValidationError
from repro.utils.blas import map_chunks, single_blas_thread
from repro.utils.validation import check_matrix, check_positive, check_square_matrix

#: Default settling accuracy target (fraction of final value).
DEFAULT_EPSILON = 1e-4


def mvm_settling_time(
    g: np.ndarray,
    g_feedback: float,
    gbwp_hz: float,
    epsilon: float = DEFAULT_EPSILON,
) -> float:
    """Settling time (seconds) of the MVM circuit.

    Parameters
    ----------
    g:
        Total conductance array loading the TIAs (siemens) — for a dual
        array pair pass ``g_pos + g_neg``.
    g_feedback:
        TIA feedback conductance (``G0``).
    gbwp_hz:
        Op-amp gain-bandwidth product in hertz.
    epsilon:
        Settling target: output within ``epsilon`` of its final value.
    """
    g = check_matrix(g, "g")
    check_positive(g_feedback, "g_feedback")
    check_positive(gbwp_hz, "gbwp_hz")
    check_positive(epsilon, "epsilon")
    max_row_sum = float(np.max(g.sum(axis=1)))
    noise_gain = 1.0 + (g_feedback + max_row_sum) / g_feedback
    tau = noise_gain / (2.0 * np.pi * gbwp_hz)
    return float(np.log(1.0 / epsilon) * tau)


def _min_real_eigenvalues(stack: np.ndarray) -> np.ndarray:
    return np.min(np.linalg.eigvals(stack).real, axis=1)


def inv_eigenvalue_margins(stack: np.ndarray) -> np.ndarray:
    """Per-slice :func:`inv_eigenvalue_margin` of a ``(T, n, n)`` stack.

    ``eigvals`` runs with NumPy's OpenBLAS at one thread, the stack split
    into contiguous trial chunks across the usable CPUs
    (:func:`repro.utils.blas.map_chunks`). A slice's margin is the same
    bits under any chunking and on any host. Without the pin (no
    bundled OpenBLAS found) the stack goes through one ``eigvals`` call,
    as splitting alone only adds overhead.
    """
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValidationError(
            f"expected a (T, n, n) stack of square matrices, got {stack.shape}"
        )
    with single_blas_thread() as pinned:
        if not pinned:
            return _min_real_eigenvalues(stack)
        return np.concatenate(map_chunks(_min_real_eigenvalues, stack))


def inv_eigenvalue_margin(matrix: np.ndarray) -> float:
    """Smallest real part among the eigenvalues of the normalized matrix.

    Positive margin means the INV feedback loop has a stable equilibrium
    (all poles in the left half-plane for the single-pole op-amp model).
    The one-slice case of :func:`inv_eigenvalue_margins`.
    """
    matrix = check_square_matrix(matrix)
    return float(inv_eigenvalue_margins(matrix[None])[0])


def inv_settling_times(
    margins: np.ndarray, gbwp_hz: float, epsilon: float = DEFAULT_EPSILON
) -> np.ndarray:
    """INV settling times (seconds) for an array of eigenvalue margins.

    The elementwise form of :func:`inv_settling_time`: an unstable slice
    (margin <= 0) reports an infinite time instead of raising.
    """
    margins = np.asarray(margins, dtype=float)
    with np.errstate(divide="ignore"):
        tau = (1.0 + 1.0 / margins) / (2.0 * np.pi * gbwp_hz)
    return np.where(margins <= 0.0, np.inf, np.log(1.0 / epsilon) * tau)


def is_inv_stable(matrix: np.ndarray, margin: float = 0.0) -> bool:
    """True when the INV circuit converges for this normalized matrix."""
    return inv_eigenvalue_margin(matrix) > margin


def inv_settling_time(
    matrix: np.ndarray | None,
    gbwp_hz: float,
    epsilon: float = DEFAULT_EPSILON,
    *,
    margin: float | None = None,
) -> float:
    """Settling time (seconds) of the INV circuit for a normalized matrix.

    Parameters
    ----------
    margin:
        Precomputed :func:`inv_eigenvalue_margin` of ``matrix``; pass it
        when the caller already ran the stability check so the (dominant)
        ``eigvals`` call is not repeated. ``matrix`` may then be ``None``.

    Raises
    ------
    ConvergenceError
        If the circuit is unstable (an eigenvalue with non-positive real
        part), in which case the analog solver never settles.
    """
    check_positive(gbwp_hz, "gbwp_hz")
    check_positive(epsilon, "epsilon")
    if margin is None:
        margin = inv_eigenvalue_margin(matrix)
    if margin <= 0.0:
        raise ConvergenceError(
            f"INV circuit unstable: smallest eigenvalue real part {margin:.3g} <= 0"
        )
    tau = (1.0 + 1.0 / margin) / (2.0 * np.pi * gbwp_hz)
    return float(np.log(1.0 / epsilon) * tau)
