"""The analog solve kernel: one parameterized implementation, three shapes.

AMC circuits work on voltages. Every solver in this repository — the
scalar :class:`~repro.amc.ops.AMCOperations` primitives, the per-trial
Monte-Carlo engine in :mod:`repro.core.batched`, and the multi-RHS
pipeline in :meth:`repro.core.blockamc.PreparedBlockAMC.solve_many` —
executes the *same* analog physics:

1. scale the digital right-hand side ``b`` into the DAC range
   (:func:`input_voltage_scale`),
2. apply quasi-static op-amp offsets (:func:`draw_offsets`,
   :func:`inv_rhs`, :func:`mvm_raw`),
3. run the raw INV/MVM node equations with finite open-loop gain
   (:func:`inv_raw`, :func:`mvm_raw`),
4. account for output saturation (:func:`saturate`),
5. gain-range: rerun with a smaller input scale until nothing clips
   (:func:`auto_range` / :func:`auto_range_many`, both driven by the
   single :func:`ranging_rescale` policy step),
6. undo the scaling digitally on the way out::

       A x = b,  A = s_g * A_n,  v_b = k * b
       circuit solves A_n x_v = v_b  =>  x = x_v / (k * s_g)

Shape conventions (the "three shapes")
--------------------------------------
Each kernel function is shape-generic over the trailing axes:

- **scalar**: ``v_in (n,)``, ``effective (n, n)``, ``offsets (n,)``;
- **multi-RHS**: ``v_in (rhs, n)`` against one ``effective (n, n)``
  (one programmed macro, many right-hand sides);
- **trial-batched**: ``v_in (trials, n)`` against per-trial
  ``effective (trials, n, n)`` and ``offsets (trials, n)``.

Bitwise-equivalence contract (enforced by
``tests/test_kernel_equivalence.py``)
-------------------------------------
On any single platform the three shapes produce *bit-identical*
results, because the kernel only ever uses contractions and solves
whose per-column floating-point operation order is independent of the
batch shape:

- MVM contractions go through ``np.einsum`` (fixed summation order over
  the contracted axis, never a shape-dependent BLAS kernel);
- every dense solve goes through one primitive —
  :class:`FactoredSystem`: one ``getrf`` factorization, then ``getrs``
  with ``nrhs=1`` per logical column. The multi-RHS shape factors once
  for the whole batch (the performance win) yet produces the same bits
  as independent per-column solves; the trial-batched shape loops its
  slices through the identical calls. Two things must never be
  reintroduced here: a LAPACK call with ``nrhs > 1`` (column results
  depend on how many neighbours they were solved with), and a mix of
  ``np.linalg.solve`` with the SciPy LAPACK bindings (NumPy and SciPy
  link *different* OpenBLAS builds whose low bits can disagree).
"""

from __future__ import annotations

import math
import threading

import numpy as np

from repro.core.backend import canonical_dtype, lapack_solvers
from repro.errors import SolverError, ValidationError
from repro.utils.rng import as_generator
from repro.utils.validation import check_in_range, check_vector

#: Fraction of DAC full scale the largest |b| element is mapped to.
DEFAULT_INPUT_FRACTION = 0.5

#: Auto-ranging keeps analog peaks below this fraction of full scale.
RANGING_HEADROOM = 0.9

#: Maximum auto-ranging attempts (the circuit is linear in the input
#: scale, so the second attempt already lands on target; extra attempts
#: only absorb quantization nonlinearity).
MAX_RANGING_ATTEMPTS = 4

#: Extra 5% shrink applied by every ranging rescale, absorbing converter
#: quantization effects that break exact linearity in the input scale.
#: This constant exists exactly once; every ranging loop (scalar and
#: batched) goes through :func:`ranging_rescale`.
QUANTIZATION_MARGIN = 0.95


# ----------------------------------------------------------------------
# input scaling
# ----------------------------------------------------------------------


def input_voltage_scale(b: np.ndarray, v_fs: float, fraction: float = DEFAULT_INPUT_FRACTION) -> float:
    """Scale factor ``k`` mapping ``b`` into the DAC range.

    ``max |k * b| == fraction * v_fs``. Raises for an all-zero ``b`` (the
    trivial system needs no solver and would break the scaling).
    """
    b = check_vector(b, "b")
    check_in_range(fraction, 0.0, 1.0, "fraction", inclusive=False)
    peak = float(np.max(np.abs(b)))
    if peak == 0.0:
        raise ValidationError("b must be non-zero (the all-zero system is trivial)")
    return fraction * v_fs / peak


def input_voltage_scale_many(
    bs: np.ndarray, v_fs: float, fraction: float = DEFAULT_INPUT_FRACTION
) -> np.ndarray:
    """Per-vector :func:`input_voltage_scale` over stacked ``(..., n)`` rows.

    Same peak arithmetic, evaluated element-wise over the stack, so each
    entry is bit-identical to the scalar call on the same row.
    """
    peak = np.max(np.abs(bs), axis=-1)
    if np.any(peak == 0.0):
        raise ValidationError("b must be non-zero (the all-zero system is trivial)")
    return fraction * v_fs / peak


# ----------------------------------------------------------------------
# op-amp offsets
# ----------------------------------------------------------------------


def draw_offsets(sigma: float, size: int, rng) -> np.ndarray | None:
    """One op-amp column's input-referred offsets (``None`` when ideal)."""
    if sigma == 0.0:
        return None
    return as_generator(rng).normal(0.0, sigma, size=size)


def draw_offsets_batch(sigma: float, sizes, rngs) -> dict[int, np.ndarray | None]:
    """Per-trial op-amp offset columns, drawn in schedule-first-use order.

    Mirrors the scalar path (one draw per distinct column size per
    trial, cached for the rest of that trial's schedule), consuming each
    trial's generator in exactly the scalar order so the samples are
    bit-identical.
    """
    if sigma == 0.0:
        return {size: None for size in sizes}
    distinct: list[int] = []
    for size in sizes:
        if size not in distinct:
            distinct.append(size)
    out: dict[int, np.ndarray] = {
        size: np.empty((len(rngs), size)) for size in distinct
    }
    for t, rng in enumerate(rngs):
        for size in distinct:
            out[size][t] = rng.normal(0.0, sigma, size=size)
    return out


# ----------------------------------------------------------------------
# shape-stable linear algebra primitives
# ----------------------------------------------------------------------


def contract(matrix: np.ndarray, v_in: np.ndarray) -> np.ndarray:
    """Matrix-vector contraction ``(..., r, c) x (..., c) -> (..., r)``.

    Uses ``np.einsum`` (fixed summation order over ``c``) instead of
    ``@``: BLAS picks different kernels — and different accumulation
    orders — for ``gemv`` vs. ``gemm`` and for different column counts,
    so ``@`` would break the bitwise contract between the scalar,
    multi-RHS, and trial-batched shapes.
    """
    return np.einsum("...rc,...c->...r", matrix, v_in)


class FactoredSystem:
    """One LU factorization, solved column-by-column, bitwise-stable.

    ``np.linalg.solve(A, B)`` with ``nrhs > 1`` hands LAPACK the whole
    block and gets back columns whose low bits depend on how many
    neighbours they were solved with. This class keeps the multi-RHS
    performance shape — factor once, back-substitute cheaply per column
    — while calling ``getrs`` with one column at a time, so a column's
    bits never depend on the batch it arrived in. It is the *only*
    dense-solve primitive of the analog engine: the scalar and
    trial-batched paths use it too, because mixing it with
    ``np.linalg.solve`` would mix two differently-built OpenBLAS
    libraries (NumPy's and SciPy's) whose results differ in low bits.

    The primitive is dtype-generic over the backend seam
    (:mod:`repro.core.backend`): a float32 matrix factors and solves
    through ``sgetrf``/``sgetrs``, anything else through the float64
    pair the engine always used, and right-hand sides are coerced to
    the matrix dtype — so the float64 path is byte-identical to the
    pre-seam kernel.

    One instance may be shared by threads (a prepared solver's LUs are
    built once and reused), so :meth:`solve` holds a per-instance lock:
    SciPy's ``getrs`` wrapper shifts the pivot array in place to 1-based
    and back around the LAPACK call, outside the interpreter lock, and
    two overlapping calls on one pivot array return wrong columns or
    corrupt memory.
    """

    def __init__(self, matrix: np.ndarray, what: str = "effective block matrix"):
        matrix = np.asarray(matrix, dtype=canonical_dtype(np.asarray(matrix).dtype))
        getrf, getrs = lapack_solvers(matrix.dtype)
        lu, piv, info = getrf(matrix)
        if info > 0:
            raise SolverError(f"{what} is singular: zero pivot at position {info - 1}")
        if info < 0:  # pragma: no cover - defensive (bad LAPACK argument)
            raise SolverError(f"{what} factorization failed (LAPACK info={info})")
        self.matrix = matrix
        self._getrs = getrs
        self._lu = lu
        self._piv = piv
        self._what = what
        self._lock = threading.Lock()

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for ``(n,)`` or row-stacked ``(rhs, n)`` right-hand sides."""
        getrs, lu, piv = self._getrs, self._lu, self._piv
        rhs = np.ascontiguousarray(rhs, dtype=self.matrix.dtype)
        with self._lock:
            if rhs.ndim == 1:
                x, info = getrs(lu, piv, rhs)
                if info != 0:  # pragma: no cover - defensive (bad LAPACK argument)
                    raise SolverError(f"{self._what} solve failed (LAPACK info={info})")
                return x
            out = np.empty_like(rhs)
            for i in range(rhs.shape[0]):
                x, info = getrs(lu, piv, rhs[i])
                if info != 0:  # pragma: no cover - defensive (bad LAPACK argument)
                    raise SolverError(f"{self._what} solve failed (LAPACK info={info})")
                out[i] = x
        return out


def solve_columns(matrix: np.ndarray, rhs: np.ndarray, what: str = "matrix") -> np.ndarray:
    """One-shot :class:`FactoredSystem` solve (``(n,)`` or ``(rhs, n)``)."""
    return FactoredSystem(matrix, what=what).solve(rhs)


def solve_slices(
    matrices: np.ndarray, rhs: np.ndarray, what: str = "effective block matrix"
) -> np.ndarray:
    """Per-slice solves for stacked ``(trials, n, n)`` x ``(trials, n)``.

    Each slice goes through the same :class:`FactoredSystem` calls the
    scalar shape makes, so trial ``t`` is bit-identical to a scalar
    solve of ``(matrices[t], rhs[t])``.
    """
    out = np.empty_like(rhs)
    for t in range(rhs.shape[0]):
        out[t] = FactoredSystem(matrices[t], what=what).solve(rhs[t])
    return out


def ideal_mvm(matrix: np.ndarray, v_in: np.ndarray) -> np.ndarray:
    """Perfect-circuit MVM output (with the hardware minus sign)."""
    return -contract(matrix, v_in)


def ideal_inv(
    system: FactoredSystem, v_in: np.ndarray, input_scale: float = 1.0
) -> np.ndarray:
    """Perfect-circuit INV output ``-matrix^-1 (input_scale * v_in)``.

    ``system`` is the ideal matrix's factorization, built once per
    programmed array (:meth:`~repro.crossbar.array.CrossbarArray.ideal_system`).
    """
    return -system.solve(input_scale * v_in)


# ----------------------------------------------------------------------
# raw INV / MVM node equations
# ----------------------------------------------------------------------


def mvm_raw(
    effective: np.ndarray,
    load_row_sums: np.ndarray,
    v_in: np.ndarray,
    offsets: np.ndarray | None,
    open_loop_gain: float,
) -> np.ndarray:
    """Raw (pre-saturation) MVM outputs: finite-gain KCL at the TIAs.

    ``v_out_i = (-(M v_in)_i + (1 + L_i) vos_i) / (1 + (1 + L_i) / A0)``
    — shape-generic over the three kernel shapes (see module docstring).
    """
    raw = -contract(effective, v_in)
    noise_gain = 1.0 + load_row_sums
    if offsets is not None:
        raw = raw + noise_gain * offsets
    if not math.isinf(open_loop_gain):
        raw = raw / (1.0 + noise_gain / open_loop_gain)
    return raw


def inv_loading(load_row_sums: np.ndarray, input_scale) -> np.ndarray:
    """Total conductance loading each INV summing node: ``s + L_i``.

    ``input_scale`` is a float (scalar / multi-RHS shapes) or a
    per-trial ``(trials,)`` array (trial-batched shape). Pinned to the
    loading dtype so a float32-tier loading stays float32 (a bare 0-d
    ``np.asarray`` is NEP-50 "strong" and would upcast); for float64
    loadings this is bit-identical to the unpinned arithmetic.
    """
    load_row_sums = np.asarray(load_row_sums)
    scale = np.asarray(input_scale, dtype=load_row_sums.dtype)
    return scale[..., None] + load_row_sums


def inv_system(
    effective: np.ndarray, loading: np.ndarray, open_loop_gain: float
) -> np.ndarray:
    """INV system matrix ``M + diag(s + L) / A0`` (finite-gain model)."""
    if math.isinf(open_loop_gain):
        return effective
    system = effective.copy()
    idx = np.arange(effective.shape[-1])
    system[..., idx, idx] += loading / open_loop_gain
    return system


def inv_rhs(
    v_in: np.ndarray,
    loading: np.ndarray,
    offsets: np.ndarray | None,
    input_scale,
) -> np.ndarray:
    """INV right-hand side ``-s * v_in + (s + L) * vos``.

    ``input_scale`` is pinned to the ``v_in`` dtype (same NEP-50
    rationale as :func:`inv_loading`; bit-identical for float64).
    """
    v_in = np.asarray(v_in)
    scale = np.asarray(input_scale, dtype=v_in.dtype)
    rhs = -scale[..., None] * v_in
    if offsets is not None:
        rhs = rhs + loading * offsets
    return rhs


def inv_solve(system: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the INV node equations, dispatching on the kernel shape.

    - ``system (n, n)``, ``rhs (n,)`` or ``(rhs, n)``: one factorization,
      one ``getrs`` column at a time (see :class:`FactoredSystem`);
    - ``system (trials, n, n)``, ``rhs (trials, n)``: the same calls,
      slice by slice.
    """
    if system.ndim == 2:
        return FactoredSystem(system).solve(rhs)
    return solve_slices(system, rhs)


def inv_raw(
    effective: np.ndarray,
    load_row_sums: np.ndarray,
    v_in: np.ndarray,
    offsets: np.ndarray | None,
    input_scale,
    open_loop_gain: float,
) -> np.ndarray:
    """Raw (pre-saturation) INV outputs: solve the finite-gain system.

    ``(M + D / A0) v_out = -s * v_in + (s + L) * vos, D = diag(s + L)``
    — shape-generic; ``input_scale`` may be a float or a ``(trials,)``
    per-trial array (the Schur block's private normalization).
    """
    loading = inv_loading(load_row_sums, input_scale)
    rhs = inv_rhs(v_in, loading, offsets, input_scale)
    return inv_solve(inv_system(effective, loading, open_loop_gain), rhs)


# ----------------------------------------------------------------------
# saturation accounting
# ----------------------------------------------------------------------


def saturate(raw: np.ndarray, v_sat: float) -> tuple[np.ndarray, np.ndarray]:
    """Clip outputs at the op-amp rails; flag which vectors clipped.

    Returns ``(clipped, saturated)`` where ``saturated`` reduces over the
    last axis (a 0-d bool for the scalar shape, per-row bools for the
    stacked shapes).
    """
    if math.isinf(v_sat):
        return raw, np.zeros(raw.shape[:-1], dtype=bool)
    clipped = np.clip(raw, -v_sat, v_sat)
    return clipped, np.any(clipped != raw, axis=-1)


# ----------------------------------------------------------------------
# sample-and-hold cascade
# ----------------------------------------------------------------------


def snh_cascade(voltages: np.ndarray, gain_error: float) -> np.ndarray:
    """Two back-to-back S&H transfers (output bank, then input bank).

    The macro conveys every intermediate through two buffers; each
    multiplies by ``1 + gain_error``. Applied as two successive products
    — not ``(1 + gain_error) ** 2`` — so batched paths stay bit-identical
    to the scalar :class:`~repro.amc.interfaces.SampleHold` chain.
    """
    gain = 1.0 + gain_error
    return (voltages * gain) * gain


# ----------------------------------------------------------------------
# analog gain ranging
# ----------------------------------------------------------------------


def ranging_rescale(k, peak, v_fs: float):
    """The single linear-rescale policy step of every ranging loop.

    Rescales straight to the headroom target (the circuit is linear in
    ``k``) with the :data:`QUANTIZATION_MARGIN` shrink. Element-wise, so
    the scalar and batched ranging loops share one implementation.
    """
    return k * (RANGING_HEADROOM * v_fs / peak) * QUANTIZATION_MARGIN


def auto_range(run, k0: float, v_fs: float):
    """Analog gain ranging: shrink the input scale until nothing clips.

    INV outputs exceed their inputs by up to the (unknown) inverse's
    norm, so a fixed input scale can push intermediate voltages beyond
    converter full scale. Real mixed-signal systems solve this with gain
    ranging — run, detect overrange, rescale, rerun — which is what this
    helper implements. Because every voltage in the system is linear in
    the input scale ``k``, one corrective rerun suffices.

    Parameters
    ----------
    run:
        ``run(k) -> (peak_voltage, payload)`` — executes the analog
        pipeline at input scale ``k`` and reports the largest absolute
        analog voltage it produced.
    k0:
        Initial scale (from :func:`input_voltage_scale`).
    v_fs:
        Converter full-scale voltage.

    Returns
    -------
    (payload, k):
        Payload of the accepted attempt and the scale that produced it.
        The last attempt is always accepted, clipping or not: the
        hardware has no better answer to give.
    """
    k = k0
    for attempt in range(MAX_RANGING_ATTEMPTS):
        peak, payload = run(k)
        if peak <= RANGING_HEADROOM * v_fs or attempt == MAX_RANGING_ATTEMPTS - 1:
            return payload, k
        k = ranging_rescale(k, peak, v_fs)
    raise AssertionError(  # pragma: no cover - loop returns on last attempt
        "unreachable: the final ranging attempt always returns"
    )


def auto_range_many(run, k0: np.ndarray, v_fs: float):
    """Vectorized :func:`auto_range` over independent per-vector scales.

    ``run(k, indices)`` executes the pipeline for the subset ``indices``
    at per-vector scales ``k`` and returns ``(peaks, payload)`` where
    payload is a dict of stacked per-vector output arrays (any dtype).
    Each vector rescales and reruns independently — the same decisions,
    in the same :func:`ranging_rescale` arithmetic, as a scalar
    :func:`auto_range` loop over the vectors.
    """
    count = k0.size
    k = k0.copy()
    active = np.arange(count)
    final: dict[str, np.ndarray] = {}
    final_k = k0.copy()
    for attempt in range(MAX_RANGING_ATTEMPTS):
        peaks, payload = run(k[active], active)
        # Rescale arithmetic always runs in float64, exactly like the
        # scalar loop whose ``peak`` is a Python float: a float32 tier's
        # peaks convert exactly, and the per-column scales stay full
        # precision. Same-object no-op for float64 peaks.
        peaks = np.asarray(peaks, dtype=np.float64)
        if attempt == MAX_RANGING_ATTEMPTS - 1:
            accept = np.ones_like(peaks, dtype=bool)
        else:
            accept = peaks <= RANGING_HEADROOM * v_fs
        accepted = active[accept]
        for key, values in payload.items():
            if key not in final:
                final[key] = np.zeros((count, *values.shape[1:]), dtype=values.dtype)
            final[key][accepted] = values[accept]
        final_k[accepted] = k[active][accept]
        if np.all(accept):
            return final, final_k
        rescale = ~accept
        k[active[rescale]] = ranging_rescale(k[active[rescale]], peaks[rescale], v_fs)
        active = active[rescale]
    raise AssertionError(  # pragma: no cover - loop returns on last attempt
        "unreachable: the final ranging attempt accepts everything"
    )
