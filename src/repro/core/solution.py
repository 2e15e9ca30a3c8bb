"""Solver result containers shared by all solvers.

:class:`SolveResult` is the full-telemetry container (per-operation
:class:`~repro.amc.ops.OpResult` tuples, step-output metadata).
:class:`LeanSolveResult` is the serving-mode container: the same
solution payload (``x``/``reference`` are bitwise identical to the full
result's) with per-step telemetry reduced to the scalars the serving
and campaign layers actually consume — constructing the five OpResults
and their step-output dicts dominates service-side time at scale.
:class:`DigitalReference` is the prepared solvers' shared source of the
``reference`` field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.amc.ops import OpResult
from repro.analysis.metrics import paper_relative_error
from repro.core.common import FactoredSystem


class DigitalReference:
    """Mixin for prepared solvers: one LU of ``matrix`` for every reference.

    Each answer reports its Eq. 6 error against the digital solve of
    the prepared ``matrix``, which is fixed once the solver is
    programmed. The factorization is built on first use and stored
    outside the frozen dataclass fields (pure derived state), so
    ``solve`` and ``solve_many`` share it. Per-column ``getrs`` makes
    every reference bit-identical to
    ``solve_columns(matrix, b, what="system matrix")`` whatever the
    batch, the solver kind or the BLAS thread count.
    """

    def reference_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Digital reference for ``(n,)`` or row-stacked ``(rhs, n)``."""
        system = self.__dict__.get("_reference_system")
        if system is None:
            system = FactoredSystem(self.matrix, what="system matrix")
            object.__setattr__(self, "_reference_system", system)
        return system.solve(rhs)


@dataclass(frozen=True)
class SolveResult:
    """Outcome of solving ``A x = b`` with one of the solvers.

    Attributes
    ----------
    x:
        The solver's solution.
    reference:
        Exact digital solution ``A^-1 b``: one ``getrf`` of ``A`` per
        prepared solver, one ``getrs`` per column
        (:class:`DigitalReference`).
    solver:
        Human-readable solver name.
    operations:
        Telemetry of every analog operation executed (empty for digital
        solvers).
    metadata:
        Solver-specific extras (scales, per-step references, resource
        counts, conversion counts, ...).
    """

    x: np.ndarray
    reference: np.ndarray
    solver: str
    operations: tuple[OpResult, ...] = ()
    metadata: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        """Dimension of the solved system."""
        return self.x.size

    @property
    def relative_error(self) -> float:
        """The paper's Eq. 6 relative error vs. the digital reference."""
        return paper_relative_error(self.reference, self.x)

    @property
    def analog_time_s(self) -> float:
        """Sum of analog settling times over all operations."""
        return float(sum(op.settling_time_s for op in self.operations))

    @property
    def operation_counts(self) -> dict[str, int]:
        """Number of analog ops by kind (``{"inv": ..., "mvm": ...}``)."""
        counts: dict[str, int] = {}
        for op in self.operations:
            counts[op.kind] = counts.get(op.kind, 0) + 1
        return counts

    @property
    def saturated(self) -> bool:
        """True when any analog op clipped at the op-amp rails."""
        return any(op.saturated for op in self.operations)


@dataclass(frozen=True)
class LeanSolveResult:
    """Serving-mode outcome of one solve: payload without step telemetry.

    Carries exactly what :class:`repro.serve` responses and campaign
    records read from a result — the solution, the digital reference,
    and the scalar telemetry aggregates — while skipping the per-step
    :class:`~repro.amc.ops.OpResult` construction. ``x``, ``reference``,
    ``relative_error``, ``saturated``, and ``analog_time_s`` are
    bit-identical to the corresponding full :class:`SolveResult` fields
    for the same solve.
    """

    x: np.ndarray
    reference: np.ndarray
    solver: str
    saturated: bool = False
    analog_time_s: float = 0.0
    metadata: dict = field(default_factory=dict)
    #: Lean results carry no per-operation telemetry by design.
    operations: tuple = ()

    @classmethod
    def from_result(cls, result: SolveResult) -> "LeanSolveResult":
        """Reduce a full result (fallback for non-lean solve paths).

        Only metadata keys the full result actually set are carried
        over — no key ever appears with a ``None`` the full path would
        never produce.
        """
        return cls(
            x=result.x,
            reference=result.reference,
            solver=result.solver,
            saturated=result.saturated,
            analog_time_s=result.analog_time_s,
            metadata={
                key: result.metadata[key]
                for key in ("input_scale",)
                if key in result.metadata
            },
        )

    @property
    def size(self) -> int:
        """Dimension of the solved system."""
        return self.x.size

    @property
    def relative_error(self) -> float:
        """The paper's Eq. 6 relative error vs. the digital reference."""
        return paper_relative_error(self.reference, self.x)
