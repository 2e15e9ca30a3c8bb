"""Programmed crossbar array pairs.

A :class:`CrossbarArray` is the hardware image of one signed matrix: two
non-negative conductance arrays (positive and negative part) that went
through the full programming pipeline —

    target mapping -> level quantization -> programming variation
    (or an explicit write-and-verify session) -> stuck-at faults

— plus the interconnect model that turns programmed conductances into the
*effective* operator the analog periphery actually sees.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.crossbar.mapping import MappedConductances, map_to_conductances
from repro.crossbar.parasitics import ParasiticConfig, effective_conductance_matrix
from repro.devices.faults import StuckFaultModel
from repro.devices.models import PAPER_G0_SIEMENS, DeviceSpec
from repro.devices.programming import write_verify
from repro.devices.quantization import quantize_conductance
from repro.devices.variations import NoVariation, VariationModel
from repro.utils.rng import as_generator


@dataclass(frozen=True)
class ProgrammingConfig:
    """Device-level non-ideality selection for programming an array.

    Parameters
    ----------
    device:
        Physical cell envelope.
    variation:
        Statistical programming-error model (paper: Gaussian, 0.05 * G0).
    faults:
        Stuck-at fault injection model.
    quantize:
        Snap targets to the device's level grid before programming
        (no-op for continuous devices).
    use_write_verify:
        Replace the statistical variation model with an explicit
        write-and-verify pulse-loop simulation. Much slower; used to
        validate that the closed loop indeed leaves a near-Gaussian
        residual of the assumed magnitude.
    """

    device: DeviceSpec = field(default_factory=DeviceSpec.paper_reference)
    variation: VariationModel = field(default_factory=NoVariation)
    faults: StuckFaultModel = field(default_factory=StuckFaultModel)
    quantize: bool = False
    use_write_verify: bool = False

    @classmethod
    def ideal(cls) -> "ProgrammingConfig":
        """Perfect programming: conductances equal their targets."""
        return cls()

    def program(self, target: np.ndarray, rng=None) -> np.ndarray:
        """Run the full pipeline on one non-negative target array."""
        rng = as_generator(rng)
        target = self.device.clip(np.asarray(target, dtype=float))
        if self.quantize:
            target = quantize_conductance(target, self.device)
        if self.use_write_verify:
            programmed = write_verify(target, self.device, rng).conductance
        else:
            programmed = self.variation.apply(target, rng)
        if not self.faults.is_trivial:
            programmed = self.faults.apply(programmed, self.device, rng)
        return programmed


class CrossbarArray:
    """A signed matrix stored on a positive/negative pair of RRAM arrays.

    Use :meth:`program` to build one from a matrix; the constructor takes
    already-programmed conductances (used by tests to inject exact states).
    """

    def __init__(
        self,
        g_pos: np.ndarray,
        g_neg: np.ndarray,
        g_unit: float = PAPER_G0_SIEMENS,
        scale: float = 1.0,
        target: MappedConductances | None = None,
    ):
        g_pos = np.asarray(g_pos, dtype=float)
        g_neg = np.asarray(g_neg, dtype=float)
        if g_pos.shape != g_neg.shape:
            raise ValueError(f"g_pos/g_neg shapes differ: {g_pos.shape} vs {g_neg.shape}")
        if np.any(g_pos < 0.0) or np.any(g_neg < 0.0):
            raise ValueError("programmed conductances must be non-negative")
        self._g_pos = g_pos
        self._g_neg = g_neg
        self._g_unit = float(g_unit)
        self._scale = float(scale)
        self._target = target
        self._effective_cache: dict[ParasiticConfig, np.ndarray] = {}
        self._margin_cache: dict[ParasiticConfig, float] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def program(
        cls,
        matrix: np.ndarray,
        config: ProgrammingConfig | None = None,
        rng=None,
        *,
        g_unit: float = PAPER_G0_SIEMENS,
        pre_normalized: bool = False,
        scale: float = 1.0,
    ) -> "CrossbarArray":
        """Map and program ``matrix`` onto a dual-array pair.

        Parameters mirror :func:`repro.crossbar.mapping.map_to_conductances`
        plus the programming pipeline configuration. Two independent RNG
        children drive the positive and negative arrays so their errors
        are uncorrelated, as in hardware.
        """
        config = config or ProgrammingConfig.ideal()
        rng = as_generator(rng)
        mapped = map_to_conductances(
            matrix, g_unit, pre_normalized=pre_normalized, scale=scale
        )
        g_pos = config.program(mapped.g_pos, rng)
        g_neg = config.program(mapped.g_neg, rng)
        return cls(g_pos, g_neg, g_unit=g_unit, scale=mapped.scale, target=mapped)

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        """Matrix shape (rows = WLs, cols = BLs)."""
        return self._g_pos.shape

    @property
    def g_unit(self) -> float:
        """Unit conductance ``G0`` in siemens."""
        return self._g_unit

    @property
    def scale(self) -> float:
        """Normalization factor: stored matrix = original / scale."""
        return self._scale

    @property
    def g_pos(self) -> np.ndarray:
        """Programmed positive-part conductances (read-only view)."""
        view = self._g_pos.view()
        view.flags.writeable = False
        return view

    @property
    def g_neg(self) -> np.ndarray:
        """Programmed negative-part conductances (read-only view)."""
        view = self._g_neg.view()
        view.flags.writeable = False
        return view

    @property
    def target(self) -> MappedConductances | None:
        """The mapping targets, if the array was built via :meth:`program`."""
        return self._target

    @property
    def device_count(self) -> int:
        """Total number of RRAM cells (both arrays of the pair)."""
        return 2 * self._g_pos.size

    # ------------------------------------------------------------------
    # effective operator
    # ------------------------------------------------------------------
    def effective_matrix(self, parasitics: ParasiticConfig | None = None) -> np.ndarray:
        """The normalized signed matrix the periphery actually sees.

        ``M = (M+ - M-) / G0`` where ``M+``/``M-`` are the programmed
        conductances corrected by the configured interconnect model. With
        ideal programming and no wires this equals the normalized target
        matrix exactly. Results are cached per parasitic configuration.
        """
        return self._effective(parasitics or ParasiticConfig.ideal()).copy()

    def _effective(self, parasitics: ParasiticConfig) -> np.ndarray:
        cached = self._effective_cache.get(parasitics)
        if cached is None:
            eff_pos = effective_conductance_matrix(self._g_pos, parasitics)
            eff_neg = effective_conductance_matrix(self._g_neg, parasitics)
            cached = (eff_pos - eff_neg) / self._g_unit
            self._effective_cache[parasitics] = cached
        return cached

    def inv_margin(self, parasitics: ParasiticConfig | None = None) -> float:
        """INV stability margin of the effective matrix (cached per config).

        :func:`repro.circuits.dynamics.inv_eigenvalue_margin` of
        :meth:`effective_matrix` — the programmed array is fixed, so
        every INV operation on it (and every gain-ranging rerun) shares
        one ``eigvals`` call.
        """
        parasitics = parasitics or ParasiticConfig.ideal()
        margin = self._margin_cache.get(parasitics)
        if margin is None:
            # Deferred: repro.circuits imports this module (transient).
            from repro.circuits.dynamics import inv_eigenvalue_margin

            margin = inv_eigenvalue_margin(self._effective(parasitics))
            self._margin_cache[parasitics] = margin
        return margin

    def load_row_sums(self) -> np.ndarray:
        """Total normalized conductance loading each WL (for finite gain).

        Both arrays of the pair load the amplifier input node, so the sum
        runs over ``g_pos + g_neg`` regardless of sign.
        """
        return (self._g_pos + self._g_neg).sum(axis=1) / self._g_unit

    def load_col_sums(self) -> np.ndarray:
        """Total normalized conductance loading each BL (for drivers)."""
        return (self._g_pos + self._g_neg).sum(axis=0) / self._g_unit

    def programming_error(self) -> np.ndarray | None:
        """Signed conductance error vs target, in normalized (matrix) units.

        ``None`` when the array was constructed from raw conductances.
        """
        if self._target is None:
            return None
        ideal = self._target.reconstruct_normalized()
        actual = (self._g_pos - self._g_neg) / self._g_unit
        return actual - ideal

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        rows, cols = self.shape
        return (
            f"CrossbarArray({rows}x{cols}, g_unit={self._g_unit:.3g} S, "
            f"scale={self._scale:.3g})"
        )
