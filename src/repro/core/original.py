"""Baseline: the original (monolithic) AMC solver.

One large INV circuit (Fig. 1b) holding the whole matrix in a single
array pair — the design BlockAMC is compared against throughout the
paper's evaluation. Subject to exactly the same non-idealities, but at
full array size, which is what degrades its accuracy and inflates its
periphery cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.amc.config import HardwareConfig
from repro.amc.interfaces import ADC, DAC
from repro.amc.ops import AMCOperations
from repro.core.common import (
    DEFAULT_INPUT_FRACTION,
    auto_range,
    input_voltage_scale,
)
from repro.core.solution import DigitalReference, SolveResult
from repro.crossbar.array import CrossbarArray
from repro.crossbar.mapping import normalize_matrix
from repro.utils.rng import as_generator
from repro.utils.validation import check_square_matrix, check_vector


@dataclass(frozen=True)
class PreparedOriginalAMC(DigitalReference):
    """A programmed monolithic INV solver bound to one matrix."""

    matrix: np.ndarray
    scale: float
    array: CrossbarArray
    ops: AMCOperations
    input_fraction: float

    def solve(self, b: np.ndarray, rng=None) -> SolveResult:
        """Solve ``A x = b`` on the programmed array."""
        n = self.matrix.shape[0]
        b = check_vector(b, "b", size=n)
        rng = as_generator(rng)

        config = self.ops.config
        dac = DAC(config.converters)
        adc = ADC(config.converters)
        v_fs = config.converters.v_fs

        def run(k):
            v_in = dac.convert(k * b)
            op = self.ops.inv(self.array, v_in, label="INV(A)", rng=rng)
            return float(np.max(np.abs(op.output))), op

        k0 = input_voltage_scale(b, v_fs, self.input_fraction)
        op, k = auto_range(run, k0, v_fs)
        # The circuit returns -A_n^-1 v_in; undo sign and scaling digitally.
        x = -adc.convert(op.output) / (k * self.scale)

        return SolveResult(
            x=x,
            reference=self.reference_solve(b),
            solver="original-amc",
            operations=(op,),
            metadata={
                "scale": self.scale,
                "input_scale": k,
                "opa_count": n,
                "dac_count": n,
                "adc_count": n,
                "device_count": self.array.device_count,
                "dac_conversions": 1,
                "adc_conversions": 1,
            },
        )


class OriginalAMCSolver:
    """Solve linear systems with a single full-size INV circuit."""

    name = "original-amc"

    def __init__(
        self,
        config: HardwareConfig | None = None,
        input_fraction: float = DEFAULT_INPUT_FRACTION,
    ):
        self.config = config or HardwareConfig.ideal()
        self.input_fraction = input_fraction

    def prepare(self, matrix: np.ndarray, rng=None) -> PreparedOriginalAMC:
        """Normalize and program the full matrix into one array pair."""
        matrix = check_square_matrix(matrix)
        rng = as_generator(rng)
        normalized, scale = normalize_matrix(matrix)
        array = CrossbarArray.program(
            normalized,
            self.config.programming,
            rng,
            g_unit=self.config.g_unit,
            pre_normalized=True,
        )
        return PreparedOriginalAMC(
            matrix=matrix,
            scale=scale,
            array=array,
            ops=AMCOperations(self.config),
            input_fraction=self.input_fraction,
        )

    def solve(self, matrix: np.ndarray, b: np.ndarray, rng=None) -> SolveResult:
        """Program the array and solve ``A x = b`` in one call."""
        rng = as_generator(rng)
        prepared = self.prepare(matrix, rng)
        return prepared.solve(b, rng)
