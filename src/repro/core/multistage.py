"""Multi-stage BlockAMC solver (the paper's two-stage design, Fig. 5).

For matrices whose half-size blocks still exceed the feasible array size,
the partition is applied recursively. Following the paper's architecture:

- every *first-stage* INV operation (on ``A1`` and ``A4s``) is executed
  by its own one-stage BlockAMC macro (analog inside);
- every *first-stage* MVM operation (on ``A2`` and ``A3``) is tiled over
  terminal-size arrays, with partial products digitized and summed;
- intermediates between macros round-trip through ADC -> main memory ->
  DAC ("The output results in every one-stage BlockAMC macro are
  converted and stored in the main memory", Sec. III-C), so each glue
  level adds converter quantization — an effect the ablation benches
  quantify.

``stages=2`` reproduces the paper's two-stage solver (a 256x256 system
becomes 16 arrays of 64x64); larger depths extend the same recursion, the
paper's "partitioned stage by stage" scaling argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.amc.config import HardwareConfig
from repro.amc.interfaces import ADC, DAC, quantize_voltages
from repro.amc.macro import BlockAMCMacro
from repro.amc.ops import AMCOperations, OpResult
from repro.circuits.dynamics import mvm_settling_time
from repro.core.blockamc import (
    BatchedFiveStep,
    BatchedOpSpec,
    has_per_operation_randomness,
)
from repro.core.common import (
    DEFAULT_INPUT_FRACTION,
    FactoredSystem,
    auto_range,
    auto_range_many,
    ideal_inv,
    ideal_mvm,
    input_voltage_scale,
    input_voltage_scale_many,
    inv_loading,
    inv_rhs,
    inv_system,
    mvm_raw,
    saturate,
)
from repro.core.partition import PartitionSpec, build_macro_arrays, prepare_blocks
from repro.core.solution import DigitalReference, LeanSolveResult, SolveResult
from repro.crossbar.array import CrossbarArray
from repro.crossbar.mapping import normalize_matrix
from repro.errors import SolverError, ValidationError
from repro.utils.rng import as_generator
from repro.utils.validation import check_square_matrix, check_vector


@dataclass
class _Tally:
    """Mutable accumulator of telemetry across the solver tree."""

    operations: list[OpResult] = field(default_factory=list)
    dac_conversions: int = 0
    adc_conversions: int = 0
    macro_count: int = 0
    array_count: int = 0
    device_count: int = 0


@dataclass
class _BatchTally:
    """Batched counterpart of :class:`_Tally`.

    Collects whole-batch :class:`~repro.core.blockamc.BatchedOpSpec`
    telemetry in tree-execution order — the same order a scalar solve
    appends its :class:`OpResult` objects — plus the per-solve
    conversion counts (batch-invariant by construction).
    """

    specs: list[BatchedOpSpec] = field(default_factory=list)
    dac_conversions: int = 0
    adc_conversions: int = 0


class _TiledMVM:
    """A (possibly rectangular) block tiled over terminal-size arrays.

    ``apply`` computes ``block @ v`` by running one analog MVM per tile,
    digitizing each partial product, and summing digitally.
    """

    def __init__(self, block: np.ndarray, tile: int, config: HardwareConfig, rng):
        if tile < 1:
            raise SolverError(f"tile size must be >= 1, got {tile}")
        self.config = config
        self.ops = AMCOperations(config)
        self.rows, self.cols = block.shape
        self.row_starts = list(range(0, self.rows, tile))
        self.col_starts = list(range(0, self.cols, tile))
        self.arrays: dict[tuple[int, int], CrossbarArray] = {}
        self.skipped_tiles = 0
        self._batch_tiles: list | None = None
        for ri, r0 in enumerate(self.row_starts):
            for ci, c0 in enumerate(self.col_starts):
                sub = block[r0 : r0 + tile, c0 : c0 + tile]
                if not np.any(sub):
                    # An all-zero tile needs no array at all (e.g. the
                    # off-diagonal blocks of triangular or banded
                    # systems) — the partial product is exactly zero.
                    self.skipped_tiles += 1
                    continue
                self.arrays[(ri, ci)] = CrossbarArray.program(
                    sub,
                    config.programming,
                    rng,
                    g_unit=config.g_unit,
                    pre_normalized=True,
                )

    @property
    def array_count(self) -> int:
        """Number of tile array pairs."""
        return len(self.arrays)

    @property
    def device_count(self) -> int:
        """Total RRAM cells across all tiles."""
        return sum(a.device_count for a in self.arrays.values())

    def apply(self, v: np.ndarray, fraction: float, tally: _Tally, rng) -> np.ndarray:
        """Return ``block @ v`` (digital in, digital out), with gain ranging."""
        v = check_vector(v, "v", size=self.cols)
        dac = DAC(self.config.converters)
        adc = ADC(self.config.converters)
        v_fs = self.config.converters.v_fs

        def run(k):
            tile_cols = len(self.col_starts)
            v_chunks = []
            for ci in range(tile_cols):
                c0 = self.col_starts[ci]
                c1 = self.col_starts[ci + 1] if ci + 1 < tile_cols else self.cols
                v_chunks.append(dac.convert(k * v[c0:c1]))

            out = np.zeros(self.rows)
            ops: list[OpResult] = []
            peak = 0.0
            for ri, r0 in enumerate(self.row_starts):
                r1 = self.row_starts[ri + 1] if ri + 1 < len(self.row_starts) else self.rows
                acc = np.zeros(r1 - r0)
                for ci in range(tile_cols):
                    if (ri, ci) not in self.arrays:
                        continue  # all-zero tile: partial product is zero
                    op = self.ops.mvm(
                        self.arrays[(ri, ci)],
                        v_chunks[ci],
                        label=f"tile-mvm[{ri},{ci}]",
                        rng=rng,
                    )
                    ops.append(op)
                    peak = max(peak, float(np.max(np.abs(op.output))))
                    # Each partial product is digitized before the digital
                    # sum (circuit sign removed digitally).
                    acc = acc - adc.convert(op.output)
                out[r0:r1] = acc
            return peak, (out, ops)

        k0 = input_voltage_scale(v, v_fs, fraction)
        (out, ops), k = auto_range(run, k0, v_fs)
        tally.operations.extend(ops)
        tally.dac_conversions += len(self.col_starts)
        tally.adc_conversions += len(ops)
        return out / k

    def apply_many(
        self, v_rows: np.ndarray, fraction: float, tally: _BatchTally, rng
    ) -> np.ndarray:
        """Row-stacked :meth:`apply`: ``block @ v`` per row, ranged per row.

        Each tile's MVM runs once for the whole batch through the
        shared multi-RHS kernel (offsets drawn through the node's own
        op-amp cache in scalar tile order), so row ``c`` is
        bit-identical to a scalar :meth:`apply` of ``v_rows[c]``.
        """
        config = self.config
        conv = config.converters
        v_fs = conv.v_fs
        a0 = config.opamp.open_loop_gain
        v_sat = config.opamp.v_sat
        gbwp = config.opamp.gbwp_hz
        tile_cols = len(self.col_starts)
        col_bounds = list(
            zip(self.col_starts, self.col_starts[1:] + [self.cols])
        )

        if self._batch_tiles is None:
            # Batch-invariant per-tile data (effective matrices, load
            # sums, settling analysis), built once per node and reused
            # by every batch — visited in the scalar loop's (ri, ci)
            # order so first-use offset draws replay the scalar rng
            # stream exactly (offsets come from the node's own
            # quasi-static cache, shared with the scalar path).
            row_bounds = list(
                zip(self.row_starts, self.row_starts[1:] + [self.rows])
            )
            bk = config.resolve_backend()
            self._batch_tiles = [
                (
                    ri,
                    ci,
                    r0,
                    r1,
                    array,
                    # Analog operands at the backend tier (identity on
                    # float64); ideal matrix and settle stay float64.
                    bk.cast(array.effective_matrix(config.parasitics)),
                    bk.cast(array.load_row_sums()),
                    bk.cast(self.ops._draw_offsets(array.shape[0], rng)),
                    array.ideal_matrix(),
                    mvm_settling_time(
                        np.asarray(array.g_pos) + np.asarray(array.g_neg),
                        array.g_unit,
                        gbwp,
                    ),
                )
                for ri, (r0, r1) in enumerate(row_bounds)
                for ci in range(tile_cols)
                # all-zero tiles have no array: partial product is zero
                if (array := self.arrays.get((ri, ci))) is not None
            ]
        tiles = self._batch_tiles
        cast = config.resolve_backend().cast

        def run_subset(k, indices):
            chunks = [
                cast(
                    quantize_voltages(
                        k[:, None] * v_rows[indices, c0:c1], conv.dac_bits, v_fs
                    )
                )
                for c0, c1 in col_bounds
            ]
            out = np.zeros((indices.size, self.rows))
            payload = {}
            peaks = np.zeros(indices.size)
            for ti, (ri, ci, r0, r1, array, eff, loads, offsets, _, _) in enumerate(
                tiles
            ):
                raw = mvm_raw(eff, loads, chunks[ci], offsets, a0)
                clipped, sat = saturate(raw, v_sat)
                payload[f"tile{ti}"] = clipped
                payload[f"tsat{ti}"] = sat
                peaks = np.maximum(peaks, np.max(np.abs(clipped), axis=1))
                # Each partial product is digitized before the digital
                # sum (circuit sign removed digitally).
                out[:, r0:r1] -= quantize_voltages(clipped, conv.adc_bits, v_fs)
            for ci, chunk in enumerate(chunks):
                payload[f"chunk{ci}"] = chunk
            payload["out"] = out
            return peaks, payload

        k0 = input_voltage_scale_many(v_rows, v_fs, fraction)
        final, final_k = auto_range_many(run_subset, k0, v_fs)
        for ti, (ri, ci, r0, r1, array, eff, loads, offsets, ideal_m, settle) in (
            enumerate(tiles)
        ):
            tally.specs.append(
                BatchedOpSpec(
                    label=f"tile-mvm[{ri},{ci}]",
                    kind="mvm",
                    outputs=final[f"tile{ti}"],
                    ideal=ideal_mvm(ideal_m, final[f"chunk{ci}"]),
                    settling_time_s=settle,
                    saturated=final[f"tsat{ti}"],
                    rows=array.shape[0],
                    cols=array.shape[1],
                    device_count=array.device_count,
                )
            )
        tally.dac_conversions += tile_cols
        tally.adc_conversions += len(tiles)
        return final["out"] / final_k[:, None]


class _MacroNode:
    """Terminal solver node: a one-stage BlockAMC macro for one block."""

    def __init__(
        self,
        block: np.ndarray,
        config: HardwareConfig,
        partition: PartitionSpec,
        fraction: float,
        rng,
    ):
        self.config = config
        self.fraction = fraction
        normalized, self.scale = normalize_matrix(block)
        blocks = prepare_blocks(normalized, partition)
        self.split = blocks.split
        arrays = build_macro_arrays(blocks, config, rng)
        self.macro = BlockAMCMacro(arrays, config)
        self._engine: BatchedFiveStep | None = None

    @property
    def device_count(self) -> int:
        return self.macro.device_count

    def count_resources(self, tally: _Tally) -> None:
        tally.macro_count += 1
        tally.array_count += 4
        tally.device_count += self.macro.device_count

    def solve(self, rhs: np.ndarray, tally: _Tally, rng) -> np.ndarray:
        """Solve ``block @ x = rhs`` (digital in, digital out), with ranging."""
        v_fs = self.config.converters.v_fs

        def run(k):
            v_b = k * rhs
            result = self.macro.solve(v_b[: self.split], v_b[self.split :], rng)
            peak = max(float(np.max(np.abs(step.output))) for step in result.steps)
            return peak, result

        k0 = input_voltage_scale(rhs, v_fs, self.fraction)
        result, k = auto_range(run, k0, v_fs)
        tally.operations.extend(result.steps)
        tally.dac_conversions += 2
        tally.adc_conversions += 2
        return result.solution / (k * self.scale)

    def solve_many(
        self, rhs_rows: np.ndarray, tally: _BatchTally, rng
    ) -> np.ndarray:
        """Row-stacked :meth:`solve` through the shared five-step engine.

        One :class:`~repro.core.blockamc.BatchedFiveStep` is built per
        node (offsets drawn through the macro's own cache in scalar
        step order, factorizations and settling analysis shared), then
        reused by every batch — including the two visits the glue
        recursion pays this node per solve.
        """
        if self._engine is None:
            self._engine = BatchedFiveStep(self.macro, rng)
        engine = self._engine
        final, final_k = engine.run(rhs_rows, self.fraction)
        tally.specs.extend(engine.step_specs(final))
        tally.dac_conversions += 2
        tally.adc_conversions += 2
        x_upper = -engine.digitize(final["s5"])
        x_lower = engine.digitize(final["s3"])
        solution = np.concatenate([x_upper, x_lower], axis=1)
        return solution / engine.backend.cast(final_k * self.scale)[:, None]


class _DirectInvNode:
    """Fallback terminal node for blocks too small to partition (n < 2)."""

    def __init__(self, block: np.ndarray, config: HardwareConfig, fraction: float, rng):
        self.config = config
        self.fraction = fraction
        normalized, self.scale = normalize_matrix(block)
        self.array = CrossbarArray.program(
            normalized, config.programming, rng, g_unit=config.g_unit, pre_normalized=True
        )
        self.ops = AMCOperations(config)
        self._batch_state: tuple | None = None

    def count_resources(self, tally: _Tally) -> None:
        tally.array_count += 1
        tally.device_count += self.array.device_count

    def solve(self, rhs: np.ndarray, tally: _Tally, rng) -> np.ndarray:
        dac = DAC(self.config.converters)
        adc = ADC(self.config.converters)
        v_fs = self.config.converters.v_fs

        def run(k):
            op = self.ops.inv(self.array, dac.convert(k * rhs), label="direct-inv", rng=rng)
            return float(np.max(np.abs(op.output))), op

        k0 = input_voltage_scale(rhs, v_fs, self.fraction)
        op, k = auto_range(run, k0, v_fs)
        tally.operations.append(op)
        tally.dac_conversions += 1
        tally.adc_conversions += 1
        return -adc.convert(op.output) / (k * self.scale)

    def solve_many(
        self, rhs_rows: np.ndarray, tally: _BatchTally, rng
    ) -> np.ndarray:
        """Row-stacked :meth:`solve`: one INV factorization, many columns.

        The factored finite-gain system and settling estimate are
        batch-invariant — built on first use, reused by every later
        batch (offsets come from the node's quasi-static cache, shared
        with the scalar path; the ideal-output LU is the array's own).
        """
        config = self.config
        conv = config.converters
        v_fs = conv.v_fs
        rows, cols = self.array.shape
        bk = config.resolve_backend()
        if self._batch_state is None:
            effective = self.array.effective_matrix(config.parasitics)
            # Settling analysis runs on the float64 matrix; the solve
            # state drops to the backend tier (identity on float64).
            loading = inv_loading(bk.cast(self.array.load_row_sums()), 1.0)
            self._batch_state = (
                bk.cast(self.ops._draw_offsets(rows, rng)),
                loading,
                FactoredSystem(
                    inv_system(bk.cast(effective), loading, config.opamp.open_loop_gain)
                ),
                self.ops._inv_settle(self.array),
            )
        offsets, loading, fact, settle = self._batch_state

        def run_subset(k, indices):
            v_in = bk.cast(
                quantize_voltages(k[:, None] * rhs_rows[indices], conv.dac_bits, v_fs)
            )
            raw = fact.solve(inv_rhs(v_in, loading, offsets, 1.0))
            clipped, sat = saturate(raw, config.opamp.v_sat)
            peaks = np.max(np.abs(clipped), axis=1)
            return peaks, {"out": clipped, "v_in": v_in, "sat": sat}

        k0 = input_voltage_scale_many(rhs_rows, v_fs, self.fraction)
        final, final_k = auto_range_many(run_subset, k0, v_fs)
        tally.specs.append(
            BatchedOpSpec(
                label="direct-inv",
                kind="inv",
                outputs=final["out"],
                ideal=ideal_inv(self.array.ideal_system(), final["v_in"]),
                settling_time_s=settle,
                saturated=final["sat"],
                rows=rows,
                cols=cols,
                device_count=self.array.device_count,
            )
        )
        tally.dac_conversions += 1
        tally.adc_conversions += 1
        digitized = quantize_voltages(final["out"], conv.adc_bits, v_fs)
        return -digitized / bk.cast(final_k * self.scale)[:, None]


class _DigitalGlueNode:
    """Non-terminal node: the five-step algorithm with digital glue."""

    def __init__(
        self,
        block: np.ndarray,
        depth_remaining: int,
        config: HardwareConfig,
        partition: PartitionSpec,
        fraction: float,
        rng,
    ):
        self.config = config
        self.fraction = fraction
        normalized, self.scale = normalize_matrix(block)
        blocks = prepare_blocks(normalized, partition)
        self.split = blocks.split
        self.blocks = blocks
        n = normalized.shape[0]
        # Terminal arrays are the size the deepest partition produces.
        tile = max(1, (n + (1 << depth_remaining) - 1) >> depth_remaining)
        self.upper = _build_node(
            blocks.a1, depth_remaining - 1, config, partition, fraction, rng
        )
        self.lower = _build_node(
            blocks.a4s, depth_remaining - 1, config, partition, fraction, rng
        )
        self.tiles_a2 = _TiledMVM(blocks.a2, tile, config, rng)
        self.tiles_a3 = _TiledMVM(blocks.a3, tile, config, rng)

    def count_resources(self, tally: _Tally) -> None:
        self.upper.count_resources(tally)
        self.lower.count_resources(tally)
        tally.array_count += self.tiles_a2.array_count + self.tiles_a3.array_count
        tally.device_count += self.tiles_a2.device_count + self.tiles_a3.device_count

    def solve(self, rhs: np.ndarray, tally: _Tally, rng) -> np.ndarray:
        """Solve ``block @ x = rhs`` (digital in, digital out)."""
        rhs_n = np.asarray(rhs, dtype=float) / self.scale
        f = rhs_n[: self.split]
        g = rhs_n[self.split :]

        y_t = self.upper.solve(f, tally, rng)
        g_t = self.tiles_a3.apply(y_t, self.fraction, tally, rng)
        z = self.lower.solve(g - g_t, tally, rng)
        f_t = self.tiles_a2.apply(z, self.fraction, tally, rng)
        y = self.upper.solve(f - f_t, tally, rng)
        return np.concatenate([y, z])

    def solve_many(
        self, rhs_rows: np.ndarray, tally: _BatchTally, rng
    ) -> np.ndarray:
        """Row-stacked :meth:`solve`: the recursion stays matrix-valued.

        The five-step glue schedule runs once with ``(batch, n)``
        blocks flowing between child nodes — every digital combination
        is element-wise (bitwise batch-stable) and every analog stage
        delegates to the shared multi-RHS kernel, so row ``c`` is
        bit-identical to a scalar :meth:`solve` of ``rhs_rows[c]``.
        """
        rhs_n = np.asarray(rhs_rows, dtype=float) / self.scale
        f = rhs_n[:, : self.split]
        g = rhs_n[:, self.split :]

        y_t = self.upper.solve_many(f, tally, rng)
        g_t = self.tiles_a3.apply_many(y_t, self.fraction, tally, rng)
        z = self.lower.solve_many(g - g_t, tally, rng)
        f_t = self.tiles_a2.apply_many(z, self.fraction, tally, rng)
        y = self.upper.solve_many(f - f_t, tally, rng)
        return np.concatenate([y, z], axis=1)


def _build_node(block, depth_remaining, config, partition, fraction, rng):
    block = np.asarray(block, dtype=float)
    if block.shape[0] < 2:
        return _DirectInvNode(block, config, fraction, rng)
    if depth_remaining <= 1:
        return _MacroNode(block, config, partition, fraction, rng)
    return _DigitalGlueNode(block, depth_remaining, config, partition, fraction, rng)


@dataclass(frozen=True)
class PreparedMultiStage(DigitalReference):
    """A programmed multi-stage solver bound to one matrix."""

    matrix: np.ndarray
    root: object
    stages: int

    def solve(self, b: np.ndarray, rng=None) -> SolveResult:
        """Solve ``A x = b`` on the programmed solver tree."""
        n = self.matrix.shape[0]
        b = check_vector(b, "b", size=n)
        rng = as_generator(rng)

        tally = _Tally()
        x = self.root.solve(b, tally, rng)
        self.root.count_resources(tally)

        return SolveResult(
            x=x,
            reference=self.reference_solve(b),
            solver=f"blockamc-{self.stages}stage",
            operations=tuple(tally.operations),
            metadata={
                "stages": self.stages,
                "macro_count": tally.macro_count,
                "array_count": tally.array_count,
                "device_count": tally.device_count,
                "dac_conversions": tally.dac_conversions,
                "adc_conversions": tally.adc_conversions,
            },
        )

    def solve_many(
        self, rhs_batch, rng=None, *, lean: bool = False
    ) -> tuple[SolveResult, ...]:
        """Solve a batch of right-hand sides on the programmed tree.

        Programming the whole solver tree — including every tile array's
        variation draw and parasitic extraction — happened once in
        :meth:`MultiStageSolver.prepare`; this method amortizes that
        setup across the batch *and* runs the recursion matrix-valued:
        ``(batch, n)`` blocks flow through the digital glue, every
        macro node executes the five-step schedule once per batch
        through :class:`~repro.core.blockamc.BatchedFiveStep` (factor
        once, per-column ``getrs``), and tile MVMs run the shared
        multi-RHS kernel. Results are **bit-identical** to a sequential
        loop of :meth:`solve` calls — the same contract (and the same
        transparent fallback rules) as
        :meth:`~repro.core.blockamc.PreparedBlockAMC.solve_many`:
        configurations whose per-operation randomness cannot be shared
        across a batch (MNA routing, output or sample-and-hold noise)
        fall back to that loop.

        With ``lean=True`` the per-result payload is a
        :class:`~repro.core.solution.LeanSolveResult` (same solution
        bits, no per-operation OpResult construction).
        """
        rhs_list = [np.asarray(b, dtype=float) for b in rhs_batch]
        if not rhs_list:
            raise ValidationError("rhs_batch must contain at least one vector")
        n = self.matrix.shape[0]
        bs = np.stack([check_vector(b, "b", size=n) for b in rhs_list])
        rng = as_generator(rng)
        if has_per_operation_randomness(self.root.config):
            results = tuple(self.solve(b, rng) for b in bs)
            if lean:
                return tuple(LeanSolveResult.from_result(r) for r in results)
            return results

        batch = bs.shape[0]
        tally = _BatchTally()
        x = self.root.solve_many(bs, tally, rng)
        counts = _Tally()
        self.root.count_resources(counts)
        counts.dac_conversions = tally.dac_conversions
        counts.adc_conversions = tally.adc_conversions
        references = self.reference_solve(bs)
        solver = f"blockamc-{self.stages}stage"
        metadata_common = {
            "stages": self.stages,
            "macro_count": counts.macro_count,
            "array_count": counts.array_count,
            "device_count": counts.device_count,
            "dac_conversions": counts.dac_conversions,
            "adc_conversions": counts.adc_conversions,
        }

        if lean:
            # Same left-fold summation order as SolveResult.analog_time_s.
            analog_total = float(
                sum(spec.settling_time_s for spec in tally.specs)
            )
            saturated = np.zeros(batch, dtype=bool)
            for spec in tally.specs:
                saturated |= spec.saturated
            return tuple(
                LeanSolveResult(
                    x=x[c],
                    reference=references[c],
                    solver=solver,
                    saturated=bool(saturated[c]),
                    analog_time_s=analog_total,
                    metadata={},
                )
                for c in range(batch)
            )

        return tuple(
            SolveResult(
                x=x[c],
                reference=references[c],
                solver=solver,
                operations=tuple(spec.op_result(c) for spec in tally.specs),
                metadata=dict(metadata_common),
            )
            for c in range(batch)
        )


class MultiStageSolver:
    """Recursive BlockAMC: ``stages`` levels of divide-and-conquer.

    ``stages=1`` is the one-stage solver (a single macro); ``stages=2``
    reproduces the paper's two-stage architecture.
    """

    def __init__(
        self,
        config: HardwareConfig | None = None,
        stages: int = 2,
        partition: PartitionSpec | None = None,
        input_fraction: float = DEFAULT_INPUT_FRACTION,
    ):
        if stages < 1:
            raise SolverError(f"stages must be >= 1, got {stages}")
        self.config = config or HardwareConfig.ideal()
        self.stages = stages
        self.partition = partition or PartitionSpec()
        self.input_fraction = input_fraction

    @property
    def name(self) -> str:
        """Solver identifier used in reports."""
        return f"blockamc-{self.stages}stage"

    def prepare(self, matrix: np.ndarray, rng=None) -> PreparedMultiStage:
        """Preprocess and program the whole solver tree for ``matrix``."""
        matrix = check_square_matrix(matrix)
        rng = as_generator(rng)
        root = _build_node(
            matrix, self.stages, self.config, self.partition, self.input_fraction, rng
        )
        return PreparedMultiStage(matrix=matrix, root=root, stages=self.stages)

    def solve(self, matrix: np.ndarray, b: np.ndarray, rng=None) -> SolveResult:
        """Program the solver tree and solve ``A x = b`` in one call."""
        rng = as_generator(rng)
        prepared = self.prepare(matrix, rng)
        return prepared.solve(b, rng)
