"""One-stage BlockAMC solver (the paper's main design, Figs. 2-4).

:class:`BlockAMCSolver` normalizes the matrix, runs the digital Schur
preprocessing, programs the four arrays of a
:class:`~repro.amc.macro.BlockAMCMacro`, executes the five-step analog
schedule, and recovers the digital solution.

Typical use::

    solver = BlockAMCSolver(HardwareConfig.paper_variation())
    result = solver.solve(matrix, b, rng=0)
    print(result.relative_error)

``prepare`` / ``PreparedBlockAMC.solve`` split programming from
execution for workloads that solve many right-hand sides against one
matrix (programming — and its variation draw — happens once).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.amc.config import HardwareConfig
from repro.amc.interfaces import quantize_voltages
from repro.amc.macro import BlockAMCMacro
from repro.amc.ops import OpResult
from repro.circuits.dynamics import mvm_settling_time
from repro.amc.scheduler import ScheduleResult, simulate_schedule
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
    snh_cascade,
)
from repro.core.partition import PartitionSpec, build_macro_arrays, prepare_blocks
from repro.core.solution import DigitalReference, LeanSolveResult, SolveResult
from repro.crossbar.mapping import normalize_matrix
from repro.errors import ValidationError
from repro.utils.rng import as_generator
from repro.utils.validation import check_square_matrix, check_vector


def has_per_operation_randomness(config: HardwareConfig) -> bool:
    """True when a configuration draws fresh randomness per analog op.

    MNA routing, op-amp output noise, and sample-and-hold noise all
    consume the generator once per operation (and per gain-ranging
    attempt), so a single batched pass cannot replay the sequential
    stream. This is the **single** predicate behind every multi-RHS
    batching decision: :meth:`PreparedBlockAMC.solve_many` and
    :meth:`~repro.core.multistage.PreparedMultiStage.solve_many` fall
    back to the sequential loop when it holds, and the serve layer
    (:mod:`repro.serve.cache`) refuses to coalesce such entries — keep
    the three sites in agreement by keeping them on this function.
    """
    return (
        config.use_mna
        or config.opamp.output_noise_sigma_v > 0.0
        or config.sample_hold.noise_sigma_v > 0.0
    )


@dataclass(frozen=True)
class BatchedOpSpec:
    """One analog operation's telemetry, stacked over a batch.

    The batched engines compute whole-batch outputs; result assembly
    slices per-column :class:`~repro.amc.ops.OpResult` objects out of
    these specs so a batched solve reports exactly the telemetry a
    scalar solve would.
    """

    label: str
    kind: str
    outputs: np.ndarray  # (batch, rows)
    ideal: np.ndarray  # (batch, rows)
    settling_time_s: float
    saturated: np.ndarray  # (batch,)
    rows: int
    cols: int
    device_count: int

    def op_result(self, c: int) -> OpResult:
        """The column-``c`` slice as a scalar-shaped :class:`OpResult`."""
        return OpResult(
            kind=self.kind,
            label=self.label,
            output=self.outputs[c],
            ideal_output=self.ideal[c],
            settling_time_s=self.settling_time_s,
            saturated=bool(self.saturated[c]),
            rows=self.rows,
            cols=self.cols,
            opa_count=self.rows,
            device_count=self.device_count,
        )


class BatchedFiveStep:
    """The five-step schedule with matrix-valued intermediates.

    Bound to one programmed :class:`~repro.amc.macro.BlockAMCMacro`,
    this engine holds everything batch-invariant about the schedule —
    effective matrices, the two INV-system factorizations (factor once,
    per-column ``getrs``; the ideal-output LUs are the arrays' own, see
    :meth:`~repro.crossbar.array.CrossbarArray.ideal_system`), the
    settling analysis, and the quasi-static
    op-amp offsets (drawn through the macro's own offset cache in exact
    scalar stream order) — and executes a whole ``(batch, n)`` block of
    right-hand sides per :meth:`run` call, gain-ranging each column
    independently. Every step goes through the shared kernel of
    :mod:`repro.core.common`, so column ``c`` of a batch is bit-identical
    to a scalar :meth:`BlockAMCMacro.solve` of the same vector.

    Both multi-RHS consumers delegate here:
    :meth:`PreparedBlockAMC.solve_many` and the multi-stage solver's
    macro nodes (:mod:`repro.core.multistage`).
    """

    def __init__(self, macro: BlockAMCMacro, rng):
        self.macro = macro
        config = macro.config
        arrays = macro.arrays
        ops = macro.ops
        par = config.parasitics
        a1, a2, a3, a4s = arrays.a1, arrays.a2, arrays.a3, arrays.a4s
        self.eff1 = a1.effective_matrix(par)
        self.eff2 = a2.effective_matrix(par)
        self.eff3 = a3.effective_matrix(par)
        self.eff4 = a4s.effective_matrix(par)
        self.load2, self.load3 = a2.load_row_sums(), a3.load_row_sums()
        load1, load4 = a1.load_row_sums(), a4s.load_row_sums()
        # Offsets draw per column size on first use, exactly like the
        # scalar schedule's step 1 (upper) then step 2 (lower).
        self.off_k = ops._draw_offsets(arrays.upper_size, rng)
        self.off_m = ops._draw_offsets(arrays.lower_size, rng)
        self.split = arrays.upper_size
        self.s_in = arrays.schur_input_scale
        self.a0 = config.opamp.open_loop_gain
        self.v_sat = config.opamp.v_sat
        self.conv = config.converters
        self.snh_error = config.sample_hold.gain_error
        gbwp = config.opamp.gbwp_hz
        self.settle = {
            1: ops._inv_settle(a1),
            2: mvm_settling_time(
                np.asarray(a3.g_pos) + np.asarray(a3.g_neg), a3.g_unit, gbwp
            ),
            3: ops._inv_settle(a4s),
            4: mvm_settling_time(
                np.asarray(a2.g_pos) + np.asarray(a2.g_neg), a2.g_unit, gbwp
            ),
        }
        self.settle[5] = self.settle[1]
        # One INV stage each for A1 (steps 1/5) and A4s (step 3): the
        # finite-gain system is assembled and LU-factored once for the
        # whole batch; back-substitution happens per column, so results
        # stay bit-identical to per-RHS scalar solves.
        self.loading1 = inv_loading(load1, 1.0)
        self.loading4 = inv_loading(load4, self.s_in)
        self.fact1 = FactoredSystem(inv_system(self.eff1, self.loading1, self.a0))
        self.fact4 = FactoredSystem(inv_system(self.eff4, self.loading4, self.a0))

    def digitize(self, voltages: np.ndarray) -> np.ndarray:
        """ADC model (the shared shape-generic converter)."""
        return quantize_voltages(voltages, self.conv.adc_bits, self.conv.v_fs)

    def run(self, bs: np.ndarray, input_fraction: float):
        """Execute the schedule for row-stacked ``bs``; gain-range per column.

        Returns ``(final, final_k)`` from
        :func:`repro.core.common.auto_range_many`: the accepted step
        outputs/inputs (``s1``..``s5``, ``in1``..``in5``, ``f``, ``g``,
        ``sat``) and the accepted per-column input scales.
        """
        v_fs = self.conv.v_fs
        split = self.split
        fact1, fact4 = self.fact1, self.fact4
        loading1, loading4 = self.loading1, self.loading4
        off_k, off_m = self.off_k, self.off_m
        v_sat, a0, snh_error = self.v_sat, self.a0, self.snh_error

        def inv_step(fact, loading, off, v_in, input_scale):
            return saturate(fact.solve(inv_rhs(v_in, loading, off, input_scale)), v_sat)

        def mvm_step(eff, load, off, v_in):
            return saturate(mvm_raw(eff, load, v_in, off, a0), v_sat)

        def quantize(v, bits):
            # Shared shape-generic converter model (amc.interfaces).
            return quantize_voltages(v, bits, v_fs)

        def run_subset(k, indices):
            f = k[:, None] * bs[indices, :split]
            g = k[:, None] * bs[indices, split:]
            # DAC outputs; ``f``/``g`` are kept for the exact per-step
            # references.
            v_f = quantize(f, self.conv.dac_bits)
            v_g = quantize(g, self.conv.dac_bits)
            s1, sat1 = inv_step(fact1, loading1, off_k, v_f, 1.0)
            h1 = snh_cascade(s1, snh_error)
            s2, sat2 = mvm_step(self.eff3, self.load3, off_m, h1)
            h2 = snh_cascade(s2, snh_error)
            s3, sat3 = inv_step(fact4, loading4, off_m, h2 - v_g, self.s_in)
            h3 = snh_cascade(s3, snh_error)
            s4, sat4 = mvm_step(self.eff2, self.load2, off_k, h3)
            h4 = snh_cascade(s4, snh_error)
            s5, sat5 = inv_step(fact1, loading1, off_k, v_f + h4, 1.0)
            outs = np.concatenate([s1, s2, s3, s4, s5], axis=1)
            peaks = np.max(np.abs(outs), axis=1)
            payload = {
                "s1": s1, "s2": s2, "s3": s3, "s4": s4, "s5": s5,
                "in1": v_f, "in2": h1, "in3": h2 - v_g, "in4": h3,
                "in5": v_f + h4, "f": f, "g": g,
                "sat": np.stack([sat1, sat2, sat3, sat4, sat5], axis=1),
            }
            return peaks, payload

        k0 = input_voltage_scale_many(bs, v_fs, input_fraction)
        return auto_range_many(run_subset, k0, v_fs)

    def step_specs(self, final: dict) -> tuple[BatchedOpSpec, ...]:
        """Per-step batched telemetry for the accepted attempt.

        Ideal (perfect-circuit) outputs are computed from the accepted
        inputs through the arrays' cached ideal matrices and LUs — the
        same objects the scalar ops use, so no call here factors.
        """
        arrays = self.macro.arrays
        a1, a2, a3, a4s = arrays.a1, arrays.a2, arrays.a3, arrays.a4s
        sat = final["sat"]
        steps = (
            ("step1:INV(A1)", "inv", "s1",
             ideal_inv(a1.ideal_system(), final["in1"]), 1, a1),
            ("step2:MVM(A3)", "mvm", "s2",
             ideal_mvm(a3.ideal_matrix(), final["in2"]), 2, a3),
            ("step3:INV(A4s)", "inv", "s3",
             ideal_inv(a4s.ideal_system(), final["in3"], self.s_in), 3, a4s),
            ("step4:MVM(A2)", "mvm", "s4",
             ideal_mvm(a2.ideal_matrix(), final["in4"]), 4, a2),
            ("step5:INV(A1)", "inv", "s5",
             ideal_inv(a1.ideal_system(), final["in5"]), 5, a1),
        )
        return tuple(
            BatchedOpSpec(
                label=label,
                kind=kind,
                outputs=final[out_key],
                ideal=ideal,
                settling_time_s=self.settle[num],
                saturated=sat[:, num - 1],
                rows=array.shape[0],
                cols=array.shape[1],
                device_count=array.device_count,
            )
            for label, kind, out_key, ideal, num, array in steps
        )


@dataclass(frozen=True)
class PreparedBlockAMC(DigitalReference):
    """A programmed one-stage solver bound to one matrix."""

    matrix: np.ndarray
    scale: float
    macro: BlockAMCMacro
    split: int
    schur_scale: float
    input_fraction: float

    def solve(self, b: np.ndarray, rng=None) -> SolveResult:
        """Solve ``A x = b`` for a new right-hand side on the programmed arrays.

        Uses analog gain ranging: if any step's output approaches the
        converter full scale, the input scale is reduced and the analog
        pipeline rerun (see :func:`repro.core.common.auto_range`).
        """
        n = self.matrix.shape[0]
        b = check_vector(b, "b", size=n)
        rng = as_generator(rng)
        v_fs = self.macro.config.converters.v_fs

        def run(k):
            v_b = k * b
            result = self.macro.solve(v_b[: self.split], v_b[self.split :], rng)
            peak = max(float(np.max(np.abs(step.output))) for step in result.steps)
            return peak, result

        k0 = input_voltage_scale(b, v_fs, self.input_fraction)
        macro_result, k = auto_range(run, k0, v_fs)
        x = macro_result.solution / (k * self.scale)

        return SolveResult(
            x=x,
            reference=self.reference_solve(b),
            solver="blockamc-1stage",
            operations=macro_result.steps,
            metadata={
                "scale": self.scale,
                "input_scale": k,
                "split": self.split,
                "schur_scale": self.schur_scale,
                "opa_count": self.macro.opa_count,
                "dac_count": self.macro.dac_count,
                "adc_count": self.macro.adc_count,
                "device_count": self.macro.device_count,
                "dac_conversions": 2,
                "adc_conversions": 2,
                "reference_steps": macro_result.reference_steps,
                "step_outputs": {
                    step.label: step.output for step in macro_result.steps
                },
            },
        )

    def solve_many(
        self, rhs_batch, rng=None, *, lean: bool = False
    ) -> tuple[SolveResult, ...]:
        """Solve many right-hand sides with shared per-step factorizations.

        The programmed arrays, their effective matrices, and the
        eigenvalue/settling analysis are fixed across right-hand sides,
        so the five-step schedule runs once with *matrix-valued*
        intermediates: each INV step back-substitutes the whole batch
        through one factorization built when the engine was (one
        ``getrs`` per column) and each MVM step is one ``einsum``
        contraction. The digital reference, the ideal step outputs and
        the Fig. 6a step references likewise reuse LUs factored once
        per prepared matrix, so a warmed solver factors nothing per
        batch. Gain ranging still operates per right-hand side (columns
        rerun independently, exactly like sequential :meth:`solve`
        calls).

        Results are **bit-identical** to a sequential loop of
        :meth:`solve` calls: every step goes through the shared kernel
        of :mod:`repro.core.common`, whose multi-RHS solves factor once
        but back-substitute one column at a time (see
        :class:`repro.core.common.FactoredSystem`) and whose
        contractions are shape-stable. Configurations whose
        per-operation randomness cannot be shared across a batch (MNA
        routing, output or sample-and-hold noise) transparently fall
        back to that loop.

        With ``lean=True`` the per-result payload is a
        :class:`~repro.core.solution.LeanSolveResult`: the solution and
        reference are the same bits, but the five per-step
        :class:`~repro.amc.ops.OpResult` objects, their ideal outputs,
        and the step-output metadata dicts are never constructed —
        result assembly dominates service-side time at scale (see
        ``BENCH_serving.json``).
        """
        rhs_list = [np.asarray(b, dtype=float) for b in rhs_batch]
        if not rhs_list:
            raise ValidationError("rhs_batch must contain at least one vector")
        n = self.matrix.shape[0]
        bs = np.stack([check_vector(b, "b", size=n) for b in rhs_list])
        rng = as_generator(rng)
        config = self.macro.config
        if has_per_operation_randomness(config):
            results = tuple(self.solve(b, rng) for b in bs)
            if lean:
                return tuple(LeanSolveResult.from_result(r) for r in results)
            return results

        macro = self.macro
        batch = bs.shape[0]
        # The engine (effective matrices, INV factorizations, settling
        # analysis) is batch-invariant: built on first use, cached for
        # every later batch. Offsets come from the macro's quasi-static
        # cache, so the cache changes no rng semantics. Stored outside
        # the frozen dataclass's fields (pure derived state).
        engine = getattr(self, "_engine", None)
        if engine is None:
            engine = BatchedFiveStep(macro, rng)
            object.__setattr__(self, "_engine", engine)
        final, final_k = engine.run(bs, self.input_fraction)
        final_sat = final["sat"]
        settle = engine.settle

        x_lower = engine.digitize(final["s3"])
        x_upper = -engine.digitize(final["s5"])
        divisor = (final_k * self.scale)[:, None]
        x = np.concatenate([x_upper, x_lower], axis=1) / divisor
        references = self.reference_solve(bs)

        if lean:
            # Same summation order as SolveResult.analog_time_s (left
            # fold from 0 over steps 1..5) so the scalar is bit-identical.
            analog_total = sum(
                (settle[1], settle[2], settle[3], settle[4], settle[5])
            )
            return tuple(
                LeanSolveResult(
                    x=x[c],
                    reference=references[c],
                    solver="blockamc-1stage",
                    saturated=bool(final_sat[c].any()),
                    analog_time_s=float(analog_total),
                    metadata={"input_scale": float(final_k[c])},
                )
                for c in range(batch)
            )

        # Exact-arithmetic per-step references (Fig. 6a curves), batched.
        reference = macro.reference_steps(final["f"], final["g"])

        # Per-step invariants resolve once inside the specs: OpResult
        # construction runs batch x 5 times and dominates assembly time
        # if the macro properties are recomputed per result.
        specs = engine.step_specs(final)
        metadata_common = {
            "scale": self.scale,
            "split": self.split,
            "schur_scale": self.schur_scale,
            "opa_count": macro.opa_count,
            "dac_count": macro.dac_count,
            "adc_count": macro.adc_count,
            "device_count": macro.device_count,
            "dac_conversions": 2,
            "adc_conversions": 2,
        }
        results = []
        for c in range(batch):
            steps = tuple(spec.op_result(c) for spec in specs)
            reference_steps = {name: rows[c] for name, rows in reference.items()}
            results.append(
                SolveResult(
                    x=x[c],
                    reference=references[c],
                    solver="blockamc-1stage",
                    operations=steps,
                    metadata={
                        **metadata_common,
                        "input_scale": float(final_k[c]),
                        "reference_steps": reference_steps,
                        "step_outputs": {
                            step.label: step.output for step in steps
                        },
                    },
                )
            )
        return tuple(results)

    def solve_batch(
        self,
        rhs_batch,
        rng=None,
        *,
        pipelined: bool = True,
        t_dac_s: float = 50e-9,
        t_adc_s: float = 100e-9,
        t_snh_s: float = 5e-9,
    ) -> "BatchResult":
        """Solve a batch of right-hand sides and model the macro timeline.

        The paper's double-buffered S&H banks let consecutive problems
        pipeline: while problem ``p`` converts its outputs, problem
        ``p+1`` already occupies the analog arrays. This method solves
        every system (exact results, fresh hardware noise per solve) and
        runs the discrete-event schedule for the whole batch, so both
        numerical quality and throughput come from one call.

        Parameters
        ----------
        rhs_batch:
            Iterable of right-hand-side vectors.
        rng:
            Seed or generator (shared stream across the batch).
        pipelined:
            Enable the double-buffered S&H overlap (False = single
            buffered, every stage serializes).
        t_dac_s, t_adc_s, t_snh_s:
            Converter and sample-and-hold timing assumptions.
        """
        rhs_batch = list(rhs_batch)
        if not rhs_batch:
            raise ValidationError("rhs_batch must contain at least one vector")
        rng = as_generator(rng)
        results = self.solve_many(rhs_batch, rng)
        # All solves share the macro, so the op-time profile of the first
        # result describes every pipeline slot.
        op_times = [op.settling_time_s for op in results[0].operations]
        schedule = simulate_schedule(
            op_times,
            t_dac=t_dac_s,
            t_adc=t_adc_s,
            t_snh=t_snh_s,
            n_problems=len(rhs_batch),
            pipelined=pipelined,
        )
        return BatchResult(results=results, schedule=schedule)


@dataclass(frozen=True)
class BatchResult:
    """Outcome of a pipelined batch solve.

    ``results`` holds the per-system solutions; ``schedule`` the
    discrete-event timeline of the macro (op-amp bank, DAC, ADC) for the
    whole batch, from which latency and throughput derive.
    """

    results: tuple[SolveResult, ...]
    schedule: ScheduleResult

    @property
    def throughput_solves_per_s(self) -> float:
        """Steady-state solve rate over the batch."""
        return self.schedule.throughput

    @property
    def worst_relative_error(self) -> float:
        """Largest relative error across the batch."""
        return max(result.relative_error for result in self.results)


class BlockAMCSolver:
    """Solve linear systems with a one-stage BlockAMC macro."""

    name = "blockamc-1stage"

    def __init__(
        self,
        config: HardwareConfig | None = None,
        partition: PartitionSpec | None = None,
        input_fraction: float = DEFAULT_INPUT_FRACTION,
    ):
        self.config = config or HardwareConfig.ideal()
        self.partition = partition or PartitionSpec()
        self.input_fraction = input_fraction

    def prepare(self, matrix: np.ndarray, rng=None) -> PreparedBlockAMC:
        """Normalize, preprocess, and program the macro for ``matrix``.

        The variation draw (if any) happens here, once; call
        :meth:`PreparedBlockAMC.solve` repeatedly for multiple ``b``.
        """
        matrix = check_square_matrix(matrix)
        rng = as_generator(rng)
        normalized, scale = normalize_matrix(matrix)
        blocks = prepare_blocks(normalized, self.partition)
        arrays = build_macro_arrays(blocks, self.config, rng)
        macro = BlockAMCMacro(arrays, self.config)
        return PreparedBlockAMC(
            matrix=matrix,
            scale=scale,
            macro=macro,
            split=blocks.split,
            schur_scale=blocks.schur_scale,
            input_fraction=self.input_fraction,
        )

    def solve(self, matrix: np.ndarray, b: np.ndarray, rng=None) -> SolveResult:
        """Program the arrays and solve ``A x = b`` in one call."""
        rng = as_generator(rng)
        prepared = self.prepare(matrix, rng)
        return prepared.solve(b, rng)
