"""Tests for the MVM/INV primitives (algebraic and MNA fidelity paths)."""

import math

import numpy as np
import pytest

from repro.amc.config import HardwareConfig, OpAmpConfig
from repro.amc.ops import AMCOperations
from repro.circuits import dynamics
from repro.crossbar.array import CrossbarArray
from repro.crossbar.parasitics import ParasiticConfig
from repro.errors import SolverError
from repro.workloads.matrices import diagonally_dominant_matrix


MATRIX = np.array([[1.0, -0.3], [0.2, 0.8]])


def _array(matrix=MATRIX, rng=0):
    return CrossbarArray.program(matrix, rng=rng, pre_normalized=True)


class TestIdealOps:
    def test_mvm_matches_matrix_product(self):
        ops = AMCOperations(HardwareConfig.ideal())
        v = np.array([0.3, -0.1])
        result = ops.mvm(_array(), v)
        np.testing.assert_allclose(result.output, -MATRIX @ v, atol=1e-12)

    def test_inv_matches_solve(self):
        ops = AMCOperations(HardwareConfig.ideal())
        v = np.array([0.3, -0.1])
        result = ops.inv(_array(), v)
        np.testing.assert_allclose(result.output, -np.linalg.solve(MATRIX, v), atol=1e-12)

    def test_ideal_output_equals_output_for_ideal_hardware(self):
        ops = AMCOperations(HardwareConfig.ideal())
        v = np.array([0.3, -0.1])
        result = ops.inv(_array(), v)
        np.testing.assert_allclose(result.output, result.ideal_output, atol=1e-12)

    def test_input_scale_compensates_array_scale(self):
        """Storing A/s and scaling the input conductance by 1/s solves
        the unscaled system (the Schur renormalization trick)."""
        scale = 2.5
        arr = _array(MATRIX / scale)
        ops = AMCOperations(HardwareConfig.ideal())
        v = np.array([0.3, -0.1])
        result = ops.inv(arr, v, input_scale=1.0 / scale)
        np.testing.assert_allclose(result.output, -np.linalg.solve(MATRIX, v), atol=1e-12)

    def test_inv_requires_square(self):
        arr = CrossbarArray.program(np.ones((2, 3)) * 0.5, rng=0, pre_normalized=True)
        ops = AMCOperations(HardwareConfig.ideal())
        with pytest.raises(SolverError, match="square"):
            ops.inv(arr, np.zeros(2))

    def test_singular_matrix_raises(self):
        arr = _array(np.array([[1.0, 1.0], [1.0, 1.0]]))
        ops = AMCOperations(HardwareConfig.ideal())
        with pytest.raises(SolverError, match="singular"):
            ops.inv(arr, np.array([0.1, 0.2]))


class TestFiniteGain:
    def test_mvm_attenuated(self):
        cfg = HardwareConfig(opamp=OpAmpConfig(open_loop_gain=100.0, input_offset_sigma_v=0.0))
        ops = AMCOperations(cfg)
        v = np.array([0.3, -0.1])
        result = ops.mvm(_array(), v)
        assert np.all(np.abs(result.output) < np.abs(result.ideal_output))

    def test_error_shrinks_with_gain(self):
        def error(gain):
            cfg = HardwareConfig(
                opamp=OpAmpConfig(open_loop_gain=gain, input_offset_sigma_v=0.0)
            )
            result = AMCOperations(cfg).inv(_array(), np.array([0.3, -0.1]))
            return float(np.max(np.abs(result.error_vector)))

        assert error(1e6) < error(1e3) < error(1e1)


class TestOffsets:
    def test_offset_perturbs_output(self):
        cfg = HardwareConfig(
            opamp=OpAmpConfig(open_loop_gain=math.inf, input_offset_sigma_v=5e-3)
        )
        ops = AMCOperations(cfg)
        result = ops.inv(_array(), np.array([0.3, -0.1]), rng=0)
        assert np.max(np.abs(result.error_vector)) > 0.0

    def test_offset_reproducible(self):
        cfg = HardwareConfig(
            opamp=OpAmpConfig(open_loop_gain=math.inf, input_offset_sigma_v=5e-3)
        )
        ops = AMCOperations(cfg)
        a = ops.inv(_array(), np.array([0.3, -0.1]), rng=7).output
        b = ops.inv(_array(), np.array([0.3, -0.1]), rng=7).output
        np.testing.assert_array_equal(a, b)

    def test_larger_loading_amplifies_offset(self):
        """The offset error grows with the array's conductance loading —
        the size-dependence behind Fig. 6(c)."""
        cfg = HardwareConfig(
            opamp=OpAmpConfig(open_loop_gain=math.inf, input_offset_sigma_v=1e-3)
        )
        ops = AMCOperations(cfg)
        rng = np.random.default_rng(0)
        # Normalized Wishart row loading grows ~sqrt(n) with size
        # (diagonally dominant matrices would not: their normalized row
        # sums are constant).
        from repro.workloads.matrices import wishart_matrix

        small = wishart_matrix(4, rng)
        large = wishart_matrix(64, rng)

        def mvm_error(matrix):
            normalized = matrix / np.max(np.abs(matrix))
            arr = CrossbarArray.program(normalized, rng=1, pre_normalized=True)
            result = ops.mvm(arr, np.full(arr.shape[1], 0.2), rng=2)
            return float(np.mean(np.abs(result.error_vector)))

        assert mvm_error(large) > mvm_error(small)


class TestSaturation:
    def test_saturated_flag(self):
        cfg = HardwareConfig(
            opamp=OpAmpConfig(open_loop_gain=math.inf, v_sat=0.1, input_offset_sigma_v=0.0),
        )
        ops = AMCOperations(cfg)
        result = ops.inv(_array(), np.array([0.5, -0.5]))
        assert result.saturated
        assert np.max(np.abs(result.output)) <= 0.1

    def test_not_saturated_within_rails(self):
        cfg = HardwareConfig(
            opamp=OpAmpConfig(open_loop_gain=math.inf, v_sat=10.0, input_offset_sigma_v=0.0),
        )
        result = AMCOperations(cfg).inv(_array(), np.array([0.1, -0.1]))
        assert not result.saturated


class TestTelemetry:
    def test_fields(self):
        ops = AMCOperations(HardwareConfig.ideal())
        result = ops.mvm(_array(), np.array([0.1, 0.2]), label="tagged")
        assert result.kind == "mvm"
        assert result.label == "tagged"
        assert result.rows == 2 and result.cols == 2
        assert result.opa_count == 2
        assert result.device_count == 8
        assert result.settling_time_s > 0.0

    def test_unstable_inv_reports_infinite_settling(self):
        arr = _array(np.array([[-1.0, 0.0], [0.0, -1.0]]))
        ops = AMCOperations(HardwareConfig.ideal())
        result = ops.inv(arr, np.array([0.1, 0.1]))
        assert math.isinf(result.settling_time_s)


class TestSettlingMarginCache:
    """The INV settling margin is computed once per programmed array and
    parasitic configuration, not once per operation."""

    @staticmethod
    def _count_eigvals(monkeypatch) -> list:
        calls = []
        original = dynamics.inv_eigenvalue_margins

        def counting(stack):
            calls.append(len(stack))
            return original(stack)

        monkeypatch.setattr(dynamics, "inv_eigenvalue_margins", counting)
        return calls

    def test_repeated_inv_ops_share_one_eigvals(self, monkeypatch):
        matrix = diagonally_dominant_matrix(6, rng=2) / 10.0
        arr = _array(matrix)
        ops = AMCOperations(HardwareConfig.paper_variation())
        uncached = dynamics.inv_settling_time(
            arr.effective_matrix(ops.config.parasitics), ops.config.opamp.gbwp_hz
        )
        calls = self._count_eigvals(monkeypatch)
        times = [ops.inv(arr, np.full(6, 0.01 * k)).settling_time_s for k in (1, 2, 3)]
        assert calls == [1]
        assert times == [uncached] * 3

    def test_cache_is_per_parasitic_config(self, monkeypatch):
        arr = _array()
        calls = self._count_eigvals(monkeypatch)
        ideal = arr.inv_margin()
        wired = arr.inv_margin(ParasiticConfig(r_wire=2.0, fidelity="first_order"))
        assert arr.inv_margin() == ideal
        assert arr.inv_margin(ParasiticConfig(r_wire=2.0, fidelity="first_order")) == wired
        assert calls == [1, 1]
        assert ideal == dynamics.inv_eigenvalue_margin(arr.effective_matrix())


class TestMNACrossValidation:
    @pytest.mark.parametrize("r_wire", [0.0, 2.0])
    @pytest.mark.parametrize("gain", [math.inf, 1e4])
    def test_algebraic_matches_mna(self, r_wire, gain):
        rng = np.random.default_rng(3)
        matrix = diagonally_dominant_matrix(4, rng)
        matrix = matrix / np.max(np.abs(matrix))
        arr = CrossbarArray.program(matrix, rng=4, pre_normalized=True)
        v = rng.uniform(-0.3, 0.3, 4)
        fidelity = "exact" if r_wire > 0 else "none"
        cfg = HardwareConfig(
            opamp=OpAmpConfig(open_loop_gain=gain, input_offset_sigma_v=2e-3),
            parasitics=ParasiticConfig(r_wire=r_wire, fidelity=fidelity),
        )
        alg = AMCOperations(cfg)
        mna = AMCOperations(cfg.with_(use_mna=True))
        for op_name in ("mvm", "inv"):
            out_a = getattr(alg, op_name)(arr, v, rng=np.random.default_rng(9)).output
            out_m = getattr(mna, op_name)(arr, v, rng=np.random.default_rng(9)).output
            np.testing.assert_allclose(out_a, out_m, atol=5e-5)
