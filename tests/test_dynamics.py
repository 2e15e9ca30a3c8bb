"""Tests for the settling-time models."""

import numpy as np
import pytest

from repro.circuits.dynamics import (
    inv_eigenvalue_margin,
    inv_settling_time,
    inv_settling_times,
    is_inv_stable,
    mvm_settling_time,
)
from repro.errors import ConvergenceError


class TestMVMSettling:
    def test_positive(self):
        g = np.full((4, 4), 100e-6)
        assert mvm_settling_time(g, 100e-6, 100e6) > 0.0

    def test_faster_with_higher_gbwp(self):
        g = np.full((4, 4), 100e-6)
        slow = mvm_settling_time(g, 100e-6, 10e6)
        fast = mvm_settling_time(g, 100e-6, 100e6)
        assert fast == pytest.approx(slow / 10.0)

    def test_larger_array_settles_slower(self):
        """The paper: settling is linear in the max row conductance sum."""
        small = mvm_settling_time(np.full((4, 4), 100e-6), 100e-6, 100e6)
        large = mvm_settling_time(np.full((64, 64), 100e-6), 100e-6, 100e6)
        assert large > small

    def test_tighter_epsilon_takes_longer(self):
        g = np.full((4, 4), 100e-6)
        loose = mvm_settling_time(g, 100e-6, 100e6, epsilon=1e-2)
        tight = mvm_settling_time(g, 100e-6, 100e6, epsilon=1e-6)
        assert tight > loose


class TestINVStability:
    def test_spd_stable(self):
        assert is_inv_stable(np.eye(3))

    def test_negative_definite_unstable(self):
        assert not is_inv_stable(-np.eye(3))

    def test_margin_value(self):
        assert inv_eigenvalue_margin(np.diag([0.5, 2.0])) == pytest.approx(0.5)

    def test_margin_with_complex_eigenvalues(self):
        # Rotation-like matrix: eigenvalues 1 +- i, real part 1.
        a = np.array([[1.0, -1.0], [1.0, 1.0]])
        assert inv_eigenvalue_margin(a) == pytest.approx(1.0)


class TestINVSettling:
    def test_positive(self):
        assert inv_settling_time(np.eye(3), 100e6) > 0.0

    def test_smaller_eigenvalue_settles_slower(self):
        fast = inv_settling_time(np.diag([1.0, 1.0]), 100e6)
        slow = inv_settling_time(np.diag([0.01, 1.0]), 100e6)
        assert slow > fast

    def test_unstable_raises(self):
        with pytest.raises(ConvergenceError, match="unstable"):
            inv_settling_time(-np.eye(2), 100e6)

    def test_elementwise_form_matches_scalar_bitwise(self):
        matrices = [np.diag([0.3, 1.0]), np.eye(2), -np.eye(2), np.diag([0.0, 1.0])]
        margins = np.array([inv_eigenvalue_margin(m) for m in matrices])
        times = inv_settling_times(margins, 100e6)
        assert times[0] == inv_settling_time(matrices[0], 100e6)
        assert times[1] == inv_settling_time(None, 100e6, margin=margins[1])
        assert np.isinf(times[2]) and np.isinf(times[3])
