"""Unit tests for repro.utils.validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ValidationError
from repro.utils.validation import (
    check_in_range,
    check_matrix,
    check_positive,
    check_probability,
    check_square_matrix,
    check_vector,
)


class TestCheckMatrix:
    def test_accepts_list_of_lists(self):
        out = check_matrix([[1, 2], [3, 4]])
        assert out.shape == (2, 2)
        assert out.dtype == np.float64

    def test_rejects_1d(self):
        with pytest.raises(ValidationError, match="2-D"):
            check_matrix([1, 2, 3])

    def test_rejects_3d(self):
        with pytest.raises(ValidationError, match="2-D"):
            check_matrix(np.zeros((2, 2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError, match="non-empty"):
            check_matrix(np.zeros((0, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="non-finite"):
            check_matrix([[1.0, np.nan], [0.0, 1.0]])

    def test_rejects_inf(self):
        with pytest.raises(ValidationError, match="non-finite"):
            check_matrix([[1.0, np.inf], [0.0, 1.0]])

    def test_uses_argument_name_in_message(self):
        with pytest.raises(ValidationError, match="my_matrix"):
            check_matrix([1.0], "my_matrix")


class TestCheckSquareMatrix:
    def test_accepts_square(self):
        out = check_square_matrix(np.eye(3))
        assert out.shape == (3, 3)

    def test_rejects_rectangular(self):
        with pytest.raises(ValidationError, match="square"):
            check_square_matrix(np.zeros((2, 3)))


class TestCheckVector:
    def test_accepts_list(self):
        out = check_vector([1, 2, 3])
        assert out.shape == (3,)

    def test_flattens_column_vector(self):
        out = check_vector(np.ones((4, 1)))
        assert out.shape == (4,)

    def test_flattens_row_vector(self):
        out = check_vector(np.ones((1, 4)))
        assert out.shape == (4,)

    def test_rejects_matrix(self):
        with pytest.raises(ValidationError, match="1-D"):
            check_vector(np.ones((2, 3)))

    def test_size_enforced(self):
        with pytest.raises(ValidationError, match="length 5"):
            check_vector([1.0, 2.0], size=5)

    def test_size_accepted(self):
        assert check_vector([1.0, 2.0], size=2).size == 2

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="non-finite"):
            check_vector([np.nan])


class TestNonRealInput:
    """Complex, ragged and non-numeric input is refused with
    :class:`ValidationError`: never truncated to its real part, never a
    bare ``ValueError``/``TypeError``."""

    @pytest.mark.parametrize(
        "check, value",
        [
            (check_vector, np.array([1 + 2j, 3])),
            (check_vector, np.array([1.0, 2.0], dtype=complex)),
            (check_matrix, np.eye(2) * (1 + 1j)),
            (check_square_matrix, [[1j, 0], [0, 1]]),
        ],
    )
    def test_complex_rejected_with_embedding_hint(self, check, value):
        with pytest.raises(ValidationError, match="embed_complex_system"):
            check(value)

    @pytest.mark.parametrize(
        "value",
        [["a"], ["1.5"], [b"x"], [object()], [None], [1, None], [10**400], [[1, 2], [3]]],
    )
    def test_non_numeric_or_ragged_rejected(self, value):
        with pytest.raises(ValidationError, match="vector"):
            check_vector(value, "vector")

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ValidationError, match="regular numeric array"):
            check_matrix([[1, 2], [3]])

    def test_real_object_array_accepted(self):
        from fractions import Fraction

        out = check_vector(np.array([1, 2.5, Fraction(1, 4)], dtype=object))
        assert out.dtype == np.float64
        assert out.tolist() == [1.0, 2.5, 0.25]

    @given(
        value=st.recursive(
            st.none()
            | st.booleans()
            | st.integers()
            | st.floats()
            | st.complex_numbers()
            | st.text(max_size=3)
            | st.binary(max_size=3),
            lambda inner: st.lists(inner, max_size=4),
            max_leaves=12,
        )
        | hnp.arrays(
            st.sampled_from(
                [np.float64, np.float32, np.int64, np.bool_, np.complex128, "U2"]
            ),
            hnp.array_shapes(min_dims=0, max_dims=3, max_side=3),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_only_validation_error_escapes(self, value):
        for check in (check_vector, check_matrix):
            try:
                out = check(value)
            except ValidationError:
                continue
            assert out.dtype == np.float64
            assert np.all(np.isfinite(out))


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(2.5) == 2.5

    def test_rejects_zero(self):
        with pytest.raises(ValidationError):
            check_positive(0.0)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_positive(-1.0)

    def test_rejects_inf_by_default(self):
        with pytest.raises(ValidationError, match="finite"):
            check_positive(np.inf)

    def test_allows_inf_when_enabled(self):
        assert check_positive(np.inf, allow_inf=True) == np.inf

    def test_rejects_nan_even_with_allow_inf(self):
        with pytest.raises(ValidationError):
            check_positive(np.nan, allow_inf=True)

    def test_rejects_non_numeric(self):
        with pytest.raises(ValidationError, match="real number"):
            check_positive("3")

    @given(st.floats(min_value=1e-300, max_value=1e300))
    def test_accepts_any_positive_float(self, value):
        assert check_positive(value) == value


class TestCheckInRange:
    def test_inclusive_bounds(self):
        assert check_in_range(0.0, 0.0, 1.0) == 0.0
        assert check_in_range(1.0, 0.0, 1.0) == 1.0

    def test_exclusive_bounds(self):
        with pytest.raises(ValidationError):
            check_in_range(0.0, 0.0, 1.0, inclusive=False)

    def test_out_of_range(self):
        with pytest.raises(ValidationError, match=r"\[0.0, 1.0\]"):
            check_in_range(1.5, 0.0, 1.0)

    def test_rejects_non_numeric(self):
        with pytest.raises(ValidationError):
            check_in_range(None, 0.0, 1.0)


class TestCheckProbability:
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_accepts_unit_interval(self, p):
        assert check_probability(p) == p

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0])
    def test_rejects_outside(self, bad):
        with pytest.raises(ValidationError):
            check_probability(bad)
