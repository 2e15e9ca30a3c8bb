"""Argument validation helpers.

Every public entry point of the library validates its inputs through these
helpers so error messages are consistent and tests can rely on
:class:`~repro.errors.ValidationError` being raised for bad input.
"""

from __future__ import annotations

import numbers

import numpy as np

from repro.errors import ValidationError


def _as_float_array(value, name: str) -> np.ndarray:
    """``value`` as a float64 array, or :class:`ValidationError`.

    Complex input is refused rather than truncated to its real part:
    solve a complex system through its real embedding
    (:func:`repro.utils.linalg.embed_complex_system`). Ragged nesting and
    non-numeric entries are refused too.
    """
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} is not a regular numeric array: {exc}") from exc
    if arr.dtype.kind == "c":
        raise ValidationError(
            f"{name} is complex; solve its real embedding instead "
            "(repro.utils.linalg.embed_complex_system)"
        )
    if arr.dtype.kind not in "biufO":
        raise ValidationError(f"{name} must be numeric, got dtype {arr.dtype}")
    try:
        return np.asarray(arr, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name} has a non-real entry: {exc}") from exc


def check_matrix(value, name: str = "matrix") -> np.ndarray:
    """Coerce ``value`` to a finite 2-D float array.

    Parameters
    ----------
    value:
        A real numeric array or nested sequence.
    name:
        Argument name used in error messages.

    Returns
    -------
    numpy.ndarray
        A float 2-D array (a copy only if coercion required one).
    """
    arr = _as_float_array(value, name)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.size == 0:
        raise ValidationError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def check_square_matrix(value, name: str = "matrix") -> np.ndarray:
    """Like :func:`check_matrix` but additionally requires a square shape."""
    arr = check_matrix(value, name)
    rows, cols = arr.shape
    if rows != cols:
        raise ValidationError(f"{name} must be square, got shape {arr.shape}")
    return arr


def check_vector(value, name: str = "vector", size: int | None = None) -> np.ndarray:
    """Coerce ``value`` to a finite 1-D float array, optionally of length ``size``."""
    arr = _as_float_array(value, name)
    if arr.ndim == 2 and 1 in arr.shape:
        arr = arr.ravel()
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be 1-D, got ndim={arr.ndim}")
    if arr.size == 0:
        raise ValidationError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    if size is not None and arr.size != size:
        raise ValidationError(f"{name} must have length {size}, got {arr.size}")
    return arr


def check_positive(value, name: str = "value", allow_inf: bool = False) -> float:
    """Require a strictly positive scalar and return it as float.

    ``allow_inf=True`` accepts ``+inf`` (used by idealized hardware
    parameters such as infinite op-amp gain); NaN is always rejected.
    """
    if not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {type(value).__name__}")
    value = float(value)
    if np.isnan(value) or value <= 0.0:
        raise ValidationError(f"{name} must be > 0, got {value}")
    if not allow_inf and np.isinf(value):
        raise ValidationError(f"{name} must be finite, got {value}")
    return value


def check_in_range(
    value,
    low: float,
    high: float,
    name: str = "value",
    inclusive: bool = True,
) -> float:
    """Require ``low <= value <= high`` (or strict bounds) and return float."""
    if not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {type(value).__name__}")
    value = float(value)
    if inclusive:
        ok = low <= value <= high
    else:
        ok = low < value < high
    if not ok:
        bounds = f"[{low}, {high}]" if inclusive else f"({low}, {high})"
        raise ValidationError(f"{name} must lie in {bounds}, got {value}")
    return value


def check_probability(value, name: str = "probability") -> float:
    """Require a scalar in [0, 1]."""
    return check_in_range(value, 0.0, 1.0, name=name, inclusive=True)
