"""Lightweight argument-validation helpers.

The simulator and scheduler take many scalar configuration parameters
(batch sizes, rates, probabilities).  Misconfiguration should fail fast
with a clear message rather than surfacing as a confusing downstream
numerical error; these helpers centralise the checks.
"""

from __future__ import annotations

from numbers import Real
from typing import Any, Optional


def check_positive(value: Real, name: str) -> float:
    """Raise :class:`ValueError` unless ``value`` is a finite number > 0."""
    value = _check_real(value, name)
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    return float(value)


def check_non_negative(value: Real, name: str) -> float:
    """Raise :class:`ValueError` unless ``value`` is a finite number >= 0."""
    value = _check_real(value, name)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return float(value)


def check_probability(value: Real, name: str) -> float:
    """Raise :class:`ValueError` unless ``value`` lies in ``[0, 1]``."""
    value = _check_real(value, name)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return float(value)


def check_in_range(
    value: Real,
    name: str,
    low: Optional[Real] = None,
    high: Optional[Real] = None,
    inclusive: bool = True,
) -> float:
    """Raise :class:`ValueError` unless ``low <(=) value <(=) high``."""
    value = _check_real(value, name)
    if inclusive:
        if low is not None and value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
        if high is not None and value > high:
            raise ValueError(f"{name} must be <= {high}, got {value}")
    else:
        if low is not None and value <= low:
            raise ValueError(f"{name} must be > {low}, got {value}")
        if high is not None and value >= high:
            raise ValueError(f"{name} must be < {high}, got {value}")
    return float(value)


def check_positive_int(value: Any, name: str) -> int:
    """Raise unless ``value`` is an integer >= 1; return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int,)):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return int(value)


def _check_real(value: Real, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, Real):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    value = float(value)
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError(f"{name} must be finite, got {value}")
    return value
