"""Internal helpers for validating user-facing parameters.

These helpers raise :class:`repro.exceptions.ConfigurationError` with messages that
name the offending parameter, so that configuration mistakes surface at object
construction time rather than deep inside a solver.
"""

from __future__ import annotations

from .exceptions import ConfigurationError


def check_probability(value: float, name: str) -> float:
    """Validate that ``value`` is a probability in the closed interval [0, 1]."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is a positive integer."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")
    if value < 1:
        raise ConfigurationError(f"{name} must be >= 1, got {value!r}")
    return value


def check_positive_float(value: float, name: str) -> float:
    """Validate that ``value`` is a strictly positive finite float."""
    value = float(value)
    if not value > 0.0 or value != value or value == float("inf"):
        raise ConfigurationError(f"{name} must be a positive finite number, got {value!r}")
    return value

