"""Tests of the parameter validators in :mod:`repro._validation`.

Every user-facing parameter (``p``, ``gamma``, ``depth``, ``epsilon``, worker
counts, ...) passes through one of these helpers, so their edge cases --
booleans masquerading as integers, NaN, infinity, the ends of the unit
interval -- decide what a configuration mistake looks like to the user.
"""

from __future__ import annotations

import math

import pytest

from repro._validation import (
    check_positive_float,
    check_positive_int,
    check_probability,
)
from repro.exceptions import ConfigurationError


@pytest.mark.parametrize("value", [0.0, 0.25, 1.0, 1, 0])
def test_probability_accepts_closed_unit_interval(value):
    result = check_probability(value, "p")
    assert result == float(value)
    assert isinstance(result, float)


@pytest.mark.parametrize("value", [-1e-12, 1.0000001, math.nan, math.inf])
def test_probability_rejects_outside_unit_interval(value):
    with pytest.raises(ConfigurationError, match=r"^gamma must be in \[0, 1\]"):
        check_probability(value, "gamma")


@pytest.mark.parametrize("value", [1, 2, 64])
def test_positive_int_accepts(value):
    assert check_positive_int(value, "depth") == value


@pytest.mark.parametrize(
    ("value", "message"),
    [
        (0, "depth must be >= 1"),
        (-3, "depth must be >= 1"),
        (2.0, "depth must be a positive integer"),
        ("2", "depth must be a positive integer"),
        (True, "depth must be a positive integer"),
    ],
)
def test_positive_int_rejects(value, message):
    with pytest.raises(ConfigurationError, match=message):
        check_positive_int(value, "depth")


@pytest.mark.parametrize("value", [1e-300, 0.5, 3, 1e300])
def test_positive_float_accepts(value):
    result = check_positive_float(value, "epsilon")
    assert result == float(value)
    assert isinstance(result, float)


@pytest.mark.parametrize("value", [0.0, -0.0, -2.5, math.nan, math.inf])
def test_positive_float_rejects(value):
    with pytest.raises(ConfigurationError, match="epsilon must be a positive finite number"):
        check_positive_float(value, "epsilon")


def test_messages_quote_the_offending_value():
    with pytest.raises(ConfigurationError, match=r"got 'x'"):
        check_positive_int("x", "workers")
    with pytest.raises(ConfigurationError, match=r"got -0\.5"):
        check_probability(-0.5, "p")
