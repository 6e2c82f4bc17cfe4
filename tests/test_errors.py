"""The exit band of every exception: ``errors.band`` alone maps an
exception to the status and exit code a CLI report carries."""

import json

import pytest

from cliffbundle.errors import (
    IndexOutOfRangeError,
    InternalInvariantError,
    MinorNotDivisibleError,
    NotDivisibleError,
    ScanTooLargeError,
    band,
)

BUG = ("internal-error", 3)
MATH = ("math-failure", 2)
INPUT = ("invalid-input", 1)


@pytest.mark.parametrize("exc, expected", [
    (InternalInvariantError("x"), BUG),
    (MinorNotDivisibleError("x"), BUG),
    (NotDivisibleError("x"), MATH),
    (ZeroDivisionError("x"), MATH),
    (ScanTooLargeError("x"), INPUT),
    (IndexOutOfRangeError("x"), INPUT),
    (json.JSONDecodeError("x", "{", 1), INPUT),
    (UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"), INPUT),
    (FileNotFoundError("x"), INPUT),
    (TypeError("x"), BUG),
    (KeyError("x"), BUG),
    (RecursionError("x"), BUG),
], ids=lambda value: type(value).__name__ if isinstance(value, Exception) else None)
def test_band(exc, expected):
    assert band(exc) == expected
