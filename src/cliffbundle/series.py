"""Univariate rational functions in t, expanded as exact power series.

Used for Hilbert series of graded algebras: numerator and denominator are
integer-coefficient polynomials in t, and the denominator must have a
nonzero constant term so the quotient expands as a power series.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NonExpandableError


def _trim(coeffs) -> tuple:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class RationalSeries:
    """numerator(t) / denominator(t), coefficient lists indexed by power."""

    numerator: tuple
    denominator: tuple

    def __post_init__(self):
        object.__setattr__(self, "numerator", _trim(self.numerator))
        object.__setattr__(self, "denominator", _trim(self.denominator))
        if not self.denominator or self.denominator[0] == 0:
            raise NonExpandableError("denominator has zero constant term")


def series_expand(s: RationalSeries, order: int):
    """First ``order + 1`` power-series coefficients of s, exact.

    Standard convolution recurrence; coefficients are returned as ints when
    integral (always the case when the denominator's constant term is a
    unit), else as Fractions.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    num = [Fraction(c) for c in s.numerator]
    den = [Fraction(c) for c in s.denominator]
    d0 = den[0]
    out = []
    for n in range(order + 1):
        acc = num[n] if n < len(num) else Fraction(0)
        for k in range(1, min(n, len(den) - 1) + 1):
            acc -= den[k] * out[n - k]
        out.append(acc / d0)
    return [int(c) if c.denominator == 1 else c for c in out]
