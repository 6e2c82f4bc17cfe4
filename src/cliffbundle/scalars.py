"""Exact scalar domains: the rationals and odd prime fields.

A *domain* object is a callable factory for its elements and carries the
handful of field-level operations (square testing, square roots, random
sampling) that the polynomial layer and the rank-4 algebra classifier need.
Rational values are plain ``fractions.Fraction``; prime-field values are
``FpElement`` wrappers storing the canonical representative in ``[0, p)``.
Values from different domains never mix: mixed arithmetic raises TypeError.

Characteristic 2 is excluded throughout (the Clifford relations divide by 2).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
#: The least composite that passes the strong test to every base in
#: _WITNESSES (Sorenson and Webster, 2015); primality is decided below it.
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin to the prime bases 2..41, exact for every
    n below PRIME_LIMIT; a larger n is refused with ValueError."""
    if n >= PRIME_LIMIT:
        raise ValueError(f"primality is decided only below PRIME_LIMIT = "
                         f"{PRIME_LIMIT}, and {n} is not")
    if n < 2:
        return False
    for b in _WITNESSES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _WITNESSES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FpElement:
    """An element of F_p (p an odd prime), stored as its least residue."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise TypeError(f"mixing F_{self.p} and F_{other.p}")
            return other
        if isinstance(other, int):
            return FpElement(other, self.p)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FpElement(self.value + other.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FpElement(self.value - other.value, self.p)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FpElement(other.value - self.value, self.p)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FpElement(self.value * other.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return FpElement(pow(self.value, n, self.p), self.p)

    def __neg__(self):
        return FpElement(-self.value, self.p)

    def inverse(self) -> "FpElement":
        if self.value == 0:
            raise ZeroDivisionError(f"inverse of 0 in F_{self.p}")
        return FpElement(pow(self.value, self.p - 2, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"FpElement({self.value}, {self.p})"


class Rationals:
    """The field of rational numbers.  Elements are ``Fraction``."""

    characteristic = 0

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def __call__(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into the rationals")

    def from_pair(self, num: int, den: int) -> Fraction:
        return Fraction(num, den)

    def is_square(self, x: Fraction) -> bool:
        x = self(x)
        if x < 0:
            return False
        n, d = x.numerator, x.denominator
        return isqrt(n) ** 2 == n and isqrt(d) ** 2 == d

    def sqrt(self, x: Fraction) -> Fraction:
        x = self(x)
        if not self.is_square(x):
            raise ValueError(f"{x} is not a square in Q")
        return Fraction(isqrt(x.numerator), isqrt(x.denominator))

    def is_negative(self, x: Fraction) -> bool:
        """Used to pick the canonical sign of square roots."""
        return x < 0

    def random(self, rng) -> Fraction:
        # Small integers keep generated polynomials readable and cheap.
        return Fraction(rng.randint(-9, 9))

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Rationals")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The finite field F_p for an odd prime p.  Elements are ``FpElement``."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p == 2:
            raise ValueError("characteristic 2 is not supported")
        self.p = p

    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def zero(self) -> FpElement:
        return FpElement(0, self.p)

    @property
    def one(self) -> FpElement:
        return FpElement(1, self.p)

    def __call__(self, x) -> FpElement:
        if isinstance(x, FpElement):
            if x.p != self.p:
                raise TypeError(f"element of F_{x.p} is not in F_{self.p}")
            return x
        if isinstance(x, int):
            return FpElement(x, self.p)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes mod {self.p}")
            return FpElement(x.numerator, self.p) / FpElement(x.denominator, self.p)
        raise TypeError(f"cannot coerce {x!r} into F_{self.p}")

    def from_pair(self, num: int, den: int) -> FpElement:
        return FpElement(num, self.p) / FpElement(den, self.p)

    def is_square(self, x) -> bool:
        x = self(x)
        if x.value == 0:
            return True
        # Euler's criterion.
        return pow(x.value, (self.p - 1) // 2, self.p) == 1

    def sqrt(self, x) -> FpElement:
        """The square root of x whose least residue is smallest.

        Tonelli-Shanks: write p - 1 = q * 2^s with q odd; r = x^((q+1)/2)
        is a root up to a 2-power root of unity, corrected from a
        non-residue z until t = x^q becomes 1.
        """
        x = self(x)
        if x.value == 0:
            return self.zero
        if not self.is_square(x):
            raise ValueError(f"{x.value} is not a square in F_{self.p}")
        p, n = self.p, x.value
        q, s = p - 1, 0
        while q % 2 == 0:
            q, s = q // 2, s + 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        c, r, t = pow(z, q, p), pow(n, (q + 1) // 2, p), pow(n, q, p)
        m = s
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2, i = t2 * t2 % p, i + 1
            b = pow(c, 1 << (m - i - 1), p)
            r, c, m = r * b % p, b * b % p, i
            t = t * c % p
        return FpElement(min(r, p - r), p)

    def is_negative(self, x) -> bool:
        """Canonical-sign convention: the 'negative' root is the one whose
        least residue exceeds p/2."""
        x = self(x)
        return 2 * x.value > self.p

    def random(self, rng) -> FpElement:
        return FpElement(rng.randrange(self.p), self.p)

    def elements(self):
        for v in range(self.p):
            yield FpElement(v, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = Rationals()

#: Default prime for exhaustive finite-field scans: large enough to dodge
#: degenerate coincidences, small enough that P^2(F_p) has ~10^4 points.
DEFAULT_SCAN_PRIME = 101
