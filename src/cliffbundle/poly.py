"""Sparse homogeneous multivariate polynomials with exact coefficients.

A polynomial maps packed exponents to nonzero coefficients and carries its
total degree (``None`` for zero, which fits any degree slot).  Exponents are
packed as in Monagan and Pearce (CASC 2007): one int, ``EXP_BITS`` bits per
variable, the first variable most significant, so a monomial product is one
int addition and int order is the graded-lex order of one degree.  No stored
exponent sets the top (guard) bit of its field: fields add without carrying,
a product that sets a guard bit has passed ``EXP_LIMIT``, and divisibility is
one subtraction.  Coefficients are least residues over F_p, and over Q ints
when integral and Fractions otherwise.  Only this module knows the format;
public methods take exponent tuples and return domain elements.

The term kernel (``add_multiple``, ``mul_terms``, ``divide_terms``; ``p`` is
the characteristic) and ``SparsePoly`` serve HomogPoly and BiPoly alike.
Polynomials from different rings never mix.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from operator import or_

from .errors import (
    DegreeMismatchError,
    DegreePatternError,
    ExponentLimitError,
    IndexOutOfRangeError,
    InhomogeneousError,
    NotAPerfectSquareError,
    NotDivisibleError,
    PolyParseError,
    UnknownVariableError,
)
from .linalg import det_cofactor

#: Bits per variable in a packed exponent vector, guard bit included.
EXP_BITS = 16
#: Largest exponent of one variable that a polynomial may carry.
EXP_LIMIT = (1 << (EXP_BITS - 1)) - 1
_FIELD = (1 << EXP_BITS) - 1


def monomials_of_degree(nvars: int, degree: int):
    """All exponent tuples of the given total degree, in a fixed order."""
    if nvars == 1:
        yield (degree,)
        return
    for e in range(degree, -1, -1):
        for rest in monomials_of_degree(nvars - 1, degree - e):
            yield (e,) + rest


# ---------------------------------------------------------------- term kernel

def pack(exps, nfields: int) -> int:
    """The key of an exponent tuple; refuses exponents past EXP_LIMIT."""
    if len(exps) != nfields:
        raise ValueError(f"bad exponent tuple {tuple(exps)}")
    key = 0
    for e in exps:
        if e < 0:
            raise ValueError(f"bad exponent tuple {tuple(exps)}")
        if e > EXP_LIMIT:
            raise ExponentLimitError(
                f"exponent {e} is larger than EXP_LIMIT = {EXP_LIMIT}")
        key = key << EXP_BITS | e
    return key


def unpack(key: int, nfields: int) -> tuple:
    return tuple(key >> s & _FIELD
                 for s in range(EXP_BITS * (nfields - 1), -1, -EXP_BITS))


def split_key(key: int, nlow: int) -> tuple:
    """(high, low) keys of a key whose last ``nlow`` fields form the low one."""
    return key >> EXP_BITS * nlow, key & ((1 << EXP_BITS * nlow) - 1)


def join_key(high: int, low: int, nlow: int) -> int:
    return high << EXP_BITS * nlow | low


@lru_cache(maxsize=None)
def guard_bits(nfields: int) -> int:
    return sum(1 << EXP_BITS * i + EXP_BITS - 1 for i in range(nfields))


def _rational(c):
    """A rational coefficient as an int when integral."""
    return c.numerator if c.denominator == 1 else c


def div_coeff(a, b, p):
    """The exact quotient a / b of two coefficients."""
    if p:
        return a * pow(b, -1, p) % p
    return _rational(Fraction(a, b))


def add_multiple(acc: dict, key: int, coeff, terms: dict, p) -> dict:
    """acc += coeff * x^key * terms, in place; zero terms are dropped."""
    get = acc.get
    for e, c in terms.items():
        k = key + e
        s = (get(k, 0) + coeff * c) % p if p else get(k, 0) + coeff * c
        if s:
            acc[k] = s if type(s) is int else _rational(s)
        else:
            acc.pop(k, None)
    return acc


def mul_terms(a: dict, b: dict, p, nfields: int) -> dict:
    """Product of two term dicts with ``nfields`` fields per key.  Each
    output coefficient accumulates unreduced and is reduced once."""
    acc = {}
    get = acc.get
    inner = list(b.items())
    for e1, c1 in a.items():
        for e2, c2 in inner:
            e = e1 + e2
            acc[e] = get(e, 0) + c1 * c2
    if p:
        out = {e: r for e, c in acc.items() if (r := c % p)}
    else:
        out = {e: c if type(c) is int else _rational(c)
               for e, c in acc.items() if c}
    if reduce(or_, out, 0) & guard_bits(nfields):
        raise ExponentLimitError(
            f"a product has an exponent larger than EXP_LIMIT = {EXP_LIMIT}")
    return out


def _quotient_key(re: int, ge: int, guard: int):
    """re - ge when ge divides re, else None."""
    if re & guard:
        raise ExponentLimitError(
            f"a remainder has an exponent larger than EXP_LIMIT = {EXP_LIMIT}")
    q = (re | guard) - ge
    return q ^ guard if q & guard == guard else None


def divide_terms(f: dict, g: dict, p, nfields: int) -> tuple:
    """(quotient, remainder) of greedy leading-term division of f by g,
    updating one remainder in place.  The remainder is empty when g divides
    f; otherwise it is the first whose leading term g's does not divide."""
    ge, guard = max(g), guard_bits(nfields)
    gc = g[ge]
    rem = dict(f)
    quo = {}
    while rem:
        re = max(rem)
        qe = _quotient_key(re, ge, guard)
        if qe is None:
            break
        qc = quo[qe] = div_coeff(rem[re], gc, p)
        add_multiple(rem, qe, -qc, g, p)
    return quo, rem


class SparsePoly:
    """A term dict over a PolyRing, with the arithmetic that HomogPoly and
    BiPoly share.  A subclass defines ``degree`` (what the operands of a
    sum must agree on) and ``_like(terms)`` (a result with the same setting
    and degree), and extends ``_setting`` and ``_fields`` (fields per key)."""

    __slots__ = ("ring", "terms")

    def __init__(self, *args, **kwargs):
        raise TypeError("build polynomials through a PolyRing, the BiPoly "
                        "constructors or the arithmetic operators")

    @property
    def _setting(self):
        return self.ring

    @property
    def _fields(self):
        return len(self.ring.variables)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._setting == other._setting and self.terms == other.terms

    __hash__ = None

    def _check(self, other):
        if self._setting != other._setting:
            raise TypeError(f"{type(self).__name__} operands from different settings")

    def iter_terms(self):
        """(exponent tuple, coefficient in the domain) for every term."""
        n, dom = self._fields, self.ring.domain
        for key, c in self.terms.items():
            yield unpack(key, n), dom(c)

    def _combine(self, other, sign):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        if not other.terms:
            return self
        if not self.terms:
            return other if sign > 0 else -other
        if self.degree != other.degree:
            raise DegreeMismatchError(f"adding degrees {self.degree} and {other.degree}")
        return self._like(add_multiple(dict(self.terms), 0, sign, other.terms,
                                       self.ring.modulus))

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = self.ring.coerce(c)
        return self._like(add_multiple({}, 0, c, self.terms, self.ring.modulus)
                          if c else {})

    def _product(self, other):
        """The terms of self * other, or NotImplemented for a non-scalar."""
        if type(other) is type(self):
            self._check(other)
            return mul_terms(self.terms, other.terms, self.ring.modulus, self._fields)
        try:
            c = self.ring.domain(other)
        except TypeError:
            return NotImplemented
        return self.scale(c).terms

    def _evaluate(self, point):
        dom = self.ring.domain
        pt = [dom(x) for x in point]
        if len(pt) != self._fields:
            raise ValueError("wrong number of coordinates")
        shifts = range(EXP_BITS * (len(pt) - 1), -1, -EXP_BITS)
        total = dom.zero
        for key, c in self.terms.items():
            v = dom(c)
            for x, s in zip(pt, shifts):
                e = key >> s & _FIELD
                if e:
                    v = v * (x if e == 1 else x ** e)
            total = total + v
        return total


# ---------------------------------------------------------------------- ring

class PolyRing:
    """A polynomial ring: scalar domain plus an ordered variable tuple."""

    __slots__ = ("domain", "variables", "modulus")

    def __init__(self, domain, variables=("u", "v", "w")):
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        self.domain = domain
        self.variables = tuple(variables)
        self.modulus = domain.characteristic

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def coerce(self, c):
        """A value as a stored coefficient."""
        if type(c) is int:
            return c % self.modulus if self.modulus else c
        c = self.domain(c)
        return c.value if self.modulus else _rational(c)

    @property
    def zero(self) -> "HomogPoly":
        return HomogPoly._make(self, {}, None)

    @property
    def one(self) -> "HomogPoly":
        return self.constant(1)

    def constant(self, c) -> "HomogPoly":
        return self.poly({(0,) * self.nvars: c})

    def variable(self, which) -> "HomogPoly":
        if isinstance(which, str):
            if which not in self.variables:
                raise UnknownVariableError(f"unknown variable {which!r}")
            which = self.variables.index(which)
        exps = [0] * self.nvars
        exps[which] = 1
        return self.poly({tuple(exps): 1})

    def monomial(self, coeff, exps) -> "HomogPoly":
        return self.poly({tuple(exps): coeff})

    def poly(self, terms: dict) -> "HomogPoly":
        """Validated construction from an exponent->coefficient mapping."""
        clean = {}
        degree = None
        for exps, c in terms.items():
            key = pack(exps, self.nvars)
            c = self.coerce(c)
            if not c:
                continue
            d = sum(exps)
            if degree is None:
                degree = d
            elif d != degree:
                raise InhomogeneousError(
                    f"terms of degree {degree} and {d} in one polynomial")
            clean[key] = c
        return HomogPoly._make(self, clean, degree)

    def __call__(self, x) -> "HomogPoly":
        # Coercion hook so a PolyRing can stand in for a scalar domain
        # wherever only zero / one / coercion are needed (e.g. building
        # algebras whose structure constants are polynomials).
        if isinstance(x, HomogPoly):
            if x.ring != self:
                raise TypeError("polynomial from a different ring")
            return x
        return self.constant(x)

    def parse(self, text: str) -> "HomogPoly":
        return parse_poly(text, self)

    def random_homogeneous(self, degree: int, rng, nonzero: bool = False) -> "HomogPoly":
        """Random homogeneous polynomial with coefficients from the domain."""
        for _ in range(1000):
            terms = {}
            for exps in monomials_of_degree(self.nvars, degree):
                c = self.domain.random(rng)
                if c:
                    terms[exps] = c
            if terms or not nonzero:
                break
        else:
            raise RuntimeError("random generation kept producing zero")
        return self.poly(terms)

    def __eq__(self, other):
        return self is other or (isinstance(other, PolyRing)
                                 and self.domain == other.domain
                                 and self.variables == other.variables)

    def __hash__(self):
        return hash((self.domain, self.variables))

    def __repr__(self):
        return f"PolyRing({self.domain!r}, {self.variables})"


class HomogPoly(SparsePoly):
    """Immutable homogeneous polynomial.  Build through a PolyRing."""

    __slots__ = ("degree",)

    @classmethod
    def _make(cls, ring, terms, degree):
        self = object.__new__(cls)
        self.ring = ring
        self.terms = terms
        self.degree = degree if terms else None
        return self

    def _like(self, terms):
        return HomogPoly._make(self.ring, terms, self.degree)

    def leading(self):
        """(exponents, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        key = max(self.terms)
        return unpack(key, self._fields), self.ring.domain(self.terms[key])

    def coefficient(self, exps):
        return self.ring.domain(self.terms.get(pack(tuple(exps), self._fields), 0))

    def __mul__(self, other):
        terms = self._product(other)
        if terms is NotImplemented:
            return terms
        if type(other) is HomogPoly and terms:
            return HomogPoly._make(self.ring, terms, self.degree + other.degree)
        return self._like(terms)

    __rmul__ = __mul__

    def evaluate(self, point):
        """Value at a point, in the domain's element arithmetic."""
        return self._evaluate(point)

    def partial(self, which) -> "HomogPoly":
        """Formal partial derivative with respect to one variable."""
        if isinstance(which, str):
            which = self.ring.variables.index(which)
        shift = EXP_BITS * (self._fields - 1 - which)
        terms = {}
        for key, c in self.terms.items():
            e = key >> shift & _FIELD
            if e:
                terms[key - (1 << shift)] = c * e
        terms = add_multiple({}, 0, 1, terms, self.ring.modulus)
        return HomogPoly._make(self.ring, terms, self.degree - 1 if terms else None)

    def __str__(self):
        return terms_to_string(self.terms, self.ring.variables)

    def __repr__(self):
        return f"<{self}>"


# ------------------------------------------------------------------ printing

def monomial_string(variables, exps):
    parts = []
    for name, e in zip(variables, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def terms_to_string(terms: dict, variables) -> str:
    """A term dict in the input grammar, leading term first.  Prime-field
    coefficients are least residues and never get a sign."""
    if not terms:
        return "0"
    out = []
    for key in sorted(terms, reverse=True):
        c = terms[key]
        neg, mag = c < 0, str(abs(c))
        mono = monomial_string(variables, unpack(key, len(variables)))
        if mono and mag == "1":
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = mag
        if not out:
            out.append(f"-{body}" if neg else body)
        else:
            out.append(f" - {body}" if neg else f" + {body}")
    return "".join(out)


# ------------------------------------------------------------------- parsing

def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j]))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
        elif ch in "+-*/^":
            tokens.append((ch, ch))
            i += 1
        else:
            raise PolyParseError(f"bad character {ch!r} at position {i}")
    return tokens


class _Parser:
    def __init__(self, tokens, ring):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self, kind=None):
        if self.pos >= len(self.tokens):
            raise PolyParseError("unexpected end of input")
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise PolyParseError(f"expected {kind}, found {tok[1]!r}")
        self.pos += 1
        return tok

    def parse(self):
        terms = {}
        degree = None
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        while True:
            coeff, exps = self.term()
            if coeff:
                d = sum(exps)
                if degree is None:
                    degree = d
                elif d != degree:
                    raise InhomogeneousError(
                        f"mixed degrees {degree} and {d} in input")
                key = pack(exps, len(exps))
                add_multiple(terms, key, sign * coeff, {0: 1}, self.ring.modulus)
            nxt = self.peek()
            if nxt is None:
                break
            if nxt == "+":
                self.take()
                sign = 1
            elif nxt == "-":
                self.take()
                sign = -1
            else:
                raise PolyParseError(f"expected + or -, found {self.tokens[self.pos][1]!r}")
        return HomogPoly._make(self.ring, terms, degree)

    def term(self):
        ring = self.ring
        kind = self.peek()
        if kind == "int":
            num = int(self.take()[1])
            den = 1
            if self.peek() == "/":
                self.take()
                den = int(self.take("int")[1])
                if den == 0:
                    raise PolyParseError("zero denominator")
            coeff = ring.coerce(num if den == 1 else ring.domain.from_pair(num, den))
            if self.peek() == "*":
                save = self.pos
                self.take()
                if self.peek() != "name":
                    self.pos = save
                    return coeff, (0,) * ring.nvars
                return coeff, self.monomial()
            return coeff, (0,) * ring.nvars
        if kind == "name":
            return 1, self.monomial()
        tok = self.tokens[self.pos][1] if self.pos < len(self.tokens) else "end of input"
        raise PolyParseError(f"expected a term, found {tok!r}")

    def monomial(self):
        exps = [0] * self.ring.nvars
        while True:
            name = self.take("name")[1]
            if name not in self.ring.variables:
                raise UnknownVariableError(f"unknown variable {name!r}")
            power = 1
            if self.peek() == "^":
                self.take()
                power = int(self.take("int")[1])
                if power < 1:
                    raise PolyParseError("exponent must be positive")
            exps[self.ring.variables.index(name)] += power
            if self.peek() == "*" and self.pos + 1 < len(self.tokens) \
                    and self.tokens[self.pos + 1][0] == "name":
                self.take()
                continue
            break
        return tuple(exps)


def parse_poly(text: str, ring: PolyRing) -> HomogPoly:
    """Parse polynomial text (see the CLI grammar) into canonical form."""
    tokens = _tokenize(text)
    if not tokens:
        raise PolyParseError("empty input")
    return _Parser(tokens, ring).parse()


# ---------------------------------------------------------- polynomial matrix

class PolyMatrix:
    """Rectangular grid of polynomials from one ring, with an optional
    per-entry expected-degree pattern (zero entries fit any slot)."""

    __slots__ = ("entries", "degree_pattern")

    def __init__(self, entries, degree_pattern=None):
        rows = tuple(tuple(row) for row in entries)
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("entries must form a nonempty rectangle")
        ring = rows[0][0].ring
        for row in rows:
            for f in row:
                if f.ring != ring:
                    raise ValueError("matrix entries from different rings")
        self.entries = rows
        self.degree_pattern = None
        if degree_pattern is not None:
            pattern = tuple(tuple(row) for row in degree_pattern)
            for i, row in enumerate(rows):
                for j, f in enumerate(row):
                    if f and f.degree != pattern[i][j]:
                        raise DegreePatternError(
                            f"entry ({i + 1},{j + 1}) has degree {f.degree}, "
                            f"pattern expects {pattern[i][j]}")
            self.degree_pattern = pattern

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @property
    def ring(self) -> PolyRing:
        return self.entries[0][0].ring

    def entry(self, i: int, j: int) -> HomogPoly:
        return self.entries[i][j]

    def is_symmetric(self) -> bool:
        return (self.rows == self.cols
                and all(self.entries[i][j] == self.entries[j][i]
                        for i in range(self.rows) for j in range(i)))

    def map(self, fn) -> "PolyMatrix":
        return PolyMatrix(tuple(tuple(fn(f) for f in row) for row in self.entries))

    def __neg__(self):
        return self.map(lambda f: -f)

    def __add__(self, other):
        return PolyMatrix(tuple(
            tuple(a + b for a, b in zip(r1, r2))
            for r1, r2 in zip(self.entries, other.entries)))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, PolyMatrix):
            return self.map(lambda f: f * other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        zero = self.ring.zero
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = zero
                for k in range(self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(tuple(row))
        return PolyMatrix(tuple(out))

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.entries == other.entries

    __hash__ = None

    def evaluate(self, point):
        """Scalar matrix of entry values at a point."""
        return [[f.evaluate(point) for f in row] for row in self.entries]

    def __repr__(self):
        body = "; ".join(", ".join(str(f) for f in row) for row in self.entries)
        return f"PolyMatrix[{body}]"


def _grid(m):
    if isinstance(m, PolyMatrix):
        return m.entries
    return tuple(tuple(row) for row in m)


def det(m) -> HomogPoly:
    """Exact determinant of a square polynomial matrix (cofactor expansion)."""
    g = _grid(m)
    if len(g) != len(g[0]):
        raise ValueError("determinant of a non-square matrix")
    return det_cofactor([list(row) for row in g])


def det3(m) -> HomogPoly:
    """Determinant of a 3x3 polynomial matrix."""
    g = _grid(m)
    if len(g) != 3 or len(g[0]) != 3:
        raise ValueError("det3 needs a 3x3 matrix")
    return det(g)


def minor(m, drop_row: int, drop_col: int) -> HomogPoly:
    """Determinant of the submatrix with 1-based row ``drop_row`` and column
    ``drop_col`` removed."""
    g = _grid(m)
    if not (1 <= drop_row <= len(g) and 1 <= drop_col <= len(g[0])):
        raise IndexOutOfRangeError(
            f"minor index ({drop_row},{drop_col}) outside {len(g)}x{len(g[0])}")
    sub = [row[:drop_col - 1] + row[drop_col:]
           for i, row in enumerate(g) if i != drop_row - 1]
    return det(sub)


def adjugate3(m) -> PolyMatrix:
    """Transpose of the cofactor matrix; m * adjugate3(m) = det3(m) * I."""
    g = _grid(m)
    if len(g) != 3 or len(g[0]) != 3:
        raise ValueError("adjugate3 needs a 3x3 matrix")
    out = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            cof = minor(g, i + 1, j + 1)
            if (i + j) % 2 == 1:
                cof = -cof
            out[j][i] = cof
    return PolyMatrix(out)


# ------------------------------------------------------------ exact division

def divide_exact(f: HomogPoly, g: HomogPoly) -> HomogPoly:
    """Quotient h with f = g*h, when it exists.

    Greedy leading-term cancellation in graded-lex order.  When f is a
    multiple of g this always succeeds (the leading term of a product is the
    product of leading terms); otherwise some intermediate leading term fails
    to divide and the offending remainder is attached to the error.
    """
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero:
        return f.ring.zero
    f._check(g)
    if f.degree < g.degree:
        raise NotDivisibleError("degree of divisor exceeds degree of dividend",
                                remainder=f)
    ring = f.ring
    quo, rem = divide_terms(f.terms, g.terms, ring.modulus, ring.nvars)
    if rem:
        rem = HomogPoly._make(ring, rem, f.degree)
        raise NotDivisibleError(
            f"leading monomial not divisible; remainder {rem}", remainder=rem)
    return HomogPoly._make(ring, quo, f.degree - g.degree)


def poly_sqrt(f: HomogPoly) -> HomogPoly:
    """Polynomial square root g with g*g = f, canonically signed.

    The root is built term by term from the graded-lex leading term (whose
    exponent must be componentwise even and whose coefficient must be a
    square in the domain).  Each new term t updates the residual f - g*g in
    place by -t*(2g + t); its leading term must shrink at every step, and
    the root is verified by squaring.  Of the two roots the one whose
    leading coefficient is positive (rationals) respectively the least
    residue (prime fields) is returned.
    """
    if f.is_zero:
        return f
    if f.degree % 2 != 0:
        raise NotAPerfectSquareError(f"odd degree {f.degree}")
    ring = f.ring
    dom, p, guard = ring.domain, ring.modulus, guard_bits(ring.nvars)
    fe = max(f.terms)
    if fe & (guard >> (EXP_BITS - 1)):
        raise NotAPerfectSquareError("leading monomial is not a square")
    fc = dom(f.terms[fe])
    if not dom.is_square(fc):
        raise NotAPerfectSquareError("leading coefficient is not a square")
    ge = fe >> 1
    gc = ring.coerce(dom.sqrt(fc))
    root = {ge: gc}
    rem = dict(f.terms)
    del rem[fe]  # the square of the root's leading term
    prev = fe
    while rem:
        re = max(rem)
        if re >= prev:
            raise NotAPerfectSquareError("residual stopped shrinking")
        prev = re
        qe = _quotient_key(re, ge, guard)
        if qe is None:
            raise NotAPerfectSquareError("residual not reducible by the leading term")
        t = div_coeff(rem[re], 2 * gc, p)
        add_multiple(rem, qe, -2 * t, root, p)
        add_multiple(rem, qe, -t, {qe: t}, p)
        root[qe] = t
    g = HomogPoly._make(ring, root, f.degree // 2)
    if g * g != f:
        raise NotAPerfectSquareError("verification failed")
    _, lc = g.leading()
    if dom.is_negative(lc):
        g = -g
    return g
