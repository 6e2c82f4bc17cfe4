"""Sparse homogeneous polynomials, BiPolys over them, and polynomial matrices.

A polynomial maps packed exponents to nonzero coefficients and carries its
total degree (``None`` for zero).  Exponents are packed as in Monagan and
Pearce (CASC 2007): one int, ``EXP_BITS`` bits per variable, the first most
significant, so a monomial product is one int addition and int order is
graded-lex within a degree.  No stored exponent sets the top (guard) bit of
its field, so fields add without carrying, a product that sets one has
passed ``EXP_LIMIT``, and divisibility is one subtraction.  Coefficients
are least residues over F_p, and over Q ints when integral and Fractions
otherwise.  Only this module knows the format; public methods take
exponent tuples.  Polynomials from different rings never mix.

The term kernel (``add_multiple``, ``add_product``, ``reduce_terms``,
``mul_terms``, ``divide_terms``; ``p`` is the characteristic) serves
HomogPoly and BiPoly alike.  A sum of products is summed in one
accumulator, as Monagan and Pearce do: ``add_product`` adds each product
unreduced and ``reduce_terms`` reduces the sum once.  Other modules reach
it through ``sum_of_products`` (behind ``det``, ``minor`` and
``adjugate3``) and ``specializer``.  Printing reads each monomial's text
from a bounded table.  Parsing reads text in the printer's form a term at a
time (``_read``), each monomial's key from the inverse table, and leaves
any other text to a token walker (``_walk``), which names every refusal.
Printing and parsing take a number of more than 600 digits through
``Decimal``, past any int-to-str digit limit.

``evaluate`` walks the terms with one ``pow`` per exponent and is the
independent route; ``lowered_values`` evaluates many polynomials in three
variables at one point from one table of powers per coordinate.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from functools import cache, reduce
from itertools import groupby
from math import lcm
from operator import mul, or_

from .errors import (
    DegreeMismatchError,
    ExponentLimitError,
    IndexOutOfRangeError,
    InhomogeneousError,
    NotAPerfectSquareError,
    NotDivisibleError,
    PolyParseError,
    UnknownVariableError,
)
from .scalars import lower

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
                f"exponent {_number(e)} is larger than EXP_LIMIT = {EXP_LIMIT}")
        key = key << EXP_BITS | e
    return key


def unpack(key: int, nfields: int) -> tuple:
    return tuple([key >> s & _FIELD
                  for s in range(EXP_BITS * (nfields - 1), -1, -EXP_BITS)])


@cache
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


def add_product(acc: dict, a: dict, b: dict, sign: int = 1) -> dict:
    """acc += sign * a * b (sign 1 or -1), in place and unreduced: not mod
    p, zero terms kept until ``reduce_terms``."""
    get = acc.get
    inner = list(b.items())
    for e1, c1 in a.items():
        if sign < 0:
            c1 = -c1
        for e2, c2 in inner:
            e = e1 + e2
            acc[e] = get(e, 0) + c1 * c2
    return acc


def _refuse_past_limit(keys, nfields: int):
    if reduce(or_, keys, 0) & guard_bits(nfields):
        raise ExponentLimitError(
            f"a product has an exponent larger than EXP_LIMIT = {EXP_LIMIT}")


def reduce_terms(acc: dict, p, nfields: int) -> dict:
    """The term dict of an unreduced accumulator with ``nfields`` fields per
    key.  A set guard bit is refused before zero terms drop, so a product
    past EXP_LIMIT is refused even if it cancels."""
    _refuse_past_limit(acc, nfields)
    if p:
        return {e: r for e, c in acc.items() if (r := c % p)}
    return {e: c if type(c) is int else _rational(c) for e, c in acc.items() if c}


def mul_terms(a: dict, b: dict, p, nfields: int) -> dict:
    """Product of two term dicts with ``nfields`` fields per key."""
    return reduce_terms(add_product({}, a, b), p, nfields)


def _quotient_key(re: int, ge: int, guard: int):
    """re - ge when ge divides re, else None."""
    if re & guard:
        raise ExponentLimitError(
            f"a remainder has an exponent larger than EXP_LIMIT = {EXP_LIMIT}")
    q = (re | guard) - ge
    return q ^ guard if q & guard == guard else None


def divide_terms(f: dict, g: dict, p, nfields: int) -> tuple:
    """(quotient, remainder) of greedy leading-term division of f by g in
    place; the remainder is empty when g divides f, else the first whose
    leading term g's does not divide."""
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
    """A term dict over a PolyRing with its ``degree``: what HomogPoly and
    BiPoly share.  A subclass defines ``_new(terms, degree)`` and
    ``_degree_of_product``, and extends ``_setting`` and ``_fields``."""

    __slots__ = ("ring", "terms", "degree")

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

    def _like(self, terms):
        """A result with the setting and degree of self."""
        return self._new(terms, self.degree)

    def iter_terms(self):
        """(exponent tuple, coefficient in the domain) for every term."""
        n, dom = self._fields, self.ring.domain
        for key, c in self.terms.items():
            yield unpack(key, n), dom(c)

    def int_terms(self):
        """(exponent tuple, stored coefficient) for every term, unboxed."""
        n = self._fields
        for key, c in self.terms.items():
            yield unpack(key, n), c

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
        """The terms of self * other, or NotImplemented for a non-scalar
        (a polynomial of the other class before the domain refuses it)."""
        if type(other) is type(self):
            self._check(other)
            return mul_terms(self.terms, other.terms, self.ring.modulus, self._fields)
        if isinstance(other, SparsePoly):
            return NotImplemented
        try:
            c = self.ring.domain(other)
        except TypeError:
            return NotImplemented
        return self.scale(c).terms

    def _evaluate(self, point):
        """The value at a point, summed in plain ints, one ``pow`` per
        exponent (only powers reduced over F_p), and boxed once.  Over Q the
        point is X / den (``scalars.lower``), so the terms of degree d sum
        to c * X^e and are divided by den^d once."""
        dom = self.ring.domain
        xs, den = lower(dom, point)
        if len(xs) != self._fields:
            raise ValueError("wrong number of coordinates")
        mod = self.ring.modulus or None
        shifts = range(EXP_BITS * (len(xs) - 1), -1, -EXP_BITS)
        sums = {}
        for key, c in self.terms.items():
            d = 0
            for x, s in zip(xs, shifts):
                e = key >> s & _FIELD
                if e:
                    c = c * (x if e == 1 else pow(x, e, mod))
                    d += e
            sums[d] = sums.get(d, 0) + c
        if den == 1:
            return dom(sum(sums.values()))
        return dom(sum(Fraction(c, den ** d) for d, c in sums.items()))


# ---------------------------------------------------------- sums of products

def sum_of_products(products, like: SparsePoly) -> SparsePoly:
    """sum sign * f * g over triples (sign, f, g), sign 1 or -1, of
    polynomials of the class and setting of ``like``, each added by
    ``add_product`` into one accumulator, reduced once.  The nonzero
    products must agree in degree."""
    acc, degree, setting = {}, None, like._setting
    for sign, f, g in products:
        if not (f.terms and g.terms):
            continue
        # A HomogPoly's setting is its ring, so identity settles its check.
        if not (f._setting is setting is g._setting):
            like._check(f)
            like._check(g)
        d = f._degree_of_product(g)
        if degree not in (None, d):
            raise DegreeMismatchError(f"adding degrees {degree} and {d}")
        degree = d
        add_product(acc, f.terms, g.terms, sign)
    terms = reduce_terms(acc, like.ring.modulus, like._fields)
    return like._new(terms, degree)


class _Products(dict):
    """{exponent tuple: (unreduced terms, degree)} of the products of
    ``entries``, each built on its first lookup by one ``add_product`` of
    the product with one factor fewer, where one past EXP_LIMIT is
    refused."""

    def __init__(self, entries, nvars):
        self.entries, self.nvars = entries, nvars
        n = len(entries)
        self[(0,) * n] = {0: 1}, 0
        for k, x in enumerate(entries):
            self[tuple(int(i == k) for i in range(n))] = x.terms, x.degree

    def __missing__(self, exps):
        k = max(i for i, e in enumerate(exps) if e)
        terms, d = self[exps[:k] + (exps[k] - 1,) + exps[k + 1:]]
        x = self.entries[k]
        terms = add_product({}, terms, x.terms)
        _refuse_past_limit(terms, self.nvars)
        product = self[exps] = terms, d + x.degree if terms else None
        return product


def specializer(entries, ring):
    """Integer polynomials evaluated at the HomogPolys ``entries`` of
    ``ring``: ``at(terms)`` maps int terms ``((exps, c), ...)`` to the
    HomogPoly sum c * entries^exps, ``at(groups, weights)`` maps
    ``((alpha exps, terms), ...)`` to the BiPoly of those coefficients.
    Each sums in one accumulator, reduced once; nonzero products must agree
    in degree, nonzero groups in bidegree.  Calls share a memo of unreduced
    products of entries (``_Products``), which holds no reference cycle."""
    p, nvars = ring.modulus, ring.nvars
    products = _Products(entries, nvars)

    def add(acc, shift, terms):
        # acc += sum c * entries^exps << shift; the degree or None.
        get, degree = acc.get, None
        for exps, c in terms:
            f, d = products[exps]
            if p:
                c %= p
            if c and f:
                if degree not in (None, d):
                    raise DegreeMismatchError(f"adding degrees {degree} and {d}")
                degree = d
                for e, fc in f.items():
                    e += shift
                    acc[e] = get(e, 0) + c * fc
        return degree

    def at(terms, weights=None):
        acc = {}
        if weights is None:
            degree = add(acc, 0, terms)
            return HomogPoly._make(ring, reduce_terms(acc, p, nvars), degree)
        shift, grades = EXP_BITS * nvars, {}
        for aex, group in terms:
            alpha = pack(aex, 3)
            d = add(acc, alpha << shift, group)
            if d is not None:
                grades[alpha] = sum(aex), d - sum(map(mul, weights, aex))
        acc = reduce_terms(acc, p, 3 + nvars)
        return BiPoly._make(ring, tuple(weights), acc,
                            _one_grade({grades[k >> shift] for k in acc}))

    return at


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

    def variable_index(self, which) -> int:
        """The 0-based position of a variable, from its name or its index."""
        if isinstance(which, str):
            if which not in self.variables:
                raise UnknownVariableError(f"unknown variable {which!r}")
            return self.variables.index(which)
        if not 0 <= which < self.nvars:
            raise IndexOutOfRangeError(f"variable index {which} outside 0..{self.nvars - 1}")
        return which

    def variable(self, which) -> "HomogPoly":
        which = self.variable_index(which)
        return self.poly({tuple(int(k == which) for k in range(self.nvars)): 1})

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
        # Coercion, so a PolyRing can stand in for a scalar domain.
        if isinstance(x, HomogPoly):
            if x.ring != self:
                raise TypeError("polynomial from a different ring")
            return x
        return self.constant(x)

    def parse(self, text: str) -> "HomogPoly":
        return parse_poly(text, self)

    def random_homogeneous(self, degree: int, rng) -> "HomogPoly":
        """Random homogeneous polynomial with coefficients from the domain."""
        return self.poly({exps: c for exps in monomials_of_degree(self.nvars, degree)
                          if (c := self.domain.random(rng))})

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

    __slots__ = ()

    @classmethod
    def _make(cls, ring, terms, degree):
        self = object.__new__(cls)
        self.ring = ring
        self.terms = terms
        self.degree = degree if terms else None
        return self

    def _new(self, terms, degree):
        return HomogPoly._make(self.ring, terms, degree)

    def _degree_of_product(self, other):
        return self.degree + other.degree

    def coefficient(self, exps):
        return self.ring.domain(self.terms.get(pack(tuple(exps), self._fields), 0))

    def __mul__(self, other):
        terms = self._product(other)
        if terms is NotImplemented:
            return terms
        if type(other) is HomogPoly and terms:
            return self._new(terms, self._degree_of_product(other))
        return self._like(terms)

    __rmul__ = __mul__

    evaluate = SparsePoly._evaluate

    def partial(self, which) -> "HomogPoly":
        """Formal partial derivative in one variable (``variable_index``)."""
        which = self.ring.variable_index(which)
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


# -------------------------------------------------------------------- BiPoly

ALPHA_NAMES = ("a1", "a2", "a3")


class BiPoly(SparsePoly):
    """Polynomial in alpha_1..alpha_3 with homogeneous base coefficients.

    A key packs the alpha exponents above the base ones, so the kernel
    sees six variables, and a HomogPoly key has alpha exponents zero.
    ``degree`` is the pair (alpha degree, deg(coeff) - sum(weights_i *
    alpha_exp_i)), which every term of a nonzero BiPoly shares.
    """

    __slots__ = ("weights",)

    @classmethod
    def _make(cls, ring, weights, terms, degree):
        self = object.__new__(cls)
        self.ring = ring
        self.weights = weights
        self.terms = terms
        self.degree = degree if terms else None
        return self

    def _new(self, terms, degree):
        return BiPoly._make(self.ring, self.weights, terms, degree)

    def _degree_of_product(self, other):
        (a, w), (b, v) = self.degree, other.degree
        return a + b, w + v

    @property
    def _setting(self):
        return self.ring, self.weights

    @property
    def _fields(self):
        return 3 + self.ring.nvars

    def coefficient(self, alpha_exps) -> HomogPoly:
        """The base-polynomial coefficient of one alpha monomial."""
        alpha_exps = tuple(alpha_exps)
        return self.ring.poly({exps[3:]: c for exps, c in self.iter_terms()
                               if exps[:3] == alpha_exps})

    def __mul__(self, other):
        if isinstance(other, HomogPoly):
            if other.ring != self.ring:
                raise TypeError("coefficient from a different ring")
            terms = mul_terms(self.terms, other.terms, self.ring.modulus,
                              self._fields)
            step = (0, other.degree)
        elif type(other) is BiPoly:
            terms, step = self._product(other), other.degree
        else:
            terms = self._product(other)
            return terms if terms is NotImplemented else self._like(terms)
        if not terms:
            return self._like(terms)
        (a, w), (b, v) = self.degree, step
        return BiPoly._make(self.ring, self.weights, terms, (a + b, w + v))

    __rmul__ = __mul__

    def evaluate(self, base_point, alpha_point):
        """Scalar value with base and alpha coordinates substituted."""
        return self._evaluate(list(alpha_point) + list(base_point))

    def __str__(self):
        """One group per alpha monomial, its coefficient in brackets: the
        sorted keys split where the alpha fields change."""
        shift, variables = EXP_BITS * self.ring.nvars, self.ring.variables
        return " + ".join(
            f"({_terms_string(keys, self.terms, variables)})*"
            f"{_texts(ALPHA_NAMES)[alpha] or '1'}"
            for alpha, keys in groupby(sorted(self.terms, reverse=True),
                                       lambda key: key >> shift)) or "0"

    __repr__ = __str__


def bipoly_from_alpha_map(ring: PolyRing, weights, mapping) -> BiPoly:
    """Build a BiPoly from {alpha exponent tuple: HomogPoly coefficient}."""
    weights = tuple(weights)
    terms, grades = {}, set()
    for aex, poly in mapping.items():
        alpha = pack(tuple(aex), 3) << EXP_BITS * ring.nvars
        if poly.is_zero:
            continue
        if poly.ring != ring:
            raise TypeError("coefficient from a different ring")
        for base, c in poly.terms.items():
            terms[alpha | base] = c
        grades.add((sum(aex), poly.degree - sum(map(mul, weights, aex))))
    return BiPoly._make(ring, weights, terms, _one_grade(grades))


def _one_grade(grades):
    """The bidegree all of ``grades`` share (None if there is none); mixed
    bidegrees raise DegreeMismatchError."""
    if len(grades) > 1:
        raise DegreeMismatchError(f"mixed bidegrees {sorted(grades)}")
    return next(iter(grades), None)


def alpha_variable(ring: PolyRing, weights, i: int) -> BiPoly:
    """The coordinate alpha_i (i = 1, 2, 3) as a BiPoly."""
    if not 1 <= i <= 3:
        raise IndexOutOfRangeError(f"alpha index {i} outside 1..3")
    aex = tuple(int(k == i - 1) for k in range(3))
    return bipoly_from_alpha_map(ring, weights, {aex: ring.one})


def divide_exact_bipoly(f: BiPoly, g: BiPoly) -> BiPoly:
    """Exact division of BiPolys by greedy leading-term cancellation (lex
    order on the combined exponents)."""
    if g.is_zero:
        raise ZeroDivisionError("division by the zero BiPoly")
    f._check(g)
    quo, rem = divide_terms(f.terms, g.terms, f.ring.modulus, f._fields)
    if rem:
        raise NotDivisibleError("BiPoly division failed", remainder=f._like(rem))
    degree = f.degree and tuple(x - y for x, y in zip(f.degree, g.degree))
    return BiPoly._make(f.ring, f.weights, quo, degree)


# ------------------------------------------------------------------ printing

@cache
def _shifts(variables) -> tuple:
    """(name, shift) per variable: its exponent is key >> shift & _FIELD."""
    top = EXP_BITS * (len(variables) - 1)
    return tuple((name, top - EXP_BITS * k) for k, name in enumerate(variables))


#: Most texts a ``_Texts`` table keeps.
_TEXTS_BOUND = 4096
#: The lowest nonzero int <-> str limit CPython accepts: an int of at most
#: this many digits converts to and from text by ``str`` and ``int`` under
#: any limit, without looking one up; the printer and the reader take a
#: longer one through ``Decimal``, which has none.
INT_DIGIT_FLOOR = 640
_SHORT = 10 ** INT_DIGIT_FLOOR


class _Texts(dict):
    """{key: text of the monomial of the fields of ``variables`` in it},
    written on a miss and emptied when it holds ``_TEXTS_BOUND`` texts."""

    def __init__(self, variables):
        self.shifts = _shifts(variables)

    def __missing__(self, key):
        if len(self) >= _TEXTS_BOUND:
            self.clear()
        text = self[key] = "*".join([name if e == 1 else f"{name}^{e}"
                                     for name, s in self.shifts
                                     if (e := key >> s & _FIELD)])
        return text


_texts = cache(_Texts)


def _number(c) -> str:
    """A coefficient c >= 0 as text, exact and past any digit limit."""
    if type(c) is not int:
        return f"{_number(c.numerator)}/{_number(c.denominator)}"
    return str(c) if c < _SHORT else str(Decimal(c))


def _terms_string(keys, terms: dict, variables) -> str:
    """The terms of ``keys``, in their order, in the input grammar."""
    texts, out = _texts(variables), []
    for key in keys:
        c, mono = terms[key], texts[key]
        if c < 0:
            out.append(" - ")
            c = -c
        else:
            out.append(" + ")
        if type(c) is not int or c >= _SHORT:
            c = _number(c)
        out.append(f"{c}*{mono}" if mono and c != 1 else mono or f"{c}")
    out[0] = "-" if out[0] == " - " else ""
    return "".join(out)


def terms_to_string(terms: dict, variables) -> str:
    """A term dict in the input grammar, leading term first.  Prime-field
    coefficients are least residues and never get a sign."""
    if not terms:
        return "0"
    return _terms_string(sorted(terms, reverse=True), terms, variables)


# ------------------------------------------------------------------- parsing

class _Keys(dict):
    """{monomial text: (key, degree)}, the inverse of ``_Texts``, or None
    for a text that ``_read`` leaves to the walker: one factor ``name`` or
    ``name^e`` is read on its own, a product sums its factors' entries.
    Only a variable named by an identifier is read, as the walker reads
    it, one token.  Written on a miss and emptied when it holds
    ``_TEXTS_BOUND`` texts."""

    def __init__(self, variables):
        self.units = {name: 1 << s for name, s in _shifts(variables)
                      if name.isidentifier()}

    def __missing__(self, text):
        if len(self) >= _TEXTS_BOUND:
            self.clear()
        found = None
        if "*" in text:
            key = d = 0
            for factor in text.split("*"):
                entry = self[factor]
                if entry is None:
                    break
                key, d = key + entry[0], d + entry[1]
            else:
                found = (key, d) if d <= EXP_LIMIT else None
        else:
            name, caret, power = text.partition("^")
            if not caret:
                power = "1"
            e = int(power) if power.isdigit() and len(power) < 6 else 0
            if name in self.units and 0 < e <= EXP_LIMIT:
                found = e * self.units[name], e
        self[text] = found
        return found


_keys = cache(_Keys)


def _read(text: str, ring: PolyRing):
    """The polynomial of an ASCII text in the printer's form, or None.
    ``_terms_string`` joins terms by " + " and " - ", a term being ``c``,
    ``c*m`` or ``m``; each monomial's key and degree come from ``_keys``.
    None, for the walker to read or refuse, on anything else: other
    spacing, an unknown name, more than ``INT_DIGIT_FLOOR`` digits, a zero
    denominator or coefficient, a repeated monomial or mixed degrees."""
    if text == "0":
        return ring.zero
    if not text.isascii() or " + -" in text:
        return None
    keys, p = _keys(ring.variables), ring.modulus
    parts = text.replace(" - ", " + -").split(" + ")
    terms, degree = {}, None
    for term in parts:
        negative = term[:1] == "-"
        if negative:
            term = term[1:]
        head, star, mono = term.partition("*")
        num, slash, den = head.partition("/")
        if num.isdigit() and len(head) <= INT_DIGIT_FLOOR:
            c = int(num)
            if slash:
                den = int(den) if den.isdigit() else 0
                if not ring.coerce(den):
                    return None
                c = div_coeff(c, den, p)
            found = keys[mono] if star else (0, 0)
        else:
            c, found = 1, keys[term]
        if found is None:
            return None
        key, d = found
        if negative:
            c = -c
        if p:
            c %= p
        if not c or degree not in (None, d):
            return None
        degree = d
        terms[key] = c
    if len(terms) < len(parts):
        return None
    return HomogPoly._make(ring, terms, degree)


# The walker's refusal of a character outside the grammar, and its tokens:
# operators, ints and names (word characters led by no digit int() reads).
_BAD_CHARACTER = re.compile(r"[^\s\w+\-*/^]").search
_TOKENS = re.compile(r"[-+*/^]|\d+|\w+").findall
_OPERATORS = frozenset("+-*/^")


def _is_name(token) -> bool:
    return token is not None and token not in _OPERATORS and not token.isdecimal()


def _integer(tokens, i) -> int:
    """The int of a digit token, read through ``Decimal`` when it has more
    than ``INT_DIGIT_FLOOR`` digits, so no digit limit applies."""
    token = tokens[i]
    if token is None:
        raise PolyParseError("unexpected end of input")
    if not token.isdecimal():
        raise PolyParseError(f"expected int, found {token!r}")
    return int(token) if len(token) <= INT_DIGIT_FLOOR else int(Decimal(token))


def _walk(text: str, ring: PolyRing) -> HomogPoly:
    """Parse any text of the grammar, one term at a time over its
    ``_TOKENS``, a ``*`` taken only before a name; a term's exponents are
    packed by ``pack``, which refuses one past EXP_LIMIT.  Every refusal of
    the parser is named here."""
    bad = _BAD_CHARACTER(text)
    if bad:
        raise PolyParseError(f"bad character {bad[0]!r} at position {bad.start()}")
    tokens = _TOKENS(text)
    if not tokens:
        raise PolyParseError("empty input")
    # Two sentinels, so one token of lookahead never runs past the end.
    tokens += (None, None)
    terms, degree = {}, None
    sign, i = (-1, 1) if tokens[0] == "-" else (1, 0)
    while True:
        token, coeff, exps = tokens[i], 1, [0] * ring.nvars
        if token is not None and token.isdecimal():
            coeff = _integer(tokens, i)
            if tokens[i + 1] == "/":
                den = _integer(tokens, i + 2)
                if not ring.coerce(den):
                    raise PolyParseError("zero denominator")
                coeff = div_coeff(coeff, den, ring.modulus)
                i += 2
            else:
                coeff = ring.coerce(coeff)
            i += 1
            monomial = tokens[i] == "*" and _is_name(tokens[i + 1])
            i += monomial
        elif _is_name(token):
            monomial = True
        else:
            found = "end of input" if token is None else token
            raise PolyParseError(f"expected a term, found {found!r}")
        while monomial:
            k, power = ring.variable_index(tokens[i]), 1
            if tokens[i + 1] == "^":
                power = _integer(tokens, i + 2)
                if power < 1:
                    raise PolyParseError("exponent must be positive")
                i += 2
            exps[k] += power
            i += 1
            monomial = tokens[i] == "*" and _is_name(tokens[i + 1])
            i += monomial
        if coeff:
            d = sum(exps)
            if degree is None:
                degree = d
            elif d != degree:
                raise InhomogeneousError(
                    f"mixed degrees {_number(degree)} and {_number(d)} in input")
            add_multiple(terms, pack(exps, len(exps)), sign * coeff, {0: 1},
                         ring.modulus)
        token = tokens[i]
        if token is None:
            return HomogPoly._make(ring, terms, degree)
        if token not in ("+", "-"):
            raise PolyParseError(f"expected + or -, found {token!r}")
        sign = 1 if token == "+" else -1
        i += 1


def parse_poly(text: str, ring: PolyRing) -> HomogPoly:
    """Parse text in the grammar of the ``cli`` module docstring: the
    printer's own form by ``_read``, any other text by ``_walk``."""
    f = _read(text, ring)
    return _walk(text, ring) if f is None else f


# ---------------------------------------------------------- polynomial matrix

class _Powers(dict):
    """{e: x^e, mod p over F_p}, each power computed on its first lookup."""

    def __init__(self, x, mod):
        self.x, self.mod = x, mod

    def __missing__(self, e):
        power = self[e] = pow(self.x, e, self.mod)
        return power


def lowered_values(polys, point, domain) -> tuple:
    """The values of polynomials in three variables at a point of P^2,
    unboxed, in the shape of ``scalars.lower``: ``(ints, den)``, value k
    being ints[k] / den; den is 1 over F_p and a common denominator over Q.
    The point is lowered once and the powers of each coordinate are shared
    by all the polynomials (``_Powers``), so a term is its coefficient
    times three lookups."""
    xs, den = lower(domain, point)
    p = domain.characteristic
    if len(xs) != 3:
        raise ValueError("wrong number of coordinates")
    tu, tv, tw = (_Powers(x, p or None) for x in xs)
    sums = []
    for f in polys:
        if f._fields != 3:
            raise ValueError("wrong number of coordinates")
        s = 0
        for key, c in f.terms.items():
            s += c * tu[key >> 2 * EXP_BITS] * tv[key >> EXP_BITS & _FIELD] * tw[key & _FIELD]
        sums.append(s % p if p else s)
    if p:
        return sums, 1
    # Over Q the value of f is s / den^degree, with s an int or a Fraction.
    dens = [s.denominator * den ** (f.degree or 0) for f, s in zip(polys, sums)]
    common = lcm(*dens)
    return [s.numerator * (common // d) for s, d in zip(sums, dens)], common


def reduce_mod(f: HomogPoly, ring: PolyRing) -> HomogPoly:
    """A polynomial over Q reduced into ``ring`` over F_p, each coefficient
    n / d straight to the least residue of n * d^-1.  ZeroDivisionError
    when some d vanishes mod p."""
    p = ring.modulus
    terms = {}
    for key, c in f.terms.items():
        if type(c) is not int:
            den = c.denominator % p
            if not den:
                raise ZeroDivisionError(f"denominator {c.denominator} vanishes mod {p}")
            c = div_coeff(c.numerator, den, p)
        else:
            c %= p
        if c:
            terms[key] = c
    return HomogPoly._make(ring, terms, f.degree)


class PolyMatrix:
    """Rectangular grid of polynomials from one ring."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        rows = tuple(tuple(row) for row in entries)
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("entries must form a nonempty rectangle")
        ring = rows[0][0].ring
        if any(f.ring is not ring and f.ring != ring for row in rows for f in row):
            raise ValueError("matrix entries from different rings")
        self.entries = rows

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

    def upper(self) -> tuple:
        """The upper triangle row by row, as ``linalg.symmetric_grid`` takes it."""
        return tuple(f for i, row in enumerate(self.entries) for f in row[i:])

    def is_symmetric(self) -> bool:
        return (self.rows == self.cols
                and all(self.entries[i][j] == self.entries[j][i]
                        for i in range(self.rows) for j in range(i)))

    def map(self, fn) -> "PolyMatrix":
        return PolyMatrix(tuple(tuple(fn(f) for f in row) for row in self.entries))

    def __neg__(self):
        return self.map(lambda f: -f)

    def __mul__(self, other):
        if not isinstance(other, PolyMatrix):
            return self.map(lambda f: f * other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        zero = self.ring.zero
        return PolyMatrix(tuple(
            tuple(sum_of_products(((1, f, g) for f, g in zip(row, col)), zero)
                  for col in zip(*other.entries))
            for row in self.entries))

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


def _laplace(g, rows, cols, memo):
    """Determinant of the grid ``g`` on the sorted index tuples ``rows`` x
    ``cols``, expanded along ``rows[0]`` by ``sum_of_products``, skipping
    zero entries and subtracting terms at odd positions; a row of zeros
    yields a zero of the entry class.  Each minor of two or more rows is
    cached in ``memo`` under ``(rows, cols)``, so calls sharing a memo
    compute it once."""
    if len(rows) == 1:
        return g[rows[0]][cols[0]]
    key = (rows, cols)
    total = memo.get(key)
    if total is None:
        top, rest = g[rows[0]], rows[1:]
        total = memo[key] = sum_of_products(
            ((-1 if j % 2 else 1, top[c],
              _laplace(g, rest, cols[:j] + cols[j + 1:], memo))
             for j, c in enumerate(cols) if top[c]),
            top[cols[0]])
    return total


def det(m) -> SparsePoly:
    """Exact determinant of a square polynomial matrix (Laplace expansion,
    each smaller minor computed once)."""
    g = _grid(m)
    if len(g) != len(g[0]):
        raise ValueError("determinant of a non-square matrix")
    span = tuple(range(len(g)))
    return _laplace(g, span, span, {})


def _grid3(m, name):
    g = _grid(m)
    if len(g) != 3 or len(g[0]) != 3:
        raise ValueError(f"{name} needs a 3x3 matrix")
    return g


def det3(m) -> HomogPoly:
    """Determinant of a 3x3 polynomial matrix."""
    return det(_grid3(m, "det3"))


def minor(m, drop_row: int, drop_col: int, memo=None) -> SparsePoly:
    """Determinant without 1-based row ``drop_row`` and column ``drop_col``;
    calls on one matrix sharing a ``memo`` compute each smaller minor once."""
    g = _grid(m)
    if not (1 <= drop_row <= len(g) and 1 <= drop_col <= len(g[0])):
        raise IndexOutOfRangeError(
            f"minor index ({drop_row},{drop_col}) outside {len(g)}x{len(g[0])}")
    if len(g) != len(g[0]):
        raise ValueError("determinant of a non-square matrix")
    rows = tuple(i for i in range(len(g)) if i != drop_row - 1)
    cols = tuple(j for j in range(len(g)) if j != drop_col - 1)
    return _laplace(g, rows, cols, {} if memo is None else memo)


def adjugate3(m) -> PolyMatrix:
    """Transpose of the cofactor matrix; m * adjugate3(m) = det3(m) * I."""
    g = _grid3(m, "adjugate3")
    return PolyMatrix([[minor(g, j + 1, i + 1) * (-1) ** (i + j) for j in range(3)]
                       for i in range(3)])


# ------------------------------------------------------------ exact division

def divide_exact(f: HomogPoly, g: HomogPoly) -> HomogPoly:
    """Quotient h with f = g*h, by greedy leading-term cancellation, which
    succeeds when g divides f (the leading term of a product is the product
    of leading terms); otherwise the error carries the remainder."""
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
    """Polynomial square root g with g*g = f, built term by term from the
    leading term; each term t updates the residual f - g*g in place by
    -t*(2g + t), whose leading term must shrink.  The root is verified by
    squaring, and its leading coefficient is positive over Q, the least
    residue over F_p: it is the first term, ``dom.sqrt`` of f's leading
    coefficient, which returns that root."""
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
    return g
