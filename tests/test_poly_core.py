"""The packed sparse core under HomogPoly and BiPoly.

Hypothesis properties over F_5, F_101 and Q (with non-integral rationals):
ring axioms, exact division, square roots, printing and parsing, products
against a reference multiply on exponent tuples and domain elements, and
evaluation against a walk in domain-element arithmetic.  sympy, where
installed, is an independent oracle for det, adjugate3 and exact division.
"""

from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings, strategies as st

from cliffbundle import (PolyRing, PrimeField, QQ, adjugate3, det, divide_exact, poly,
                         poly_sqrt)
from cliffbundle.brauer_severi import bipoly_from_alpha_map, divide_exact_bipoly
from cliffbundle.errors import DegreeMismatchError, ExponentLimitError, NotDivisibleError
from cliffbundle.poly import (EXP_LIMIT, BiPoly, lowered_values, monomials_of_degree,
                             reduce_mod, specializer)
from conftest import term_bidegrees, unlimited_text

DOMAINS = (PrimeField(5), PrimeField(101), QQ)


def scalars(domain):
    if domain is QQ:
        return st.fractions(min_value=-6, max_value=6, max_denominator=4)
    return st.integers(0, domain.p - 1)


def homog(ring, degree):
    """A random polynomial of one degree (possibly zero)."""
    monos = list(monomials_of_degree(ring.nvars, degree))
    return st.dictionaries(st.sampled_from(monos), scalars(ring.domain),
                           max_size=len(monos)).map(ring.poly)


rings = st.sampled_from(DOMAINS).map(PolyRing)


def reference_product(f, g):
    """The product on exponent tuples and domain elements, term by term."""
    terms = {}
    for e1, c1 in f.iter_terms():
        for e2, c2 in g.iter_terms():
            e = tuple(a + b for a, b in zip(e1, e2))
            terms[e] = terms.get(e, f.ring.domain.zero) + c1 * c2
    return {e: c for e, c in terms.items() if c}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ring_axioms(data):
    ring = data.draw(rings)
    d, e = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 2))
    f, g, h = (data.draw(homog(ring, d)) for _ in range(3))
    k = data.draw(homog(ring, e))
    zero, one = ring.zero, ring.one
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert f + zero == f and f - f == zero and f + (-f) == zero
    assert f - g == f + (-g)
    assert f * g == g * f
    assert (f * g) * k == f * (g * k)
    assert k * (f + g) == k * f + k * g
    assert f * one == f and (f * zero).is_zero
    c = data.draw(scalars(ring.domain))
    assert f.scale(c) == f * ring.constant(c)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_product_matches_reference_multiply(data):
    ring = data.draw(rings)
    f = data.draw(homog(ring, data.draw(st.integers(0, 3))))
    g = data.draw(homog(ring, data.draw(st.integers(0, 3))))
    assert dict((f * g).iter_terms()) == reference_product(f, g)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_divide_exact_inverts_product(data):
    ring = data.draw(rings)
    f = data.draw(homog(ring, data.draw(st.integers(0, 3))))
    g = data.draw(homog(ring, data.draw(st.integers(0, 2))))
    assume(not g.is_zero)
    assert divide_exact(f * g, g) == f


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_poly_sqrt_of_square(data):
    ring = data.draw(rings)
    f = data.draw(homog(ring, data.draw(st.integers(0, 3))))
    assert poly_sqrt(f * f) in (f, -f)


def term_texts(f, coefficient_text) -> str:
    """f in the input grammar, a sign and ``coefficient_text(|c|)*monomial``
    per term, written without the printer."""
    names = f.ring.variables
    text = " ".join(
        ("-" if c < 0 else "+") + " " + "*".join(
            [coefficient_text(abs(c))] + [f"{x}^{e}" for x, e in zip(names, exps) if e])
        for exps, c in f.int_terms())
    return text.removeprefix("+ ") or "0"


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_parse_inverts_str(data):
    """Printing and parsing are inverse: the printed text takes the
    reader's path, the walker patched to raise.  Also for coefficients on
    both sides of the 640 digits that ``str`` and ``int`` take under any
    digit limit (``poly.INT_DIGIT_FLOOR``), of 600 and of the 4,300-digit
    default limit: over Q a multiple of
    f with long numerators or denominators, over F_p f written with long
    representatives of its residues."""
    ring = data.draw(rings)
    f = data.draw(homog(ring, data.draw(st.integers(0, 4))))
    with patch.object(poly, "_walk", side_effect=AssertionError("walker")):
        assert ring.parse(str(f)) == f
    digits = data.draw(st.sampled_from((599, 600, 601, 639, 640, 641, 4300, 4301, 4400)))
    p = ring.modulus
    big = data.draw(st.integers(10 ** (digits - 1) + p, 10 ** digits - 1 - p))
    if p:
        lift = big - big % p  # a multiple of p: lift + c has ``digits`` digits
        assert ring.parse(term_texts(f, lambda c: unlimited_text(c + lift))) == f
    else:
        scale = data.draw(st.sampled_from((big, Fraction(1, big), Fraction(big, big + 2))))
        g = f.scale(scale)
        assert ring.parse(str(g)) == g
        assert ring.parse(term_texts(g, unlimited_text)) == g


@st.composite
def bipolys(draw, ring, weights, alpha_degree, weighted_degree):
    """A random BiPoly of one bidegree: the coefficient of an alpha monomial
    m has base degree weighted_degree + sum(weights_i * m_i)."""
    mapping = {}
    for aex in monomials_of_degree(3, alpha_degree):
        base = weighted_degree + sum(w * e for w, e in zip(weights, aex))
        mapping[aex] = draw(homog(ring, base))
    return bipoly_from_alpha_map(ring, weights, mapping)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bipoly_product_and_division(data):
    ring = data.draw(rings)
    weights = tuple(data.draw(st.integers(0, 1)) for _ in range(3))
    F = data.draw(bipolys(ring, weights, data.draw(st.integers(0, 2)),
                          data.draw(st.integers(0, 2))))
    G = data.draw(bipolys(ring, weights, data.draw(st.integers(0, 1)),
                          data.draw(st.integers(0, 1))))
    assert dict((F * G).iter_terms()) == reference_product(F, G)
    assert F * G == G * F
    assume(not G.is_zero)
    assert divide_exact_bipoly(F * G, G) == F


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bipoly_times_base_polynomial(data):
    """A base polynomial factor acts as the BiPoly with alpha degree 0."""
    ring = data.draw(rings)
    weights = tuple(data.draw(st.integers(0, 1)) for _ in range(3))
    F = data.draw(bipolys(ring, weights, data.draw(st.integers(0, 2)),
                          data.draw(st.integers(0, 2))))
    g = data.draw(homog(ring, data.draw(st.integers(0, 2))))
    G = bipoly_from_alpha_map(ring, weights, {(0, 0, 0): g})
    assert F * g == g * F == F * G
    other = PolyRing(ring.domain, ("x", "y", "z")).variable(0)
    for product in (lambda: F * other, lambda: other * F):
        with pytest.raises(TypeError, match="coefficient from a different ring"):
            product()


@pytest.mark.parametrize("domain", [PrimeField(101), QQ], ids=["F101", "Q"])
def test_base_times_bipoly_hands_off_before_coercion(domain, monkeypatch):
    """h * b reaches BiPoly.__mul__ without the domain's coercion, whose
    refusal would format the whole BiPoly."""
    ring = PolyRing(domain)
    u, v, w = (ring.variable(i) for i in range(3))
    b = bipoly_from_alpha_map(ring, (0, 0, 0),
                              {(1, 0, 0): u * v, (0, 1, 0): w * w + u * v})
    h = u + w

    def refuse(self):
        raise AssertionError("a BiPoly was formatted")

    monkeypatch.setattr(BiPoly, "__repr__", refuse)
    assert h * b == b * h


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bipoly_carries_its_bidegree(data):
    """Sums, scalings, products by BiPolys and base polynomials, and exact
    quotients store the bidegree that every one of their terms has."""
    ring = data.draw(rings)
    weights = tuple(data.draw(st.integers(0, 1)) for _ in range(3))
    F, G = (data.draw(bipolys(ring, weights, data.draw(st.integers(0, 2)),
                              data.draw(st.integers(0, 2)))) for _ in range(2))
    g = data.draw(homog(ring, data.draw(st.integers(0, 2))))
    c = data.draw(scalars(ring.domain))
    results = [F, F + F, F - F, -F, F.scale(c), F * c, F * G, F * g, g * F]
    if G:
        results.append(divide_exact_bipoly(F * G, G))
    for f in results:
        assert term_bidegrees(f) == ({f.degree} if f else set())


# ---------------------------------------------------------------- evaluation

def reference_evaluate(f, point, nfields):
    """The domain-element walk: coerce every coordinate, then sum the terms
    in the domain's own arithmetic.  A BiPoly takes alpha then base."""
    dom = f.ring.domain
    pt = [dom(x) for x in point]
    if len(pt) != nfields:
        raise ValueError("wrong number of coordinates")
    total = dom.zero
    for exps, c in f.iter_terms():
        for x, e in zip(pt, exps):
            if e:
                c = c * (x if e == 1 else x ** e)
        total = total + c
    return total


def coordinates(domain):
    """Coordinates in every form the domain coerces: ints of either sign,
    Fractions, and over F_p its own elements."""
    if domain is QQ:
        return st.one_of(st.integers(-9, 9),
                         st.fractions(min_value=-6, max_value=6, max_denominator=7))
    units = st.integers(1, 50).filter(lambda d: d % domain.p)
    return st.one_of(st.integers(-10**6, 10**6),
                     st.integers(0, domain.p - 1).map(domain),
                     st.builds(Fraction, st.integers(-50, 50), units))


@st.composite
def wide_polys(draw, ring):
    """Up to four terms of one degree, which may reach EXP_LIMIT."""
    degree = draw(st.one_of(st.integers(0, 4), st.integers(0, EXP_LIMIT),
                            st.just(EXP_LIMIT)))
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        a = draw(st.integers(0, degree))
        b = draw(st.integers(0, degree - a))
        terms[(a, b, degree - a - b)] = draw(scalars(ring.domain))
    return ring.poly(terms)


def assert_same_value(got, want):
    assert got == want
    assert type(got) is type(want)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_evaluate_matches_the_domain_walk(data):
    ring = data.draw(rings)
    f = data.draw(wide_polys(ring))
    point = data.draw(st.lists(coordinates(ring.domain), min_size=3, max_size=3))
    assert_same_value(f.evaluate(point), reference_evaluate(f, point, 3))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bipoly_evaluate_matches_the_domain_walk(data):
    ring = data.draw(rings)
    weights = tuple(data.draw(st.integers(0, 2)) for _ in range(3))
    F = data.draw(bipolys(ring, weights, data.draw(st.integers(0, 2)),
                          data.draw(st.integers(0, 2))))
    base, alpha = (data.draw(st.lists(coordinates(ring.domain), min_size=3,
                                      max_size=3)) for _ in range(2))
    assert_same_value(F.evaluate(base, alpha),
                      reference_evaluate(F, alpha + base, 6))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_lowered_values_match_the_domain_walk(data):
    """Polynomials of several degrees at one point: each int over the one
    denominator is the value, a least residue over F_p.  Exponents reach
    EXP_LIMIT, and zero polynomials and zero coordinates are drawn."""
    ring = data.draw(rings)
    polys = data.draw(st.lists(st.one_of(st.integers(0, 4).flatmap(lambda d: homog(ring, d)),
                                         wide_polys(ring)),
                               min_size=1, max_size=6))
    point = data.draw(st.lists(coordinates(ring.domain), min_size=3, max_size=3))
    if data.draw(st.integers(0, 3)) == 0:
        point[data.draw(st.integers(0, 2))] = 0
    ints, den = lowered_values(polys, point, ring.domain)
    assert all(type(x) is int for x in ints + [den]) and den > 0
    if ring.domain is not QQ:
        assert den == 1 and all(0 <= x < ring.domain.p for x in ints)
    assert ([ring.domain.from_pair(x, den) for x in ints]
            == [reference_evaluate(f, point, 3) for f in polys])


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_reduce_mod_matches_the_domain_walk(data):
    """Reducing a rational polynomial mod p is coercing each coefficient
    into F_p, or, when a denominator vanishes mod p, ZeroDivisionError."""
    field = data.draw(st.sampled_from(tuple(map(PrimeField, (3, 5, 7, 101)))))
    ring = PolyRing(field)
    f = data.draw(st.integers(0, 4).flatmap(lambda d: homog(PolyRing(QQ), d)))
    if any(c.denominator % field.p == 0 for _, c in f.iter_terms()):
        with pytest.raises(ZeroDivisionError):
            reduce_mod(f, ring)
        return
    reduced = reduce_mod(f, ring)
    assert reduced == ring.poly({e: field(c) for e, c in f.iter_terms()})
    assert reduced.degree == (f.degree if reduced else None)


F5, F101 = PrimeField(5), PrimeField(101)


@pytest.mark.parametrize("domain, point", [
    (F101, (1, 2)),
    (F101, (1, 2, 3, 4)),
    (F101, (F5(1), 2, 3)),
    (F101, (1, F5(2))),
    (F101, (Fraction(1, 101), 0, 1)),
    (F101, (1.5, 0, 1)),
    (QQ, (1, 2)),
    (QQ, (F101(1), 0, 1)),
    (QQ, (Fraction(1, 2), F5(1), 1, 1)),
], ids=str)
def test_evaluate_refuses_what_the_domain_walk_refuses(domain, point):
    ring = PolyRing(domain)
    u, v, w = (ring.variable(i) for i in range(3))
    f = u * u + v * w
    F = bipoly_from_alpha_map(ring, (0, 0, 0), {(1, 0, 0): f, (0, 0, 1): u * v})
    for run, oracle in ((lambda: f.evaluate(point),
                         lambda: reference_evaluate(f, point, 3)),
                        (lambda: lowered_values([f, u], point, domain),
                         lambda: reference_evaluate(f, point, 3)),
                        (lambda: F.evaluate(point, (1, 2, 3)),
                         lambda: reference_evaluate(F, (1, 2, 3) + point, 6))):
        with pytest.raises(Exception) as want:
            oracle()
        with pytest.raises(type(want.value)) as got:
            run()
        assert str(got.value) == str(want.value)


# ------------------------------------------------------------ exponent limit

def test_product_just_under_the_limit_keeps_every_exponent():
    ring = PolyRing(QQ)
    f = ring.monomial(3, (EXP_LIMIT - 1, 1, EXP_LIMIT // 2))
    g = ring.monomial(Fraction(1, 2), (1, EXP_LIMIT - 1, EXP_LIMIT - EXP_LIMIT // 2))
    [(exps, coeff)] = (f * g).iter_terms()
    assert exps == (EXP_LIMIT, EXP_LIMIT, EXP_LIMIT)
    assert coeff == Fraction(3, 2)
    assert divide_exact(f * g, g) == f


def test_exponent_past_the_limit_is_refused():
    ring = PolyRing(PrimeField(101))
    u, v, _ = (ring.variable(i) for i in range(3))
    top = ring.monomial(1, (EXP_LIMIT, 0, 0))
    with pytest.raises(ExponentLimitError, match="EXP_LIMIT"):
        top * u
    with pytest.raises(ExponentLimitError, match="EXP_LIMIT"):
        ring.parse(f"u^{EXP_LIMIT + 1}")
    with pytest.raises(ExponentLimitError, match="EXP_LIMIT"):
        ring.monomial(1, (0, EXP_LIMIT + 1, 0))
    # Dividing u*v^LIMIT by u + v would need v^(LIMIT + 1) in the remainder.
    with pytest.raises(ExponentLimitError):
        divide_exact(u * ring.monomial(1, (0, EXP_LIMIT, 0)), u + v)


def test_the_specializer_refuses_a_product_past_the_limit():
    """Each product of entries is checked as it is built, as the operators
    checked it: when it cancels in the output, when its coefficient
    vanishes mod p (c = 7 over F_7), when it only feeds a longer product
    (u^(3*limit) carries out of its field, clearing the guard bit), and in
    the BiPoly form."""
    for domain, c in ((QQ, 1), (PrimeField(7), 7)):
        ring = PolyRing(domain)
        entries = (ring.monomial(1, (EXP_LIMIT, 0, 0)), ring.variable(1))
        cases = [(((2, 0), 1), ((2, 0), -1)),
                 (((2, 0), c),),
                 (((3, 0), 1),),
                 (((2, 1), 1),)]
        for terms in cases:
            with pytest.raises(ExponentLimitError, match="EXP_LIMIT"):
                specializer(entries, ring)(terms)
        with pytest.raises(ExponentLimitError, match="EXP_LIMIT"):
            specializer(entries, ring)((((1, 0, 0), cases[0]),), (0, 0, 0))
        # Below the limit the same products are kept.
        at = specializer((ring.monomial(1, (EXP_LIMIT // 2, 0, 0)), entries[1]), ring)
        assert at((((2, 0), 1),)) == ring.monomial(1, (2 * (EXP_LIMIT // 2), 0, 0))


def test_the_specializer_sums_one_degree_and_one_bidegree():
    """Nonzero products of different degrees do not add, nor do nonzero
    groups of different bidegrees; a group that sums to zero adds none."""
    ring = PolyRing(QQ)
    u, v = ring.variable(0), ring.variable(1)
    at = specializer((u, u * u, v), ring)
    with pytest.raises(DegreeMismatchError, match="adding degrees"):
        at((((1, 0, 0), 1), ((0, 1, 0), 1)))
    assert at((((0, 1, 0), 1), ((2, 0, 0), -1))) == ring.zero
    assert at((((0, 1, 0), 1), ((2, 0, 0), -1))).degree is None
    linear = (((1, 0, 0), 1), ((0, 0, 1), 2))
    with pytest.raises(DegreeMismatchError, match="mixed bidegrees"):
        at((((1, 0, 0), linear), ((0, 1, 0), (((0, 1, 0), 1),))), (0, 0, 0))
    zero = (((0, 1, 0), 1), ((2, 0, 0), -1))
    got = at((((1, 0, 0), linear), ((0, 1, 0), zero)), (0, 0, 0))
    assert got == bipoly_from_alpha_map(ring, (0, 0, 0), {(1, 0, 0): u + 2 * v})
    assert got.degree == (1, 1)
    # With weights (0, 1, 0) the degree-2 group a2 * u^2 has bidegree (1, 1).
    got = at((((1, 0, 0), linear), ((0, 1, 0), (((0, 1, 0), 3),))), (0, 1, 0))
    assert got.degree == (1, 1)
    assert str(got) == "(u + 2*v)*a1 + (3*u^2)*a2"


# ------------------------------------------------------------- sympy oracle

def sympy_poly(ring, f):
    """A HomogPoly, or a sympy expression in u, v, w, as a sympy Poly over
    the ring's domain."""
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("u v w")
    if not isinstance(f, sympy.Basic):
        f = sum((sympy.Rational(c.numerator, c.denominator) if ring.domain is QQ
                 else c.value) * sympy.Mul(*(x ** e for x, e in zip(gens, exps)))
                for exps, c in f.iter_terms())
    opts = {"domain": "QQ"} if ring.domain is QQ else {"modulus": ring.domain.p}
    return sympy.Poly(sympy.expand(f), *gens, **opts)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_det_adjugate_and_division_against_sympy(data):
    sympy = pytest.importorskip("sympy")
    ring = data.draw(rings)
    m = [[data.draw(homog(ring, 1)) for _ in range(3)] for _ in range(3)]
    sm = sympy.Matrix([[sympy_poly(ring, f).as_expr() for f in row] for row in m])
    assert sympy_poly(ring, det(m)) == sympy_poly(ring, sm.det(method="berkowitz"))
    adj, sadj = adjugate3(m), sm.adjugate()
    for i in range(3):
        for j in range(3):
            assert sympy_poly(ring, adj.entry(i, j)) == sympy_poly(ring, sadj[i, j])

    f = data.draw(homog(ring, data.draw(st.integers(1, 3))))
    g = data.draw(homog(ring, data.draw(st.integers(0, 2))))
    assume(not g.is_zero)
    if data.draw(st.booleans()):
        f = f * g
    quotient, remainder = sympy.div(sympy_poly(ring, f), sympy_poly(ring, g))
    if remainder.is_zero:
        assert sympy_poly(ring, divide_exact(f, g)) == quotient
    else:
        with pytest.raises(NotDivisibleError):
            divide_exact(f, g)
