"""The packed sparse core under HomogPoly and BiPoly.

Hypothesis properties over F_5, F_101 and Q (with non-integral rationals):
ring axioms, exact division, square roots, printing and parsing, and
products against a reference multiply on exponent tuples and domain
elements.  sympy, where installed, is an independent oracle for det,
adjugate3 and exact division.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from cliffbundle import PolyRing, PrimeField, QQ, adjugate3, det, divide_exact, poly_sqrt
from cliffbundle.brauer_severi import bipoly_from_alpha_map, divide_exact_bipoly
from cliffbundle.errors import ExponentLimitError, NotDivisibleError
from cliffbundle.poly import EXP_LIMIT, monomials_of_degree

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


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_parse_inverts_str(data):
    ring = data.draw(rings)
    f = data.draw(homog(ring, data.draw(st.integers(0, 4))))
    assert ring.parse(str(f)) == f


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


# ------------------------------------------------------------ exponent limit

def test_product_just_under_the_limit_keeps_every_exponent():
    ring = PolyRing(QQ)
    f = ring.monomial(3, (EXP_LIMIT - 1, 1, EXP_LIMIT // 2))
    g = ring.monomial(Fraction(1, 2), (1, EXP_LIMIT - 1, EXP_LIMIT - EXP_LIMIT // 2))
    exps, coeff = (f * g).leading()
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
