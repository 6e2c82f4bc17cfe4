"""The one-pass printer against the printer it replaced.

``reference_terms_to_string``, ``reference_monomial_string`` and
``reference_bipoly_str`` are verbatim copies of the earlier
``terms_to_string``, ``monomial_string`` and ``BiPoly.__str__``, which
unpacked every key into an exponent tuple and grouped a BiPoly's terms in a
dict per alpha monomial.  The printer reads exponents off the packed key by
shifts and splits one sorted run of keys.  Over Q (with Fractions), F_3,
F_101 and the six-variable generic ring, with zero, constants, +-1
coefficients, multi-digit exponents and the alpha-free ``1`` group, both
must print the same bytes, and printed HomogPolys parse back.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from cliffbundle import PolyRing, PrimeField, QQ, poly
from cliffbundle.clifford import generic_form
from cliffbundle.poly import (ALPHA_NAMES, EXP_BITS, bipoly_from_alpha_map,
                              monomials_of_degree, unpack)
from conftest import unlimited_text

RINGS = (PolyRing(QQ), PolyRing(PrimeField(3)), PolyRing(PrimeField(101)),
         generic_form().ring)
DEGREES = (0, 1, 2, 3, 10, 12, 107)


def reference_monomial_string(variables, exps):
    parts = []
    for name, e in zip(variables, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def reference_terms_to_string(terms: dict, variables) -> str:
    """A term dict in the input grammar, leading term first.  Prime-field
    coefficients are least residues and never get a sign."""
    if not terms:
        return "0"
    out = []
    for key in sorted(terms, reverse=True):
        c = terms[key]
        neg, mag = c < 0, str(abs(c))
        mono = reference_monomial_string(variables, unpack(key, len(variables)))
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


def reference_bipoly_str(self):
    groups = {}
    for key, c in self.terms.items():
        alpha, base = divmod(key, 1 << EXP_BITS * self.ring.nvars)
        groups.setdefault(alpha, {})[base] = c
    return " + ".join(
        f"({reference_terms_to_string(groups[alpha], self.ring.variables)})*"
        f"{reference_monomial_string(ALPHA_NAMES, unpack(alpha, 3)) or '1'}"
        for alpha in sorted(groups, reverse=True)) or "0"


def coefficients(domain):
    """Coefficients that print in every way: +-1, multi-digit, zero."""
    if domain is QQ:
        return st.one_of(st.sampled_from((1, -1, 0)), st.integers(-10 ** 6, 10 ** 6),
                         st.fractions(min_value=-50, max_value=50,
                                      max_denominator=30))
    p = domain.p
    return st.one_of(st.sampled_from((1, p - 1, 0)), st.integers(0, p - 1))


@st.composite
def exponents(draw, nvars, degree):
    """An exponent tuple of the given total degree."""
    cuts = sorted(draw(st.lists(st.integers(0, degree), min_size=nvars - 1,
                                max_size=nvars - 1)))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))


@st.composite
def homogs(draw, ring, degree):
    """A homogeneous polynomial of the given degree, possibly zero."""
    terms = draw(st.dictionaries(exponents(ring.nvars, degree),
                                 coefficients(ring.domain), max_size=8))
    return ring.poly(terms)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_homogpoly_prints_as_before_and_parses_back(data):
    ring = data.draw(st.sampled_from(RINGS))
    f = data.draw(homogs(ring, data.draw(st.sampled_from(DEGREES))))
    text = str(f)
    assert text == reference_terms_to_string(f.terms, ring.variables)
    assert ring.parse(text) == f


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_bipoly_prints_as_before(data):
    """Alpha degree 0 is the single alpha-free ``1`` group; with weights,
    the base degree of a group grows with its alpha monomial."""
    ring = data.draw(st.sampled_from(RINGS))
    weights = data.draw(st.sampled_from(((0, 0, 0), (0, 1, 1), (1, 0, 2))))
    alpha_degree = data.draw(st.sampled_from((0, 1, 2, 11)))
    base = data.draw(st.sampled_from((0, 1, 3, 12)))
    monos = list(monomials_of_degree(3, alpha_degree))
    chosen = data.draw(st.lists(st.sampled_from(monos), unique=True, max_size=4))
    f = bipoly_from_alpha_map(ring, weights, {
        aex: data.draw(homogs(ring, base + sum(w * e for w, e in zip(weights, aex))))
        for aex in chosen})
    text = str(f)
    assert text == reference_bipoly_str(f)
    for aex in chosen:
        g = f.coefficient(aex)
        assert ring.parse(str(g)) == g
        if g:
            assert f"({g})*" in text


def test_fixed_cases():
    ring = PolyRing(QQ)
    u, v, w = (ring.variable(k) for k in range(3))
    cases = [ring.zero, ring.constant(-7), ring.constant(1),
             ring.poly({(12, 0, 0): 1, (0, 12, 0): -1, (3, 4, 5): 3}),
             ring.poly({(1, 0, 0): -1, (0, 1, 0): 1}) * ring.constant(2) * u]
    printed = [str(f) for f in cases]
    assert printed == ["0", "-7", "1", "u^12 + 3*u^3*v^4*w^5 - v^12",
                       "-2*u^2 + 2*u*v"]
    f = bipoly_from_alpha_map(ring, (0, 0, 0), {(0, 0, 0): v - w})
    assert str(f) == "(v - w)*1" == reference_bipoly_str(f)
    assert str(bipoly_from_alpha_map(ring, (0, 0, 0), {})) == "0"


def test_the_monomial_table_stays_bounded():
    """More distinct monomials than one variable tuple's table holds: the
    table never passes its bound, and every text is still the reference's."""
    ring = PolyRing(PrimeField(101), ("s", "t"))
    texts = poly._texts(ring.variables)
    printed = 0
    for degree in range(110):
        f = ring.poly({(e, degree - e): 1 + e % 100 for e in range(degree + 1)})
        assert str(f) == reference_terms_to_string(f.terms, ring.variables)
        assert len(texts) <= poly._TEXTS_BOUND
        printed += len(f.terms)
    assert printed > poly._TEXTS_BOUND
    assert texts is poly._texts(("s", "t"))


def test_coefficients_past_the_digit_limit_print_in_full():
    """Ints from 10^600 up, across the smallest digit limit Python accepts
    (639, 640 and 641 digits), up to and past its default 4,300 digits, print
    in full, as numerators, denominators and with either sign."""
    ring = PolyRing(QQ)
    for n in (10 ** 600 - 1, 10 ** 600, 10 ** 600 + 1,
              10 ** 639 - 1, 10 ** 640 - 1, 10 ** 640, 10 ** 1200 + 5,
              7 * (10 ** 4500 - 1) // 9, 3 ** 20000):
        for c in (n, -n, Fraction(n, 3 * n + 1), Fraction(-1, n)):
            f = ring.poly({(1, 0, 0): c, (0, 1, 0): 1})
            assert str(f) == f"{unlimited_text(c)}*u + v"
            assert str(ring.constant(c)) == unlimited_text(c)
            if n < 10 ** 4000:
                assert ring.parse(str(f)) == f
