"""Scalar domains, polynomial arithmetic, determinants, division, roots."""

import random
import re
from fractions import Fraction
from math import isqrt

import pytest

from cliffbundle import (
    FpElement,
    PolyMatrix,
    PolyRing,
    PrimeField,
    QQ,
    RationalSeries,
    adjugate3,
    det3,
    divide_exact,
    minor,
    poly_sqrt,
    series_expand,
)
from cliffbundle.errors import (
    DegreeMismatchError,
    IndexOutOfRangeError,
    InhomogeneousError,
    NonExpandableError,
    NotAPerfectSquareError,
    NotDivisibleError,
    PolyParseError,
    UnknownVariableError,
)
from cliffbundle.poly import alpha_variable
from cliffbundle.scalars import PRIME_LIMIT, _is_prime
from conftest import symbolic_scalar_grid, uvw


# ------------------------------------------------------------------- scalars

def test_prime_field_arithmetic():
    F = PrimeField(7)
    a, b = F(3), F(5)
    assert a + b == F(1)
    assert a - b == F(5)
    assert a * b == F(1)
    assert a / b == F(2)  # 3 * 5^{-1} = 3 * 3 = 9 = 2
    assert -a == F(4)
    assert a ** 6 == F(1)
    with pytest.raises(ZeroDivisionError):
        F(0).inverse()


def test_prime_field_rejects_mixing():
    with pytest.raises(TypeError):
        PrimeField(5)(3) + PrimeField(7)(3)
    with pytest.raises(TypeError):
        PrimeField(5)(Fraction(1, 2)) + Fraction(1, 2)
    # A Fraction on the left reaches __rsub__ and __rtruediv__, which refuse it.
    with pytest.raises(TypeError):
        Fraction(1, 2) - PrimeField(5)(3)
    with pytest.raises(TypeError):
        Fraction(1, 2) / PrimeField(5)(3)


@pytest.mark.parametrize("p", [3, 101, 2 ** 61 - 1])
def test_an_int_meets_an_fp_element_as_its_residue(p):
    """int - x, int / x and x == int read the int mod p; x ** -n is the
    inverse of x ** n."""
    F = PrimeField(p)
    x = F(2)
    assert 1 - x == F(-1) and type(1 - x) is FpElement
    assert (p + 1) / x == x.inverse() and x * (1 / x) == F.one
    assert x ** -3 == (x ** 3).inverse() and x ** -3 * x ** 3 == F.one
    assert x == 2 + p and x == 2 - 3 * p and x != 3
    assert (x == "2") is False
    with pytest.raises(ZeroDivisionError, match=f"^inverse of 0 in F_{p}$"):
        1 / F(p)


@pytest.mark.parametrize("x", ["1/2", 0.5, None])
def test_the_rationals_take_only_ints_and_fractions(x):
    message = f"^cannot coerce {re.escape(repr(x))} into the rationals$"
    with pytest.raises(TypeError, match=message):
        QQ(x)


def test_prime_field_validation():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(2)


def test_primality_matches_trial_division_below_1e5():
    def trial_division(n):
        return n >= 2 and all(n % f for f in range(2, isqrt(n) + 1))

    for n in range(10 ** 5):
        assert _is_prime(n) == trial_division(n), n


@pytest.mark.parametrize("n,prime", [(2 ** 61 - 1, True), (10 ** 18 + 3, True),
                                     (561, False), (3215031751, False)])
def test_primality_of_large_and_pseudoprime_inputs(n, prime):
    # 3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7.
    assert _is_prime(n) is prime


@pytest.mark.parametrize("n,prime", [(41, True), (1847, True), (43 * 43, False),
                                     (1851, False), (43 * 47, False), (1861, True)])
def test_primality_on_both_sides_of_the_trial_division_bound(n, prime):
    # 43^2 is the least composite with no prime factor up to 41.
    assert _is_prime(n) is prime


@pytest.mark.parametrize("p", [3, 101, 2 ** 61 - 1])
def test_from_pair_over_one_is_the_element(p):
    F = PrimeField(p)
    for n in (-2 * p - 1, -1, 0, 1, 2, p - 1, p, 10 ** 30 + 7):
        assert F.from_pair(n, 1) == F(n)
        assert F.from_pair(n, 1).value == n % p
    assert F.from_pair(10, 5) == F(2)
    for den in (0, p, -3 * p):
        with pytest.raises(ZeroDivisionError, match=f"inverse of 0 in F_{p}"):
            F.from_pair(1, den)


def test_primality_refuses_past_its_limit():
    with pytest.raises(ValueError, match="PRIME_LIMIT"):
        PrimeField(PRIME_LIMIT + 2)


def test_squares_in_f101():
    F = PrimeField(101)
    squares = {(v * v) % 101 for v in range(101)}
    for v in range(101):
        assert F.is_square(F(v)) == (v in squares)
        if v in squares:
            s = F.sqrt(F(v))
            assert s * s == F(v)



@pytest.mark.parametrize("prime", [3, 5, 7, 13, 17, 101])
def test_prime_field_sqrt_is_least_root(prime):
    # 17 = 1 mod 16 takes Tonelli-Shanks through several 2-power steps.
    F = PrimeField(prime)
    for v in range(prime):
        roots = [s for s in range(prime) if s * s % prime == v]
        if roots:
            assert F.sqrt(F(v)) == F(roots[0])
        else:
            with pytest.raises(ValueError):
                F.sqrt(F(v))

def test_squares_in_q():
    assert QQ.is_square(Fraction(4, 9))
    assert QQ.sqrt(Fraction(4, 9)) == Fraction(2, 3)
    assert not QQ.is_square(Fraction(2))
    assert not QQ.is_square(Fraction(-4))


def test_fraction_coercion_into_fp():
    F = PrimeField(5)
    assert F(Fraction(1, 3)) == F(2)  # 3 * 2 = 6 = 1
    with pytest.raises(ZeroDivisionError):
        F(Fraction(1, 5))


# ------------------------------------------------------------------- parsing

def test_parse_linear(ring_q):
    f = ring_q.parse("u + 2*v")
    assert f.degree == 1
    u, v, _ = uvw(ring_q)
    assert f == u + v.scale(2)


def test_parse_zero(ring_q):
    f = ring_q.parse("0")
    assert f.is_zero
    assert f.degree is None


def test_parse_fractional_coefficient(ring_q):
    f = ring_q.parse("u^2 + v*w - 1/3*w^2")
    assert f.degree == 2
    assert f.coefficient((0, 0, 2)) == Fraction(-1, 3)
    assert f.coefficient((0, 1, 1)) == 1


def test_parse_roundtrip_random(ring_q, ring_f101):
    rng = random.Random(11)
    for ring in (ring_q, ring_f101):
        for degree in (0, 1, 2, 3):
            for _ in range(10):
                f = ring.random_homogeneous(degree, rng)
                assert ring.parse(str(f)) == f


def test_parse_rejects_bad_input(ring_q):
    with pytest.raises(PolyParseError):
        ring_q.parse("")
    with pytest.raises(PolyParseError):
        ring_q.parse("u +")
    with pytest.raises(PolyParseError):
        ring_q.parse("2 3")
    with pytest.raises(PolyParseError):
        ring_q.parse("u ? v")
    with pytest.raises(UnknownVariableError):
        ring_q.parse("u + x")
    with pytest.raises(InhomogeneousError):
        ring_q.parse("u^2 + v")


def test_parse_prime_field_coefficients(ring_f5):
    f = ring_f5.parse("1/3*u + 4*v")
    assert f.coefficient((1, 0, 0)) == PrimeField(5)(2)
    assert str(f) == "2*u + 4*v"


# ---------------------------------------------------------------- arithmetic

def test_addition_degree_mismatch(ring_q):
    u, v, _ = uvw(ring_q)
    with pytest.raises(DegreeMismatchError):
        u + u * v
    assert (u + ring_q.zero) == u


def test_mul_and_evaluate(ring_q):
    u, v, w = uvw(ring_q)
    f = (u + v) * (v + w)
    val = f.evaluate([1, 2, 3])
    assert val == Fraction(15)
    assert f.partial(0) == v + w


def test_variable_and_partial_share_one_lookup(ring_q):
    u, v, w = uvw(ring_q)
    f = u * u * v + v * w * w + u * v * w
    for k, name in enumerate(ring_q.variables):
        assert ring_q.variable_index(name) == ring_q.variable_index(k) == k
        assert ring_q.variable(name) == ring_q.variable(k)
        assert f.partial(name) == f.partial(k)
    assert f.partial("v") == u * u + w * w + u * w
    for lookup in (ring_q.variable, f.partial):
        with pytest.raises(UnknownVariableError, match="^unknown variable 'x'$"):
            lookup("x")


@pytest.mark.parametrize("which", [3, -1, 7])
def test_a_variable_index_outside_the_ring_is_refused(ring_q, which):
    """Not the constant 1 or a shifted partial: the index is refused."""
    f = ring_q.variable(0) * ring_q.variable(1)
    for lookup in (ring_q.variable, f.partial):
        with pytest.raises(IndexOutOfRangeError,
                           match=f"^variable index {which} outside 0..2$"):
            lookup(which)


@pytest.mark.parametrize("i", [0, 4, -1])
def test_an_alpha_index_outside_1_to_3_is_refused(ring_q, i):
    with pytest.raises(IndexOutOfRangeError, match=f"^alpha index {i} outside 1..3$"):
        alpha_variable(ring_q, (0, 0, 0), i)


def test_no_cross_ring_arithmetic(ring_q, ring_f5):
    with pytest.raises(TypeError):
        ring_q.variable(0) + ring_f5.variable(0)


def test_a_repeated_variable_name_is_refused():
    with pytest.raises(ValueError, match="^duplicate variable names$"):
        PolyRing(QQ, ("u", "v", "u"))


@pytest.mark.parametrize("exps", [(1, 1), (2, -1, 1)])
def test_a_bad_exponent_tuple_is_refused(ring_q, exps):
    with pytest.raises(ValueError, match=f"^{re.escape(f'bad exponent tuple {exps}')}$"):
        ring_q.poly({exps: 1})


def test_matrix_entries_form_one_rectangle_over_one_ring(ring_q, ring_f5):
    u, v, w = uvw(ring_q)
    with pytest.raises(ValueError, match="^entries must form a nonempty rectangle$"):
        PolyMatrix([[u, v], [w]])
    with pytest.raises(ValueError, match="^matrix entries from different rings$"):
        PolyMatrix([[u, ring_f5.variable(0)]])
    # An equal ring that is another object is the same ring.
    assert PolyMatrix([[u, PolyRing(QQ).variable(1)]]).entries == ((u, v),)


# ------------------------------------------------------------- det / adjugate

def test_det3_diagonal(ring_q):
    u, v, w = uvw(ring_q)
    z = ring_q.zero
    m = [[u, z, z], [z, v, z], [z, z, w]]
    assert det3(m) == u * v * w


def test_det3_equal_rows(ring_q):
    u, v, w = uvw(ring_q)
    m = [[u, v, w], [u, v, w], [w, u, v]]
    assert det3(m).is_zero


def test_det_evaluation_commutes_over_f5(ring_f5):
    rng = random.Random(5)
    dom = ring_f5.domain
    for _ in range(4):
        m = [[ring_f5.random_homogeneous(1, rng) for _ in range(3)]
             for _ in range(3)]
        d = det3(m)
        for _ in range(10):
            pt = [dom.random(rng) for _ in range(3)]
            from test_laplace import det_cofactor
            direct = det_cofactor([[f.evaluate(pt) for f in row] for row in m])
            assert d.evaluate(pt) == direct


def test_adjugate_diagonal(ring_q):
    u, v, w = uvw(ring_q)
    z = ring_q.zero
    adj = adjugate3([[u, z, z], [z, v, z], [z, z, w]])
    assert adj.entry(0, 0) == v * w
    assert adj.entry(1, 1) == u * w
    assert adj.entry(2, 2) == u * v
    assert adj.entry(0, 1).is_zero


def test_adjugate_identity_matrix(ring_q):
    one, zero = ring_q.one, ring_q.zero
    eye = [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
    assert adjugate3(eye) == PolyMatrix(eye)


def test_adjugate_33_entry_symbolic():
    _, s, grid = symbolic_scalar_grid()
    adj = adjugate3(grid)
    assert adj.entry(2, 2) == s["a"] * s["b"] - s["d"] * s["d"]


def test_adjugate_times_matrix_is_det(ring_f101):
    rng = random.Random(17)
    for _ in range(5):
        m = PolyMatrix([[ring_f101.random_homogeneous(1, rng) for _ in range(3)]
                        for _ in range(3)])
        d = det3(m)
        prod = m * adjugate3(m)
        for i in range(3):
            for j in range(3):
                expected = d if i == j else ring_f101.zero
                assert prod.entry(i, j) == expected


def test_adjugate_of_adjugate(ring_f101):
    rng = random.Random(23)
    for _ in range(5):
        m = PolyMatrix([[ring_f101.random_homogeneous(1, rng) for _ in range(3)]
                        for _ in range(3)])
        d = det3(m)
        twice = adjugate3(adjugate3(m))
        assert twice == m.map(lambda f: f * d)


def test_minor_examples(ring_q):
    one, zero = ring_q.one, ring_q.zero
    eye4 = [[one if i == j else zero for j in range(4)] for i in range(4)]
    assert minor(eye4, 1, 1) == one
    u, v, w = uvw(ring_q)
    m = [[u, zero, zero], [zero, v, zero], [zero, zero, w]]
    assert minor(m, 3, 3) == u * v
    with pytest.raises(IndexOutOfRangeError):
        minor(m, 4, 1)
    with pytest.raises(IndexOutOfRangeError):
        minor(m, 0, 1)


def test_minor_evaluation_commutes(ring_f5):
    rng = random.Random(3)
    dom = ring_f5.domain
    m = [[ring_f5.random_homogeneous(1, rng) for _ in range(3)] for _ in range(3)]
    mn = minor(m, 2, 3)
    adj = adjugate3(m)
    from test_laplace import det_cofactor
    for _ in range(20):
        pt = [dom.random(rng) for _ in range(3)]
        vals = [[f.evaluate(pt) for f in row] for row in m]
        sub = [row[:2] for i, row in enumerate(vals) if i != 1]
        assert mn.evaluate(pt) == det_cofactor(sub)
        assert adj.entry(0, 0).evaluate(pt) == det_cofactor(
            [row[1:] for row in vals[1:]])


# ------------------------------------------------------------------- division

def test_divide_exact_examples(ring_q):
    u, v, w = uvw(ring_q)
    assert divide_exact(u * u * v, u) == u * v
    # Homogeneous analogue of the multi-term division sample.
    assert divide_exact(u * v * w + u * u * w, u) == v * w + u * w
    with pytest.raises(NotDivisibleError) as err:
        divide_exact(u * u + v * v, u)
    assert err.value.remainder is not None
    assert not err.value.remainder.is_zero


def test_divide_exact_random_roundtrip(ring_f101):
    rng = random.Random(31)
    count = 0
    while count < 100:
        f = ring_f101.random_homogeneous(rng.randint(0, 3), rng)
        g = ring_f101.random_homogeneous(rng.randint(1, 2), rng)
        assert g
        assert divide_exact(f * g, g) == f
        count += 1


def test_a_lower_degree_dividend_is_its_own_remainder(ring_q):
    u, v, _ = uvw(ring_q)
    with pytest.raises(NotDivisibleError,
                       match="^degree of divisor exceeds degree of dividend$") as err:
        divide_exact(u, u * v)
    assert err.value.remainder == u


def test_divide_by_zero(ring_q):
    u = ring_q.variable(0)
    with pytest.raises(ZeroDivisionError):
        divide_exact(u, ring_q.zero)


# ----------------------------------------------------------------- square root

def test_poly_sqrt_examples(ring_q):
    u, v, w = uvw(ring_q)
    assert poly_sqrt(ring_q.parse("u^2 + 2*u*v + v^2")) == u + v
    assert poly_sqrt((u * v * w) * (u * v * w)) == u * v * w
    with pytest.raises(NotAPerfectSquareError):
        poly_sqrt(u * u + v * v)
    with pytest.raises(NotAPerfectSquareError):
        poly_sqrt(u * v)  # degree even, not a square
    with pytest.raises(NotAPerfectSquareError):
        poly_sqrt(u)  # odd degree


def test_poly_sqrt_random_squares(ring_q, ring_f101):
    rng = random.Random(41)
    for ring in (ring_q, ring_f101):
        for _ in range(25):
            g = ring.random_homogeneous(rng.randint(1, 3), rng)
            assert g
            root = poly_sqrt(g * g)
            assert root in (g, -g)
            assert root * root == g * g


def test_poly_sqrt_sign_normalization(ring_q, ring_f101):
    u = ring_q.variable(0)
    assert poly_sqrt((-u) * (-u)) == u  # positive leading coefficient
    F = ring_f101.domain
    x = ring_f101.variable(0).scale(F(100))  # leading coefficient -1
    [(exps, lc)] = poly_sqrt(x * x).iter_terms()
    assert exps == (1, 0, 0)
    assert lc == F(1)  # least residue picked over 100


def test_poly_sqrt_zero(ring_q):
    assert poly_sqrt(ring_q.zero).is_zero


# -------------------------------------------------------------------- series

def test_series_geometric():
    s = RationalSeries((1,), (1, -2, 1))  # 1 / (1-t)^2
    assert series_expand(s, 3) == [1, 2, 3, 4]


def test_series_hilbert_sample():
    s = RationalSeries((1, 0, 3), (1, 0, -3, 0, 3, 0, -1))  # (1+3t^2)/(1-t^2)^3
    assert series_expand(s, 2)[2] == 6


def test_series_zero_numerator():
    s = RationalSeries((), (1, -1))
    assert series_expand(s, 5) == [0] * 6


def test_series_rejects_zero_constant_denominator():
    with pytest.raises(NonExpandableError):
        RationalSeries((1,), (0, 1))


def test_series_trims_trailing_zeros():
    s = RationalSeries((1, 0, 0), (1, 0))
    assert s.numerator == (1,) and s.denominator == (1,)


def test_series_refuses_a_negative_order():
    with pytest.raises(ValueError, match="^order must be nonnegative$"):
        series_expand(RationalSeries((1,), (1, -1)), -1)


# ----------------------------------------------------------- matrix validation

def test_fp_element_str():
    assert str(FpElement(12, 7)) == "5"
