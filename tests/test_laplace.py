"""Determinants and minors by memoized Laplace expansion.

``reference_det`` is the plain recursion along the first row that
recomputes every smaller minor.  It is the oracle for ``det``, every
``minor``, ``adjugate3`` and the sixteen ``bipoly_minor`` calls of one
kernel matrix that share a memo, over F_5, F_101 and Q, with planted zero
entries, a zero first row and the zero matrix.  ``det_cofactor``, the
memoized recursion over any commutative entry type that the library used
before its sums of products were summed in one accumulator, is the scalar
oracle beside it.  A product-count guard pins what the shared minors save.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cliffbundle.poly as poly_core
from cliffbundle import (PolyRing, PrimeField, QQ, adjugate3, det, det3,
                         trace_pairing_global)
from cliffbundle.brauer_severi import bipoly_minor, bs_matrix, divide_minors
from cliffbundle.catalog import make_net, make_type
from cliffbundle.errors import DegreeMismatchError, ExponentLimitError
from cliffbundle.poly import (SparsePoly, bipoly_from_alpha_map, minor, monomials_of_degree,
                             sum_of_products)
from cliffbundle.qform import new_qform
from conftest import term_bidegrees

DOMAINS = (PrimeField(5), PrimeField(101), QQ)
SHAPES = ("dense", "planted zeros", "zero first row", "zero matrix")


def reference_det(m):
    """Cofactor expansion along the first row, every minor recomputed."""
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = None
    for j in range(n):
        sub = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * reference_det(sub)
        if j % 2 == 1:
            term = -term
        total = term if total is None else total + term
    return total


def laplace_minor(m, rows, cols, memo):
    """Determinant of ``m`` restricted to the sorted index tuples ``rows`` x
    ``cols``, by Laplace expansion along ``rows[0]``, every minor of two or
    more rows cached in ``memo``.  Zero entries of the expansion row are
    skipped, and a row of zeros yields its first entry."""
    if len(rows) == 1:
        return m[rows[0]][cols[0]]
    key = (rows, cols)
    total = memo.get(key)
    if total is not None:
        return total
    top, rest = m[rows[0]], rows[1:]
    for j, c in enumerate(cols):
        entry = top[c]
        if not entry:
            continue
        term = entry * laplace_minor(m, rest, cols[:j] + cols[j + 1:], memo)
        if total is None:
            total = -term if j % 2 else term
        elif j % 2:
            total = total - term
        else:
            total = total + term
    if total is None:
        total = top[cols[0]]
    memo[key] = total
    return total


def det_cofactor(m):
    """Determinant by Laplace expansion along the first row, every smaller
    minor computed once (``laplace_minor``)."""
    span = tuple(range(len(m)))
    return laplace_minor(m, span, span, {})


def submatrix(m, r, c):
    """m without 0-based row r and column c."""
    return [row[:c] + row[c + 1:] for i, row in enumerate(m) if i != r]


def assert_same(got, want):
    assert got == want
    assert type(got) is type(want)
    assert getattr(got, "degree", None) == getattr(want, "degree", None)


@st.composite
def shaped(draw, n, entry, zero):
    """An n x n grid of ``entry(i, j)`` draws in one of the SHAPES."""
    shape = draw(st.sampled_from(SHAPES))
    grid = [[draw(entry(i, j)) for j in range(n)] for i in range(n)]
    if shape == "planted zeros":
        cells = [(i, j) for i in range(n) for j in range(n)]
        for i, j in draw(st.lists(st.sampled_from(cells), min_size=1, unique=True)):
            grid[i][j] = zero
    elif shape == "zero first row":
        grid[0] = [zero] * n
    elif shape == "zero matrix":
        grid = [[zero] * n for _ in range(n)]
    return grid


def scalars(domain):
    if domain is QQ:
        return st.fractions(min_value=-6, max_value=6, max_denominator=4)
    return st.integers(0, domain.p - 1).map(domain)


def homog(ring, degree):
    """A random polynomial of one degree (possibly zero)."""
    monos = list(monomials_of_degree(ring.nvars, degree))
    return st.dictionaries(st.sampled_from(monos), scalars(ring.domain),
                           max_size=3).map(ring.poly)


@st.composite
def poly_matrices(draw, n):
    """A square matrix whose entry (i, j) has degree r_i + c_j, so that
    every minor is homogeneous."""
    ring = PolyRing(draw(st.sampled_from(DOMAINS)))
    r = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    c = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return draw(shaped(n, lambda i, j: homog(ring, r[i] + c[j]), ring.zero))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_scalar_det_cofactor_matches_the_recursion(data):
    n = data.draw(st.integers(1, 5))
    kind = data.draw(st.sampled_from(("int", "Fraction", "F_5", "F_101")))
    if kind == "int":
        entry, zero = st.integers(-9, 9), 0
    elif kind == "Fraction":
        entry, zero = scalars(QQ), Fraction(0)
    else:
        field = PrimeField(5 if kind == "F_5" else 101)
        entry, zero = scalars(field), field.zero
    m = data.draw(shaped(n, lambda i, j: entry, zero))
    assert_same(det_cofactor(m), reference_det(m))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_det_and_every_minor_match_the_recursion(data):
    n = data.draw(st.integers(1, 5))
    m = data.draw(poly_matrices(n))
    assert_same(det(m), reference_det(m))
    if n == 1:
        return
    for r in range(n):
        for c in range(n):
            assert_same(minor(m, r + 1, c + 1), reference_det(submatrix(m, r, c)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_adjugate3_matches_the_recursion(data):
    m = data.draw(poly_matrices(3))
    adj = adjugate3(m)
    for i in range(3):
        for j in range(3):
            want = reference_det(submatrix(m, i, j))
            assert_same(adj.entry(j, i), -want if (i + j) % 2 else want)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_sixteen_minors_sharing_a_memo_match_the_recursion(data):
    """Degree patterns of F23 and F24, so the alpha weights are 0 and 1."""
    ring = PolyRing(data.draw(st.sampled_from(DOMAINS)))
    a, d = data.draw(st.sampled_from((((0, 0, 0), 1), ((0, 1, 1), 0))))
    upper = data.draw(shaped(3, lambda i, j: homog(ring, a[i] + a[j] + d), ring.zero))
    grid = [[upper[min(i, j)][max(i, j)] for j in range(3)] for i in range(3)]
    m = bs_matrix(new_qform(a, d, grid))
    memo = {}
    for r in range(4):
        for c in range(4):
            got = bipoly_minor(m, r + 1, c + 1, memo)
            assert_same(got, reference_det(submatrix(m.entries, r, c)))
            assert term_bidegrees(got) == ({got.degree} if got else set())


# ------------------------------------------------------------ product counts

@pytest.fixture
def products(monkeypatch):
    """A list that grows by one at every call of the per-product kernel
    ``add_product``; a test clears it once its inputs are built."""
    calls = []
    real = poly_core.add_product

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(poly_core, "add_product", counting)
    return calls


@pytest.mark.parametrize("domain", (PrimeField(101), QQ), ids=str)
def test_sixteen_minors_share_their_2x2_minors(products, domain):
    """18 2x2 minors and 12 expansions along the monomials of row 1: 75
    products, plus 15 that build the kernel matrix (159 without sharing)."""
    q = make_type("F24", domain=domain, seed=7)
    products.clear()
    divide_minors(q)
    assert len(products) <= 90


@pytest.mark.parametrize("domain", (PrimeField(101), QQ), ids=str)
def test_quintic_of_a_net_reuses_its_smaller_minors(products, domain):
    """A dense 5x5 costs 75 products (205 without sharing); the zeros of a
    net's last row save a few more."""
    net = make_net(domain=domain, seed=7)
    products.clear()
    det(net.matrix)
    assert len(products) <= 75


@pytest.mark.parametrize("domain", (PrimeField(101), QQ), ids=str)
def test_det3_and_adjugate3_product_counts(products, domain):
    grid = make_type("F24", domain=domain, seed=7).matrix
    assert all(f for row in grid.entries for f in row)
    products.clear()
    det3(grid)
    assert len(products) == 9
    products.clear()
    adjugate3(grid)
    assert len(products) == 18


@pytest.mark.parametrize("domain", (PrimeField(101), QQ), ids=str)
def test_determinants_and_the_global_pairing_sum_without_copies(monkeypatch, domain):
    """Each sum of products is summed in one accumulator: no ``+``, ``-``
    or scaling of a partial sum (``_combine``, ``scale``)."""
    q = make_type("F24", domain=domain, seed=7)
    assert all(q.matrix.upper())
    trace_pairing_global(q)  # builds the generic table
    calls = []
    for name in ("_combine", "scale"):
        real = getattr(SparsePoly, name)

        def counting(*args, real=real, name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(SparsePoly, name, counting)
    det3(q.matrix)
    trace_pairing_global(q)
    assert calls == []


def test_a_product_past_the_exponent_limit_is_refused_even_if_it_cancels():
    ring = PolyRing(QQ)
    f = ring.monomial(1, (20000, 0, 0))
    with pytest.raises(ExponentLimitError):
        det([[f, f], [f, f]])


def test_sums_of_products_take_factors_of_one_setting_only():
    """A factor of the very ring of ``like`` skips the setting check; one of
    an equal ring passes it, and one of another ring or class is refused."""
    ring = PolyRing(PrimeField(5))
    u, v = ring.variable(0), ring.variable(1)
    twin = PolyRing(PrimeField(5)).variable(1)
    assert sum_of_products([(1, u, v), (-1, v, twin)], ring.zero) == u * v - v * v
    for other in (PolyRing(PrimeField(7)).variable(0), PolyRing(QQ).variable(0),
                  bipoly_from_alpha_map(ring, (0, 0, 0), {(1, 0, 0): u})):
        for factors in ((1, other, u), (1, u, other)):
            with pytest.raises(TypeError, match="different settings"):
                sum_of_products([(1, u, v), factors], ring.zero)


def test_products_of_different_degrees_do_not_add():
    ring = PolyRing(PrimeField(5))
    u, one = ring.variable(0), ring.one
    with pytest.raises(DegreeMismatchError):
        det([[u, one], [one, u]])
