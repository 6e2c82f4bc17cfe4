"""Conic equation, the 4x4 kernel matrix, minor identities, membership."""

import random

import pytest
from hypothesis import given, settings

from cliffbundle import (
    FiberPoint,
    PrimeField,
    bipoly_from_alpha_map,
    bs_matrix,
    bs_matrix_via_algebra,
    bs_membership,
    conic_equation,
    conic_point_count,
    make_type,
    new_qform,
    rank_at,
    verify_minors,
)
from cliffbundle import brauer_severi
from cliffbundle.brauer_severi import (
    NAMED_MINOR_IDENTITIES,
    alpha_variable,
    bipoly_minor,
    divide_exact_bipoly,
    divide_minors,
)
from cliffbundle.errors import DegreeMismatchError, InternalInvariantError, NotDivisibleError
from conftest import diag_form, forms, symbolic_qform, uvw


# ---------------------------------------------------------------- conic equation

def test_conic_equation_diag(ring_q):
    q = diag_form(ring_q)
    u, v, w = uvw(ring_q)
    cq = conic_equation(q)
    assert cq.degree[0] == 2
    assert cq.coefficient((2, 0, 0)) == u
    assert cq.coefficient((0, 2, 0)) == v
    assert cq.coefficient((0, 0, 2)) == w
    assert cq.coefficient((1, 1, 0)).is_zero


def test_conic_equation_doubles_off_diagonal(ring_q):
    u, v, w = uvw(ring_q)
    q = new_qform((0, 0, 0), 1, [[u, w, v], [w, v, u], [v, u, w]])
    cq = conic_equation(q)
    assert cq.coefficient((1, 1, 0)) == w + w


def test_conic_equation_zero_form(ring_q):
    z = ring_q.zero
    q = new_qform((0, 0, 0), 1, [[z] * 3] * 3)
    assert conic_equation(q).is_zero


def test_conic_count_smooth_fiber_f5(ring_f5):
    q = diag_form(ring_f5)
    base = FiberPoint.make(ring_f5.domain, (1, 1, 1))
    assert conic_point_count(q, base) == 6  # p + 1


def test_conic_count_refuses_the_rationals(ring_q):
    base = FiberPoint.make(ring_q.domain, (1, 1, 1))
    with pytest.raises(TypeError, match="prime-field"):
        conic_point_count(diag_form(ring_q), base)


def test_weighted_homogeneity_enforced(ring_q):
    u = ring_q.variable(0)
    with pytest.raises(DegreeMismatchError):
        bipoly_from_alpha_map(ring_q, (0, 0, 0),
                              {(1, 0, 0): u, (0, 1, 0): u * u})


def test_weighted_homogeneity_across_patterns(ring_f101):
    for tag in ("F23", "F24", "F25minus"):
        q = make_type(tag, domain=ring_f101.domain, seed=4)
        cq = conic_equation(q)
        assert cq.degree[0] == 2
        assert cq.degree[1] == q.d
        m = bs_matrix(q)
        for r in range(1, 4):
            for c in range(1, 4):
                entry = m.entry(r, c)
                assert entry.is_zero or entry.degree[0] == 1


# ----------------------------------------------------------------- the matrix

def test_bs_matrix_displayed_entries():
    q = symbolic_qform()
    ring = q.ring
    s = {n: ring.variable(n) for n in ring.variables}
    m = bs_matrix(q)
    a1, a2, a3 = (alpha_variable(ring, q.a, i) for i in (1, 2, 3))
    assert m.entry(0, 1) == a1 and m.entry(0, 2) == a2 and m.entry(0, 3) == a3
    assert m.entry(1, 1) == (s["q23"] + s["q23"]) * a1
    assert m.entry(2, 3) == -(s["q11"] * a1)
    assert m.entry(1, 2) == -(s["q33"] * a3)
    assert m.entry(3, 1) == -(s["q22"] * a2)


def test_bs_matrix_display_equals_engine_derivation(ring_f101):
    assert bs_matrix_via_algebra(symbolic_qform()).entries == \
        bs_matrix(symbolic_qform()).entries
    for tag in ("F23", "F24", "F25minus"):
        q = make_type(tag, domain=ring_f101.domain, seed=6)
        assert bs_matrix_via_algebra(q).entries == bs_matrix(q).entries


@pytest.mark.parametrize("r, c", [(0, 1), (1, 0)])
def test_the_engine_border_is_checked(ring_f101, monkeypatch, r, c):
    """e_0 e_1 or e_1 e_0 read as e_2 puts a2 where row or column 1 has a1."""
    real = brauer_severi.fiber_algebra

    def miswritten(entries, ring):
        alg = real(entries, ring)
        constants = list(alg.constants)
        constants[16 * r + 4 * c:16 * r + 4 * c + 4] = alg.constants[8:12]  # e_0 e_2
        return type(alg)(domain=alg.domain, constants=tuple(constants))

    monkeypatch.setattr(brauer_severi, "fiber_algebra", miswritten)
    with pytest.raises(InternalInvariantError,
                       match=r"^row/column 1 of the kernel matrix must be \(0, a1, a2, a3\)$"):
        bs_matrix_via_algebra(diag_form(ring_f101))


# -------------------------------------------------------------------- minors

def test_universal_minor_divisibility():
    q = symbolic_qform()
    report = verify_minors(q)
    cq = report.conic
    assert report.named_ok
    m = bs_matrix(q)
    for r in range(1, 5):
        for c in range(1, 5):
            assert bipoly_minor(m, r, c) == report.quotient(r, c) * cq


def test_universal_named_minors_exact():
    q = symbolic_qform()
    report = verify_minors(q)
    ring = q.ring
    expect = {(4, 3): alpha_variable(ring, q.a, 1),
              (3, 2): alpha_variable(ring, q.a, 3),
              (2, 4): -alpha_variable(ring, q.a, 2)}
    for pos, quotient in expect.items():
        assert report.quotient(*pos) == quotient
    # the value set matches {a1 q, -a2 q, a3 q}
    named_values = {str(report.quotient(*pos)) for pos in NAMED_MINOR_IDENTITIES}
    assert named_values == {"(1)*a1", "(-1)*a2", "(1)*a3"}


def test_universal_det_is_minus_conic_squared():
    q = symbolic_qform()
    m = bs_matrix(q)
    cq = conic_equation(q)
    grid = [[m.entry(r, c) for c in range(4)] for r in range(4)]
    from test_laplace import det_cofactor
    assert det_cofactor(grid) == -(cq * cq)


def test_minors_diag_form(ring_q):
    q = diag_form(ring_q)
    report = verify_minors(q)
    assert report.named_ok
    cq = conic_equation(q)
    a1 = alpha_variable(ring_q, q.a, 1)
    assert bipoly_minor(bs_matrix(q), 4, 3) == a1 * cq


def test_minors_zero_form(ring_q):
    z = ring_q.zero
    q = new_qform((0, 0, 0), 1, [[z] * 3] * 3)
    report = verify_minors(q)
    for r in range(1, 5):
        for c in range(1, 5):
            assert report.quotient(r, c).is_zero


@settings(max_examples=150, deadline=None)
@given(q=forms())
def test_the_generic_table_matches_the_division_route(q):
    report = verify_minors(q)
    cq = conic_equation(q)
    assert report.conic == cq and str(report.conic) == str(cq)
    if cq.is_zero:
        m = bs_matrix(q)
        expect = tuple(tuple(bipoly_minor(m, r, c) for c in range(1, 5))
                       for r in range(1, 5))
        assert not any(f for row in expect for f in row)
        named_ok = True
    else:
        expect = divide_minors(q)
        named_ok = all(expect[r - 1][c - 1] == alpha_variable(q.ring, q.a, i) * sign
                       for (r, c), (i, sign) in NAMED_MINOR_IDENTITIES.items())
    assert report.quotients == expect
    assert [[str(f) for f in row] for row in report.quotients] == \
        [[str(f) for f in row] for row in expect]
    assert [[f.degree for f in row] for row in report.quotients] == \
        [[f.degree for f in row] for row in expect]
    assert report.named_ok == named_ok


def test_bipoly_division_failure_carries_remainder(ring_q):
    q = diag_form(ring_q)
    a1 = alpha_variable(ring_q, q.a, 1)
    a2 = alpha_variable(ring_q, q.a, 2)
    with pytest.raises(NotDivisibleError):
        divide_exact_bipoly(a1, a2)


# ----------------------------------------------------------------- membership

def test_membership_examples(ring_q):
    q = diag_form(ring_q)
    dom = ring_q.domain
    base = FiberPoint.make(dom, (1, -1, 0))
    assert bs_membership(q, base, (1, 1, 0))
    base2 = FiberPoint.make(dom, (1, 1, 1))
    assert not bs_membership(q, base2, (1, 0, 0))


def test_membership_rank_agreement_random(ring_f101):
    rng = random.Random(77)
    field = ring_f101.domain
    q = make_type("F23", domain=field, seed=12)
    checked = 0
    while checked < 200:
        base = [field.random(rng) for _ in range(3)]
        alpha = [field.random(rng) for _ in range(3)]
        if not any(base) or not any(alpha):
            continue
        bs_membership(q, FiberPoint.make(field, base), tuple(alpha))
        checked += 1  # bs_membership raises internally if the routes disagree


# ---------------------------------------------------------------- fiber counts

def _fiber_count_direct(q, base, field):
    """Count conic points by evaluating the scalar matrix, independently of
    the BiPoly machinery; also report whether a smooth rational point exists."""
    from cliffbundle.qform import projective_points

    values = q.matrix.evaluate(base.coords)
    count = 0
    smooth_point = False
    for pt in projective_points(field):
        a = pt.coords
        total = field.zero
        grad_nonzero = False
        for i in range(3):
            row = field.zero
            for j in range(3):
                row = row + values[i][j] * a[j]
            total = total + a[i] * row
            if row:
                grad_nonzero = True
        if not total:
            count += 1
            if grad_nonzero:
                smooth_point = True
    return count, smooth_point


@pytest.mark.parametrize("prime", [5, 7])
def test_fiber_counts_by_rank(prime):
    field = PrimeField(prime)
    from cliffbundle import PolyRing
    ring = PolyRing(field)
    q = diag_form(ring)
    from cliffbundle.qform import projective_points

    seen_split = seen_nonsplit = False
    for base in projective_points(field):
        r = rank_at(q, base)
        count, smooth = _fiber_count_direct(q, base, field)
        assert count == conic_point_count(q, base)
        if r == 3:
            assert count == prime + 1
        elif r == 2:
            # split pairs carry 2p+1 rational points, nonsplit ones only the
            # vertex; a smooth rational point happens exactly in the split case
            if smooth:
                assert count == 2 * prime + 1
                seen_split = True
            else:
                assert count == 1
                seen_nonsplit = True
        elif r == 1:
            assert count == prime + 1
    assert seen_split and seen_nonsplit


def test_fiber_count_whole_plane(ring_f5):
    z = ring_f5.zero
    q = new_qform((0, 0, 0), 1, [[z] * 3] * 3)
    base = FiberPoint.make(ring_f5.domain, (1, 0, 0))
    assert conic_point_count(q, base) == 31
