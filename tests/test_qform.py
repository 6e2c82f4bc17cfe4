"""Quadratic-form layer: patterns, twisting, discriminants, fiber geometry."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cliffbundle import (
    ConicType,
    FiberPoint,
    PolyRing,
    PrimeField,
    QQ,
    SingularityType,
    discriminant,
    fiber_conic_type,
    is_nowhere_zero,
    new_qform,
    normalize,
    projective_points,
    rank_at,
    singularity_type_at,
    twist,
)
from cliffbundle import make_type
from cliffbundle.linalg import symmetric_grid
from cliffbundle.poly import EXP_LIMIT, PolyMatrix
from cliffbundle.qform import QForm, fiber_census, qform_from_upper
from cliffbundle.errors import (
    AsymmetricEntriesError,
    DegreePatternError,
    ZeroPolynomialError,
)
from conftest import diag_form, sparse_polys, uvw


# ------------------------------------------------------------------ building

def test_f23_diagonal_is_valid(ring_q):
    q = diag_form(ring_q)
    assert q.pattern() == ((1, 1, 1), (1, 1, 1), (1, 1, 1))


def test_f24_shape_is_valid(ring_q):
    u, v, w = uvw(ring_q)
    z = ring_q.zero
    one = ring_q.one
    q = new_qform((0, 1, 1), 0, [[one, u, v], [u, u * v, v * w], [v, v * w, w * w]])
    assert q.entry(0, 0).degree == 0
    assert q.entry(1, 2).degree == 2


def test_degree_pattern_violation(ring_q):
    u, v, w = uvw(ring_q)
    z = ring_q.zero
    with pytest.raises(DegreePatternError):
        new_qform((0, 0, 0), 1, [[u * u, z, z], [z, v, z], [z, z, w]])


def test_asymmetric_entries_rejected(ring_q):
    u, v, w = uvw(ring_q)
    z = ring_q.zero
    with pytest.raises(AsymmetricEntriesError):
        new_qform((0, 0, 0), 1, [[u, u, z], [v, v, z], [z, z, w]])


def grid_oracle(a, d, grid):
    """``new_qform`` on a grid as it was before forms were validated on
    their upper triangle: every entry of the grid checked against its slot."""
    a = tuple(int(x) for x in a)
    if len(a) != 3:
        raise ValueError("degree pattern needs three integers a1, a2, a3")
    grid = tuple(tuple(row) for row in grid)
    if len(grid) != 3 or any(len(r) != 3 for r in grid):
        raise ValueError("entries must form a 3x3 matrix")
    for i in range(3):
        for j in range(i):
            if grid[i][j] != grid[j][i]:
                raise AsymmetricEntriesError(
                    f"entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) differ")
    q = QForm(a=a, d=d, matrix=PolyMatrix(grid))
    pattern = q.pattern()
    for i, row in enumerate(grid):
        for j, f in enumerate(row):
            if f and f.degree != pattern[i][j]:
                raise DegreePatternError(
                    f"pattern a={a}, d={d}: entry ({i + 1},{j + 1}) has degree "
                    f"{f.degree}, pattern expects {pattern[i][j]}")
    top = max(map(max, pattern))
    if top > 3 * EXP_LIMIT:
        raise DegreePatternError(f"pattern a={a}, d={d}: slot degree {top} is "
                                 f"larger than 3*EXP_LIMIT = {3 * EXP_LIMIT}")
    return q


def outcome(build):
    """What ``build()`` returns, or the type and message of what it raises."""
    try:
        return build()
    except Exception as exc:
        return type(exc), str(exc)


RINGS = (PolyRing(PrimeField(3)), PolyRing(PrimeField(101)), PolyRing(QQ))
OTHER_RINGS = (PolyRing(PrimeField(5)), PolyRing(QQ, ("x", "y", "z")))


@st.composite
def upper_triangles(draw):
    """``(a, d, upper)``: entries that fit their slots, zero half the time,
    with up to two faults: an entry of another degree or from another ring.
    One draw in ten puts every slot past 3 * EXP_LIMIT, and one in eight
    has an ``a`` that is no three integers."""
    ring = draw(st.sampled_from(RINGS))
    a = tuple(draw(st.integers(-1, 2)) for _ in range(3))
    d = draw(st.integers(0, 2)) - 2 * min(a)
    if draw(st.integers(0, 9)) == 0:
        d += 3 * EXP_LIMIT
    degrees = [a[i] + a[j] + d for i in range(3) for j in range(i, 3)]
    upper = [draw(sparse_polys(ring, e)) if e <= 4 else ring.zero for e in degrees]
    faults = draw(st.lists(st.tuples(st.integers(0, 5), st.sampled_from(("wrong", "other"))),
                           max_size=2))
    for k, kind in faults:
        if kind == "wrong":
            other = draw(st.integers(0, 4).filter(lambda e: e != degrees[k]))
            upper[k] = ring.poly({(other, 0, 0): 1})
        else:
            e = min(degrees[k], 4)
            upper[k] = draw(st.sampled_from(OTHER_RINGS)).poly({(e, 0, 0): 1})
    bad = draw(st.sampled_from((None,) * 7 + ((0, 0), (0, 0, 0, 0), ("x", 0, 0))))
    return bad or a, d, upper


@settings(max_examples=300, deadline=None)
@given(form=upper_triangles())
def test_the_upper_triangle_and_the_grid_build_one_form(form):
    """One validation, two input shapes: the six entries, their symmetric
    grid and the full-grid oracle on that grid give an equal QForm, or the
    same refusal (the first wrong degree in row-major order is named)."""
    a, d, upper = form
    grid = symmetric_grid(upper)
    expected = outcome(lambda: grid_oracle(a, d, grid))
    assert outcome(lambda: qform_from_upper(a, d, upper)) == expected
    assert outcome(lambda: new_qform(a, d, grid)) == expected


def test_the_first_wrong_degree_in_row_major_order_is_named(ring_q):
    u, v, w = uvw(ring_q)
    z = ring_q.zero
    upper = [u, z, u * u, v, w * w, w]
    message = ("pattern a=(0, 0, 0), d=1: entry (1,3) has degree 2, "
               "pattern expects 1")
    for build in (lambda: qform_from_upper((0, 0, 0), 1, upper),
                  lambda: new_qform((0, 0, 0), 1, symmetric_grid(upper))):
        with pytest.raises(DegreePatternError) as caught:
            build()
        assert str(caught.value) == message


@pytest.mark.parametrize("pairs", [[(1, 0)], [(2, 0)], [(2, 1)], [(2, 1), (2, 0)]])
@pytest.mark.parametrize("as_matrix", [False, True])
def test_new_qform_refuses_an_asymmetric_grid_first(ring_q, pairs, as_matrix):
    """The first mirrored pair that differs is named, before the degree
    pattern is read: every entry here also has the wrong degree."""
    u, v, w = uvw(ring_q)
    grid = [[u * u, v * v, w * w], [v * v, u * v, v * w], [w * w, v * w, u * w]]
    for i, j in pairs:
        grid[i][j] = grid[i][j] * 2
    entries = PolyMatrix(grid) if as_matrix else grid
    first = min(pairs)
    with pytest.raises(AsymmetricEntriesError) as caught:
        new_qform((5, 5, 5), 0, entries)
    assert str(caught.value) == (f"entries ({first[0] + 1},{first[1] + 1}) and "
                                 f"({first[1] + 1},{first[0] + 1}) differ")
    assert outcome(lambda: new_qform((5, 5, 5), 0, entries)) == \
        outcome(lambda: grid_oracle((5, 5, 5), 0, grid))


@pytest.mark.parametrize("shape", [(2, 2), (4, 4), (3, 2), (2, 3), (0, 0), "ragged"])
@pytest.mark.parametrize("as_matrix", [False, True])
def test_new_qform_refuses_a_grid_that_is_not_3x3(ring_q, shape, as_matrix):
    u = ring_q.variable(0)
    if shape == "ragged":
        grid = [[u, u, u], [u, u], [u, u, u]]
    else:
        grid = [[u] * shape[1] for _ in range(shape[0])]
    if as_matrix:
        if shape in ("ragged", (0, 0)):
            return  # PolyMatrix holds only nonempty rectangles
        grid = PolyMatrix(grid)
    with pytest.raises(ValueError, match="entries must form a 3x3 matrix"):
        new_qform((0, 0, 0), 1, grid)


@pytest.mark.parametrize("count", [0, 1, 3, 5, 7, 10])
def test_a_count_of_entries_other_than_six_is_refused(ring_q, count):
    """``qform_from_upper`` refuses it as the full-grid oracle refuses the
    grid of those entries: no square, or a square that is not 3x3."""
    upper = [ring_q.variable(0)] * count
    expected = outcome(lambda: grid_oracle((0, 0, 0), 1, symmetric_grid(upper)))
    assert expected[0] is ValueError
    assert outcome(lambda: qform_from_upper((0, 0, 0), 1, upper)) == expected


def test_a_polymatrix_is_kept_as_the_form_matrix(ring_q):
    q = diag_form(ring_q)
    assert new_qform(q.a, q.d, q.matrix).matrix is q.matrix
    assert new_qform(q.a, q.d, q.matrix) == q == qform_from_upper(q.a, q.d, q.matrix.upper())


# ------------------------------------------------------------------- twisting

def test_twist_bookkeeping(ring_q):
    q = diag_form(ring_q)
    t = twist(q, 1)
    assert t.a == (1, 1, 1)
    assert t.d == -1
    assert t.matrix == q.matrix
    assert twist(t, -1) == q


def test_twist_preserves_entry_degrees(ring_q):
    q = diag_form(ring_q)
    for m in (-3, -1, 2, 5):
        assert twist(q, m).pattern() == q.pattern()


def test_normalize_f23(ring_q):
    q = diag_form(ring_q)
    n = normalize(q)
    assert n.a == (-1, -1, -1)
    assert n.d == 3
    assert n.d == -sum(n.a)
    assert normalize(n) == n


def test_normalize_preserves_discriminant(ring_q):
    q = diag_form(ring_q)
    n = normalize(q)
    assert discriminant(n) == discriminant(q)
    assert discriminant(n).degree == 3


# --------------------------------------------------------------- discriminant

def test_discriminant_diag(ring_q):
    u, v, w = uvw(ring_q)
    assert discriminant(diag_form(ring_q)) == u * v * w


def test_discriminant_degree_formula_random(ring_f101):
    dom = ring_f101.domain
    for tag, expected in (("F23", 3), ("F24", 4), ("F25minus", 5)):
        for seed in range(8):
            q = make_type(tag, domain=dom, seed=seed)
            disc = discriminant(q)
            assert disc.degree == expected == 2 * sum(q.a) + 3 * q.d


def test_discriminant_rank2_form_vanishes(ring_q):
    u, v, _ = uvw(ring_q)
    z = ring_q.zero
    q = new_qform((0, 0, 0), 1, [[u, z, z], [z, v, z], [z, z, z]])
    assert discriminant(q).is_zero


def test_discriminant_twist_invariant(ring_f101):
    for seed in range(5):
        q = make_type("F24", domain=ring_f101.domain, seed=seed)
        for m in (-2, 1, 3):
            assert discriminant(twist(q, m)) == discriminant(q)


# -------------------------------------------------------------------- fibers

def test_rank_at_examples(ring_q):
    q = diag_form(ring_q)
    mk = lambda c: FiberPoint.make(QQ, c)
    assert rank_at(q, mk((1, 1, 1))) == 3
    assert rank_at(q, mk((0, 1, 1))) == 2
    assert rank_at(q, mk((0, 0, 1))) == 1


def test_fiber_conic_types(ring_q):
    q = diag_form(ring_q)
    mk = lambda c: FiberPoint.make(QQ, c)
    assert fiber_conic_type(q, mk((1, 1, 1))) is ConicType.SMOOTH_CONIC
    assert fiber_conic_type(q, mk((0, 1, 1))) is ConicType.LINE_PAIR
    assert fiber_conic_type(q, mk((0, 0, 1))) is ConicType.DOUBLE_LINE


def test_rank_invariant_under_twist(ring_f5):
    q = diag_form(ring_f5)
    t = twist(q, 2)
    for p in projective_points(ring_f5.domain):
        assert rank_at(q, p) == rank_at(t, p)


def test_zero_form_is_whole_plane(ring_q):
    z = ring_q.zero
    q = new_qform((0, 0, 0), 1, [[z] * 3] * 3)
    p = FiberPoint.make(QQ, (1, 2, 3))
    assert rank_at(q, p) == 0
    assert fiber_conic_type(q, p) is ConicType.WHOLE_PLANE


# --------------------------------------------------------------- nowhere-zero

def test_nowhere_zero_diag_f5(ring_f5):
    result = is_nowhere_zero(diag_form(ring_f5))
    assert result.nowhere_zero
    assert result.witness is None


def test_nowhere_zero_witness_on_line(ring_f5):
    u, _, _ = uvw(ring_f5)
    q = new_qform((0, 0, 0), 1, [[u, u, u], [u, u, u], [u, u, u]])
    result = is_nowhere_zero(q)
    assert not result.nowhere_zero
    assert not result.witness.coords[0]  # witness lies on u = 0
    values = q.matrix.evaluate(result.witness.coords)
    assert all(not x for row in values for x in row)


def test_nowhere_zero_zero_matrix(ring_f5):
    z = ring_f5.zero
    q = new_qform((0, 0, 0), 1, [[z] * 3] * 3)
    result = is_nowhere_zero(q)
    assert not result.nowhere_zero
    assert result.witness is not None


def test_nowhere_zero_refuses_the_rationals(ring_q):
    with pytest.raises(TypeError, match="prime-field"):
        is_nowhere_zero(diag_form(ring_q))


# ----------------------------------------------------------- rank/disc locus

@pytest.mark.parametrize("prime", [5, 7])
def test_rank_locus_equals_discriminant_locus(prime):
    field = PrimeField(prime)
    ring = PolyRing(field)
    for q in (diag_form(ring), make_type("F23", domain=field, seed=2),
              make_type("F25minus", domain=field, seed=3)):
        disc = discriminant(q)
        low = {str(p) for p in projective_points(field) if rank_at(q, p) < 3}
        zero = {str(p) for p in projective_points(field)
                if not disc.evaluate(p.coords)}
        assert low == zero


def test_census_diag_f5(ring_f5):
    counts = fiber_census(diag_form(ring_f5)).counts
    assert counts[ConicType.SMOOTH_CONIC] == 16
    assert counts[ConicType.LINE_PAIR] == 12
    assert counts[ConicType.DOUBLE_LINE] == 3
    assert counts[ConicType.WHOLE_PLANE] == 0
    assert sum(counts.values()) == 31


# --------------------------------------------------------------- singularities

def test_singularity_examples(ring_q):
    u, v, w = uvw(ring_q)
    mk = lambda c: FiberPoint.make(QQ, c)
    assert singularity_type_at(u * v, mk((0, 0, 1))) is SingularityType.NODE
    assert singularity_type_at(u * u, mk((0, 1, 1))) is SingularityType.WORSE_SINGULARITY
    assert singularity_type_at(u, mk((0, 1, 1))) is SingularityType.SMOOTH_POINT
    assert singularity_type_at(u, mk((1, 1, 1))) is SingularityType.NOT_ON_CURVE
    with pytest.raises(ZeroPolynomialError):
        singularity_type_at(ring_q.zero, mk((1, 0, 0)))


def test_nodal_cubic(ring_q):
    u, v, w = uvw(ring_q)
    # w v^2 = u^2 (u + w): node at (0 : 0 : 1).
    f = w * v * v - u * u * (u + w)
    assert singularity_type_at(f, FiberPoint.make(QQ, (0, 0, 1))) is SingularityType.NODE
    assert singularity_type_at(f, FiberPoint.make(QQ, (-1, 0, 1))) is SingularityType.SMOOTH_POINT


def test_cusp_is_worse(ring_q):
    u, v, w = uvw(ring_q)
    f = w * v * v - u * u * u
    assert singularity_type_at(f, FiberPoint.make(QQ, (0, 0, 1))) is SingularityType.WORSE_SINGULARITY


# ------------------------------------------------------------------ points

def test_fiber_point_normalization():
    p = FiberPoint.make(QQ, (2, 4, 2))
    assert p.coords == (QQ(1), QQ(2), QQ(1))
    p2 = FiberPoint.make(QQ, (3, 5, 0))
    assert p2.coords[1] == QQ(1)
    with pytest.raises(ValueError):
        FiberPoint.make(QQ, (0, 0, 0))


def divided_point(domain, coords):
    """``FiberPoint.make`` as it was: every point divided by its last
    nonzero coordinate, the oracle."""
    pt = [domain(x) for x in coords]
    if len(pt) != 3:
        raise ValueError("a fiber point needs 3 coordinates")
    last = None
    for i in range(2, -1, -1):
        if pt[i]:
            last = i
            break
    if last is None:
        raise ValueError("(0 : 0 : 0) is not a projective point")
    inv = domain.one / pt[last]
    return FiberPoint(tuple(x * inv for x in pt))


COORDINATES = st.one_of(
    st.sampled_from((0, 0, 1, 1, -1, 4, 102, Fraction(1, 2), Fraction(-3, 4), Fraction(5))),
    st.integers(-300, 300),
    st.fractions(-5, 5, max_denominator=9))


@settings(max_examples=300, deadline=None)
@given(domain=st.sampled_from((PrimeField(3), PrimeField(101), QQ)),
       coords=st.lists(COORDINATES, min_size=3, max_size=3))
def test_make_matches_the_dividing_route(domain, coords):
    """One point rule: a point whose last nonzero coordinate is already 1
    is kept as it is, which is what dividing by 1 gives, in coordinates,
    in their types and in ``str``; over F_3, 4 and 102 are 1 too."""
    expected = outcome(lambda: divided_point(domain, coords))
    got = outcome(lambda: FiberPoint.make(domain, coords))
    assert got == expected
    if isinstance(got, FiberPoint):
        assert str(got) == str(expected)
        assert list(map(type, got.coords)) == list(map(type, expected.coords))


@pytest.mark.parametrize("coords", [(1, 1), (1, 2, 3, 1), (0, 0, 0)])
def test_make_refuses_what_the_dividing_route_refuses(coords):
    for domain in (PrimeField(3), QQ):
        with pytest.raises(ValueError) as caught:
            FiberPoint.make(domain, coords)
        assert outcome(lambda: divided_point(domain, coords)) == (ValueError, str(caught.value))


def test_projective_point_count():
    for prime in (3, 5, 7):
        pts = list(projective_points(PrimeField(prime)))
        assert len(pts) == prime * prime + prime + 1
        assert len({str(p) for p in pts}) == len(pts)
