"""Quadratic-form layer: patterns, twisting, discriminants, fiber geometry."""

import pytest

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
from cliffbundle.qform import fiber_census
from cliffbundle.errors import (
    AsymmetricEntriesError,
    DegreePatternError,
    ZeroPolynomialError,
)
from conftest import diag_form, uvw


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


def test_projective_point_count():
    for prime in (3, 5, 7):
        pts = list(projective_points(PrimeField(prime)))
        assert len(pts) == prime * prime + prime + 1
        assert len({str(p) for p in pts}) == len(pts)
