"""The integer-residue plane scan against the FpElement path.

The oracle is the slow route: ``rank_at`` (``linalg.rank`` on evaluated
entries), ``HomogPoly.evaluate`` of the discriminant and ``BiPoly.evaluate``
of the conic equation, each over ``projective_points``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from cliffbundle import (
    ConicType,
    FiberPoint,
    PolyRing,
    PrimeField,
    census,
    conic_equation,
    conic_point_count,
    discriminant,
    fiber_conic_type,
    is_nowhere_zero,
    new_qform,
    projective_points,
    qform,
)
from cliffbundle.errors import InternalInvariantError, ScanTooLargeError
from cliffbundle.poly import monomials_of_degree
from conftest import diag_form, uvw

KINDS = ("generic", "rank_deficient", "vanishing")


@st.composite
def forms(draw, kind):
    """Random forms over F_3, F_5, F_7 or F_11 of one kind.

    generic: random entries for a random degree pattern.
    rank_deficient: c1 l l^T + c2 m m^T for vectors l, m of linear forms,
      so the rank is at most 2 everywhere and the discriminant is zero.
    vanishing: every entry is a linear form through one drawn point, or a
      multiple of one linear form, so the fibers over that point or along
      that line are WholePlane.
    """
    field = PrimeField(draw(st.sampled_from((3, 5, 7, 11))))
    ring = PolyRing(field)
    scalar = st.integers(0, field.p - 1)

    def poly(degree, exclude=None):
        return ring.poly({e: draw(scalar) for e in monomials_of_degree(3, degree)
                          if e != exclude})

    if kind == "generic":
        a = tuple(draw(st.integers(0, 1)) for _ in range(3))
        d = draw(st.integers(0, 1))
        upper = {(i, j): poly(a[i] + a[j] + d) for i in range(3) for j in range(i, 3)}
    elif kind == "rank_deficient":
        a, d = (0, 0, 0), 2
        l = [poly(1) for _ in range(3)]
        m = [poly(1) for _ in range(3)]
        c1, c2 = draw(scalar), draw(scalar)
        upper = {(i, j): l[i] * l[j] * c1 + m[i] * m[j] * c2
                 for i in range(3) for j in range(i, 3)}
    elif draw(st.booleans()):
        a, d = (0, 0, 0), 1
        point = draw(st.sampled_from(list(projective_points(field)))).coords
        k = max(i for i in range(3) if point[i])  # point[k] == 1
        unit = tuple(int(i == k) for i in range(3))

        def through_point():
            f = poly(1, exclude=unit)
            return f - ring.monomial(f.evaluate(point), unit)

        upper = {(i, j): through_point() for i in range(3) for j in range(i, 3)}
    else:
        a, d = (0, 0, 0), 1
        line = poly(1)
        upper = {(i, j): line * draw(scalar) for i in range(3) for j in range(i, 3)}
    grid = [[upper[min(i, j), max(i, j)] for j in range(3)] for i in range(3)]
    return new_qform(a, d, grid)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_kernel_matches_fp_element_path(kind, data):
    q = data.draw(forms(kind))
    points = list(projective_points(q.domain))
    disc = discriminant(q)

    expected = {t: 0 for t in ConicType}
    for p in points:
        expected[fiber_conic_type(q, p)] += 1
    result = qform.fiber_census(q)
    assert result.counts == expected
    assert census(q) == expected
    assert result.discriminant_zeros == sum(
        1 for p in points if not disc.evaluate(p.coords))

    witness = next((p for p in points
                    if not any(x for row in q.matrix.evaluate(p.coords) for x in row)),
                   None)
    found = is_nowhere_zero(q)
    assert found.witness == witness
    assert found.nowhere_zero == (witness is None)

    base = data.draw(st.sampled_from(points))
    cq = conic_equation(q)
    assert conic_point_count(q, base) == sum(
        1 for alpha in points if not cq.evaluate(base.coords, alpha.coords))

    if kind == "rank_deficient":
        assert disc.is_zero
    if kind == "vanishing":
        assert expected[ConicType.WHOLE_PLANE] >= 1


def test_planted_wrong_discriminant_raises(monkeypatch):
    ring = PolyRing(PrimeField(5))
    u, v, w = uvw(ring)
    monkeypatch.setattr(qform, "discriminant", lambda q: u * v * w + u * u * u)
    with pytest.raises(InternalInvariantError):
        qform.fiber_census(diag_form(ring))


def test_scans_refuse_more_points_than_the_limit():
    field = PrimeField(1009)  # 1009^2 + 1009 + 1 = 1,019,091 points
    q = diag_form(PolyRing(field))
    base = FiberPoint.make(field, (1, 0, 0))
    for scan in (lambda: census(q), lambda: is_nowhere_zero(q),
                 lambda: conic_point_count(q, base)):
        with pytest.raises(ScanTooLargeError, match="SCAN_POINT_LIMIT"):
            scan()
