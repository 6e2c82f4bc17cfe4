"""The shared data layouts, each with one owner.

A symmetric matrix is stored as its upper triangle listed row by row:
``linalg.symmetric_grid`` builds the rows from it and ``PolyMatrix.upper``
reads it back.  The points of P^2(F_p) come in the order of
``qform.plane_points``.  The catalog writes documents in the first layout,
so a document read back by the CLI is the form the catalog made.  The 64
structure constants of a rank-4 algebra are flat, c_ijk at 16 i + 4 j + k,
as the rewriting engine (``clifford._engine_constants``) writes them, and
every ``FiberAlgebra`` holds them so.
"""

import functools
import json
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cliffbundle import (FiberPoint, PolyMatrix, PolyRing, PrimeField, QQ, catalog, cli,
                         discriminant, fiber_algebra, fiber_algebra_at, projective_points)
from cliffbundle.clifford import _engine_constants
from cliffbundle.linalg import symmetric_grid
from cliffbundle.poly import lowered_values, monomials_of_degree
from cliffbundle.qform import plane_points
from conftest import diag_form, plane_values


@st.composite
def square_matrices(draw, n):
    """An n x n matrix of linear forms over F_5, F_101 or Q."""
    domain = draw(st.sampled_from((PrimeField(5), PrimeField(101), QQ)))
    ring = PolyRing(domain)
    coeff = st.integers(-3, 3)
    return PolyMatrix([[ring.poly({e: draw(coeff) for e in monomials_of_degree(3, 1)})
                        for _ in range(n)] for _ in range(n)])


def symmetrized(m: PolyMatrix) -> PolyMatrix:
    """m plus its transpose, entry by entry."""
    return PolyMatrix([[f + g for f, g in zip(row, col)]
                       for row, col in zip(m.entries, zip(*m.entries))])


@pytest.mark.parametrize("n", [3, 5], ids=["form", "net"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_symmetric_grid_inverts_upper(n, data):
    # Every symmetric matrix, in odd characteristic.
    m = symmetrized(data.draw(square_matrices(n)))
    assert symmetric_grid(m.upper()) == m.entries


@pytest.mark.parametrize("n", [3, 5], ids=["form", "net"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_upper_inverts_symmetric_grid(n, data):
    a = data.draw(square_matrices(n))
    xs = tuple(f for row in a.entries for f in row)[:n * (n + 1) // 2]
    m = PolyMatrix(symmetric_grid(xs))
    assert m.is_symmetric()
    assert m.upper() == xs


@pytest.mark.parametrize("count", [0, 2, 4, 7])
def test_symmetric_grid_refuses_a_non_triangular_count(count):
    with pytest.raises(ValueError, match="upper triangle"):
        symmetric_grid(range(count))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_plane_points_lists_each_point_once(p):
    points = list(plane_points(p))
    assert len(points) == len(set(points)) == p * p + p + 1
    # Every nonzero vector scales to exactly one listed point.
    canonical = set()
    for v in product(range(p), repeat=3):
        if any(v):
            last = max(i for i in range(3) if v[i])
            inv = pow(v[last], -1, p)
            canonical.add(tuple(x * inv % p for x in v))
    assert set(points) == canonical
    oracle = [tuple(x.value for x in pt.coords)
              for pt in projective_points(PrimeField(p))]
    assert points == oracle


def _catalog_payload(capsys, argv):
    assert cli.main(argv) == 0
    return json.loads(capsys.readouterr().out)["payload"]


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("rational", [False, True], ids=["F101", "Q"])
@pytest.mark.parametrize("tag", ["F23", "F24", "F25minus"])
def test_catalog_document_reads_back_as_make_type(capsys, tag, rational, seed):
    argv = ["catalog", "--type", tag, "--seed", str(seed), "--prime", "101"]
    doc = _catalog_payload(capsys, argv + (["--rational"] if rational else []))
    domain = QQ if rational else PrimeField(101)
    assert cli.form_from_document(doc) == catalog.make_type(tag, domain=domain,
                                                            seed=seed)


@pytest.mark.parametrize("rational", [False, True], ids=["F101", "Q"])
def test_catalog_net_document_reads_back_as_make_net(capsys, rational):
    argv = ["catalog", "--type", "F25plus", "--seed", "3", "--prime", "101"]
    doc = _catalog_payload(capsys, argv + (["--rational"] if rational else []))
    domain = QQ if rational else PrimeField(101)
    assert cli.net_from_document(doc) == catalog.make_net(domain=domain, seed=3)


@functools.cache
def layout_forms(domain) -> tuple:
    """diag(u, v, w) and the seed-7 catalog F24 and F25minus forms over
    ``domain``, each with points on its discriminant curve: over F_p all of
    them, over Q the points of diag(u, v, w) with a zero coordinate."""
    forms = [diag_form(PolyRing(domain))]
    forms += [catalog.make_type(tag, domain=domain, seed=7) for tag in ("F24", "F25minus")]
    if domain is QQ:
        return ((forms[0], ((0, 1, 2), (3, 0, 1), (1, -2, 0))),
                *((q, ()) for q in forms[1:]))

    def zeros(q):
        return tuple(point for points, (values,) in plane_values(domain, [discriminant(q)])
                     for point, x in zip(points, values) if not x)
    return tuple((q, zeros(q)) for q in forms)


@st.composite
def layout_fibers(draw):
    """A form of ``layout_forms`` over F_3, F_101 or Q and a point, on its
    discriminant curve in half the draws that can take one."""
    domain = draw(st.sampled_from((PrimeField(3), PrimeField(101), QQ)))
    q, zeros = draw(st.sampled_from(layout_forms(domain)))
    if zeros and draw(st.booleans()):
        return q, FiberPoint.make(domain, draw(st.sampled_from(zeros)))
    value = (st.fractions(min_value=-9, max_value=9, max_denominator=7) if domain is QQ
             else st.integers(0, domain.p - 1))
    coords = draw(st.lists(value, min_size=3, max_size=3).filter(any))
    return q, FiberPoint.make(domain, coords)


@settings(max_examples=150, deadline=None)
@given(case=layout_fibers())
def test_the_structure_constants_are_flat_from_the_engine_to_every_algebra(case):
    q, point = case
    domain = q.domain
    grid = q.matrix.evaluate(point.coords)
    engine = _engine_constants(grid, domain)
    at = fiber_algebra_at(q, point)
    assert len(engine) == 64
    for alg in (fiber_algebra(grid, domain), at):
        assert alg.constants == engine
        assert all(type(x) is type(domain.one) for x in alg.constants)
        # e_0 is the unit: c_0jk and c_j0k, at 4 j + k and 16 j + k, are [j = k].
        for j, k in product(range(4), repeat=2):
            assert alg.constants[4 * j + k] == alg.constants[16 * j + k] == (j == k)
    # The oracle: the six values boxed, mirrored into a grid and passed to fiber_algebra.
    ints, den = lowered_values(q.matrix.upper(), point.coords, domain)
    oracle = fiber_algebra(symmetric_grid(domain.from_pair(v, den) for v in ints), domain)
    assert at == oracle and repr(at) == repr(oracle)
