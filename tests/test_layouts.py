"""The shared data layouts, each with one owner.

A symmetric matrix is stored as its upper triangle listed row by row:
``linalg.symmetric_grid`` builds the rows from it and ``PolyMatrix.upper``
reads it back.  The points of P^2(F_p) come in the order of
``qform.plane_points``.  The catalog writes documents in the first layout,
so a document read back by the CLI is the form the catalog made.
"""

import json
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cliffbundle import (PolyMatrix, PolyRing, PrimeField, QQ, catalog, cli,
                         projective_points)
from cliffbundle.linalg import symmetric_grid
from cliffbundle.poly import monomials_of_degree
from cliffbundle.qform import plane_points


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
