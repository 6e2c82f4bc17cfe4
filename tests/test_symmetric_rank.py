"""The principal-minor rank rule for symmetric 3x3 matrices.

``linalg.symmetric_rank`` decides the rank of the census, ``rank_at``,
``fiber_at``, ``classify`` and the F25plus provider.  Gaussian elimination
(``linalg.rank``) stays its oracle: over F_3, F_5, F_101 and Q, on sums of
rank-one terms c v v^T and on matrices with a zero diagonal, whose rank no
diagonal entry reveals.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cliffbundle import (AlgebraType, PrimeField, QQ, classify,
                         kronecker_quiver_algebra, linalg)
from cliffbundle.cli import main
from cliffbundle.scalars import lower

DOMAINS = (PrimeField(3), PrimeField(5), PrimeField(101), QQ)


def scalars(domain):
    if domain is QQ:
        return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    return st.integers(0, domain.p - 1).map(domain)


@st.composite
def symmetric_matrices(draw):
    """A domain and a symmetric 3x3 matrix over it: a sum of 0-3 terms
    c v v^T, plus a zero-diagonal matrix; entries of v and of the
    zero-diagonal part are often zero."""
    domain = draw(st.sampled_from(DOMAINS))
    scalar = scalars(domain)
    sparse = st.one_of(st.just(domain.zero), scalar)
    m = [[domain.zero] * 3 for _ in range(3)]
    for _ in range(draw(st.integers(0, 3))):
        c, v = draw(scalar), draw(st.lists(sparse, min_size=3, max_size=3))
        for i in range(3):
            for j in range(3):
                m[i][j] = m[i][j] + c * v[i] * v[j]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        x = draw(sparse)
        m[i][j], m[j][i] = m[i][j] + x, m[j][i] + x
    return domain, m


def rule_rank(m, domain):
    upper, _ = lower(domain, [m[i][j] for i in range(3) for j in range(i, 3)])
    return linalg.symmetric_rank(upper, domain.characteristic)


@settings(max_examples=150, deadline=None)
@given(case=symmetric_matrices())
def test_rule_matches_elimination(case):
    domain, m = case
    assert rule_rank(m, domain) == linalg.rank(m, domain)


@pytest.mark.parametrize("domain", DOMAINS, ids=repr)
@pytest.mark.parametrize("m, r", [
    ([[0, 1, 0], [1, 0, 0], [0, 0, 0]], 2),
    ([[1, 0, 1], [0, 0, 0], [1, 0, 0]], 2),
    ([[0, 0, 0], [0, 0, 1], [0, 1, 1]], 2),
    ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], 3),
    ([[1, 1, 1], [1, 1, 1], [1, 1, 1]], 1),
    ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], 0),
])
def test_zero_diagonal_and_sparse_cases(domain, m, r):
    m = [[domain(x) for x in row] for row in m]
    assert rule_rank(m, domain) == linalg.rank(m, domain) == r


def test_symmetric_callers_need_no_elimination(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("linalg.rref called")

    monkeypatch.setattr(linalg, "rref", refuse)
    path = tmp_path / "diag.json"
    path.write_text(json.dumps({
        "scalar_domain": "rational",
        "form": {"a": [0, 0, 0], "d": 1, "entries": ["u", "0", "0", "v", "0", "w"]},
    }), encoding="utf-8")
    for point, rank in (("1:2:3", 3), ("1:1:0", 2), ("1:0:0", 1)):
        assert main(["fiber", str(path), "--point", point]) == 0
        assert json.loads(capsys.readouterr().out)["payload"]["rank"] == rank
    for domain in (QQ, PrimeField(5)):
        assert classify(kronecker_quiver_algebra(domain)) is AlgebraType.KRONECKER_QUIVER
