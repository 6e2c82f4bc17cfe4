import faulthandler
import os
import sys

import pytest
from hypothesis import strategies as st

from cliffbundle import PolyRing, PrimeField, QQ, new_qform, qform
from cliffbundle.clifford import generic_form
from cliffbundle.linalg import symmetric_grid
from cliffbundle.poly import monomials_of_degree


#: Seconds one test may run before faulthandler writes every thread's stack
#: to the terminal and ends the run with exit code 1, so a test that hangs
#: fails with a traceback.  The slowest test takes seconds, and the
#: acceptance budgets allow up to 60 s.
HANG_SECONDS = 600

_HANG_STREAM = pytest.StashKey()


def pytest_configure(config):
    # pytest captures fd 2 while a test runs, and a dump written there is
    # lost when the run ends; a duplicate taken now still reaches the terminal.
    config.stash[_HANG_STREAM] = os.fdopen(os.dup(2), "w")


def pytest_unconfigure(config):
    config.stash[_HANG_STREAM].close()


@pytest.fixture(autouse=True)
def hang_guard(request):
    """Arms the hang dump for the test and cancels it after."""
    faulthandler.dump_traceback_later(HANG_SECONDS, exit=True,
                                      file=request.config.stash[_HANG_STREAM])
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def ring_q():
    return PolyRing(QQ)


@pytest.fixture
def ring_f5():
    return PolyRing(PrimeField(5))


@pytest.fixture
def ring_f101():
    return PolyRing(PrimeField(101))


def uvw(ring):
    return ring.variable(0), ring.variable(1), ring.variable(2)


def diag_form(ring):
    """The standard sample: diag(u, v, w) with pattern a = (0,0,0), d = 1."""
    u, v, w = uvw(ring)
    z = ring.zero
    return new_qform((0, 0, 0), 1, [[u, z, z], [z, v, z], [z, z, w]])


def symbolic_qform():
    """The generic form: six independent degree-1 symbols q11, ..., q33 for
    the entries (substituting independent transcendentals is the generic
    case, so identities proved here are universal)."""
    return generic_form()


def symbolic_scalar_grid():
    """The (a, d, e; d, b, f; e, f, c) symmetric matrix over QQ[a..f]."""
    ring = PolyRing(QQ, ("a", "b", "c", "d", "e", "f"))
    s = {name: ring.variable(name) for name in ring.variables}
    grid = [[s["a"], s["d"], s["e"]],
            [s["d"], s["b"], s["f"]],
            [s["e"], s["f"], s["c"]]]
    return ring, s, grid


def term_bidegrees(f):
    """The (alpha degree, weighted degree) of every term of a BiPoly, read
    off its exponents; a BiPoly's stored ``degree`` must be the only one."""
    return {(sum(exps[:3]),
             sum(exps[3:]) - sum(w * e for w, e in zip(f.weights, exps[:3])))
            for exps, _ in f.iter_terms()}


@st.composite
def sparse_polys(draw, ring, degree):
    """A homogeneous polynomial of the given degree, zero half the time;
    otherwise every coefficient is drawn (small fractions over Q)."""
    if draw(st.booleans()):
        return ring.zero
    if ring.domain is QQ:
        scalar = st.fractions(min_value=-9, max_value=9, max_denominator=7)
    else:
        scalar = st.integers(0, ring.domain.p - 1)
    return ring.poly({e: draw(scalar) for e in monomials_of_degree(3, degree)})


@st.composite
def forms(draw):
    """Forms over F_3, F_5, F_101 and Q with a random degree pattern.  Each
    entry is zero half the time, and one form in eight is the zero form."""
    domain = draw(st.sampled_from((PrimeField(3), PrimeField(5),
                                   PrimeField(101), QQ)))
    ring = PolyRing(domain)
    a = tuple(draw(st.integers(-1, 1)) for _ in range(3))
    d = draw(st.integers(0, 1)) - 2 * min(a)
    zero_form = draw(st.integers(0, 7)) == 0
    return new_qform(a, d, symmetric_grid(
        ring.zero if zero_form else draw(sparse_polys(ring, a[i] + a[j] + d))
        for i in range(3) for j in range(i, 3)))


def plane_values(field, polys):
    """Walk P^2(F_p) line by line, in the order of plane_points: the test
    oracle that evaluates every polynomial at every point.

    Yields ``(points, columns)``: an iterator over the points of one line,
    as triples of least residues built only when read, and, per
    polynomial, the list of its values there as least residues, read off
    its restriction from ``qform.plane_lines`` with one packed
    multiply-add per exponent and one packed reduction.
    """
    p = field.p
    rows = qform.PackedLines(p)
    _, columns = qform.plane_lines(rows, polys)
    for line in range(p + 2):
        size = qform.line_size(p, line)
        yield ((qform.line_point(p, line, t) for t in range(size)),
               [rows.residues([column[line] for column in polynomial], size).tolist()
                for polynomial in columns])


def unlimited_text(x):
    """``str(x)`` with the int-to-str digit limit lifted for the call: the
    oracle for printing numbers past it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        sys.set_int_max_str_digits(limit)

