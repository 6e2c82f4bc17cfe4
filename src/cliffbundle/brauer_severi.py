"""The conic equation and the 4x4 kernel matrix of the Brauer-Severi variety.

For a covector alpha = (0, a1, a2, a3) against the even basis (1, yz, zx,
xy), the candidate left ideal is the common kernel of the four functionals
alpha, alpha*X, alpha*Y, alpha*Z, i.e. the kernel of a 4x4 matrix M whose
entries are linear in the alpha_i with polynomial coefficients.  Membership
of alpha in the Brauer-Severi fiber (rank M <= 2) is cut out by the single
conic equation

    q(alpha) = q11 a1^2 + q22 a2^2 + q33 a3^2
             + 2 q12 a1 a2 + 2 q13 a1 a3 + 2 q23 a2 a3,

because every 3x3 minor of M is a polynomial multiple of q(alpha).  Under
the convention that minor (r, c) deletes row r and column c, the three
extremal minors are exact:

    minor(4,3) =  a1 * q,   minor(3,2) =  a3 * q,   minor(2,4) = -a2 * q.

(The source computation lists the value set {a1 q, -a2 q, a3 q} with the
(3,2) and (2,4) labels interchanged; the identities above are the ones the
matrix satisfies, and the test suite pins them symbolically.)

Alpha variables carry weight -a_i so that all constructions stay
weighted-homogeneous for every degree pattern.  ``poly`` owns BiPoly and
PolyMatrix: M is a 4x4 PolyMatrix of BiPolys, and its minors are
``poly.minor``'s.

The minors are expanded and divided by the conic once per process, on
``clifford.generic_form()`` (``_generic_quotients``), and each quotient is
read per alpha monomial as integer terms in the six entries
(``clifford.integer_terms``, 24 terms in all).  Per document,
``verify_minors`` builds the conic and substitutes the six entries into
that table (``poly.specializer``), one accumulator per quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .errors import (
    InternalInvariantError,
    MinorNotDivisibleError,
    NotDivisibleError,
)
from . import linalg
from .clifford import fiber_algebra, generic_form, integer_terms
from .poly import (BiPoly, PolyMatrix, alpha_variable, bipoly_from_alpha_map, divide_exact_bipoly,
                   lowered_values, minor, monomials_of_degree, specializer)
from .qform import FiberPoint, QForm, zero_count


# --------------------------------------------------------------- conic & matrix

def _conic_terms(upper) -> dict:
    """{alpha exponents: coefficient} of sum q_ii alpha_i^2 + 2 sum_{i<j}
    q_ij alpha_i alpha_j, for an upper triangle (q11, ..., q33) of values or polynomials."""
    return {exps: x if 2 in exps else x + x
            for exps, x in zip(monomials_of_degree(3, 2), upper)}


def conic_equation(q: QForm) -> BiPoly:
    """q(alpha) = sum q_ii alpha_i^2 + 2 sum_{i<j} q_ij alpha_i alpha_j."""
    return bipoly_from_alpha_map(q.ring, q.a, _conic_terms(q.matrix.upper()))


def bs_matrix(q: QForm) -> PolyMatrix:
    """The kernel matrix, a 4x4 PolyMatrix of BiPolys written out entry by
    entry; row 1 and column 1 are (0, a1, a2, a3)."""
    ring, weights = q.ring, q.a
    a1, a2, a3 = (alpha_variable(ring, weights, i) for i in (1, 2, 3))
    zero = bipoly_from_alpha_map(ring, weights, {})

    def e(i, j):
        return q.entry(i - 1, j - 1)

    def twice(f):
        return f + f

    rows = (
        (zero, a1, a2, a3),
        (a1,
         twice(e(2, 3)) * a1,
         -(e(3, 3) * a3),
         twice(e(1, 2)) * a1 + e(2, 2) * a2 + twice(e(2, 3)) * a3),
        (a2,
         twice(e(1, 3)) * a1 + twice(e(2, 3)) * a2 + e(3, 3) * a3,
         twice(e(1, 3)) * a2,
         -(e(1, 1) * a1)),
        (a3,
         -(e(2, 2) * a2),
         e(1, 1) * a1 + twice(e(1, 2)) * a2 + twice(e(1, 3)) * a3,
         twice(e(1, 2)) * a3),
    )
    return PolyMatrix(rows)


def bs_matrix_via_algebra(q: QForm) -> PolyMatrix:
    """Independent derivation of the kernel matrix from the rewriting engine.

    Entry (r, c) is the covector alpha applied to E_r * E_c, where
    (E_0..E_3) = (1, yz, zx, xy) = e + s with e = (1, Xbar, Ybar, Zbar), the
    basis of fiber_algebra over the polynomial ring, and s = (0, q23, q13,
    q12).  So E_r E_c = e_r e_c + s_c e_r + s_r e_c + s_r s_c, of which alpha
    sees the traceless part only.  Must coincide with bs_matrix; row 1
    and column 1, which the engine produces too, must be (0, a1, a2, a3),
    or InternalInvariantError is raised.
    """
    ring, weights = q.ring, q.a
    constants = fiber_algebra(q.matrix.entries, ring).constants
    shift = (ring.zero, q.entry(1, 2), q.entry(0, 2), q.entry(0, 1))
    rows = []
    for r in range(4):
        row = []
        for c in range(4):
            coords = list(constants[16 * r + 4 * c:16 * r + 4 * c + 4])
            coords[r] += shift[c]
            coords[c] += shift[r]
            row.append(bipoly_from_alpha_map(ring, weights, {
                (1, 0, 0): coords[1], (0, 1, 0): coords[2], (0, 0, 1): coords[3]}))
        rows.append(row)
    border = [bipoly_from_alpha_map(ring, weights, {})] + [
        alpha_variable(ring, weights, i) for i in (1, 2, 3)]
    if rows[0] != border or [row[0] for row in rows] != border:
        raise InternalInvariantError(
            "row/column 1 of the kernel matrix must be (0, a1, a2, a3)")
    return PolyMatrix(rows)


# --------------------------------------------------------------------- minors

def bipoly_minor(m: PolyMatrix, drop_row: int, drop_col: int, memo=None) -> BiPoly:
    """3x3 minor of the kernel matrix (delete 1-based row and column).

    Calls on one matrix that pass the same ``memo`` dict compute each of
    its 2x2 minors once (``poly.minor``).
    """
    return minor(m, drop_row, drop_col, memo)


#: The exact extremal-minor identities: position -> (alpha index, sign).
NAMED_MINOR_IDENTITIES = {
    (4, 3): (1, +1),
    (3, 2): (3, +1),
    (2, 4): (2, -1),
}


@dataclass(frozen=True)
class MinorReport:
    """Outcome of the sixteen-minor divisibility verification."""

    conic: BiPoly
    quotients: tuple          # 4x4 grid, quotients[r-1][c-1] = minor(r,c) / q
    named_ok: bool            # the three extremal identities hold exactly

    def quotient(self, r: int, c: int) -> BiPoly:
        return self.quotients[r - 1][c - 1]


def divide_minors(q: QForm) -> tuple:
    """The 4x4 grid of quotients minor(r, c) / q(alpha), by expanding the
    sixteen 3x3 minors of the kernel matrix (sharing their 2x2 minors) and
    dividing each by the conic.  A remainder raises MinorNotDivisibleError.
    It builds the generic table; the tests keep it as the oracle."""
    m = bs_matrix(q)
    cq = conic_equation(q)
    memo = {}
    quotients = []
    for r in range(1, 5):
        row = []
        for c in range(1, 5):
            try:
                row.append(divide_exact_bipoly(bipoly_minor(m, r, c, memo), cq))
            except NotDivisibleError as exc:
                raise MinorNotDivisibleError(
                    f"minor ({r},{c}) is not a multiple of the conic: {exc}"
                ) from exc
        quotients.append(tuple(row))
    return tuple(quotients)


@cache
def _generic_quotients() -> tuple:
    """The sixteen quotients of ``generic_form()``, built once per process
    by ``divide_minors``.

    ``_generic_quotients()[r - 1][c - 1]`` holds quotient (r, c) as pairs
    ``(alpha exps, ((q exps, coeff), ...))``, one per alpha monomial: its
    coefficient as int terms in the entries, q exponents in the order of
    ``GENERIC_ENTRIES``, grouped in one pass over ``integer_terms(quotient)``.
    """
    def by_alpha(quotient):
        groups = {}
        for exps, c in integer_terms(quotient):
            groups.setdefault(exps[:3], []).append((exps[3:], c))
        return tuple((aex, tuple(terms)) for aex, terms in groups.items())

    return tuple(tuple(map(by_alpha, row)) for row in divide_minors(generic_form()))


def verify_minors(q: QForm) -> MinorReport:
    """The sixteen quotients minor(r, c) / q(alpha) and whether the three
    extremal identities hold.  The quotients of the generic form are built
    once per process (``_generic_quotients``; a failed division raises
    MinorNotDivisibleError); per document the conic is built and the six
    entries are substituted into them by the BiPoly form of
    ``poly.specializer``: each quotient is summed in one accumulator, alpha
    key above base key, each distinct product of entries built once.
    minor = quotient * conic holds over Z[q_ij, alpha], so after
    substitution too, and exact quotients over Q and F_p are unique: the
    result is what ``divide_minors`` gives.  The zero form has zero minors,
    hence zero quotients."""
    ring, weights = q.ring, q.a
    cq = conic_equation(q)
    if cq.is_zero:
        zero = bipoly_from_alpha_map(ring, weights, {})
        return MinorReport(conic=cq, quotients=((zero,) * 4,) * 4, named_ok=True)
    at = specializer(q.matrix.upper(), ring)
    quotients = tuple(tuple(at(quotient, weights) for quotient in row)
                      for row in _generic_quotients())
    named_ok = True
    for (r, c), (idx, sign) in NAMED_MINOR_IDENTITIES.items():
        expect = alpha_variable(ring, weights, idx)
        if sign < 0:
            expect = -expect
        if quotients[r - 1][c - 1] != expect:
            named_ok = False
    return MinorReport(conic=cq, quotients=quotients, named_ok=named_ok)


# ----------------------------------------------------------------- membership

def bs_membership(q: QForm, base: FiberPoint, alpha) -> bool:
    """Is alpha in the Brauer-Severi fiber over base?

    Decided twice: once by the conic equation, once by the rank of the
    kernel matrix; any disagreement is an internal bug.
    """
    alpha_coords = alpha.coords if isinstance(alpha, FiberPoint) else \
        FiberPoint.make(q.domain, alpha).coords
    on_conic = not conic_equation(q).evaluate(base.coords, alpha_coords)
    values = [[e.evaluate(base.coords, alpha_coords) for e in row]
              for row in bs_matrix(q).entries]
    low_rank = linalg.rank(values, q.domain) <= 2
    if on_conic != low_rank:
        raise InternalInvariantError(
            f"conic equation and matrix rank disagree at {base} / {alpha_coords}")
    return on_conic


def conic_point_count(q: QForm, base: FiberPoint) -> int:
    """Number of alpha in P^2(F_p) on the conic fiber over base, whose
    coefficients are the form's six entry values there: ``qform.zero_count``
    of that conic, the brute-force count of its points."""
    values, _ = lowered_values(q.matrix.upper(), base.coords, q.domain)
    return zero_count(q.ring.poly(_conic_terms(values)))
