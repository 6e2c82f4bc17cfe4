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
weighted-homogeneous for every degree pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DegreeMismatchError,
    InternalInvariantError,
    MinorNotDivisibleError,
    NotDivisibleError,
)
from . import linalg
from .poly import (HomogPoly, PolyRing, SparsePoly, divide_terms, join_key,
                   monomial_string, pack, split_key, terms_to_string, unpack)
from .qform import FiberPoint, QForm, plane_values
from .scalars import PrimeField

ALPHA_NAMES = ("a1", "a2", "a3")


class BiPoly(SparsePoly):
    """Polynomial in alpha_1..alpha_3 with homogeneous base coefficients.

    A term key packs the alpha exponents above the base exponents, so the
    term kernel of ``poly`` treats a BiPoly as a polynomial in six
    variables.  Every nonzero BiPoly is homogeneous in the alpha degree and
    in the weighted degree deg(coeff) - sum(weights_i * alpha_exp_i).
    """

    __slots__ = ("weights",)

    @classmethod
    def _make(cls, ring, weights, terms):
        self = object.__new__(cls)
        self.ring = ring
        self.weights = weights
        self.terms = terms
        return self

    def _like(self, terms):
        return BiPoly._make(self.ring, self.weights, terms)

    @property
    def _setting(self):
        return self.ring, self.weights

    @property
    def _fields(self):
        return 3 + self.ring.nvars

    def _bidegree(self, key):
        exps = unpack(key, self._fields)
        return (sum(exps[:3]),
                sum(exps[3:]) - sum(w * e for w, e in zip(self.weights, exps[:3])))

    @property
    def degree(self):
        """(alpha degree, weighted degree); None for zero."""
        return self._bidegree(next(iter(self.terms))) if self.terms else None

    @property
    def alpha_degree(self):
        return self.degree and self.degree[0]

    @property
    def weighted_degree(self):
        return self.degree and self.degree[1]

    def _validate(self):
        grades = sorted({self._bidegree(key) for key in self.terms})
        if len(grades) > 1:
            raise DegreeMismatchError(f"mixed bidegrees {grades}")
        return self

    def coefficient(self, alpha_exps) -> HomogPoly:
        """The base-polynomial coefficient of one alpha monomial."""
        alpha_exps = tuple(alpha_exps)
        return self.ring.poly({exps[3:]: c for exps, c in self.iter_terms()
                               if exps[:3] == alpha_exps})

    def alpha_support(self):
        return sorted({exps[:3] for exps, _ in self.iter_terms()}, reverse=True)

    def __mul__(self, other):
        if isinstance(other, HomogPoly):
            other = bipoly_from_alpha_map(self.ring, self.weights, {(0, 0, 0): other})
        terms = self._product(other)
        return terms if terms is NotImplemented else self._like(terms)

    __rmul__ = __mul__

    def evaluate(self, base_point, alpha_point):
        """Scalar value with base and alpha coordinates substituted."""
        return self._evaluate(list(alpha_point) + list(base_point))

    def __str__(self):
        n = self.ring.nvars
        groups = {}
        for key, c in self.terms.items():
            alpha, base = split_key(key, n)
            groups.setdefault(alpha, {})[base] = c
        return " + ".join(
            f"({terms_to_string(groups[alpha], self.ring.variables)})*"
            f"{monomial_string(ALPHA_NAMES, unpack(alpha, 3)) or '1'}"
            for alpha in sorted(groups, reverse=True)) or "0"

    __repr__ = __str__


def bipoly_from_alpha_map(ring: PolyRing, weights, mapping) -> BiPoly:
    """Build a BiPoly from {alpha exponent tuple: HomogPoly coefficient}."""
    terms = {}
    for aex, poly in mapping.items():
        alpha = pack(tuple(aex), 3)
        if poly.is_zero:
            continue
        if poly.ring != ring:
            raise TypeError("coefficient from a different ring")
        for base, c in poly.terms.items():
            terms[join_key(alpha, base, ring.nvars)] = c
    return BiPoly._make(ring, tuple(weights), terms)._validate()


def alpha_variable(ring: PolyRing, weights, i: int) -> BiPoly:
    """The coordinate alpha_i (1-based) as a BiPoly."""
    aex = tuple(1 if k == i - 1 else 0 for k in range(3))
    return bipoly_from_alpha_map(ring, weights, {aex: ring.one})


def divide_exact_bipoly(f: BiPoly, g: BiPoly) -> BiPoly:
    """Exact division of BiPolys by greedy leading-term cancellation in
    lexicographic order on the combined exponents."""
    if g.is_zero:
        raise ZeroDivisionError("division by the zero BiPoly")
    f._check(g)
    quo, rem = divide_terms(f.terms, g.terms, f.ring.modulus, f._fields)
    if rem:
        raise NotDivisibleError("BiPoly division failed", remainder=f._like(rem))
    return f._like(quo)


# --------------------------------------------------------------- conic & matrix

def conic_equation(q: QForm) -> BiPoly:
    """q(alpha) = sum q_ii alpha_i^2 + 2 sum_{i<j} q_ij alpha_i alpha_j."""
    mapping = {}
    for i in range(3):
        for j in range(i, 3):
            aex = [0, 0, 0]
            aex[i] += 1
            aex[j] += 1
            entry = q.entry(i, j)
            mapping[tuple(aex)] = entry if i == j else entry + entry
    return bipoly_from_alpha_map(q.ring, q.a, mapping)


@dataclass(frozen=True)
class BSMatrix:
    """The 4x4 functional matrix; row 1 and column 1 are (0, a1, a2, a3)."""

    entries: tuple

    def __post_init__(self):
        if len(self.entries) != 4 or any(len(r) != 4 for r in self.entries):
            raise ValueError("BSMatrix must be 4x4")
        ring = self.entries[0][1].ring
        weights = self.entries[0][1].weights
        expect = [bipoly_from_alpha_map(ring, weights, {})] + [
            alpha_variable(ring, weights, i) for i in (1, 2, 3)]
        for k in range(4):
            if self.entries[0][k] != expect[k] or self.entries[k][0] != expect[k]:
                raise InternalInvariantError(
                    "row/column 1 of the kernel matrix must be (0, a1, a2, a3)")

    def entry(self, r: int, c: int) -> BiPoly:
        return self.entries[r - 1][c - 1]

    def evaluate(self, base_point, alpha_point):
        return [[e.evaluate(base_point, alpha_point) for e in row]
                for row in self.entries]


def bs_matrix(q: QForm) -> BSMatrix:
    """The kernel matrix, written out entry by entry."""
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
    return BSMatrix(entries=rows)


def bs_matrix_via_algebra(q: QForm) -> BSMatrix:
    """Independent derivation of the kernel matrix from the rewriting engine.

    Entry (r, c) is the covector alpha applied to E_r * E_c, where
    (E_0..E_3) = (1, yz, zx, xy) and products are normalized by the Clifford
    relations with polynomial coefficients.  Must coincide with bs_matrix.
    """
    from .clifford import reduce_word

    ring, weights = q.ring, q.a
    grid = [[q.entry(i, j) for j in range(3)] for i in range(3)]
    one = ring.one
    basis_words = [(), (1, 2), (2, 0), (0, 1)]

    def product_in_basis(wi, wj):
        normal = reduce_word([(one, wi + wj)], grid)
        for w in normal:
            if w not in ((), (0, 1), (0, 2), (1, 2)):
                raise InternalInvariantError(f"odd word {w} in an even product")
        # In the basis (1, X=yz, Y=zx, Z=xy): the normal word xz is 2q13 - Y,
        # so the Y-coordinate is minus the xz-coefficient.
        b_x = normal.get((1, 2), ring.zero)
        b_y = -normal.get((0, 2), ring.zero)
        b_z = normal.get((0, 1), ring.zero)
        return b_x, b_y, b_z

    rows = []
    for wi in basis_words:
        row = []
        for wj in basis_words:
            b_x, b_y, b_z = product_in_basis(wi, wj)
            row.append(bipoly_from_alpha_map(ring, weights, {
                (1, 0, 0): b_x, (0, 1, 0): b_y, (0, 0, 1): b_z}))
        rows.append(tuple(row))
    return BSMatrix(entries=tuple(rows))


# --------------------------------------------------------------------- minors

def bipoly_minor(m: BSMatrix, drop_row: int, drop_col: int) -> BiPoly:
    """3x3 minor of the kernel matrix (delete 1-based row and column)."""
    grid = [[m.entry(r, c) for c in range(1, 5) if c != drop_col]
            for r in range(1, 5) if r != drop_row]
    return linalg.det_cofactor(grid)


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


def verify_minors(q: QForm) -> MinorReport:
    """Divide all sixteen 3x3 minors of the kernel matrix by the conic
    equation and check the three extremal identities.  Failure raises
    MinorNotDivisibleError: the identities are universal in the q_ij, so
    only an implementation bug can trip it."""
    m = bs_matrix(q)
    cq = conic_equation(q)
    quotients = []
    for r in range(1, 5):
        row = []
        for c in range(1, 5):
            mn = bipoly_minor(m, r, c)
            if cq.is_zero:
                if not mn.is_zero:
                    raise MinorNotDivisibleError(
                        f"minor ({r},{c}) nonzero over a zero conic")
                row.append(mn)
                continue
            try:
                row.append(divide_exact_bipoly(mn, cq))
            except NotDivisibleError as exc:
                raise MinorNotDivisibleError(
                    f"minor ({r},{c}) is not a multiple of the conic: {exc}"
                ) from exc
        quotients.append(tuple(row))
    named_ok = True
    if not cq.is_zero:
        for (r, c), (idx, sign) in NAMED_MINOR_IDENTITIES.items():
            expect = alpha_variable(q.ring, q.a, idx)
            if sign < 0:
                expect = -expect
            if quotients[r - 1][c - 1] != expect:
                named_ok = False
    return MinorReport(conic=cq, quotients=tuple(quotients), named_ok=named_ok)


# ----------------------------------------------------------------- membership

def bs_membership(q: QForm, base: FiberPoint, alpha) -> bool:
    """Is alpha in the Brauer-Severi fiber over base?

    Decided twice: once by the conic equation, once by the rank of the
    kernel matrix; any disagreement is an internal bug.
    """
    alpha_coords = alpha.coords if isinstance(alpha, FiberPoint) else \
        FiberPoint.make(q.domain, alpha).coords
    on_conic = not conic_equation(q).evaluate(base.coords, alpha_coords)
    values = bs_matrix(q).evaluate(base.coords, alpha_coords)
    low_rank = linalg.rank(values, q.domain) <= 2
    if on_conic != low_rank:
        raise InternalInvariantError(
            f"conic equation and matrix rank disagree at {base} / {alpha_coords}")
    return on_conic


def conic_point_count(q: QForm, base: FiberPoint) -> int:
    """Number of alpha in P^2(F_p) on the conic fiber over base."""
    if not isinstance(q.domain, PrimeField):
        raise TypeError("point counting needs a prime-field form")
    cq = conic_equation(q)
    conic = q.ring.poly({aex: cq.coefficient(aex).evaluate(base.coords)
                         for aex in cq.alpha_support()})
    return sum(1 for _, (value,) in plane_values(q.domain, [conic]) if not value)
