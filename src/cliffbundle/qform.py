"""Line-bundle-valued quadratic forms on the projective plane.

A form of type ``(a, d)`` is a symmetric 3x3 matrix of homogeneous
polynomials in u, v, w whose (i, j) entry has degree ``a_i + a_j + d``.
Twisting by the Picard action shifts ``a`` by m and ``d`` by -2m without
touching the entries; the normalized representative has ``d = -sum(a)``,
which encodes the value bundle being the determinant of the underlying
rank-3 bundle.  The discriminant is the determinant of the entry matrix,
of degree ``2*sum(a) + 3d`` when nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import linalg
from .errors import (
    AsymmetricEntriesError,
    DegreePatternError,
    InternalInvariantError,
    ScanTooLargeError,
    ZeroPolynomialError,
)
from .poly import HomogPoly, PolyMatrix, PolyRing, det3
from .scalars import PrimeField


# -------------------------------------------------------------------- points

@dataclass(frozen=True)
class FiberPoint:
    """A point of P^2, stored with its last nonzero coordinate scaled to 1."""

    coords: tuple

    @classmethod
    def make(cls, domain, coords) -> "FiberPoint":
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
        return cls(tuple(x * inv for x in pt))

    def __str__(self):
        return ":".join(str(x) for x in self.coords)


def projective_points(field: PrimeField):
    """All points of P^2(F_p) in canonical form, p^2 + p + 1 of them."""
    one = field.one
    zero = field.zero
    for a in field.elements():
        for b in field.elements():
            yield FiberPoint((a, b, one))
    for a in field.elements():
        yield FiberPoint((a, one, zero))
    yield FiberPoint((one, zero, zero))


# --------------------------------------------------------------------- forms

@dataclass(frozen=True)
class QForm:
    """Validated quadratic form: degree pattern (a, d) plus entry matrix."""

    a: tuple
    d: int
    matrix: PolyMatrix

    @property
    def ring(self) -> PolyRing:
        return self.matrix.ring

    @property
    def domain(self):
        return self.matrix.ring.domain

    def entry(self, i: int, j: int) -> HomogPoly:
        return self.matrix.entry(i, j)

    def pattern(self) -> tuple:
        return tuple(tuple(self.a[i] + self.a[j] + self.d for j in range(3))
                     for i in range(3))


def new_qform(a, d: int, entries) -> QForm:
    """Build a QForm, checking symmetry and the degree pattern."""
    a = tuple(int(x) for x in a)
    if len(a) != 3:
        raise ValueError("degree pattern needs three integers a1, a2, a3")
    if isinstance(entries, PolyMatrix):
        grid = entries.entries
    else:
        grid = tuple(tuple(row) for row in entries)
    if len(grid) != 3 or any(len(r) != 3 for r in grid):
        raise ValueError("entries must form a 3x3 matrix")
    for i in range(3):
        for j in range(i):
            if grid[i][j] != grid[j][i]:
                raise AsymmetricEntriesError(
                    f"entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) differ")
    pattern = tuple(tuple(a[i] + a[j] + d for j in range(3)) for i in range(3))
    try:
        matrix = PolyMatrix(grid, degree_pattern=pattern)
    except DegreePatternError as exc:
        raise DegreePatternError(f"pattern a={a}, d={d}: {exc}") from exc
    return QForm(a=a, d=d, matrix=matrix)


def qform_from_upper(a, d: int, six_entries) -> QForm:
    """Build a QForm from the upper triangle (Q11, Q12, Q13, Q22, Q23, Q33)."""
    q11, q12, q13, q22, q23, q33 = six_entries
    return new_qform(a, d, [[q11, q12, q13], [q12, q22, q23], [q13, q23, q33]])


def twist(q: QForm, m: int) -> QForm:
    """Picard action: a_i -> a_i + m, d -> d - 2m; entries unchanged."""
    return new_qform(tuple(x + m for x in q.a), q.d - 2 * m, q.matrix)


def normalize(q: QForm) -> QForm:
    """The twist with d' = -(a1' + a2' + a3'), i.e. m = -(d + sum(a))."""
    return twist(q, -(q.d + sum(q.a)))


def discriminant(q: QForm) -> HomogPoly:
    """det of the entry matrix; identically zero for degenerate forms."""
    return det3(q.matrix)


def rank_at(q: QForm, p: FiberPoint) -> int:
    """Rank of the scalar matrix of entry values at p (0..3)."""
    return linalg.rank(q.matrix.evaluate(p.coords), q.domain)


class ConicType(Enum):
    SMOOTH_CONIC = "SmoothConic"
    LINE_PAIR = "LinePair"
    DOUBLE_LINE = "DoubleLine"
    WHOLE_PLANE = "WholePlane"


_CONIC_BY_RANK = {
    3: ConicType.SMOOTH_CONIC,
    2: ConicType.LINE_PAIR,
    1: ConicType.DOUBLE_LINE,
    0: ConicType.WHOLE_PLANE,
}


def fiber_conic_type(q: QForm, p: FiberPoint) -> ConicType:
    """Geometric type of the conic fiber over p, determined by the rank."""
    return _CONIC_BY_RANK[rank_at(q, p)]


# ------------------------------------------------------------- zero scanning

@dataclass(frozen=True)
class NowhereZeroResult:
    nowhere_zero: bool
    witness: FiberPoint | None
    conclusive: bool = True


def is_nowhere_zero(q: QForm, field=None) -> NowhereZeroResult:
    """Exhaustive P^2(F_p) scan: does the entry matrix vanish anywhere?

    Only available over a prime field; vanishing of the whole matrix at a
    point is exactly rank 0 there (a non-flat point of the conic bundle).
    The witness is the first such point in the order of projective_points.
    """
    dom = q.domain
    if not isinstance(dom, PrimeField):
        raise TypeError("exhaustive scan needs a prime-field form; "
                        "use sample_nowhere_zero over the rationals")
    if isinstance(field, int):
        field = PrimeField(field)
    if field is not None and field != dom:
        raise ValueError(f"form lives over {dom!r}, not {field!r}")
    for point, values in plane_values(dom, _upper_entries(q)):
        if not any(values):
            return NowhereZeroResult(False, FiberPoint(tuple(map(dom, point))))
    return NowhereZeroResult(True, None)


def sample_nowhere_zero(q: QForm, samples: int = 500, seed: int = 0) -> NowhereZeroResult:
    """Sampled heuristic over the rationals: a found zero is definitive,
    finding none is only 'inconclusive' (conclusive=False)."""
    import random

    rng = random.Random(seed)
    dom = q.domain
    for _ in range(samples):
        coords = [dom(rng.randint(-20, 20)) for _ in range(3)]
        if not any(coords):
            continue
        p = FiberPoint.make(dom, coords)
        values = q.matrix.evaluate(p.coords)
        if not any(any(x for x in row) for row in values):
            return NowhereZeroResult(False, p, conclusive=True)
    return NowhereZeroResult(True, None, conclusive=False)


# ------------------------------------------------------------- singularities

class SingularityType(Enum):
    NOT_ON_CURVE = "NotOnCurve"
    SMOOTH_POINT = "SmoothPoint"
    NODE = "Node"
    WORSE_SINGULARITY = "WorseSingularity"


def singularity_type_at(f: HomogPoly, p: FiberPoint) -> SingularityType:
    """Classify the curve f = 0 at p: smooth, node, or worse.

    The node test restricts the Hessian of f to the affine chart in which
    the last nonzero coordinate of p equals 1 and asks whether the resulting
    binary quadratic form is nondegenerate.
    """
    if f.is_zero:
        raise ZeroPolynomialError("singularity test on the zero polynomial")
    coords = p.coords
    if f.evaluate(coords):
        return SingularityType.NOT_ON_CURVE
    grads = [f.partial(i).evaluate(coords) for i in range(3)]
    if any(grads):
        return SingularityType.SMOOTH_POINT
    chart = max(i for i in range(3) if coords[i])
    i, j = [k for k in range(3) if k != chart]
    h_ii = f.partial(i).partial(i).evaluate(coords)
    h_ij = f.partial(i).partial(j).evaluate(coords)
    h_jj = f.partial(j).partial(j).evaluate(coords)
    if h_ii * h_jj - h_ij * h_ij:
        return SingularityType.NODE
    return SingularityType.WORSE_SINGULARITY


# ------------------------------------------------------ integer-residue scan

#: Most points an exhaustive scan of P^2(F_p) may visit; p = 997 is the
#: largest prime under it.
SCAN_POINT_LIMIT = 1_000_000


def check_scan_size(p: int) -> int:
    """The number of points of P^2(F_p), refused past SCAN_POINT_LIMIT."""
    points = p * p + p + 1
    if points > SCAN_POINT_LIMIT:
        raise ScanTooLargeError(
            f"P^2(F_{p}) has {points} points, more than the scan limit "
            f"SCAN_POINT_LIMIT = {SCAN_POINT_LIMIT}")
    return points


def _upper_entries(q: QForm) -> list:
    return [q.entry(i, j) for i in range(3) for j in range(i, 3)]


def plane_values(field: PrimeField, polys):
    """Walk P^2(F_p) in the order of projective_points, with plain ints.

    Yields each point as a triple of least residues together with the
    values mod p of ``polys`` there.  Each polynomial is compiled once into
    terms (c mod p, e_u, e_v, e_w) and evaluated through the power table
    pw[x][e] = x^e mod p, so no FpElement is made per point.
    """
    p = field.p
    check_scan_size(p)
    compiled = [[(c.value,) + e for e, c in f.iter_terms()] for f in polys]
    top = max((max(t[1:]) for terms in compiled for t in terms), default=0)
    pw = [[pow(x, e, p) for e in range(top + 1)] for x in range(p)]

    def at(point):
        px, py, pz = (pw[x] for x in point)
        return point, [sum(c * px[i] * py[j] * pz[k] for c, i, j, k in terms) % p
                       for terms in compiled]

    for a in range(p):
        for b in range(p):
            yield at((a, b, 1))
    for a in range(p):
        yield at((a, 1, 0))
    yield at((1, 0, 0))


@dataclass(frozen=True)
class FiberCensus:
    """Fiber types over P^2(F_p) and the zeros of the discriminant."""

    counts: dict
    discriminant_zeros: int


def fiber_census(q: QForm) -> FiberCensus:
    """Exhaustive fiber-type census over P^2(F_p), in plain ints.

    The rank at each point comes from the six entry values: the
    determinant of the values, then the principal 2x2 minors, then the
    entries.  The discriminant polynomial is evaluated on its own, and its
    value must equal that determinant at every point.
    """
    dom = q.domain
    if not isinstance(dom, PrimeField):
        raise TypeError("census needs a prime-field form")
    p = dom.p
    by_rank = [0, 0, 0, 0]
    disc_zeros = 0
    for point, (a, d, e, b, f, c, disc) in plane_values(
            dom, _upper_entries(q) + [discriminant(q)]):
        det = (a * (b * c - f * f) - d * (d * c - e * f)
               + e * (d * f - b * e)) % p
        if det != disc:
            raise InternalInvariantError(
                f"discriminant {disc} and determinant {det} of the entry "
                f"values disagree at {point}")
        if not disc:
            disc_zeros += 1
        # A symmetric matrix has rank r exactly when r is the largest order
        # of a nonzero principal minor, so three 2x2 minors decide rank 2.
        if det:
            rank = 3
        elif (a * b - d * d) % p or (a * c - e * e) % p or (b * c - f * f) % p:
            rank = 2
        elif a or b or c or d or e or f:
            rank = 1
        else:
            rank = 0
        by_rank[rank] += 1
    return FiberCensus({t: by_rank[r] for r, t in _CONIC_BY_RANK.items()},
                       disc_zeros)


def census(q: QForm) -> dict:
    """Number of points of P^2(F_p) over which the fiber has each type."""
    return fiber_census(q).counts
