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

import sys
from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import islice, repeat

from . import linalg
from .errors import (
    AsymmetricEntriesError,
    DegreePatternError,
    InternalInvariantError,
    ScanTooLargeError,
    ZeroPolynomialError,
)
from .poly import (EXP_LIMIT, HomogPoly, PolyMatrix, PolyRing, det3, lowered_values,
                   symmetric_grid)
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


def plane_points(p: int):
    """The p^2 + p + 1 points of P^2(F_p) as triples of least residues,
    last nonzero coordinate 1: (a, b, 1), then (a, 1, 0), then (1, 0, 0)."""
    for a in range(p):
        for b in range(p):
            yield a, b, 1
    for a in range(p):
        yield a, 1, 0
    yield 1, 0, 0


def projective_points(field: PrimeField):
    """All points of P^2(F_p) in canonical form, in the order of plane_points."""
    for point in plane_points(field.p):
        yield FiberPoint(tuple(map(field, point)))


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
    """Build a QForm, checking symmetry and the degree pattern.  A zero
    entry fits any slot, but no slot may pass 3 * EXP_LIMIT, the largest
    degree a nonzero entry can have."""
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


def qform_from_upper(a, d: int, six_entries) -> QForm:
    """Build a QForm from the upper triangle (Q11, Q12, Q13, Q22, Q23, Q33)."""
    return new_qform(a, d, symmetric_grid(six_entries))


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
    values, _ = lowered_values(q.matrix.upper(), p.coords, q.domain)
    return linalg.symmetric_rank(values, q.domain.characteristic)


class ConicType(Enum):
    SMOOTH_CONIC = "SmoothConic"
    LINE_PAIR = "LinePair"
    DOUBLE_LINE = "DoubleLine"
    WHOLE_PLANE = "WholePlane"


CONIC_BY_RANK = {
    3: ConicType.SMOOTH_CONIC,
    2: ConicType.LINE_PAIR,
    1: ConicType.DOUBLE_LINE,
    0: ConicType.WHOLE_PLANE,
}


def fiber_conic_type(q: QForm, p: FiberPoint) -> ConicType:
    """Geometric type of the conic fiber over p, determined by the rank."""
    return CONIC_BY_RANK[rank_at(q, p)]


# ------------------------------------------------------------- zero scanning

@dataclass(frozen=True)
class NowhereZeroResult:
    nowhere_zero: bool
    witness: FiberPoint | None
    conclusive: bool = True


def is_nowhere_zero(q: QForm) -> NowhereZeroResult:
    """Exhaustive P^2(F_p) scan: does the entry matrix vanish anywhere?

    Only available over a prime field; vanishing of the whole matrix at a
    point is exactly rank 0 there (a non-flat point of the conic bundle).
    The witness is the first such point in the order of plane_points.
    """
    dom = q.domain
    if not isinstance(dom, PrimeField):
        raise TypeError("exhaustive scan needs a prime-field form; "
                        "use sample_nowhere_zero over the rationals")
    p = dom.p
    for points, columns in plane_values(dom, q.matrix.upper()):
        reduced = [[x % p for x in column] for column in columns]
        for i, values in enumerate(zip(*reduced)):
            if not any(values):
                point = next(islice(points, i, None))
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
        if not any(lowered_values(q.matrix.upper(), p.coords, dom)[0]):
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


#: Bits per slot of a packed line: one value of one polynomial at one
#: point.  A slot stays below p^3 < 2^30 for every p the scan accepts.
SLOT_BITS = 32


def fermat_exponent(e: int, p: int) -> int:
    """The least e' with x^e' = x^e for every x in F_p, 0 included."""
    return 0 if e == 0 else (e - 1) % (p - 1) + 1


def plane_values(field: PrimeField, polys):
    """Walk P^2(F_p) line by line, in the order of plane_points.

    Yields ``(points, columns)``: an iterator over the points of one line,
    as triples of least residues built only when read, and, per
    polynomial, the list of its values there.  The lines are (a, b, 1) for
    each a, then (a, 1, 0), then the point (1, 0, 0).  A value is congruent
    to the true one mod p but not reduced.

    Exponents are first reduced by Fermat and the terms grouped by reduced
    exponent, so neither time nor memory grows with the degree.  A sum
    sum_e c_e x^e over all x in F_p at once is sum_e (c_e mod p) * B_e,
    where B_e = sum_x (x^e mod p) << SLOT_BITS*x packs one power per slot:
    one big-int multiply-add per exponent.  On the line (a, b, 1) a
    polynomial is sum_j g_j(a) b^j, and the g_j are packed over a the same
    way first.  A slot sums at most p products of least residues, so it
    stays below p^3 and never carries into its neighbour.
    """
    p = field.p
    check_scan_size(p)
    if p * (p - 1) ** 2 >= 1 << SLOT_BITS:
        raise InternalInvariantError(f"a packed value mod {p} overflows its slot")
    width = SLOT_BITS // 8
    typecode = next((t for t in "BHILQ" if array(t).itemsize == width), None)
    if typecode is None:
        raise InternalInvariantError(f"no array type has {SLOT_BITS}-bit items")
    packed = {}

    def power_row(e):
        if e not in packed:
            row = array(typecode, [pow(x, e, p) for x in range(p)])
            packed[e] = int.from_bytes(row.tobytes(), sys.byteorder)
        return packed[e]

    def along_line(terms):
        """Values over all x in F_p of sum c * x^e, from (B_e, c) pairs."""
        total = sum(c % p * row for row, c in terms)
        values = memoryview(total.to_bytes(width * p, sys.byteorder))
        return values.cast(typecode).tolist()

    def compile_terms(coefficients):
        return along_line((power_row(e), c) for e, c in coefficients.items())

    charts, lines, corners = [], [], []
    for f in polys:
        chart, line, corner = {}, {}, 0
        for (i, j, k), c in f.iter_terms():
            i, j, c = fermat_exponent(i, p), fermat_exponent(j, p), c.value
            row = chart.setdefault(j, {})
            row[i] = row.get(i, 0) + c
            if not k:
                line[i] = line.get(i, 0) + c
                if not j:
                    corner += c
        charts.append([(power_row(j), compile_terms(row)) for j, row in chart.items()])
        lines.append(compile_terms(line))
        corners.append([corner])

    for a in range(p):
        columns = [along_line((b_row, g[a]) for b_row, g in chart) for chart in charts]
        yield zip(repeat(a), range(p), repeat(1)), columns
    yield zip(range(p), repeat(1), repeat(0)), lines
    yield iter([(1, 0, 0)]), corners


@dataclass(frozen=True)
class FiberCensus:
    """Fiber types over P^2(F_p) and the zeros of the discriminant."""

    counts: dict
    discriminant_zeros: int


def fiber_census(q: QForm) -> FiberCensus:
    """Exhaustive fiber-type census over P^2(F_p), in plain ints.

    The rank at each point comes from the six entry values: rank 3 where
    their determinant is nonzero, else ``linalg.symmetric_rank``.  The
    discriminant polynomial is evaluated on its own, and its value must
    equal that determinant at every point.
    """
    dom = q.domain
    if not isinstance(dom, PrimeField):
        raise TypeError("census needs a prime-field form")
    p = dom.p
    by_rank = [0, 0, 0, 0]
    for points, columns in plane_values(dom, q.matrix.upper() + (discriminant(q),)):
        for i, (a, d, e, b, f, c, disc) in enumerate(zip(*columns)):
            det = (a * (b * c - f * f) - d * (d * c - e * f)
                   + e * (d * f - b * e)) % p
            if det != disc % p:
                raise InternalInvariantError(
                    f"discriminant {disc % p} and determinant {det} of the entry "
                    f"values disagree at {next(islice(points, i, None))}")
            if det:
                by_rank[3] += 1
            else:
                by_rank[linalg.symmetric_rank((a, d, e, b, f, c), p)] += 1
    return FiberCensus({t: by_rank[r] for r, t in CONIC_BY_RANK.items()},
                       sum(by_rank[:3]))


def census(q: QForm) -> dict:
    """Number of points of P^2(F_p) over which the fiber has each type."""
    return fiber_census(q).counts
