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

#: Bits per slot of a packed line product in the census: one coefficient,
#: in the line parameter, of a side of det = disc.  A slot stays below
#: 3 * (p * (p - 1))^3 + p * (p - 1) < 2^62 for every p the scan accepts.
PRODUCT_SLOT_BITS = 64


def fermat_exponent(e: int, p: int) -> int:
    """The least e' with x^e' = x^e for every x in F_p, 0 included."""
    return 0 if e == 0 else (e - 1) % (p - 1) + 1


def _array_type(bits: int) -> str:
    typecode = next((t for t in "BHILQ" if array(t).itemsize * 8 == bits), None)
    if typecode is None:
        raise InternalInvariantError(f"no array type has {bits}-bit items")
    return typecode


class _PowerRows(dict):
    """B_e = sum_x (x^e mod p) << SLOT_BITS*x for every x in F_p, by e.

    B_e packs one power per slot, so the values of sum c * t^e at all of
    F_p are the slots of sum c * B_e: one big-int multiply-add per
    exponent.  With least residues c and distinct e < p a slot sums at
    most p products of least residues, so it stays below p^3 and never
    carries into its neighbour.
    """

    def __init__(self, p: int):
        super().__init__()
        if p * (p - 1) ** 2 >= 1 << SLOT_BITS:
            raise InternalInvariantError(f"a packed value mod {p} overflows its slot")
        self.p = p
        self.typecode = _array_type(SLOT_BITS)

    def __missing__(self, e):
        p = self.p
        row = array(self.typecode, [pow(x, e, p) for x in range(p)])
        self[e] = packed = int.from_bytes(row.tobytes(), sys.byteorder)
        return packed

    def along(self, terms, size):
        """The values at t = 0, ..., size - 1 of sum c * t^e over (e, c)
        pairs, as a memoryview of ints congruent to them mod p."""
        total = 0
        for e, c in terms:
            total += c * self[e]
        width = SLOT_BITS // 8 * self.p
        return memoryview(total.to_bytes(width, sys.byteorder)).cast(self.typecode)[:size]


def plane_lines(field: PrimeField, polys):
    """Every polynomial's restriction to each line of P^2(F_p), in the
    order of plane_points.

    Returns an iterator of ``(points, size, restrictions)``: the line's
    points, as triples of least residues built only when read; their
    number; and, per polynomial, its restriction to the line as a sequence
    of (e, c) pairs with distinct e: the coefficients c (least residues,
    some possibly 0) of t^e in the line parameter t, which is the point's
    index on the line.  The lines are (a, t, 1) for each a, then
    (t, 1, 0), then the point (1, 0, 0), where only t = 0 is read.
    Refuses p past the scan limit at once.

    Exponents are reduced by Fermat (``fermat_exponent``), so every e is
    below p: the restriction is the one polynomial of degree < p that
    takes the polynomial's values on the line, and neither time nor memory
    grows with the degree.  On the line (a, t, 1) a polynomial is
    sum_j g_j(a) t^j, and each g_j is evaluated at every a in F_p at once,
    as a packed line of its own.
    """
    p = field.p
    check_scan_size(p)
    rows = _PowerRows(p)

    def reduced(coefficients):
        return [(e, c % p) for e, c in coefficients.items() if c % p]

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
        charts.append([(j, list(map(p.__rmod__, rows.along(reduced(row), p))))
                       for j, row in chart.items()])
        lines.append(reduced(line))
        corners.append(reduced({0: corner}))

    def walk():
        # Per polynomial, an iterator over a of the pairs (j, g_j(a)).
        chart_lines = zip(*(zip(*[zip(repeat(j), g) for j, g in chart]) if chart
                            else repeat((), p) for chart in charts))
        for a, restrictions in enumerate(chart_lines):
            yield zip(repeat(a), range(p), repeat(1)), p, restrictions
        yield zip(range(p), repeat(1), repeat(0)), p, lines
        yield iter([(1, 0, 0)]), 1, corners

    return walk()


def plane_values(field: PrimeField, polys):
    """Walk P^2(F_p) line by line, in the order of plane_points.

    Yields ``(points, columns)``: an iterator over the points of one line,
    as triples of least residues built only when read, and, per
    polynomial, the list of its values there.  A value is congruent to the
    true one mod p but not reduced.  Each column evaluates the
    polynomial's restriction from ``plane_lines`` at every point of the
    line at once: one packed multiply-add per exponent.
    """
    lines = plane_lines(field, polys)
    rows = _PowerRows(field.p)
    for points, size, restrictions in lines:
        yield points, [rows.along(terms, size).tolist() for terms in restrictions]


@dataclass(frozen=True)
class FiberCensus:
    """Fiber types over P^2(F_p) and the zeros of the discriminant."""

    counts: dict
    discriminant_zeros: int


def _disagreement(p, points, values_at) -> InternalInvariantError:
    """The error at the first point of a line where the determinant of the
    entry values differs from the discriminant's value; ``values_at(t)``
    gives the six entry values and the discriminant's at index t."""
    for t, point in enumerate(points):
        a, d, e, b, f, c, disc = values_at(t)
        det = (a * (b * c - f * f) - d * (d * c - e * f)
               + e * (d * f - b * e)) % p
        if det != disc % p:
            return InternalInvariantError(
                f"discriminant {disc % p} and determinant {det} of the entry "
                f"values disagree at {point}")
    return InternalInvariantError(
        "det and disc differ as polynomials of degree < p on a line where "
        "they agree at every point")


def fiber_census(q: QForm) -> FiberCensus:
    """Exhaustive fiber-type census over P^2(F_p), one line at a time.

    On each line of ``plane_lines`` the six entry restrictions are packed
    into ints, PRODUCT_SLOT_BITS bits per coefficient, and their
    determinant is formed as a polynomial in the line parameter t: the
    sides a*b*c + 2*d*e*f and a*f^2 + d^2*c + e^2*b are big-int products,
    folded mod t^p - t (t^e -> t^(e - p + 1) for e >= p) without leaving
    the packed form.  Their difference must equal the discriminant's
    restriction mod p, slot by slot, or ``InternalInvariantError`` names
    the first point of the line where the two values differ.  That is the
    same check as comparing the values at every point of the line: each
    function F_p -> F_p is exactly one polynomial of degree < p, and
    folding by Fermat computes it.

    Then only the discriminant is evaluated along the line.  The fiber is
    a smooth conic wherever it is nonzero; at its zeros the six entries
    are evaluated, one multiply each, and ``linalg.symmetric_rank`` gives
    the rank.
    """
    dom = q.domain
    if not isinstance(dom, PrimeField):
        raise TypeError("census needs a prime-field form")
    p = dom.p
    lines = plane_lines(dom, q.matrix.upper() + (discriminant(q),))
    # A side's slot sums at most its coefficients: below (p (p - 1))^3 for
    # each of its three products, plus p (p - 1) for the discriminant.
    bits = PRODUCT_SLOT_BITS
    if 3 * (p * (p - 1)) ** 3 + p * (p - 1) >= 1 << bits:
        raise InternalInvariantError(f"a packed line product mod {p} overflows its slot")
    typecode = _array_type(bits)
    rows = _PowerRows(p)
    top = bits * p
    low = (1 << top) - 1
    slot = (1 << bits) - 1

    def pack(terms):
        x = 0
        for e, c in terms:
            x += c << bits * e
        return x

    def fold(x):
        while x >> top:
            x = (x & low) + (x >> top << bits)
        return x

    def slots(x, n):
        return memoryview(x.to_bytes(n * bits // 8, sys.byteorder)).cast(typecode)

    def values_at(packed, t):
        # Slot m of x * sum_e (t^e mod p) << bits*(m - e) is x's value at
        # t, for m the top slot in use (a coefficient < p never fills one).
        m = max(packed).bit_length() // bits
        powers = power = 1
        for _ in range(m):
            power = power * t % p
            powers = powers << bits | power
        shift = bits * m
        return [x * powers >> shift & slot for x in packed]

    by_rank = [0, 0, 0, 0]
    for points, size, (*entries, disc) in lines:
        packed = [pack(terms) for terms in entries]
        a, d, e, b, f, c = packed
        lhs = fold(a * b * c + 2 * d * e * f)
        rhs = fold(a * f * f + d * d * c + e * e * b + pack(disc))
        n = (max(lhs.bit_length(), rhs.bit_length()) + bits - 1) // bits
        if any((x - y) % p for x, y in zip(slots(lhs, n), slots(rhs, n))):
            packed.append(pack(disc))
            raise _disagreement(p, points, lambda t: values_at(packed, t))
        values = [x % p for x in rows.along(disc, size)]
        zeros = values.count(0)
        by_rank[3] += size - zeros
        t = -1
        for _ in range(zeros):
            t = values.index(0, t + 1)
            by_rank[linalg.symmetric_rank(values_at(packed, t), p)] += 1
    return FiberCensus({t: by_rank[r] for r, t in CONIC_BY_RANK.items()},
                       sum(by_rank[:3]))


def census(q: QForm) -> dict:
    """Number of points of P^2(F_p) over which the fiber has each type."""
    return fiber_census(q).counts
