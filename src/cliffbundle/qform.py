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
from itertools import chain, count, repeat
from operator import add, and_, itemgetter, mul, xor

from . import linalg
from .errors import (
    AsymmetricEntriesError,
    DegreePatternError,
    InternalInvariantError,
    ScanTooLargeError,
    ZeroPolynomialError,
)
from .linalg import symmetric_grid
from .poly import EXP_LIMIT, HomogPoly, PolyMatrix, PolyRing, det3, lowered_values
from .scalars import PrimeField


# -------------------------------------------------------------------- points

@dataclass(frozen=True)
class FiberPoint:
    """A point of P^2, stored with its last nonzero coordinate scaled to 1."""

    coords: tuple

    @classmethod
    def make(cls, domain, coords) -> "FiberPoint":
        """The point of three coordinates, each coerced into ``domain`` and
        divided by the last nonzero one; when that one is already 1, as for
        every point ``plane_points`` lists, they are kept as they are.
        ValueError for another count or for (0 : 0 : 0)."""
        pt = tuple(map(domain, coords))
        if len(pt) != 3:
            raise ValueError("a fiber point needs 3 coordinates")
        for last in reversed(pt):
            if last:
                break
        else:
            raise ValueError("(0 : 0 : 0) is not a projective point")
        if last == domain.one:
            return cls(pt)
        inv = domain.one / last
        return cls(tuple(x * inv for x in pt))

    def __str__(self):
        return ":".join(str(x) for x in self.coords)


def line_size(p: int, line: int) -> int:
    """The number of points of a line of ``plane_lines``."""
    return p if line <= p else 1


def line_point(p: int, line: int, t: int) -> tuple:
    """Point t of a line of ``plane_lines``, as a triple of least residues."""
    if line < p:
        return line, t, 1
    return (t, 1, 0) if line == p else (1, 0, 0)


def plane_points(p: int):
    """The p^2 + p + 1 points of P^2(F_p) as triples of least residues,
    last nonzero coordinate 1, line by line in the order of ``plane_lines``
    (``line_point``): (a, b, 1), then (a, 1, 0), then (1, 0, 0)."""
    for line in range(p + 2):
        for t in range(line_size(p, line)):
            yield line_point(p, line, t)


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
    """Build a QForm from ``entries``, a 3x3 grid or PolyMatrix, whose
    shape and symmetry are checked first (AsymmetricEntriesError names the
    first mirrored pair that differs; a mirror that is the same object
    passes without a comparison, as in every ``symmetric_grid``).

    The form is then validated once, on its upper triangle, in this order:
    ``a`` is three integers; the entries share one ring; each nonzero entry
    has its slot's degree a_i + a_j + d (DegreePatternError names the first
    that does not, in row-major order); and no slot passes 3 * EXP_LIMIT,
    the largest degree a nonzero entry can have, though a zero entry fits
    any slot below it.  A PolyMatrix argument becomes the form's matrix."""
    a = tuple(int(x) for x in a)
    if len(a) != 3:
        raise ValueError("degree pattern needs three integers a1, a2, a3")
    given = isinstance(entries, PolyMatrix)
    grid = entries.entries if given else tuple(map(tuple, entries))
    if len(grid) != 3 or any(len(r) != 3 for r in grid):
        raise ValueError("entries must form a 3x3 matrix")
    for i, j in ((1, 0), (2, 0), (2, 1)):
        if grid[i][j] is not grid[j][i] and grid[i][j] != grid[j][i]:
            raise AsymmetricEntriesError(
                f"entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) differ")
    matrix = entries if given else PolyMatrix(grid)
    for i in range(3):
        for j in range(i, 3):
            f = grid[i][j]
            if f and f.degree != a[i] + a[j] + d:
                raise DegreePatternError(
                    f"pattern a={a}, d={d}: entry ({i + 1},{j + 1}) has degree "
                    f"{f.degree}, pattern expects {a[i] + a[j] + d}")
    top = 2 * max(a) + d
    if top > 3 * EXP_LIMIT:
        raise DegreePatternError(f"pattern a={a}, d={d}: slot degree {top} is "
                                 f"larger than 3*EXP_LIMIT = {3 * EXP_LIMIT}")
    return QForm(a=a, d=d, matrix=matrix)


def qform_from_upper(a, d: int, six_entries) -> QForm:
    """Build a QForm from the upper triangle (Q11, Q12, Q13, Q22, Q23, Q33):
    ``new_qform`` on ``symmetric_grid(six_entries)``, whose mirrored
    entries are the same objects, so the symmetry check compares none."""
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
    """Whether the entry matrix vanishes at no point of P^2(F_p), and the
    first point where it does vanish (None when there is none)."""
    nowhere_zero: bool
    witness: FiberPoint | None


def is_nowhere_zero(q: QForm) -> NowhereZeroResult:
    """Exhaustive P^2(F_p) scan: does the entry matrix vanish anywhere?

    Only over a prime field (over Q no finite scan decides it: TypeError).
    Vanishing of the whole matrix at a point is exactly rank 0 there (a
    non-flat point of the conic bundle), a zero of the discriminant, so
    ``zero_ranks`` yields it; the scan stops at the first, in plane_points
    order, which is the witness.
    """
    for lines, ts, ranks in zero_ranks(q):
        if 0 in ranks:
            k = ranks.index(0)
            point = line_point(q.domain.p, lines[k], ts[k])
            return NowhereZeroResult(False, FiberPoint(tuple(map(q.domain, point))))
    return NowhereZeroResult(True, None)


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


#: Bits per slot of a packed int: a value of a polynomial at a point, or a
#: coefficient in t of a side of det = disc.  For every p the scan accepts
#: a value stays below p^3 < 2^30, its product with the multiplier of
#: ``PackedLines`` below 2^61, and a side's coefficient below 2^62.
SLOT_BITS = 64

#: The array typecode of one slot: an unsigned item of SLOT_BITS bits.
_SLOT_TYPE = "Q"


def pack_slots(values) -> int:
    """The packed int whose slot x holds values[x], each in [0, 2^SLOT_BITS)."""
    return int.from_bytes(array(_SLOT_TYPE, values).tobytes(), sys.byteorder)


def slots(packed: int, n: int):
    """The first n slots of a packed int, below 2^(SLOT_BITS * n), as a
    memoryview of ints."""
    return memoryview(packed.to_bytes(SLOT_BITS // 8 * n, sys.byteorder)).cast(_SLOT_TYPE)


def fermat_exponent(e: int, p: int) -> int:
    """The least e' with x^e' = x^e for every x in F_p, 0 included."""
    return 0 if e == 0 else (e - 1) % (p - 1) + 1


class PackedLines(dict):
    """Packed values along the lines of P^2(F_p), for a p within the scan
    limit: B_e = sum_x (x^e mod p) << SLOT_BITS*x for every x in F_p, by e.

    B_e packs one power per slot, so the values at all of F_p of a
    restriction, sum c * t^e, are the slots of sum c * B_e (``packed``):
    one big-int multiply-add per exponent.  With least residues c and
    distinct e < p a slot holds v < p^3, so it never carries into its
    neighbour.

    Every slot is reduced at once by Barrett's method, with s = 4 *
    bitlen(p), so that 2^s > p^4, and m = ceil(2^s / p).  Write
    v = q p + r with 0 <= r < p and e = p m - 2^s < p; then
    v m = q 2^s + q e + r m, where q e < p^3 < m and, for r > 0,
    m <= q e + r m <= 2^s - (m - (q + 1) e) < 2^s.  So v m >> s is q
    (``reduce`` subtracts p q), and p divides v exactly when the low s
    bits of v m are below m (``line_zeros``).  ``line_zeros`` keeps the
    rows B_e m, whose sum over a restriction is its packed line times m.

    Before anything is packed the constructor checks both slot bounds for
    this p: p^3 m < 2^SLOT_BITS, so one multiply of a packed line forms
    every slot's product in its slot, and 3 (p (p - 1))^3 + p (p - 1) <
    2^SLOT_BITS for a side of det = disc (``zero_ranks``); and that an
    item of the slot converters is SLOT_BITS wide.
    """

    def __init__(self, p: int):
        super().__init__()
        check_scan_size(p)
        bits = SLOT_BITS
        shift = 4 * p.bit_length()
        multiplier = -(-(1 << shift) // p)
        if p ** 3 * multiplier >= 1 << bits:
            raise InternalInvariantError(
                f"a packed value mod {p} times its Barrett multiplier overflows its slot")
        if 3 * (p * (p - 1)) ** 3 + p * (p - 1) >= 1 << bits:
            raise InternalInvariantError(f"a packed line product mod {p} overflows its slot")
        if array(_SLOT_TYPE).itemsize * 8 != bits:
            raise InternalInvariantError(f"no array type has {bits}-bit items")
        self.p, self.shift, self.multiplier = p, shift, multiplier
        ones = ((1 << bits * p) - 1) // ((1 << bits) - 1)
        self.quotients = ((1 << bits - shift) - 1) * ones
        self.low_bits = ((1 << shift) - 1) * ones
        self.below_m = ((1 << shift) - multiplier) * ones
        self.marks = ones << shift
        self._scaled = []

    def __missing__(self, e):
        p = self.p
        self[e] = packed = pack_slots(map(pow, range(p), repeat(e), repeat(p)))
        return packed

    def packed(self, coefficients) -> int:
        """sum c * B_e over the coefficients c of t^e of a restriction,
        least residues indexed by e < p: slot t holds an int below p^3
        congruent to the value at t."""
        total = 0
        for e, c in enumerate(coefficients):
            if c:
                total += c * self[e]
        return total

    def reduce(self, packed: int) -> int:
        """A packed line with every slot, below p^3, reduced mod p."""
        return packed - self.p * (packed * self.multiplier >> self.shift & self.quotients)

    def residues(self, coefficients, size: int):
        """The values of a restriction at t = 0, ..., size - 1, as least
        residues in a memoryview of ints."""
        return slots(self.reduce(self.packed(coefficients)), self.p)[:size]

    def line_zeros(self, columns):
        """The zeros of one polynomial on each line of ``plane_lines`` in
        turn, as masks: bit SLOT_BITS*t + s is set for each zero t of the
        line, and ``bit_count()`` counts them.  From the polynomial's
        columns there, a line's coefficients g times the rows B_e m, one
        ``sum(map(mul, g, ...))``, is its packed line times m, whose slots
        p divides where their low s bits are below m: adding 2^s - m to
        the low bits carries into bit s of every other slot, and the marks
        the carries miss are the zeros.  C-level maps apply that rule to
        every line; the masks come lazily, one line's at a time."""
        scaled = self._scaled
        while len(scaled) < len(columns):
            scaled.append(self[len(scaled)] * self.multiplier)
        lines = map(sum, map(map, repeat(mul), zip(*columns), repeat(scaled)))
        carries = map(add, map(and_, lines, repeat(self.low_bits)), repeat(self.below_m))
        # The point (1, 0, 0) reads t = 0 only.
        marks = [self.marks] * (self.p + 1) + [self.marks & (1 << SLOT_BITS) - 1]
        return map(xor, marks, map(and_, carries, marks))


def _zero_indices(zeros: int) -> list:
    """The slot indices of the marks of a ``PackedLines.line_zeros`` mask,
    in increasing order.  One mark, the usual case, is read off the top bit
    at once; more are read from the top bit down, each cleared in turn."""
    top = zeros.bit_length() - 1
    if zeros.bit_count() == 1:
        return [top // SLOT_BITS]
    indices = []
    while zeros:
        indices.append(top // SLOT_BITS)
        zeros ^= 1 << top
        top = zeros.bit_length() - 1
    indices.reverse()
    return indices


def _picker(indices):
    """The items of a sequence at ``indices``, as a tuple, by one C-level
    ``itemgetter``; with a single index that returns the bare item, which
    is boxed here."""
    pick = itemgetter(*indices)
    return pick if len(indices) > 1 else lambda row: (pick(row),)


def plane_lines(rows: PackedLines, polys):
    """Every polynomial's restriction to each line of P^2(F_p), as columns.

    The lines are numbered in the order of plane_points: line a < p is the
    chart line (a, t, 1), line p is (t, 1, 0), and line p + 1 is the point
    (1, 0, 0), read at t = 0 only (``line_point``, ``line_size``).  The line
    parameter t is the point's index on its line.

    Returns ``(degrees, columns)``.  ``columns`` holds, per polynomial, one
    column per power t^j, at least one: a memoryview of p + 2 ints whose
    item l is the coefficient of t^j in the restriction to line l, a least
    residue.  On the line (a, t, 1) a polynomial is sum_j g_j(a) t^j, and
    column j over the chart lines is g_j evaluated at every a in F_p at
    once, as a packed line of its own (``PackedLines.reduce``).
    ``degrees`` holds, per polynomial, its largest exponent of the first
    variable after Fermat reduction: the degree in a of every g_j.

    Exponents are reduced by Fermat (``fermat_exponent``), so every e is
    below p: the restriction is the one polynomial of degree < p that
    takes the polynomial's values on the line, and neither time nor memory
    grows with the degree.
    """
    p = rows.p
    degrees, columns = [], []
    for f in polys:
        chart, line, corner, degree = {}, {}, 0, 0
        for (i, j, k), c in f.int_terms():
            if i >= p:
                i = fermat_exponent(i, p)
            if j >= p:
                j = fermat_exponent(j, p)
            degree = max(degree, i)
            row = chart.setdefault(j, {})
            row[i] = row.get(i, 0) + c
            if not k:
                line[i] = line.get(i, 0) + c
                if not j:
                    corner += c
        polynomial = []
        for j in range(max(max(chart, default=0), max(line, default=0)) + 1):
            row = chart.get(j, {})
            coefficients = [0] * (max(row, default=0) + 1)
            for i, c in row.items():
                coefficients[i] = c % p
            column = (rows.reduce(rows.packed(coefficients))
                      | line.get(j, 0) % p << SLOT_BITS * p
                      | (0 if j else corner % p) << SLOT_BITS * (p + 1))
            polynomial.append(slots(column, p + 2))
        degrees.append(degree)
        columns.append(polynomial)
    return degrees, columns


@dataclass(frozen=True)
class FiberCensus:
    """Fiber types over P^2(F_p) and the number of zeros of the discriminant."""

    counts: dict
    discriminant_zeros: int


def _disagreement(p, line, restrictions) -> InternalInvariantError:
    """The error at the first point of a line where the determinant of the
    entry values differs from the discriminant's value; ``restrictions``
    are the coefficients in t of the six entries and the discriminant."""
    for t in range(line_size(p, line)):
        a, d, e, b, f, c, disc = (sum(x * pow(t, j, p) for j, x in enumerate(r)) % p
                                  for r in restrictions)
        det = (a * (b * c - f * f) - d * (d * c - e * f)
               + e * (d * f - b * e)) % p
        if det != disc:
            return InternalInvariantError(
                f"discriminant {disc} and determinant {det} of the entry "
                f"values disagree at {line_point(p, line, t)}")
    return InternalInvariantError(
        "det and disc differ as polynomials of degree < p on a line where "
        "they agree at every point")


def _check_identity(p, bound, polys):
    """Pass 1 of ``zero_ranks``: det = disc on the lines a <= bound,
    (t, 1, 0) and (1, 0, 0), in that order; ``polys`` are the columns of
    the six entries and the discriminant."""
    # A side's slot sums at most its coefficients: below (p (p - 1))^3 for
    # each of its three products, plus p (p - 1) for the discriminant.
    bits = SLOT_BITS
    top = bits * p
    low = (1 << top) - 1

    def fold(x):
        while x >> top:
            x = (x & low) + (x >> top << bits)
        return x

    for line in chain(range(min(bound, p - 1) + 1), (p, p + 1)):
        restrictions = [[column[line] for column in columns] for columns in polys]
        a, d, e, b, f, c, g = map(pack_slots, restrictions)
        lhs = fold(a * b * c + 2 * d * e * f)
        rhs = fold(a * f * f + d * d * c + e * e * b + g)
        n = (max(lhs.bit_length(), rhs.bit_length()) + bits - 1) // bits
        if any((x - y) % p for x, y in zip(slots(lhs, n), slots(rhs, n))):
            raise _disagreement(p, line, restrictions)


def zero_ranks(q: QForm):
    """The zeros of the discriminant on P^2(F_p), each with the rank of the
    entry values there, in two passes over the columns of ``plane_lines``.

    Yields batches ``(lines, ts, ranks)`` in the order of plane_points:
    zero k of a batch is ``line_point(p, lines[k], ts[k])`` and its rank,
    below 3, is ``ranks[k]``.  The type check (TypeError over Q), the scan
    limit and all of pass 1 run before the first batch is yielded, and the
    rank-3 refusal of a batch before that batch, so every consumer gets
    them.  ``PackedLines(p)`` checks every slot bound before anything is
    packed.

    Pass 1 checks det = disc as an identity of polynomials in the line
    parameter t.  On a checked line the six entry restrictions are packed
    into ints, one coefficient per slot (``pack_slots``), and the sides
    a*b*c + 2*d*e*f and a*f^2 + d^2*c + e^2*b are big-int products, folded
    mod t^p - t (t^e -> t^(e - p + 1) for e >= p) without leaving the
    packed form.  Their difference must equal the discriminant's
    restriction mod p, slot by slot, or ``InternalInvariantError`` names
    the first point of the line where the two values differ.  That is the
    same check as comparing the values at every point of the line: each
    function F_p -> F_p is exactly one polynomial of degree < p, and
    folding by Fermat computes it.

    Only the lines (a, t, 1) with a <= B are checked, besides (t, 1, 0)
    and (1, 0, 0), where B = max(3 * D(entry), D(disc)) over the
    ``degrees`` of ``plane_lines``.  On the line (a, t, 1) each
    coefficient in t of the folded det - disc is a polynomial h(a) of
    degree <= B, since a side's coefficients are sums of products of
    three entry coefficients.  If the lines a = 0, ..., B all pass, h has
    B + 1 roots and is zero, so every chart line passes; for B >= p - 1
    every chart line is checked.  If some chart line fails, some h is
    nonzero and so nonzero at an a <= B: the first failing line in the
    order of plane_points is checked, and the raised message is the one a
    check at every point gives.

    Pass 2 evaluates only the discriminant along each line
    (``PackedLines.line_zeros``); a line without a zero costs nothing past
    its mask.  The zeros of the other lines are gathered into a batch
    (``_zero_indices``), and the six entries are evaluated at every zero
    of the batch at once: one ``operator.itemgetter`` picks each column's
    coefficients at the batch's lines, another the powers of t, the rows
    B_j, at its ts, and C-level maps multiply and add them.  The batch is
    yielded once it holds p points, so memory stays O(p).  A line where the discriminant vanishes at every point is a
    batch of its own, the six entries read along the whole line, one
    packed line each.  ``linalg.symmetric_rank`` gives each zero's rank.
    Since det = disc holds, that rank is below 3: a rank of 3 at a zero is
    a bug, and ``InternalInvariantError`` names the first such point.
    """
    dom = q.domain
    if not isinstance(dom, PrimeField):
        raise TypeError("exhaustive scan needs a prime-field form")
    p = dom.p
    rows = PackedLines(p)
    degrees, polys = plane_lines(rows, q.matrix.upper() + (discriminant(q),))
    _check_identity(p, max(3 * max(degrees[:6]), degrees[6]), polys)
    *entries, disc = polys
    powers = [slots(rows[j], p) for j in range(1, max(map(len, entries)))]

    def ranked(values, lines, ts):
        ranks = list(map(linalg.symmetric_rank, zip(*values), repeat(p)))
        if 3 in ranks:
            k = ranks.index(3)
            raise InternalInvariantError(
                f"the entry values have rank 3 at {line_point(p, lines[k], ts[k])}, "
                "a zero of the discriminant")
        return lines, ts, ranks

    def gathered(lines, ts):
        at_lines, at_ts = _picker(lines), list(map(_picker(ts), powers))
        values = []
        for columns in entries:
            total = at_lines(columns[0])
            for column, power in zip(columns[1:], at_ts):
                total = list(map(add, total, map(mul, at_lines(column), power)))
            values.append(total)  # unreduced: symmetric_rank works mod p
        return ranked(values, lines, ts)

    lines, ts = [], []
    sizes = chain(repeat(p, p + 1), [1])  # line_size of each line
    for line, zeros, size in zip(count(), rows.line_zeros(disc), sizes):
        if not zeros:
            continue
        if zeros.bit_count() == size:
            if lines:
                yield gathered(lines, ts)
                lines, ts = [], []
            yield ranked([rows.residues([column[line] for column in columns], size)
                          for columns in entries], [line] * size, range(size))
        else:
            found = _zero_indices(zeros)
            lines += repeat(line, len(found))
            ts += found
            if len(lines) >= p:
                yield gathered(lines, ts)
                lines, ts = [], []
    if lines:
        yield gathered(lines, ts)


def fiber_census(q: QForm) -> FiberCensus:
    """Exhaustive fiber-type census over P^2(F_p): the tally of the ranks
    ``zero_ranks`` yields.  Every other point is off the discriminant, so
    its fiber is a smooth conic."""
    by_rank = [0, 0, 0]
    for _, _, ranks in zero_ranks(q):
        for r in range(3):
            by_rank[r] += ranks.count(r)
    p = q.domain.p
    zeros = sum(by_rank)
    by_rank.append(p * p + p + 1 - zeros)
    return FiberCensus({t: by_rank[r] for r, t in CONIC_BY_RANK.items()}, zeros)


def zero_count(f: HomogPoly) -> int:
    """The number of points of P^2(F_p) where f vanishes, f over a prime
    field (TypeError otherwise): one ``PackedLines.line_zeros`` mask per
    line, counted."""
    if not isinstance(f.ring.domain, PrimeField):
        raise TypeError("point counting needs a prime-field polynomial")
    rows = PackedLines(f.ring.domain.p)
    _, (columns,) = plane_lines(rows, [f])
    return sum(map(int.bit_count, rows.line_zeros(columns)))
