"""Even Clifford algebras of ternary quadratic forms, fiberwise.

The algebra attached to a symmetric 3x3 matrix q is generated by x, y, z
subject to  x_i x_j + x_j x_i = 2 q_ij  (so x_i^2 = q_ii).  Words in x, y, z
normalize to strictly increasing square-free words by the rewriting engine
below; the even part is 4-dimensional with basis

    1,  Xbar = yz - q23,  Ybar = zx - q13,  Zbar = xy - q12,

the last three traceless.  The trace functional is 2 on 1 and 0 on the
Xbar/Ybar/Zbar span, so half the trace of a product is its 1-component.
The whole construction is generic over the coefficient ring: scalar entries
give the fiber algebra at a point, polynomial entries give the algebra of
a global form.  The engine runs once per process, on ``generic_form()``,
the symmetric matrix of the six entries over Q[q11, ..., q33]; its
constants are read as integer terms (``integer_terms``, which also reads
the generic minor quotients of ``brauer_severi``), and each algebra
evaluates them at its own entries (``fiber_algebra``).  The
global trace pairing needs only nine of the 64 constants, the 1-components
c_ij0 of e_i e_j for traceless e_i, e_j; ``trace_pairing_global`` evaluates
those nine at the polynomial entries of the form (``specializer``), and
``recover_form`` inverts it through six cofactors, a square root and six
exact divisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from functools import cache
from operator import mul

from .errors import (
    InternalInvariantError,
    InvalidAlgebraError,
    NotAPerfectSquareError,
    NotDivisibleError,
    NotRecoverableError,
    OddDegreeError,
)
from .poly import (
    PolyMatrix,
    PolyRing,
    divide_exact,
    linear_combination,
    minor,
    poly_sqrt,
    sum_of_products,
    symmetric_grid,
    symmetric_values,
)
from .qform import FiberPoint, QForm, new_qform, values_rank
from .scalars import QQ, PrimeField, Rationals, lower
from .series import RationalSeries, poly_mul_1d

LETTERS = "xyz"


@dataclass(frozen=True)
class CliffordWord:
    """A scalar multiple of a word in the generators x, y, z."""

    coefficient: object
    letters: tuple

    @classmethod
    def parse(cls, coefficient, text: str) -> "CliffordWord":
        return cls(coefficient, tuple(LETTERS.index(ch) for ch in text))

    def __str__(self):
        word = "".join(LETTERS[i] for i in self.letters) or "1"
        return f"{self.coefficient}*{word}"


def reduce_word(words, q, rng=None) -> dict:
    """Normalize a linear combination of Clifford words.

    ``words`` is an iterable of CliffordWord (or (coefficient, letters)
    pairs); ``q`` is the symmetric 3x3 relation matrix, entries in any
    commutative coefficient ring.  Adjacent pairs rewrite by

        x_i x_i -> q_ii          x_j x_i -> 2 q_ij - x_i x_j   (j > i)

    until every word is strictly increasing.  The result is a dict mapping
    normal words to coefficients.  ``rng`` randomizes which reducible
    position fires first; the normal form does not depend on the choice
    (the rewriting system is confluent), which the tests exercise.
    """
    stack = []
    for w in words:
        if isinstance(w, CliffordWord):
            c, letters = w.coefficient, tuple(w.letters)
        else:
            c, letters = w[0], tuple(w[1])
        if c:
            stack.append((c, letters))
    result = {}
    while stack:
        c, w = stack.pop()
        spots = [k for k in range(len(w) - 1) if w[k] >= w[k + 1]]
        if not spots:
            s = result.get(w)
            s = c if s is None else s + c
            if s:
                result[w] = s
            else:
                result.pop(w, None)
            continue
        k = spots[0] if rng is None else rng.choice(spots)
        i, j = w[k], w[k + 1]
        head, tail = w[:k], w[k + 2:]
        if i == j:
            c2 = c * q[i][i]
            if c2:
                stack.append((c2, head + tail))
        else:
            c2 = c * (q[j][i] + q[j][i])  # 2 q_ij without needing a scalar 2
            if c2:
                stack.append((c2, head + tail))
            stack.append((-c, head + (j, i) + tail))
    return result


# ------------------------------------------------------------- rank-4 algebra

class AlgebraType(IntEnum):
    """The five isomorphism classes of rank-4 algebras with a degree-2 trace;
    types 1-4 are the even Clifford algebras of forms of rank 3, 2, 1, 0,
    type 5 (the two-arrow quiver algebra) is not even Clifford."""

    CENTRAL_SIMPLE = 1
    DEGENERATE_CLIFFORD = 2
    DOUBLE_LINE_CLIFFORD = 3
    LOCAL_COMMUTATIVE = 4
    KRONECKER_QUIVER = 5

    @property
    def is_even_clifford(self) -> bool:
        return self.value <= 4


@dataclass(frozen=True)
class FiberAlgebra:
    """Rank-4 algebra by structure constants on (1, Xbar, Ybar, Zbar).

    ``constants[i][j][k]`` is the e_k-coefficient of e_i * e_j.  ``domain``
    is the coefficient ring (a scalar domain, or a PolyRing for global
    computations; ``validate_fiber_algebra`` and ``classify`` take F_p and
    Q only).  The trace functional is 2 on e_0 and 0 on the rest.
    """

    domain: object
    constants: tuple

    def unit(self) -> tuple:
        d = self.domain
        return (d.one, d.zero, d.zero, d.zero)

    def basis(self, k: int) -> tuple:
        d = self.domain
        return tuple(d.one if i == k else d.zero for i in range(4))

    def element(self, coeffs) -> tuple:
        d = self.domain
        out = tuple(d(c) for c in coeffs)
        if len(out) != 4:
            raise ValueError("an element needs 4 coordinates")
        return out

    def multiply(self, u, v) -> tuple:
        d = self.domain
        out = [d.zero] * 4
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, vj in enumerate(v):
                if not vj:
                    continue
                f = ui * vj
                row = self.constants[i][j]
                for k in range(4):
                    if row[k]:
                        out[k] = out[k] + f * row[k]
        return tuple(out)

    def trace_of(self, u):
        return u[0] + u[0]


#: The generic entries: the upper triangle row by row, as in symmetric_grid.
GENERIC_ENTRIES = ("q11", "q12", "q13", "q22", "q23", "q33")


@cache
def generic_form() -> QForm:
    """The generic form: the symmetric matrix of the six entries
    ``GENERIC_ENTRIES``, as degree-1 variables over Q, with pattern
    a = (0, 0, 0), d = 1.  Identities that hold for it hold for every form
    over every commutative ring.  Built once per process."""
    ring = PolyRing(QQ, GENERIC_ENTRIES)
    return new_qform((0, 0, 0), 1, symmetric_grid(map(ring.variable, GENERIC_ENTRIES)))


def integer_terms(f) -> tuple:
    """The terms ``((exps, int), ...)`` of a polynomial over Q whose
    coefficients are integers; InternalInvariantError names f otherwise."""
    terms = []
    for exps, coeff in f.iter_terms():
        if coeff.denominator != 1:
            raise InternalInvariantError(f"generic polynomial {f} is not integral")
        terms.append((exps, coeff.numerator))
    return tuple(terms)


def _engine_constants(q, domain) -> tuple:
    """Structure constants of the even Clifford algebra of q by rewriting:
    each product of two basis words is normalized by ``reduce_word`` and
    read off in the basis (1, Xbar, Ybar, Zbar).  q is symmetric with
    entries in ``domain``."""
    one = domain.one
    zero = domain.zero
    # Normal-form word combinations for 1, Xbar, Ybar, Zbar.
    combos = [
        {(): one},
        {(1, 2): one, (): -q[1][2]},
        {(0, 2): -one, (): q[0][2]},
        {(0, 1): one, (): -q[0][1]},
    ]
    even_words = [(), (0, 1), (0, 2), (1, 2)]

    def to_basis(normal):
        for w in normal:
            if w not in even_words:
                raise InternalInvariantError(f"odd word {w} in an even product")
        c_e = normal.get((), zero)
        c_xy = normal.get((0, 1), zero)
        c_xz = normal.get((0, 2), zero)
        c_yz = normal.get((1, 2), zero)
        a1 = c_e + q[1][2] * c_yz + q[0][2] * c_xz + q[0][1] * c_xy
        return (a1, c_yz, -c_xz, c_xy)

    constants = []
    for i in range(4):
        row = []
        for j in range(4):
            prod = []
            for wi, ci in combos[i].items():
                for wj, cj in combos[j].items():
                    prod.append((ci * cj, wi + wj))
            row.append(to_basis(reduce_word(prod, q)))
        constants.append(tuple(row))
    return tuple(constants)


@cache
def _generic_table() -> tuple:
    """The structure constants of the generic even Clifford algebra, built
    once per process by the rewriting engine on ``generic_form()``.

    ``_generic_table()[i][j][k]`` is the constant c_ijk as int terms
    ``((exps, coeff), ...)`` in the entries ``GENERIC_ENTRIES``, exponents
    in that order (``integer_terms``).
    """
    q = generic_form()
    return tuple(tuple(tuple(map(integer_terms, v)) for v in row)
                 for row in _engine_constants(q.matrix.entries, q.ring))


def specializer(entries, ring):
    """Evaluation of integer polynomials in the generic entries at the
    polynomial ``entries`` of ``ring`` (one per generic entry, in the same
    order).  The returned function maps terms ``((exps, coeff), ...)`` to
    sum coeff * entries^exps, summed in place (``linear_combination``).
    Its calls share one memo of products of entries: each distinct product
    is built once, by one multiplication of the product with one factor
    fewer."""
    n = len(entries)
    products = {(0,) * n: ring.one}
    for k, x in enumerate(entries):
        products[tuple(int(i == k) for i in range(n))] = x

    def product(exps):
        f = products.get(exps)
        if f is None:
            k = max(i for i, e in enumerate(exps) if e)
            rest = exps[:k] + (exps[k] - 1,) + exps[k + 1:]
            f = products[exps] = product(rest) * entries[k]
        return f

    def value(terms):
        return linear_combination(((c, product(exps)) for exps, c in terms),
                                  ring.zero)

    return value


def fiber_algebra(q, domain) -> FiberAlgebra:
    """Even Clifford algebra of a symmetric 3x3 matrix over ``domain``.

    Entries of q are coerced into the domain once, and symmetry is checked
    on the result.  The structure constants come from the rewriting engine,
    never from closed formulas: the engine runs once per process on the
    generic form (``_generic_table``), and each call evaluates that table
    at the entries of q.  Over F_p and Q the coercion lowers the entries to
    plain ints (``scalars.lower``), each constant is summed in ints and
    boxed once, divided by den^degree over Q; over a PolyRing (the global
    algebra) the table's terms go to ``specializer``, which multiplies the
    entries themselves, each distinct product once.

    Why this is exact.  The engine uses only ring operations: it writes
    2 q_ij as q_ij + q_ij and never divides.  Each rewrite is an identity
    of the Clifford algebra over any commutative ring, whose strictly
    increasing words form a basis, so the engine's normal form over
    Z[q_ij] maps to its normal form over any commutative ring R under
    q_ij -> value.  Terms the engine drops as zero over R do not change
    that image.  The generic run has integer coefficients (checked), which
    reduce mod p over F_p.
    """
    flat = [q[i][j] for i in range(3) for j in range(3)]
    scalar = isinstance(domain, (PrimeField, Rationals))
    flat, den = lower(domain, flat) if scalar else ([domain(x) for x in flat], 1)
    if any(flat[3 * i + j] != flat[3 * j + i] for i in range(3) for j in range(i)):
        raise ValueError("relation matrix must be symmetric")
    entries = [flat[3 * i + j] for i in range(3) for j in range(i, 3)]
    zero = domain.zero
    if scalar:
        def value(terms):
            v = sum(c * math.prod(map(pow, entries, exps)) for exps, c in terms)
            if den == 1:
                return domain(v)
            # A constant is homogeneous: its first term carries its degree.
            return domain.from_pair(v, den ** sum(terms[0][0]))
    else:
        value = specializer(entries, domain)
    constants = tuple(tuple(tuple(value(terms) if terms else zero for terms in v)
                            for v in row)
                      for row in _generic_table())
    return FiberAlgebra(domain=domain, constants=constants)


def fiber_algebra_at(q: QForm, p: FiberPoint) -> FiberAlgebra:
    """Fiber algebra of a global form at a point of P^2."""
    return fiber_algebra(symmetric_values(q.matrix, p.coords), q.domain)


def kronecker_quiver_algebra(domain) -> FiberAlgebra:
    """The two-arrow quiver algebra (upper triangular with a rank-2 corner),
    presented with its quaternion trace; the classifier must call it type 5.

    Basis: 1, s = e11 - e22, and two corner elements annihilating each other;
    s*v = v and v*s = -v for corner v, s^2 = 1.
    """

    def vec(*vals):
        return tuple(domain(v) for v in vals)

    z4 = vec(0, 0, 0, 0)
    constants = (
        (vec(1, 0, 0, 0), vec(0, 1, 0, 0), vec(0, 0, 1, 0), vec(0, 0, 0, 1)),
        (vec(0, 1, 0, 0), vec(1, 0, 0, 0), vec(0, 0, 1, 0), vec(0, 0, 0, 1)),
        (vec(0, 0, 1, 0), vec(0, 0, -1, 0), z4, z4),
        (vec(0, 0, 0, 1), vec(0, 0, 0, -1), z4, z4),
    )
    return FiberAlgebra(domain=domain, constants=constants)


# ----------------------------------------------------------------- validation

def validate_fiber_algebra(alg: FiberAlgebra) -> None:
    """Check the rank-4 algebra axioms; raise InvalidAlgebraError if broken.

    Checked: 1 is a two-sided unit, multiplication is associative on all
    basis triples, and squares/anticommutators of traceless elements are
    central (which is the polarized form of the degree-2 Cayley-Hamilton
    identity).  The trace is 2 on 1 and 0 on the traceless basis by
    definition (FiberAlgebra.trace_of).

    The constants must lie in F_p or Q: over a PolyRing (a global algebra)
    ``scalars.lower`` raises TypeError after the unit check.

    After the unit check the constants c_ijk are lowered once to plain ints
    (``scalars.lower``): least residues over F_p, and over Q the constants
    times D, the lcm of their denominators.  Triple (i, j, k) associates
    when sum_m c_ijm c_mkn - c_jkm c_imn vanishes for every n; over F_p only
    that sum is reduced mod p.  Scaling by D changes no verdict: the sum is
    homogeneous of degree 2 in the constants, so it only gains a factor
    D^2, and the anticommutator test c_ijk + c_jik is linear.
    """
    c = alg.constants
    if len(c) != 4 or any(len(r) != 4 or any(len(v) != 4 for v in r) for r in c):
        raise InvalidAlgebraError("structure constants are not 4x4x4")
    basis = [alg.basis(k) for k in range(4)]
    for j in range(4):
        if c[0][j] != basis[j] or c[j][0] != basis[j]:
            raise InvalidAlgebraError("basis element 0 is not a two-sided unit")
    flat, _ = lower(alg.domain, [x for r in c for v in r for x in v])
    p = alg.domain.characteristic
    t = [[flat[4 * r:4 * r + 4] for r in range(4 * i, 4 * i + 4)] for i in range(4)]
    # by_left[i][n][m] = c_imn and by_right[k][n][m] = c_mkn, so that
    # coordinate n of (e_i e_j) e_k - e_i (e_j e_k) is two dot products.
    by_left = [list(zip(*t[i])) for i in range(4)]
    by_right = [list(zip(*(t[m][k] for m in range(4)))) for k in range(4)]
    # With e_0 a two-sided unit, every triple that contains 0 associates.
    for i in range(1, 4):
        for j in range(1, 4):
            ij = t[i][j]
            for k in range(1, 4):
                jk = t[j][k]
                for right, left in zip(by_right[k], by_left[i]):
                    s = sum(map(mul, ij, right)) - sum(map(mul, jk, left))
                    if (s % p) if p else s:
                        raise InvalidAlgebraError(
                            f"associativity fails on basis triple ({i},{j},{k})")
    for i in range(1, 4):
        for j in range(1, 4):
            for k in (1, 2, 3):
                s = t[i][j][k] + t[j][i][k]
                if (s % p) if p else s:
                    raise InvalidAlgebraError(
                        f"anticommutator of traceless elements {i},{j} is not central")


# -------------------------------------------------------------- trace pairing

def trace_pairing_fiber(alg: FiberAlgebra):
    """Half-trace pairing on the traceless part: P_ij = (e_i e_j)_1."""
    return [[alg.constants[i][j][0] for j in range(1, 4)] for i in range(1, 4)]


def trace_pairing_global(q: QForm) -> PolyMatrix:
    """Trace pairing of the global algebra: the nine constants c_ij0
    (i, j in 1..3) of the engine-built generic table, evaluated at the six
    polynomial entries of q through one ``specializer``.  All nine are
    evaluated, none mirrored, so ``recover_form``'s symmetry check still
    tests the table; a dense form costs 12 products of entries.  Equals
    -adjugate3(q.matrix) as an exact polynomial identity, and the full
    table's ``trace_pairing_fiber(fiber_algebra(...))``; the test suite
    checks the routes against each other."""
    at = specializer(q.matrix.upper(), q.ring)
    table = _generic_table()
    return PolyMatrix([[at(table[i][j][0]) for j in range(1, 4)]
                       for i in range(1, 4)])


def recover_form(pairing: PolyMatrix) -> PolyMatrix:
    """Solve P = -Adj Q for Q, up to a global sign.

    P must be symmetric, and 3x3 (else ValueError).  Its adjugate is then
    symmetric: the six cofactors of the upper triangle (2x2 minors) are
    computed and mirrored.  -det P, expanded along the first row, must be a
    nonzero perfect square s^2 (s is then det Q up to sign); the result is
    the six cofactors divided by s.  Round trip:
    recover_form(trace_pairing_global(q)) is q.matrix or its negative.
    """
    if not pairing.is_symmetric():
        raise NotRecoverableError("trace pairing must be symmetric")
    if pairing.rows != 3:
        raise ValueError("trace pairing must be 3x3")
    g = pairing.entries
    cofactors = [minor(g, i + 1, j + 1).scale((-1) ** (i + j))
                 for i in range(3) for j in range(i, 3)]
    # det P by expansion along the first row; cofactors[:3] is row 0.
    d = sum_of_products(((-1, g[0][j], cofactors[j]) for j in range(3)),
                        pairing.ring.zero)
    if d.is_zero:
        raise NotRecoverableError("det of the pairing vanishes")
    try:
        s = poly_sqrt(d)
    except NotAPerfectSquareError as exc:
        raise NotRecoverableError(f"-det P is not a perfect square: {exc}") from exc
    try:
        return PolyMatrix(symmetric_grid(divide_exact(f, s) for f in cofactors))
    except NotDivisibleError as exc:
        raise NotRecoverableError(f"adjugate not divisible by sqrt: {exc}") from exc


# -------------------------------------------------------------- cayley-hamilton

def cayley_hamilton_check(alg: FiberAlgebra, element) -> bool:
    """Does a^2 - tr(a) a + g = 0 hold, with g = ((tr a)^2 - tr(a^2)) / 2?"""
    a = alg.element(element)
    d = alg.domain
    sq = alg.multiply(a, a)
    t = alg.trace_of(a)
    half = d.one / (d.one + d.one)
    g = (t * t - alg.trace_of(sq)) * half
    lhs = tuple(sq[k] - t * a[k] + (g if k == 0 else d.zero) for k in range(4))
    return not any(lhs)


# -------------------------------------------------------------- classification

def classify(alg: FiberAlgebra) -> AlgebraType:
    """Isomorphism type of a rank-4 algebra with trace, over F_p or Q.

    The algebra is validated first, so a PolyRing domain raises TypeError;
    everything after that reads the structure constants only.  Case split on the rank r of the trace pairing
    P restricted to the traceless part: r >= 2 is central simple; r = 0 is
    type 4 unless some product of traceless basis elements survives (type
    3); r = 1 is the quiver algebra iff tr(L_x) = sum_k c_ikk != 0, where
    x = e_i is the first traceless basis element with a = P_ii != 0, and
    type 2 otherwise.  Validation makes P symmetric (checked), so r is
    read off its upper triangle by ``qform.values_rank``.

    Why the trace decides r = 1 (characteristic != 2).  Validation makes
    x^2 central, so x^2 = a.  L_x maps 1 to x and x to a: it keeps span(1, x)
    and has trace 0 there.  On the 2-dimensional quotient L_x^2 = a, so L_x
    there is either a scalar l, with l^2 = a and trace 2l != 0 (the quiver
    algebra, where x / l acts on the complement of span(1, x) as the
    identity), or it has minimal polynomial t^2 - a and trace 0 (type 2,
    whether or not a is a square).  The complement is P-orthogonal to x and
    L_x keeps it: for v traceless with P(x, v) = 0, xv is traceless, since
    its trace is 2 P(x, v) = 0, and P(x, xv) = a v_0 = 0.
    """
    validate_fiber_algebra(alg)
    c = alg.constants
    pairing = trace_pairing_fiber(alg)
    if any(pairing[i][j] != pairing[j][i] for i in range(3) for j in range(i)):
        raise InternalInvariantError("trace pairing of a valid algebra is asymmetric")
    r = values_rank(alg.domain, pairing)
    if r >= 2:
        return AlgebraType.CENTRAL_SIMPLE
    if r == 0:
        for i in range(1, 4):
            for j in range(1, 4):
                if any(c[i][j]):
                    return AlgebraType.DOUBLE_LINE_CLIFFORD
        return AlgebraType.LOCAL_COMMUTATIVE
    # r == 1: a rank-1 symmetric pairing always has a nonzero diagonal entry
    # away from characteristic 2.
    pivot = next((i for i in range(3) if pairing[i][i]), None)
    if pivot is None:
        raise InternalInvariantError("rank-1 pairing with zero diagonal")
    # c[pivot + 1][k] is x e_k, so its k-th coordinates sum to tr(L_x).
    if sum((c[pivot + 1][k][k] for k in range(4)), alg.domain.zero):
        return AlgebraType.KRONECKER_QUIVER
    return AlgebraType.DEGENERATE_CLIFFORD


def fiber_at(q: QForm, p: FiberPoint) -> tuple:
    """Rank of the conic and type of the algebra at p, from one evaluation
    of the six entries.  The type must be 4 - rank (the fiberwise
    bijection).  Rank 3 is a nonzero determinant of the values, which is
    the discriminant at p: so the fiber is checked to be central simple
    exactly off the discriminant curve, with no polynomial built."""
    values = symmetric_values(q.matrix, p.coords)
    rank = values_rank(q.domain, values)
    algebra = classify(fiber_algebra(values, q.domain))
    if algebra != 4 - rank:
        raise InternalInvariantError(
            f"rank {rank} and classifier ({algebra.name}) disagree at {p}")
    return rank, algebra


def fiber_type_at(q: QForm, p: FiberPoint) -> AlgebraType:
    """Isomorphism type of the fiber algebra at p.  See fiber_at."""
    return fiber_at(q, p)[1]


def azumaya_at(q: QForm, p: FiberPoint) -> bool:
    """Is the fiber at p central simple?  See fiber_type_at."""
    return fiber_type_at(q, p) is AlgebraType.CENTRAL_SIMPLE


# -------------------------------------------------------------- Hilbert series

def _gamma_generator_degrees(q: QForm):
    a1, a2, a3 = q.a
    d = q.d
    degs = (0, 2 * (a1 + a2 + d), 2 * (a2 + a3 + d), 2 * (a3 + a1 + d))
    if any(g < 0 for g in degs[1:]):
        raise ValueError("generator degrees must be nonnegative; "
                         "twist the form first")
    return degs


def gamma_hilbert_series(q: QForm) -> RationalSeries:
    """Hilbert series of the graded sections algebra of the even Clifford
    algebra: free module on 1 and the three even generators x_i x_j (of
    degree 2(a_i + a_j + d)) over the base polynomial ring with deg u = v =
    w = 2, hence (1 + sum t^(2(a_i+a_j+d))) / (1 - t^2)^3."""
    degs = _gamma_generator_degrees(q)
    num = [0] * (max(degs) + 1)
    for g in degs:
        num[g] += 1
    one_minus_t2 = (1, 0, -1)
    den = poly_mul_1d(poly_mul_1d(one_minus_t2, one_minus_t2), one_minus_t2)
    return RationalSeries(tuple(num), den)


def gamma_dimension_bruteforce(q: QForm, n: int) -> int:
    """Dimension of the degree-n graded piece by direct monomial count:
    monomials u^i v^j w^k times one of the four module generators."""
    if n < 0 or n % 2:
        raise OddDegreeError(f"graded degree must be even and nonnegative, got {n}")
    degs = _gamma_generator_degrees(q)
    count = 0
    for g in degs:
        rest = n - g
        if rest < 0 or rest % 2:
            continue
        m = rest // 2
        for i in range(m + 1):
            for j in range(m - i + 1):
                count += 1  # k = m - i - j is forced
    return count
