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
evaluates them at its own entries (``fiber_algebra``, or at a point the
upper triangle of the values, ``fiber_algebra_at``).  The 64 constants
stay flat, c_ijk at 16 i + 4 j + k, from the engine to every reader, ``FiberAlgebra``
and the int kernels included.  The fiber path
(``fiber_at``) stays on plain ints: ``_int_constants`` sums the table from
a flat plan, and ``_check_axioms`` and ``_int_type`` validate and classify
on the same ints; ``validate_fiber_algebra`` and ``classify`` lower the
constants of a ``FiberAlgebra`` once and run the same kernels, the unit
checked on the ints only.  The global trace pairing needs only nine of
the 64 constants, the 1-components c_ij0 of e_i e_j for traceless e_i,
e_j; ``trace_pairing_global`` evaluates those nine at the polynomial
entries of the form (``poly.specializer``), and ``recover_form`` inverts it
through six cofactors, a square root and six exact divisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import cache
from itertools import combinations_with_replacement, product
from operator import add, itemgetter, mul

from . import linalg
from .errors import (
    InternalInvariantError,
    InvalidAlgebraError,
    NotAPerfectSquareError,
    NotDivisibleError,
    NotRecoverableError,
    OddDegreeError,
)
from .linalg import symmetric_grid
from .poly import (
    PolyMatrix,
    PolyRing,
    divide_exact,
    lowered_values,
    minor,
    poly_sqrt,
    specializer,
    sum_of_products,
)
from .qform import FiberPoint, QForm, new_qform
from .scalars import QQ, PrimeField, Rationals, lower
from .series import RationalSeries

LETTERS = "xyz"


@dataclass(frozen=True)
class CliffordWord:
    """A scalar multiple of a word in the generators x, y, z."""

    coefficient: object
    letters: tuple

    @classmethod
    def parse(cls, coefficient, text: str) -> "CliffordWord":
        return cls(coefficient, tuple(LETTERS.index(ch) for ch in text))


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

    ``constants`` is the flat 64-tuple of ``_generic_table``'s layout:
    ``constants[16 * i + 4 * j + k]`` is the e_k-coefficient of e_i * e_j.
    ``domain`` is the coefficient ring (a scalar domain, or a PolyRing for
    global computations; ``validate_fiber_algebra`` and ``classify`` take
    F_p and Q only).  The trace functional is 2 on e_0 and 0 on the rest.
    Any other number of constants, a nested 4x4x4 tuple included, is
    refused when the algebra is built.
    """

    domain: object
    constants: tuple

    def __post_init__(self):
        if len(self.constants) != 64:
            raise InvalidAlgebraError("structure constants are not 4x4x4")

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
                row = self.constants[16 * i + 4 * j:16 * i + 4 * j + 4]
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
    """The terms ``((exps, int), ...)`` of a polynomial over Q whose stored
    coefficients (``int_terms``) are all ints; InternalInvariantError
    names f otherwise."""
    terms = tuple(f.int_terms())
    if any(type(c) is not int for _, c in terms):
        raise InternalInvariantError(f"generic polynomial {f} is not integral")
    return terms


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
    for left in combos:
        for right in combos:
            prod = [(ci * cj, wi + wj) for wi, ci in left.items()
                    for wj, cj in right.items()]
            constants += to_basis(reduce_word(prod, q))
    return tuple(constants)


@cache
def _generic_table() -> tuple:
    """The structure constants of the generic even Clifford algebra, built
    once per process by the rewriting engine on ``generic_form()``.

    The table is flat, in the layout of ``_int_constants``:
    ``_generic_table()[16 * i + 4 * j + k]`` is the constant c_ijk as int
    terms ``((exps, coeff), ...)`` in the entries ``GENERIC_ENTRIES``,
    exponents in that order (``integer_terms``).
    """
    q = generic_form()
    return tuple(map(integer_terms, _engine_constants(q.matrix.entries, q.ring)))


@cache
def _constant_plan() -> tuple:
    """The generic table as a flat plan over plain ints, built on first use
    from ``_generic_table()``.

    A generic constant has degree at most 2, so it is a sum over the 28
    monomials of degree <= 2 in the six entries: monomial 0 is 1, 1-6 are
    the entries and 7-27 the products of two of them.  Returns ``(left,
    right, positions, coefficients, gather, degrees)``: ``left`` and
    ``right`` gather the two factors of each product from the entries;
    term n of the table adds coefficients[n] times the n-th value of
    ``gather(monomials)`` into constant positions[n] (c_ijk is at
    16 i + 4 j + k); ``degrees[x]`` is the degree of constant x, None where
    the generic constant is 0.
    """
    def monomial(*factors):
        return tuple(map(factors.count, range(6)))

    pairs = list(combinations_with_replacement(range(6), 2))
    index = ({monomial(): 0} | {monomial(a): 1 + a for a in range(6)}
             | {monomial(a, b): 7 + n for n, (a, b) in enumerate(pairs)})
    positions, coefficients, monomials, degrees = [], [], [], []
    for x, terms in enumerate(_generic_table()):
        degrees.append(sum(terms[0][0]) if terms else None)
        for exps, c in terms:
            if exps not in index:
                raise InternalInvariantError(
                    f"generic constant {x} has degree {sum(exps)}")
            positions.append(x)
            coefficients.append(c)
            monomials.append(index[exps])
    return (itemgetter(*(a for a, _ in pairs)), itemgetter(*(b for _, b in pairs)),
            tuple(positions), tuple(coefficients), itemgetter(*monomials),
            tuple(degrees))


def _int_constants(entries) -> list:
    """The 64 structure constants, flat (c_ijk at 16 i + 4 j + k), of the
    even Clifford algebra of the symmetric matrix whose upper triangle is
    the six ints ``entries``, summed from ``_constant_plan`` and not
    reduced."""
    left, right, positions, coefficients, gather, _ = _constant_plan()
    monomials = [1, *entries, *map(mul, left(entries), right(entries))]
    out = [0] * 64
    for x, c, m in zip(positions, coefficients, gather(monomials)):
        out[x] += c * m
    return out


def fiber_algebra(q, domain) -> FiberAlgebra:
    """Even Clifford algebra of a symmetric 3x3 matrix over ``domain``.

    Entries of q are coerced into the domain once, and symmetry is checked
    on the result.  The structure constants come from the rewriting engine,
    never from closed formulas: the engine runs once per process on the
    generic form (``_generic_table``), and each call evaluates that table
    at the entries of q.  Over F_p and Q the entries are lowered to plain
    ints (``scalars.lower``), the constants are summed in ints by the flat
    plan that ``fiber_at`` uses (``_int_constants``) and each is boxed
    once, divided by den^degree over Q (``_scalar_algebra``, which
    ``fiber_algebra_at`` shares); over a PolyRing (the global
    algebra) the table's terms go to ``poly.specializer``, which sums each
    constant in one accumulator from the products of the entries
    themselves, each distinct product built once.

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
    if scalar:
        return _scalar_algebra(entries, den, domain)
    value = specializer(entries, domain)
    return FiberAlgebra(domain=domain, constants=tuple(
        value(terms) if terms else domain.zero for terms in _generic_table()))


def _scalar_algebra(entries, den: int, domain) -> FiberAlgebra:
    """The fiber algebra over F_p or Q whose upper triangle is the six ints
    ``entries`` over ``den``, as ``scalars.lower`` gives them: the 64
    constants are summed in ints (``_int_constants``) and each is boxed
    once, a constant of degree d divided by den^d."""
    return FiberAlgebra(domain=domain, constants=tuple(
        domain.zero if d is None else domain.from_pair(v, den ** d)
        for v, d in zip(_int_constants(entries), _constant_plan()[-1])))


def fiber_algebra_at(q: QForm, p: FiberPoint) -> FiberAlgebra:
    """Fiber algebra of a global form at a point of P^2: the six entry
    values, read as ints over one denominator (``poly.lowered_values``),
    go to ``_scalar_algebra`` as they are, with no grid and no second lowering."""
    return _scalar_algebra(*lowered_values(q.matrix.upper(), p.coords, q.domain), q.domain)


def kronecker_quiver_algebra(domain) -> FiberAlgebra:
    """The two-arrow quiver algebra (upper triangular with a rank-2 corner),
    presented with its quaternion trace; the classifier must call it type 5.

    Basis: 1, s = e11 - e22, and two corner elements annihilating each other;
    s*v = v and v*s = -v for corner v, s^2 = 1.
    """

    constants = (1, 0, 0, 0,  0, 1, 0, 0,  0, 0, 1, 0,  0, 0, 0, 1,
                 0, 1, 0, 0,  1, 0, 0, 0,  0, 0, 1, 0,  0, 0, 0, 1,
                 0, 0, 1, 0,  0, 0, -1, 0,  0, 0, 0, 0,  0, 0, 0, 0,
                 0, 0, 0, 1,  0, 0, 0, -1,  0, 0, 0, 0,  0, 0, 0, 0)
    return FiberAlgebra(domain=domain, constants=tuple(map(domain, constants)))


# ----------------------------------------------------------------- validation

#: The basis triples and traceless pairs the axiom check walks, in the
#: order of its messages.  With e_0 a two-sided unit, every triple that
#: contains 0 associates.
_TRIPLES = tuple(product((1, 2, 3), repeat=3))
_TRACELESS_PAIRS = tuple(product((1, 2, 3), repeat=2))


@cache
def _axiom_plan() -> tuple:
    """The fixed gathers of ``_check_axioms`` on 64 flat constants t (c_ijk
    at 16 i + 4 j + k), built on first use: ``(unit_off, unit_diag,
    generic_zero, anti, anti_swapped)``, which gather c_0jk and c_j0k off
    and on the diagonal j = k, the 30 constants whose generic constant is 0
    (degree None in ``_constant_plan()``), and the traceless coordinates k
    of e_i e_j and of e_j e_i, 3 per pair."""
    unit = [(j, k, x) for j in range(4) for k in range(4)
            for x in (4 * j + k, 16 * j + k)]
    return (itemgetter(*(x for j, k, x in unit if j != k)),
            itemgetter(*(x for j, k, x in unit if j == k)),
            itemgetter(*(x for x, d in enumerate(_constant_plan()[-1]) if d is None)),
            itemgetter(*(16 * i + 4 * j + k for i, j in _TRACELESS_PAIRS for k in (1, 2, 3))),
            itemgetter(*(16 * j + 4 * i + k for i, j in _TRACELESS_PAIRS for k in (1, 2, 3))))


@cache
def _associator_plan(live: bool) -> tuple:
    """The gather plan of the 108 associator sums, built on first use, on
    the 64 flat constants t followed by their negatives (at
    64 + 16 i + 4 j + k) and the unit scalar ``one`` (at 128).

    Sum 4 s + n is coordinate n of (e_i e_j) e_k - e_i (e_j e_k) for the
    s-th triple, sum_m c_ijm c_mkn + sum_m (-c_jkm) c_imn.  Once the unit
    check has passed, c_0kn and c_i0n are ``one`` times a Kronecker delta,
    so the m = 0 pair is one * (c_ij0 [k = n] - c_jk0 [i = n]): up to two
    unit terms beside the six products of m = 1..3.  The full plan takes
    every term; the ``live`` one leaves out each term with a factor whose
    generic constant is 0, which keeps 324 of the 648 products.  Returns
    ``(groups, order)``: each group ``(left, right, width)`` gathers the
    two factors of the terms of its sums, ``width`` terms a sum, and
    ``order`` puts the group sums, behind a 0 for a sum with no terms,
    back in the order of the 108 sums."""
    skip = {x for x, d in enumerate(_constant_plan()[-1]) if live and d is None}
    sums = []
    for i, j, k in _TRIPLES:
        for n in range(4):
            terms = [(16 * i + 4 * j + m, 16 * m + 4 * k + n) for m in (1, 2, 3)]
            terms += [(64 + 16 * j + 4 * k + m, 16 * i + 4 * m + n) for m in (1, 2, 3)]
            terms += [(16 * i + 4 * j, 128)] * (k == n)
            terms += [(64 + 16 * j + 4 * k, 128)] * (i == n)
            sums.append([(a, b) for a, b in terms if a % 64 not in skip and b not in skip])
    groups, order, at = [], [0] * len(sums), 1
    for width in sorted({len(terms) for terms in sums} - {0}):
        members = [s for s, terms in enumerate(sums) if len(terms) == width]
        for s in members:
            order[s], at = at, at + 1
        pairs = [pair for s in members for pair in sums[s]]
        groups.append((itemgetter(*(a for a, _ in pairs)),
                       itemgetter(*(b for _, b in pairs)), width))
    return tuple(groups), itemgetter(*order)


def _check_axioms(t, one: int, p: int) -> None:
    """The checks of ``validate_fiber_algebra`` on 64 flat int constants
    ``t``: least residues over F_p, and over Q (p = 0) ints under which e_0
    is ``one``, the constants times one common nonzero scalar.  Raises
    InvalidAlgebraError for the first failure, in the order and with the
    messages of ``validate_fiber_algebra``.

    Associativity sums only the terms that can be nonzero: the live
    ``_associator_plan`` when the 30 generic zeros of ``t`` are all 0, as
    in every table ``fiber_algebra`` and ``fiber_at`` build, the full plan
    otherwise.  Both give the same sums."""
    unit_off, unit_diag, generic_zero, anti, anti_swapped = _axiom_plan()
    if any(unit_off(t)) or any(x != one for x in unit_diag(t)):
        raise InvalidAlgebraError("basis element 0 is not a two-sided unit")
    groups, order = _associator_plan(not any(generic_zero(t)))
    signed = t + [-x for x in t] + [one]
    sums = [0]
    for left, right, width in groups:
        sums += map(sum, zip(*[map(mul, left(signed), right(signed))] * width))
    n = _first_nonzero(order(sums), p)
    if n is not None:
        i, j, k = _TRIPLES[n // 4]
        raise InvalidAlgebraError(f"associativity fails on basis triple ({i},{j},{k})")
    n = _first_nonzero(map(add, anti(t), anti_swapped(t)), p)
    if n is not None:
        i, j = _TRACELESS_PAIRS[n // 3]
        raise InvalidAlgebraError(
            f"anticommutator of traceless elements {i},{j} is not central")


def _first_nonzero(sums, p: int):
    """The index of the first of the int ``sums`` that is nonzero (mod p
    over F_p), or None."""
    sums = [s % p for s in sums] if p else list(sums)
    return next(n for n, s in enumerate(sums) if s) if any(sums) else None


def _validated_ints(alg: FiberAlgebra) -> tuple:
    """The one lowering of ``validate_fiber_algebra`` and ``classify``:
    lowers the 64 constants once as they stand (``scalars.lower``) and runs
    ``_check_axioms``.  Returns the ints and the characteristic."""
    t, den = lower(alg.domain, alg.constants)
    p = alg.domain.characteristic
    _check_axioms(t, den, p)
    return t, p


def validate_fiber_algebra(alg: FiberAlgebra) -> None:
    """Check the rank-4 algebra axioms; raise InvalidAlgebraError if broken.

    Checked: 1 is a two-sided unit, multiplication is associative on all
    basis triples, and squares/anticommutators of traceless elements are
    central (which is the polarized form of the degree-2 Cayley-Hamilton
    identity).  The trace is 2 on 1 and 0 on the traceless basis by
    definition (FiberAlgebra.trace_of).

    The constants must lie in F_p or Q: over a PolyRing (a global algebra)
    ``scalars.lower`` raises TypeError, whatever the unit.  Their number
    was checked when the algebra was built.

    A thin wrapper: the constants c_ijk are lowered
    once to plain ints (``scalars.lower``), least residues over F_p and
    over Q the constants times D, the lcm of their denominators, and
    ``_check_axioms`` runs the int check that ``fiber_at`` runs, the unit
    check included (e_0 must be D times the unit).  Triple (i, j, k)
    associates when sum_m c_ijm c_mkn - c_jkm c_imn vanishes for every n;
    over F_p only that sum is reduced mod p.  Scaling by D changes no
    verdict: the sum is homogeneous of degree 2 in the constants, so it
    only gains a factor D^2, and the anticommutator test c_ijk + c_jik is
    linear.
    """
    _validated_ints(alg)


# -------------------------------------------------------------- trace pairing

def trace_pairing_fiber(alg: FiberAlgebra):
    """Half-trace pairing on the traceless part: P_ij = (e_i e_j)_1."""
    return [[alg.constants[16 * i + 4 * j] for j in range(1, 4)] for i in range(1, 4)]


def trace_pairing_global(q: QForm) -> PolyMatrix:
    """Trace pairing of the global algebra: the nine constants c_ij0
    (i, j in 1..3) of the engine-built generic table, evaluated at the six
    polynomial entries of q through one ``poly.specializer``, each summed
    in one accumulator.  All nine are evaluated, none mirrored, so
    ``recover_form``'s symmetry check still tests the table; a dense form
    costs 12 products of entries.  Equals -adjugate3(q.matrix) as an exact
    polynomial identity, and the full
    table's ``trace_pairing_fiber(fiber_algebra(...))``; the test suite
    checks the routes against each other."""
    at = specializer(q.matrix.upper(), q.ring)
    table = _generic_table()
    return PolyMatrix([[at(table[16 * i + 4 * j]) for j in range(1, 4)]
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

#: The trace pairing P_ij = c_ij0 among 64 flat constants, its upper
#: triangle (i <= j) row by row and its transpose, and the products c_ijk
#: of traceless basis elements (i, j = 1..3).
_PAIRING_UPPER = itemgetter(*(16 * i + 4 * j for i in (1, 2, 3) for j in range(i, 4)))
_PAIRING_LOWER = itemgetter(*(16 * j + 4 * i for i in (1, 2, 3) for j in range(i, 4)))
_TRACELESS_PRODUCTS = itemgetter(*(16 * i + 4 * j + k for i, j in _TRACELESS_PAIRS
                                   for k in range(4)))


def _int_type(t, p: int) -> AlgebraType:
    """The type of a valid algebra from its 64 flat int constants ``t``,
    least residues over F_p, and over Q (p = 0) the constants times one
    nonzero scalar, which moves no test below.  See ``classify``."""
    upper = _PAIRING_UPPER(t)
    if upper != _PAIRING_LOWER(t):
        raise InternalInvariantError("trace pairing of a valid algebra is asymmetric")
    r = linalg.symmetric_rank(upper, p)
    if r >= 2:
        return AlgebraType.CENTRAL_SIMPLE
    if r == 0:
        if any(_TRACELESS_PRODUCTS(t)):
            return AlgebraType.DOUBLE_LINE_CLIFFORD
        return AlgebraType.LOCAL_COMMUTATIVE
    # r == 1: a rank-1 symmetric pairing always has a nonzero diagonal entry
    # away from characteristic 2.
    pivot = next((i for i in (1, 2, 3) if t[20 * i]), None)  # P_ii = c_ii0
    if pivot is None:
        raise InternalInvariantError("rank-1 pairing with zero diagonal")
    # c_xkk for x = e_pivot sum to tr(L_x).
    trace = sum(t[16 * pivot + 5 * k] for k in range(4))
    if trace % p if p else trace:
        return AlgebraType.KRONECKER_QUIVER
    return AlgebraType.DEGENERATE_CLIFFORD


def classify(alg: FiberAlgebra) -> AlgebraType:
    """Isomorphism type of a rank-4 algebra with trace, over F_p or Q.

    The algebra is validated first, so a PolyRing domain raises TypeError;
    the constants are lowered once, and the ints the validation checked
    feed the int classifier that ``fiber_at`` runs.  Case split on the rank
    r of the trace pairing P restricted to the traceless part: r >= 2 is
    central simple; r = 0 is type 4 unless some product of traceless basis
    elements survives (type 3); r = 1 is the quiver algebra iff tr(L_x) =
    sum_k c_ikk != 0, where x = e_i is the first traceless basis element
    with a = P_ii != 0, and type 2 otherwise.  Validation makes P symmetric (checked), so r is
    read off its upper triangle by ``linalg.symmetric_rank``.

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
    return _int_type(*_validated_ints(alg))


def fiber_at(q: QForm, p: FiberPoint) -> tuple:
    """Rank of the conic and type of the algebra at p, on plain ints.

    The point is lowered once and the six entries are evaluated on its ints
    (``poly.lowered_values``); nothing is boxed and no ``FiberAlgebra`` is
    built.  The rank is ``linalg.symmetric_rank`` of the six values; the
    64 structure constants come from the flat plan of the generic table,
    and the axiom check and the classifier of ``validate_fiber_algebra``
    and ``classify`` run on them.  The type must be 4 - rank (the fiberwise
    bijection).  Rank 3 is a nonzero determinant of the values, which is
    the discriminant at p: so the fiber is checked to be central simple
    exactly off the discriminant curve, with no polynomial built.  The
    ``fiber`` and ``classify`` commands both answer from here.

    Over Q the ints are the values times one common positive scalar
    lambda, the values of the matrix lambda q(x).  That verdict is the one
    at x: a generic constant of degree delta scales by lambda^delta (c_ij0
    has degree 2 and c_ijk, k >= 1, degree 1 for traceless e_i, e_j), so the
    constants of lambda q are those of q in the basis (1, lambda e_1,
    lambda e_2, lambda e_3), an isomorphic algebra, and lambda q has the
    rank of q.
    """
    char = q.domain.characteristic
    values, _ = lowered_values(q.matrix.upper(), p.coords, q.domain)
    rank = linalg.symmetric_rank(values, char)
    t = _int_constants(values)
    if char:
        t = [x % char for x in t]
    _check_axioms(t, 1, char)
    algebra = _int_type(t, char)
    if algebra != 4 - rank:
        raise InternalInvariantError(
            f"rank {rank} and classifier ({algebra.name}) disagree at {p}")
    return rank, algebra


def azumaya_at(q: QForm, p: FiberPoint) -> bool:
    """Is the fiber at p central simple?  See fiber_at."""
    return fiber_at(q, p)[1] is AlgebraType.CENTRAL_SIMPLE


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
    w = 2, hence (1 + sum t^(2(a_i+a_j+d))) / (1 - t^2)^3, the denominator
    written out as 1 - 3t^2 + 3t^4 - t^6."""
    degs = _gamma_generator_degrees(q)
    num = [0] * (max(degs) + 1)
    for g in degs:
        num[g] += 1
    return RationalSeries(tuple(num), (1, 0, -3, 0, 3, 0, -1))


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
