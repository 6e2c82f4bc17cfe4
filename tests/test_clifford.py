"""Rewriting engine, fiber algebras, trace pairing, recovery, classification."""

import functools
import itertools
import json
import random
import re
import unittest.mock
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import assume, given, settings, strategies as st

from cliffbundle import (
    AlgebraType,
    CliffordWord,
    FiberPoint,
    FpElement,
    PolyMatrix,
    PrimeField,
    QQ,
    adjugate3,
    azumaya_at,
    cayley_hamilton_check,
    classify,
    det3,
    discriminant,
    fiber_algebra,
    fiber_algebra_at,
    fiber_at,
    gamma_dimension_bruteforce,
    gamma_hilbert_series,
    kronecker_quiver_algebra,
    make_f25plus,
    make_net,
    make_type,
    new_qform,
    projective_points,
    rank_at,
    recover_form,
    reduce_word,
    series_expand,
    trace_pairing_fiber,
    trace_pairing_global,
    validate_fiber_algebra,
)
from cliffbundle import PolyRing, brauer_severi, clifford, linalg, poly, qform
from cliffbundle.cli import main
from cliffbundle.clifford import (FiberAlgebra, _engine_constants, generic_form,
                                  integer_terms)
from cliffbundle.errors import (
    InternalInvariantError,
    InvalidAlgebraError,
    NotAPerfectSquareError,
    NotDivisibleError,
    NotRecoverableError,
    OddDegreeError,
)
from cliffbundle.linalg import symmetric_grid
from cliffbundle.poly import (HomogPoly, bipoly_from_alpha_map, divide_exact, lowered_values,
                             poly_sqrt)
from cliffbundle.scalars import lower
from conftest import (diag_form, forms, plane_values, sparse_polys,
                      symbolic_scalar_grid, uvw)


# ------------------------------------------------------------------ rewriting

def test_reduce_single_swap():
    ring, s, grid = symbolic_scalar_grid()
    normal = reduce_word([CliffordWord.parse(ring.one, "yx")], grid)
    # yx = 2 q12 - xy, with q12 the symbol d
    assert normal[()] == s["d"] + s["d"]
    assert normal[(0, 1)] == -ring.one


def test_reduce_square():
    ring, s, grid = symbolic_scalar_grid()
    normal = reduce_word([CliffordWord.parse(ring.one, "xx")], grid)
    assert normal == {(): s["a"]}


def test_reduce_xyxy_symbolic():
    ring, s, grid = symbolic_scalar_grid()
    normal = reduce_word([CliffordWord.parse(ring.one, "xyxy")], grid)
    # xyxy = -ab + 2d xy
    assert normal[()] == -(s["a"] * s["b"])
    assert normal[(0, 1)] == s["d"] + s["d"]
    assert set(normal) == {(), (0, 1)}


def test_reduce_is_strategy_independent():
    rng = random.Random(99)
    field = PrimeField(101)
    for trial in range(120):
        grid = [[field.random(rng) for _ in range(3)] for _ in range(3)]
        for i in range(3):
            for j in range(i):
                grid[i][j] = grid[j][i]
        words = [CliffordWord(field.random(rng),
                              tuple(rng.randrange(3)
                                    for _ in range(rng.randint(0, 6))))
                 for _ in range(rng.randint(1, 3))]
        baseline = reduce_word(words, grid)
        for seed in (rng.randrange(10**6), rng.randrange(10**6)):
            assert reduce_word(words, grid, rng=random.Random(seed)) == baseline


def test_normal_form_words_are_increasing():
    rng = random.Random(7)
    field = PrimeField(7)
    grid = [[field(1) if i == j else field(0) for j in range(3)] for i in range(3)]
    normal = reduce_word([CliffordWord(field(1), (2, 1, 0, 0, 1, 2))], grid)
    for w in normal:
        assert list(w) == sorted(set(w))


# -------------------------------------------------------------- fiber algebras

def test_zbar_squared_symbolic():
    ring, s, grid = symbolic_scalar_grid()
    alg = fiber_algebra(grid, ring)
    zz = alg.constants[60:64]  # e_3 e_3, at 16 * 3 + 4 * 3
    assert zz[0] == s["d"] * s["d"] - s["a"] * s["b"]
    assert all(not zz[k] for k in (1, 2, 3))


def engine_constants(q, domain):
    """The per-call rewriting engine on q: the oracle for fiber_algebra."""
    return _engine_constants([[domain(x) for x in row] for row in q], domain)


@st.composite
def relation_matrices(draw):
    domain = draw(st.sampled_from((PrimeField(3), PrimeField(5),
                                   PrimeField(101), QQ)))
    if domain is QQ:
        value = st.fractions(min_value=-9, max_value=9, max_denominator=7)
    else:
        # Plain ints past p, reduced by the coercion into the domain.
        value = st.integers(-2 * domain.p, 2 * domain.p)
    # Zeros are frequent, so degenerate fibers of every rank turn up.
    upper = [draw(st.one_of(st.just(0), value)) for _ in range(6)]
    return domain, symmetric_grid(upper)


@settings(max_examples=200, deadline=None)
@given(case=relation_matrices())
def test_the_generic_table_matches_the_engine(case):
    domain, q = case
    constants = fiber_algebra(q, domain).constants
    assert constants == engine_constants(q, domain)
    kind = type(domain.one)
    assert all(type(x) is kind for x in constants)


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["Q", "F101"])
@pytest.mark.parametrize("tag", ["F23", "F24", "F25minus"])
def test_the_generic_table_matches_the_engine_on_catalog_forms(tag, field):
    q = make_type(tag, domain=field, seed=7)
    entries = q.matrix.entries
    assert fiber_algebra(entries, q.ring).constants == engine_constants(entries, q.ring)


def test_the_engine_runs_once_per_process(monkeypatch, ring_q):
    calls = []

    def counted(words, q, rng=None):
        calls.append(q)
        return reduce_word(words, q, rng)

    monkeypatch.setattr(clifford, "reduce_word", counted)
    clifford._generic_table.cache_clear()
    clifford._constant_plan.cache_clear()  # the flat plan is read off the table
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    fiber_algebra(eye, QQ)
    assert len(calls) == 16
    fiber_algebra(eye, QQ)
    fiber_algebra(eye, PrimeField(101))
    trace_pairing_global(diag_form(ring_q))
    assert len(calls) == 16


def test_a_fractional_generic_coefficient_is_refused():
    q12, q33 = map(generic_form().ring.variable, ("q12", "q33"))
    f = q12.scale(Fraction(1, 2)) + q33
    with pytest.raises(InternalInvariantError,
                       match=f"^generic polynomial {re.escape(str(f))} is not integral$"):
        integer_terms(f)
    terms = integer_terms(f.scale(2))
    assert sorted(terms) == [((0, 0, 0, 0, 0, 1), 2), ((0, 1, 0, 0, 0, 0), 1)]
    assert all(type(c) is int for _, c in terms)


def test_an_asymmetric_relation_matrix_is_refused(ring_q):
    for domain in (QQ, PrimeField(5), ring_q):
        with pytest.raises(ValueError, match="relation matrix must be symmetric"):
            fiber_algebra([[1, 2, 0], [3, 1, 0], [0, 0, 1]], domain)


def test_symmetry_is_checked_after_coercion():
    # 2 and 7 are one element of F_5.
    alg = fiber_algebra([[1, 2, 0], [7, 1, 0], [0, 0, 1]], PrimeField(5))
    assert alg.constants == engine_constants([[1, 2, 0], [2, 1, 0], [0, 0, 1]],
                                             PrimeField(5))


def test_fiber_algebra_coerces_each_entry_once(monkeypatch):
    """Nine coercions lower the entries; the constants are boxed from
    their int pairs (``from_pair``), which coerces nothing more."""
    fiber_algebra([[1, 0, 0], [0, 1, 0], [0, 0, 1]], QQ)  # build the table
    calls = []
    coerce = type(QQ).__call__

    def counted(self, x):
        calls.append(x)
        return coerce(self, x)

    monkeypatch.setattr(type(QQ), "__call__", counted)
    fiber_algebra([[1, 2, 3], [2, 5, 7], [3, 7, 11]], QQ)
    assert len(calls) == 9
    calls.clear()
    half = Fraction(1, 2)
    fiber_algebra([[half, 2, 3], [2, Fraction(5, 3), 7], [3, 7, 11]], QQ)
    assert len(calls) == 9


def test_an_element_needs_four_coordinates():
    alg = fiber_algebra([[1, 0, 0], [0, 1, 0], [0, 0, 1]], QQ)
    assert alg.element((1, 2, 3, 4)) == tuple(map(Fraction, (1, 2, 3, 4)))
    for coeffs in ((1, 2, 3), (1, 2, 3, 4, 5)):
        with pytest.raises(ValueError, match="^an element needs 4 coordinates$"):
            alg.element(coeffs)


def test_zero_form_algebra_is_local_commutative():
    alg = fiber_algebra([[0] * 3] * 3, QQ)
    assert classify(alg) is AlgebraType.LOCAL_COMMUTATIVE


def _center_dimension(alg):
    """Brute-force center: solve [x, e_j] = 0 for all j as a linear system."""
    from cliffbundle import linalg

    d = alg.domain
    rows = []
    for j in range(4):
        for k in range(4):
            row = []
            for i in range(4):
                left = alg.multiply(alg.basis(i), alg.basis(j))[k]
                right = alg.multiply(alg.basis(j), alg.basis(i))[k]
                row.append(left - right)
            rows.append(row)
    return len(linalg.kernel_basis(rows, d))


def _two_sided_ideal_rank(alg, v):
    """Dimension of the span of e_i * v * e_j (the two-sided ideal of v)."""
    from cliffbundle import linalg

    rows = [alg.multiply(alg.multiply(alg.basis(i), v), alg.basis(j))
            for i in range(4) for j in range(4)]
    return linalg.rank([list(r) for r in rows], alg.domain)


def test_identity_form_is_central_simple_f5():
    field = PrimeField(5)
    eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    alg = fiber_algebra(eye, field)
    assert classify(alg) is AlgebraType.CENTRAL_SIMPLE
    # independent oracle: the center is the scalars and every nonzero
    # element generates the whole algebra as a two-sided ideal
    assert _center_dimension(alg) == 1
    rng = random.Random(8)
    probes = [alg.basis(k) for k in range(4)]
    for _ in range(10):
        vec = tuple(field.random(rng) for _ in range(4))
        if any(vec):
            probes.append(vec)
    for v in probes:
        assert _two_sided_ideal_rank(alg, v) == 4


def test_degenerate_fiber_is_not_simple():
    field = PrimeField(5)
    alg = fiber_algebra([[1, 0, 0], [0, 1, 0], [0, 0, 0]], field)
    assert classify(alg) is AlgebraType.DEGENERATE_CLIFFORD
    ranks = {_two_sided_ideal_rank(alg, alg.basis(k)) for k in range(4)}
    assert any(r < 4 for r in ranks)  # a proper two-sided ideal exists


def test_trace_vector():
    alg = fiber_algebra([[1, 0, 0], [0, 1, 0], [0, 0, 1]], QQ)
    assert alg.trace_of(alg.basis(0)) == Fraction(2)
    for k in (1, 2, 3):
        assert alg.trace_of(alg.basis(k)) == Fraction(0)


def test_associativity_random_f101():
    rng = random.Random(13)
    field = PrimeField(101)
    for _ in range(10):
        grid = [[field.random(rng) for _ in range(3)] for _ in range(3)]
        for i in range(3):
            for j in range(i):
                grid[i][j] = grid[j][i]
        validate_fiber_algebra(fiber_algebra(grid, field))  # raises on failure


# --------------------------------------------------------------- trace pairing

def test_trace_pairing_entries_symbolic():
    ring, s, grid = symbolic_scalar_grid()
    alg = fiber_algebra(grid, ring)
    pairing = trace_pairing_fiber(alg)
    # P33 = d^2 - ab and P23 = af - ed, the displayed half-trace values
    assert pairing[2][2] == s["d"] * s["d"] - s["a"] * s["b"]
    assert pairing[1][2] == s["a"] * s["f"] - s["e"] * s["d"]
    adj = adjugate3(grid)
    for i in range(3):
        for j in range(3):
            assert pairing[i][j] == -adj.entry(i, j)


def test_trace_pairing_identity_matrix():
    alg = fiber_algebra([[1, 0, 0], [0, 1, 0], [0, 0, 1]], QQ)
    pairing = trace_pairing_fiber(alg)
    for i in range(3):
        for j in range(3):
            assert pairing[i][j] == (Fraction(-1) if i == j else Fraction(0))


def test_trace_pairing_global_diag(ring_q):
    u, v, w = uvw(ring_q)
    pairing = trace_pairing_global(diag_form(ring_q))
    assert pairing.entry(0, 0) == -(v * w)
    assert pairing.entry(1, 1) == -(u * w)
    assert pairing.entry(2, 2) == -(u * v)
    assert pairing.entry(0, 1).is_zero


def test_trace_pairing_global_matches_fiberwise(ring_f101):
    rng = random.Random(3)
    field = ring_f101.domain
    q = make_type("F24", domain=field, seed=8)
    pairing = trace_pairing_global(q)
    for _ in range(20):
        coords = [field.random(rng) for _ in range(3)]
        if not any(coords):
            continue
        p = FiberPoint.make(field, coords)
        fiber = trace_pairing_fiber(fiber_algebra_at(q, p))
        for i in range(3):
            for j in range(3):
                assert pairing.entry(i, j).evaluate(p.coords) == fiber[i][j]


def test_det_pairing_is_minus_square(ring_f101):
    for seed in range(4):
        q = make_type("F23", domain=ring_f101.domain, seed=seed)
        pairing = trace_pairing_global(q)
        disc = discriminant(q)
        assert det3(pairing) == -(disc * disc)


# ------------------------------------------------------------------- recovery

def test_recover_diag_example(ring_q):
    u, v, w = uvw(ring_q)
    z = ring_q.zero
    pairing = PolyMatrix([[-(v * w), z, z], [z, -(u * w), z], [z, z, -(u * v)]])
    rec = recover_form(pairing)
    assert rec == diag_form(ring_q).matrix


def test_recover_round_trip_f101(ring_f101):
    for tag in ("F23", "F24", "F25minus"):
        for seed in range(5):
            q = make_type(tag, domain=ring_f101.domain, seed=seed)
            rec = recover_form(trace_pairing_global(q))
            assert rec in (q.matrix, -q.matrix)


def test_recover_round_trip_rational(ring_q):
    for seed in range(3):
        q = make_type("F23", domain=QQ, seed=seed)
        rec = recover_form(trace_pairing_global(q))
        assert rec in (q.matrix, -q.matrix)


def test_recover_rejects_non_square_det(ring_q):
    u, v, w = uvw(ring_q)
    z = ring_q.zero
    bad = PolyMatrix([[u, z, z], [z, v, z], [z, z, w]])  # det = uvw, -det not a square
    with pytest.raises(NotRecoverableError):
        recover_form(bad)


def test_recover_rejects_degenerate(ring_q):
    u, v, _ = uvw(ring_q)
    z = ring_q.zero
    q = new_qform((0, 0, 0), 1, [[u, z, z], [z, v, z], [z, z, z]])
    with pytest.raises(NotRecoverableError):
        recover_form(trace_pairing_global(q))


def test_recover_refuses_a_pairing_that_is_not_3x3(ring_q):
    u, v, _ = uvw(ring_q)
    pairing = PolyMatrix([[u, v], [v, u]])
    assert pairing.is_symmetric()
    with pytest.raises(ValueError, match="^trace pairing must be 3x3$"):
        recover_form(pairing)


def reference_recover(pairing):
    """recover_form by the whole adjugate and a division of all nine
    entries: the oracle for the upper-triangle route."""
    if not pairing.is_symmetric():
        raise NotRecoverableError("trace pairing must be symmetric")
    if pairing.rows != 3:
        raise ValueError("trace pairing must be 3x3")
    adj = adjugate3(pairing)
    # det P by expansion along the first row, from the adjugate's cofactors.
    d = -sum((pairing.entry(0, j) * adj.entry(j, 0) for j in range(3)),
             pairing.ring.zero)
    if d.is_zero:
        raise NotRecoverableError("det of the pairing vanishes")
    try:
        s = poly_sqrt(d)
    except NotAPerfectSquareError as exc:
        raise NotRecoverableError(f"-det P is not a perfect square: {exc}") from exc
    try:
        return adj.map(lambda f: divide_exact(f, s))
    except NotDivisibleError as exc:
        raise NotRecoverableError(f"adjugate not divisible by sqrt: {exc}") from exc


def as_printed(m):
    """A polynomial matrix as its entries' strings and degrees."""
    return [[(str(f), f.degree) for f in row] for row in m.entries]


@settings(max_examples=200, deadline=None)
@given(q=forms())
def test_the_nine_constants_match_the_full_table_and_the_adjugate(q):
    pairing = trace_pairing_global(q)
    full = PolyMatrix(trace_pairing_fiber(fiber_algebra(q.matrix.entries, q.ring)))
    adjugate = -adjugate3(q.matrix)
    assert pairing == full == adjugate
    assert as_printed(pairing) == as_printed(full) == as_printed(adjugate)


@st.composite
def pairings(draw):
    """Matrices for recover_form: the pairing of a form, as is or scaled; a
    random symmetric matrix with the pairing's degree pattern; a diagonal
    one, diag(-f1^2, f2^2, f3^2), whose -det is a square; the pairing with
    one off-diagonal entry changed; or a symmetric corner of it that is
    not 3x3."""
    q = draw(forms())
    pairing = trace_pairing_global(q)
    kind = draw(st.sampled_from(("pairing", "scaled", "random", "diagonal",
                                 "asymmetric", "small")))
    # Entry (i, j) of the pairing is a 2x2 minor of q, of degree top - a_i - a_j.
    a, top = q.a, 2 * q.d + 2 * sum(q.a)
    if kind == "scaled":
        return pairing * draw(st.sampled_from((-1, 2, 3, 4)))
    if kind == "random":
        return PolyMatrix(symmetric_grid(
            draw(sparse_polys(q.ring, top - a[i] - a[j]))
            for i in range(3) for j in range(i, 3)))
    if kind == "diagonal":
        zero = q.ring.zero
        roots = [draw(sparse_polys(q.ring, top // 2 - a[i])) for i in range(3)]
        grid = [[zero] * 3 for _ in range(3)]
        for i, f in enumerate(roots):
            grid[i][i] = -(f * f) if i == 0 else f * f
        return PolyMatrix(grid)
    if kind == "asymmetric":
        grid = [list(row) for row in pairing.entries]
        grid[0][1] = grid[0][1] + q.ring.monomial(1, (top - a[0] - a[1], 0, 0))
        return PolyMatrix(grid)
    if kind == "small":
        n = draw(st.integers(1, 2))
        return PolyMatrix([row[:n] for row in pairing.entries[:n]])
    return pairing


def recovery_outcome(recover, pairing):
    try:
        recovered = recover(pairing)
    except (NotRecoverableError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return recovered, as_printed(recovered)


@settings(max_examples=300, deadline=None)
@given(pairing=pairings())
def test_recover_form_matches_the_whole_adjugate_route(pairing):
    assert recovery_outcome(recover_form, pairing) == \
        recovery_outcome(reference_recover, pairing)


def reference_specialize(entries, ring, terms):
    """sum c * entries^exps by the operators: each product multiplied out
    afresh, scaled by a copy and added by a copy."""
    def product(exps):
        factors = [x for x, e in zip(entries, exps) for _ in range(e)]
        return functools.reduce(lambda f, g: f * g, factors, ring.one)
    return sum((product(exps).scale(c) for exps, c in terms), ring.zero)


@settings(max_examples=200, deadline=None)
@given(q=forms(), factor=st.sampled_from((1, -1, 2, 3, 5, 101)),
       data=st.data())
def test_the_specializer_sums_in_place_what_scaled_copies_sum(q, factor, data):
    """Every table the specializer reads: the 64 generic structure
    constants and the 24 coefficients of the generic minor quotients, with
    every coefficient times ``factor`` (3, 5 and 101 vanish mod some p)."""
    tables = list(clifford._generic_table())
    tables += [terms for row in brauer_severi._generic_quotients()
               for quotient in row for _, terms in quotient]
    at = poly.specializer(q.matrix.upper(), q.ring)
    for terms in data.draw(st.lists(st.sampled_from(tables), min_size=1, max_size=12)):
        terms = tuple((exps, factor * c) for exps, c in terms)
        got = at(terms)
        want = reference_specialize(q.matrix.upper(), q.ring, terms)
        assert got == want
        assert (str(got), got.degree, type(got)) == (str(want), want.degree, type(want))


@settings(max_examples=100, deadline=None)
@given(q=forms(), factor=st.sampled_from((1, -1, 3, 101)), data=st.data())
def test_the_specializer_builds_each_quotient_as_its_coefficients_do(q, factor, data):
    """The BiPoly form of the specializer, one accumulator per quotient,
    against each alpha group summed by the operators and the groups put
    together by ``bipoly_from_alpha_map``."""
    quotients = [quotient for row in brauer_severi._generic_quotients()
                 for quotient in row]
    at = poly.specializer(q.matrix.upper(), q.ring)
    for quotient in data.draw(st.lists(st.sampled_from(quotients), min_size=1,
                                       max_size=6)):
        quotient = tuple((aex, tuple((exps, factor * c) for exps, c in terms))
                         for aex, terms in quotient)
        got = at(quotient, q.a)
        want = bipoly_from_alpha_map(q.ring, q.a, {
            aex: reference_specialize(q.matrix.upper(), q.ring, terms)
            for aex, terms in quotient})
        assert got == want
        assert (str(got), got.degree, type(got)) == (str(want), want.degree, type(want))


# --------------------------------------------------------------- classification

def test_classify_by_rank_f5(ring_f5):
    field = ring_f5.domain
    q = diag_form(ring_f5)
    expected = {3: AlgebraType.CENTRAL_SIMPLE,
                2: AlgebraType.DEGENERATE_CLIFFORD,
                1: AlgebraType.DOUBLE_LINE_CLIFFORD}
    probes = [(1, 1, 1), (0, 1, 1), (0, 0, 1)]
    for coords in probes:
        p = FiberPoint.make(field, coords)
        alg = fiber_algebra_at(q, p)
        assert classify(alg) is expected[rank_at(q, p)]


def test_classify_kronecker_quiver():
    for field in (QQ, PrimeField(5), PrimeField(101)):
        assert classify(kronecker_quiver_algebra(field)) is AlgebraType.KRONECKER_QUIVER
    assert not AlgebraType.KRONECKER_QUIVER.is_even_clifford
    assert AlgebraType.LOCAL_COMMUTATIVE.is_even_clifford


def test_classify_rank2_is_type2_f5():
    field = PrimeField(5)
    alg = fiber_algebra([[1, 0, 0], [0, 1, 0], [0, 0, 0]], field)
    assert classify(alg) is AlgebraType.DEGENERATE_CLIFFORD


def test_classify_rank2_nonsquare_branch():
    # over Q, x^2 = 2 is not a square: still type 2 via the other branch
    alg = fiber_algebra([[2, 0, 0], [0, 1, 0], [0, 0, 0]], QQ)
    assert classify(alg) is AlgebraType.DEGENERATE_CLIFFORD


def test_classify_rejects_broken_constants():
    alg = fiber_algebra([[1, 0, 0], [0, 1, 0], [0, 0, 1]], QQ)
    broken = with_constant(alg, 1, 2, 0, Fraction(17))  # corrupt a structure constant
    with pytest.raises(InvalidAlgebraError):
        classify(broken)


def solve(m, rhs, domain):
    """One solution of m x = rhs, or None if inconsistent."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    aug = [list(m[i]) + [rhs[i]] for i in range(rows)]
    a, pivots = linalg.rref(aug, domain)
    if cols in pivots:
        return None
    x = [domain.zero] * cols
    for r, pc in enumerate(pivots):
        x[pc] = a[r][cols]
    return x


def reference_classify(alg):
    """The classifier by eigenvectors: at a rank-1 pairing, left
    multiplication by x / sqrt(a) on the orthogonal complement of x is +-1
    exactly for the quiver algebra."""
    validate_fiber_algebra(alg)
    d = alg.domain
    pairing = trace_pairing_fiber(alg)
    r = linalg.rank(pairing, d)
    if r >= 2:
        return AlgebraType.CENTRAL_SIMPLE
    if r == 0:
        for i in range(1, 4):
            for j in range(1, 4):
                if any(alg.constants[16 * i + 4 * j:16 * i + 4 * j + 4]):
                    return AlgebraType.DOUBLE_LINE_CLIFFORD
        return AlgebraType.LOCAL_COMMUTATIVE
    # r == 1: a rank-1 symmetric pairing always has a nonzero diagonal entry
    # away from characteristic 2.
    pivot = next((i for i in range(3) if pairing[i][i]), None)
    if pivot is None:
        raise InternalInvariantError("rank-1 pairing with zero diagonal")
    a = pairing[pivot][pivot]
    if not d.is_square(a):
        return AlgebraType.DEGENERATE_CLIFFORD
    s = d.sqrt(a)
    x = tuple((d.one / s) if k == pivot + 1 else d.zero for k in range(4))
    complement = linalg.kernel_basis([pairing[pivot]], d)
    if len(complement) != 2:
        raise InternalInvariantError("orthogonal complement is not 2-dimensional")
    action = []
    for v in complement:
        w = alg.multiply(x, (d.zero,) + tuple(v))
        if w[0]:
            raise InternalInvariantError("x * v left the traceless part")
        cols = [[complement[0][k], complement[1][k]] for k in range(3)]
        sol = solve(cols, list(w[1:]), d)
        if sol is None:
            raise InternalInvariantError("x * v left the orthogonal complement")
        action.append(sol)
    # action[j] holds the coordinates of x * v_j in the basis (v_0, v_1).
    plus = action[0] == [d.one, d.zero] and action[1] == [d.zero, d.one]
    minus = action[0] == [-d.one, d.zero] and action[1] == [d.zero, -d.one]
    if plus or minus:
        return AlgebraType.KRONECKER_QUIVER
    return AlgebraType.DEGENERATE_CLIFFORD


def conjugate(alg, g):
    """The structure constants of alg in the basis f_0 = e_0 and
    f_a = sum_i g[a-1][i-1] e_i (a = 1..3), for g invertible."""
    d = alg.domain
    G = [[d.one, d.zero, d.zero, d.zero]] + [[d.zero] + list(row) for row in g]
    reduced, _ = linalg.rref([row + [d.one if j == i else d.zero for j in range(4)]
                              for i, row in enumerate(G)], d)
    H = [row[4:] for row in reduced]  # e_k = sum_l H[k][l] f_l

    def in_f(w):
        return tuple(sum((w[k] * H[k][l] for k in range(4)), d.zero)
                     for l in range(4))

    constants = tuple(x for a in range(4) for b in range(4)
                      for x in in_f(alg.multiply(G[a], G[b])))
    return FiberAlgebra(domain=d, constants=constants)


CLASSIFY_DOMAINS = (PrimeField(3), PrimeField(5), PrimeField(7), PrimeField(101), QQ)


@st.composite
def conjugated_algebras(draw):
    """Fiber algebras of c1 l l^T + c2 m m^T + c3 n n^T (rank 0-3) and the
    quiver algebra, each in a random basis of the traceless span."""
    domain = draw(st.sampled_from(CLASSIFY_DOMAINS))
    scalars = small_scalars(domain)
    if draw(st.integers(0, 4)) == 0:
        alg = kronecker_quiver_algebra(domain)
    else:
        q = [[domain.zero] * 3 for _ in range(3)]
        for _ in range(draw(st.integers(0, 3))):
            c = domain(draw(scalars))
            vec = [domain(draw(scalars)) for _ in range(3)]
            for i in range(3):
                for j in range(3):
                    q[i][j] = q[i][j] + c * vec[i] * vec[j]
        alg = fiber_algebra(q, domain)
    g = [[domain(draw(scalars)) for _ in range(3)] for _ in range(3)]
    assume(linalg.rank(g, domain) == 3)
    return conjugate(alg, g)


@settings(max_examples=300, deadline=None)
@given(alg=conjugated_algebras())
def test_classify_matches_the_eigenvector_classifier(alg):
    assert classify(alg) is reference_classify(alg)


def test_classify_needs_no_root_kernel_or_product(monkeypatch):
    """Past validation and the pairing rank, classify reads constants only."""
    def refuse(*args, **kwargs):
        raise AssertionError("classify called a refused helper")

    algebras = [kronecker_quiver_algebra(QQ), kronecker_quiver_algebra(PrimeField(5))]
    for domain in (QQ, PrimeField(5), PrimeField(101)):
        for q in ([[1, 0, 0], [0, 1, 0], [0, 0, 0]], [[2, 0, 0], [0, 3, 0], [0, 0, 0]],
                  [[1, 1, 1], [1, 1, 1], [1, 1, 1]], [[0] * 3] * 3,
                  [[1, 0, 0], [0, 2, 0], [0, 0, 3]]):
            algebras.append(fiber_algebra(q, domain))
    expected = [reference_classify(alg) for alg in algebras]
    for owner, name in ((PrimeField, "sqrt"), (PrimeField, "is_square"),
                        (type(QQ), "sqrt"), (type(QQ), "is_square"),
                        (linalg, "kernel_basis"), (FiberAlgebra, "multiply")):
        monkeypatch.setattr(owner, name, refuse)
    assert [classify(alg) for alg in algebras] == expected
    assert set(expected) == set(AlgebraType)


def test_classify_refuses_an_asymmetric_pairing(monkeypatch):
    """The int classifier compares the pairing's upper triangle with its
    transpose; both classify and fiber_at refuse an asymmetric one."""
    monkeypatch.setattr(clifford, "_PAIRING_LOWER", lambda t: (1, 1, 0, 0, 0, 0))
    with pytest.raises(InternalInvariantError, match="asymmetric"):
        classify(fiber_algebra([[1, 0, 0], [0, 0, 0], [0, 0, 0]], QQ))
    q = diag_form(PolyRing(PrimeField(5)))
    with pytest.raises(InternalInvariantError, match="asymmetric"):
        fiber_at(q, FiberPoint.make(q.domain, (1, 0, 0)))


def reference_validation_error(alg):
    """The axioms stated in full with FiberAlgebra.multiply: e_0 a two-sided
    unit, associativity on all 64 basis triples, and central anticommutators
    of traceless elements.  The message validate_fiber_algebra gives, or None."""
    e = [alg.basis(k) for k in range(4)]
    for j in range(4):
        if alg.multiply(e[0], e[j]) != e[j] or alg.multiply(e[j], e[0]) != e[j]:
            return "basis element 0 is not a two-sided unit"
    for i, j, k in itertools.product(range(4), repeat=3):
        left = alg.multiply(alg.multiply(e[i], e[j]), e[k])
        right = alg.multiply(e[i], alg.multiply(e[j], e[k]))
        if left != right:
            return f"associativity fails on basis triple ({i},{j},{k})"
    for i, j in itertools.product(range(1, 4), repeat=2):
        ij, ji = alg.multiply(e[i], e[j]), alg.multiply(e[j], e[i])
        if any(ij[k] + ji[k] for k in (1, 2, 3)):
            return f"anticommutator of traceless elements {i},{j} is not central"
    return None


VALIDATION_DOMAINS = (PrimeField(5), PrimeField(101), QQ)


def small_scalars(domain):
    if domain is QQ:
        return st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.integers(0, domain.p - 1).map(domain)


#: Rationals over several denominators, so that one algebra mixes them.
mixed_denominators = st.builds(Fraction, st.integers(-7, 7),
                               st.sampled_from((2, 3, 5, 7)))


@st.composite
def corrupted_algebras(draw):
    domain = draw(st.sampled_from(VALIDATION_DOMAINS))
    scalars = small_scalars(domain)
    if domain is QQ and draw(st.booleans()):
        scalars = st.one_of(scalars, mixed_denominators)
    if draw(st.integers(0, 4)) == 0:
        alg = kronecker_quiver_algebra(domain)
    else:
        # Zeros are frequent, so degenerate fibers of every rank turn up.
        value = st.one_of(st.just(0), scalars)
        upper = [draw(value) for _ in range(6)]
        q = [[upper[0], upper[1], upper[2]],
             [upper[1], upper[3], upper[4]],
             [upper[2], upper[4], upper[5]]]
        alg = fiber_algebra(q, domain)
    constants = list(alg.constants)
    # Mostly away from the unit's row and column, which the first check guards.
    positions = st.one_of(
        st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(0, 3)),
        st.tuples(*[st.integers(0, 3)] * 3))
    for i, j, k in draw(st.lists(positions, min_size=1, max_size=3)):
        x = 16 * i + 4 * j + k
        if domain is not QQ and draw(st.booleans()):
            # The least residue plus p as a plain int: the same element.
            constants[x] = domain(constants[x]).value + domain.p
        else:
            constants[x] = domain(draw(scalars))
    return type(alg)(domain=domain, constants=tuple(constants))


@settings(max_examples=300, deadline=None)
@given(alg=corrupted_algebras())
def test_validation_matches_the_full_axiom_check(alg):
    try:
        validate_fiber_algebra(alg)
        message = None
    except InvalidAlgebraError as exc:
        message = str(exc)
    assert message == reference_validation_error(alg)


def with_constant(alg, i, j, k, value):
    """alg with the constant c_ijk (at 16 i + 4 j + k) set to value."""
    constants = list(alg.constants)
    constants[16 * i + 4 * j + k] = value
    return type(alg)(domain=alg.domain, constants=tuple(constants))


def test_a_constant_shifted_by_p_still_validates():
    field = PrimeField(101)
    alg = fiber_algebra([[3, 1, 4], [1, 5, 9], [4, 9, 2]], field)
    for i, j, k in itertools.product(range(4), repeat=3):
        shifted = with_constant(alg, i, j, k,
                                alg.constants[16 * i + 4 * j + k].value + field.p)
        validate_fiber_algebra(shifted)
        assert reference_validation_error(shifted) is None


# The 30 positions c_ijk (at 16 i + 4 j + k) whose generic constant is 0.
GENERIC_ZEROS = [x for x, d in enumerate(clifford._constant_plan()[-1]) if d is None]


def axiom_outcome(t, one, p, plan=None):
    """The message of ``_check_axioms`` on t, or None; with ``plan`` "full"
    or "live", every table goes through that associator plan."""
    associator_plan = clifford._associator_plan
    forced = (associator_plan if plan is None
              else lambda live: associator_plan(plan == "live"))
    try:
        with unittest.mock.patch.object(clifford, "_associator_plan", forced):
            clifford._check_axioms(t, one, p)
    except InvalidAlgebraError as exc:
        return str(exc)
    return None


@st.composite
def fiber_tables(draw):
    """64 flat int constants as ``fiber_at`` and ``validate_fiber_algebra``
    pass them, with ``one`` and p: the table of six random entries (over Q
    times a common scalar ``one``), then as drawn one live constant
    perturbed, or one generic zero made nonzero."""
    p = draw(st.sampled_from((3, 101, 0)))
    one = 1 if p else draw(st.sampled_from((1, 2, 6)))
    entries = draw(st.lists(st.integers(-30, 30), min_size=6, max_size=6))
    t = [x % p if p else x * one for x in clifford._int_constants(entries)]
    kind = draw(st.sampled_from(("table", "live", "generic zero")))
    if kind != "table":
        x = draw(st.sampled_from(GENERIC_ZEROS if kind == "generic zero"
                                 else sorted(set(range(64)) - set(GENERIC_ZEROS))))
        delta = draw(st.integers(1, (p or 7) - 1))
        t[x] = (t[x] + delta) % p if p else t[x] + delta
    return kind, t, one, p


@settings(max_examples=300, deadline=None)
@given(case=fiber_tables())
def test_the_live_axiom_plan_matches_the_full_plan(case):
    kind, t, one, p = case
    got = axiom_outcome(t, one, p)
    assert got == axiom_outcome(t, one, p, "full")
    if kind != "generic zero":
        assert got == axiom_outcome(t, one, p, "live")
    if kind == "table":
        assert got is None


def test_fiber_at_takes_the_live_axiom_plan():
    """Every table fiber_at builds has its generic zeros at 0."""
    associator_plan = clifford._associator_plan

    def live_only(live):
        assert live, "the full axiom plan ran"
        return associator_plan(live)

    field = PrimeField(7)
    forms = [make_type(tag, domain=field, seed=7) for tag in ("F23", "F24", "F25minus")]
    with unittest.mock.patch.object(clifford, "_associator_plan", live_only):
        for coords in qform.plane_points(7):
            point = FiberPoint.make(field, coords)
            for q in forms:
                fiber_at(q, point)


def test_validation_and_classification_need_scalar_constants(ring_q):
    """A global algebra multiplies, but its constants lower to no ints."""
    alg = fiber_algebra(diag_form(ring_q).matrix.entries, ring_q)
    message = f"^no plain ints under the elements of {re.escape(repr(ring_q))}$"
    for check in (validate_fiber_algebra, classify):
        with pytest.raises(TypeError, match=message):
            check(alg)


def test_a_noncentral_anticommutator_is_refused():
    """Unital and associative, with e1 e1 = e2 the only nonzero product of
    traceless basis elements: the anticommutator 2 e2 is not central."""
    field = PrimeField(101)
    e = [tuple(field(int(k == n)) for k in range(4)) for n in range(4)]
    zero = tuple(field.zero for _ in range(4))
    constants = tuple(x for i in range(4) for j in range(4)
                      for x in (e[i + j] if 0 in (i, j) else e[2] if i == j == 1 else zero))
    alg = FiberAlgebra(domain=field, constants=constants)
    message = "anticommutator of traceless elements 1,1 is not central"
    assert reference_validation_error(alg) == message
    with pytest.raises(InvalidAlgebraError, match=f"^{message}$"):
        validate_fiber_algebra(alg)


def test_constants_that_are_not_4x4x4_are_refused():
    """63 or 65 flat constants, or the 64 nested 4x4x4."""
    field = PrimeField(101)
    c = fiber_algebra([[3, 1, 4], [1, 5, 9], [4, 9, 2]], field).constants
    nested = tuple(tuple(c[x:x + 4] for x in range(16 * i, 16 * i + 16, 4))
                   for i in range(4))
    for constants in (c[:63], c + (field.zero,), nested):
        with pytest.raises(InvalidAlgebraError, match="^structure constants are not 4x4x4$"):
            validate_fiber_algebra(FiberAlgebra(domain=field, constants=constants))


def test_a_wrong_number_of_constants_is_refused_when_built():
    """63 constants are refused before any product is read, not only by
    the validation."""
    field = PrimeField(101)
    c = fiber_algebra([[3, 1, 4], [1, 5, 9], [4, 9, 2]], field).constants
    with pytest.raises(InvalidAlgebraError, match="^structure constants are not 4x4x4$"):
        FiberAlgebra(domain=field, constants=c[:63])


def test_validation_does_no_element_arithmetic(monkeypatch):
    """Past the unit check the constants are plain ints."""
    field = PrimeField(101)
    q = make_type("F25minus", domain=field, seed=7)
    alg = fiber_algebra_at(q, FiberPoint.make(field, (1, 2, 3)))
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__",
                 "__mul__", "__rmul__"):
        def counted(self, other, _original=getattr(FpElement, name), _name=name):
            calls.append(_name)
            return _original(self, other)
        monkeypatch.setattr(FpElement, name, counted)
    validate_fiber_algebra(alg)
    with pytest.raises(InvalidAlgebraError):
        validate_fiber_algebra(with_constant(alg, 1, 2, 3, field(17)))
    assert calls == []
    alg.multiply(alg.basis(1), alg.basis(2))
    assert "__mul__" in calls and "__add__" in calls


def test_classify_lowers_each_algebra_once(monkeypatch):
    """Validation and classification share one lowering of the 64
    constants, on the F25plus fibers the benchmark's chain classifies."""
    lowered = []

    def counted(domain, values, _original=clifford.lower):
        lowered.append(len(values))
        return _original(domain, values)

    for dom in (PrimeField(101), QQ):
        prov = make_f25plus(make_net(domain=dom, seed=7))
        for coords in ((1, 2, 3), (0, 1, 4), (1, 0, 0)):
            alg = fiber_algebra(prov.fiber_form(FiberPoint.make(dom, coords)), dom)
            with monkeypatch.context() as m:
                m.setattr(clifford, "lower", counted)
                lowered.clear()
                classify(alg)
            assert lowered == [64]


# -------------------------------------------------------------- cayley-hamilton

def test_cayley_hamilton_unit():
    alg = fiber_algebra([[1, 0, 0], [0, 2, 0], [0, 0, 3]], QQ)
    assert cayley_hamilton_check(alg, (1, 0, 0, 0))


def test_cayley_hamilton_basis_and_random(ring_f101):
    rng = random.Random(19)
    field = ring_f101.domain
    for seed in range(3):
        q = make_type("F25minus", domain=field, seed=seed)
        for coords in ((1, 0, 0), (1, 1, 0), (2, 3, 1)):
            alg = fiber_algebra_at(q, FiberPoint.make(field, coords))
            for k in range(4):
                assert cayley_hamilton_check(alg, alg.basis(k))
            for _ in range(25):
                vec = tuple(field.random(rng) for _ in range(4))
                assert cayley_hamilton_check(alg, vec)


def test_cayley_hamilton_negative_control():
    alg = fiber_algebra([[1, 0, 0], [0, 1, 0], [0, 0, 1]], QQ)
    # Zbar^2 picks up a spurious Xbar component.
    broken = with_constant(alg, 3, 3, 1, Fraction(5))
    assert not cayley_hamilton_check(broken, broken.basis(3))


# -------------------------------------------------------------------- azumaya

def test_azumaya_examples(ring_q):
    q = diag_form(ring_q)
    assert azumaya_at(q, FiberPoint.make(QQ, (1, 1, 1)))
    assert not azumaya_at(q, FiberPoint.make(QQ, (0, 1, 1)))


def test_azumaya_exhaustive_f5(ring_f5):
    q = diag_form(ring_f5)
    disc = discriminant(q)
    for p in projective_points(ring_f5.domain):
        assert azumaya_at(q, p) == bool(disc.evaluate(p.coords))


# ------------------------------------------------------------------- fiber_at

@functools.cache
def catalog_form(tag, domain, seed):
    """A catalog form and, over F_p, the points of P^2(F_p) on its
    discriminant curve."""
    q = make_type(tag, domain=domain, seed=seed)
    if domain is QQ:
        return q, []
    columns = plane_values(domain, [discriminant(q)])
    return q, [point for points, (values,) in columns
               for point, x in zip(points, values) if not x % domain.p]


@st.composite
def catalog_fibers(draw):
    """A catalog F23, F24 or F25minus form (seeds 0-2) over F_3, F_5, F_101
    or Q and a point of P^2; over F_p, half the draws that can take a point
    on the discriminant curve do."""
    domain = draw(st.sampled_from((PrimeField(3), PrimeField(5), PrimeField(101), QQ)))
    tag = draw(st.sampled_from(("F23", "F24", "F25minus")))
    q, zeros = catalog_form(tag, domain, draw(st.integers(0, 2)))
    if zeros and draw(st.booleans()):
        coords = draw(st.sampled_from(zeros))
    else:
        coords = draw(st.lists(st.integers(-20, 20), min_size=3, max_size=3)
                      .filter(lambda xs: any(map(domain, xs))))
    return q, FiberPoint.make(domain, coords)


@settings(max_examples=150, deadline=None)
@given(case=catalog_fibers())
def test_fiber_at_agrees_with_the_polynomial_route(case):
    q, p = case
    rank, algebra = fiber_at(q, p)
    assert rank == linalg.rank(q.matrix.evaluate(p.coords), q.domain)
    assert (rank == 3) == bool(discriminant(q).evaluate(p.coords))
    assert algebra == 4 - rank


def test_a_fiber_job_builds_no_polynomial_product(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a polynomial product was built")

    calls = []

    def counted(polys, point, domain):
        calls.append(len(polys))
        return lowered_values(polys, point, domain)

    monkeypatch.setattr(HomogPoly, "__mul__", refuse)
    monkeypatch.setattr(qform, "discriminant", refuse)
    monkeypatch.setattr(clifford, "lowered_values", counted)
    for spec in ("rational", {"prime": 5}):
        path = tmp_path / "diag.json"
        path.write_text(json.dumps({
            "scalar_domain": spec,
            "form": {"a": [0, 0, 0], "d": 1, "entries": ["u", "0", "0", "v", "0", "w"]},
        }), encoding="utf-8")
        for point, rank in (("1:2:3", 3), ("1:1:0", 2), ("1:0:0", 1)):
            calls.clear()
            assert main(["fiber", str(path), "--point", point]) == 0
            assert json.loads(capsys.readouterr().out)["payload"]["rank"] == rank
            assert calls == [6]


def test_a_classify_job_builds_no_fiber_algebra(tmp_path, capsys, monkeypatch):
    """classify runs fiber_at: no boxed evaluation and no FiberAlgebra."""
    def refuse(*args):
        raise AssertionError("the boxed route was taken")

    monkeypatch.setattr(clifford, "fiber_algebra", refuse)
    monkeypatch.setattr(HomogPoly, "evaluate", refuse)
    for spec in ("rational", {"prime": 5}):
        path = tmp_path / "diag.json"
        path.write_text(json.dumps({
            "scalar_domain": spec,
            "form": {"a": [0, 0, 0], "d": 1, "entries": ["u", "0", "0", "v", "0", "w"]},
        }), encoding="utf-8")
        for point, algebra in (("1:2:3", 1), ("1:1:0", 2), ("1:0:0", 3)):
            assert main(["classify", str(path), "--point", point]) == 0
            assert json.loads(capsys.readouterr().out)["payload"]["algebra_type"] == algebra


# The boxed route: validate_fiber_algebra and classify as they were before
# the fiber path moved to plain ints, copied verbatim but for their names
# (and the validation that classify calls) and for reading the constants
# flat (c_ijk at 16 i + 4 j + k); the oracle of the int kernels.

def boxed_validate_fiber_algebra(alg: FiberAlgebra) -> None:
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
    if len(c) != 64:
        raise InvalidAlgebraError("structure constants are not 4x4x4")
    basis = [alg.basis(k) for k in range(4)]
    for j in range(4):
        if c[4 * j:4 * j + 4] != basis[j] or c[16 * j:16 * j + 4] != basis[j]:
            raise InvalidAlgebraError("basis element 0 is not a two-sided unit")
    flat, _ = lower(alg.domain, c)
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


def boxed_classify(alg: FiberAlgebra) -> AlgebraType:
    """Isomorphism type of a rank-4 algebra with trace, over F_p or Q.

    The algebra is validated first, so a PolyRing domain raises TypeError;
    everything after that reads the structure constants only.  Case split on the rank r of the trace pairing
    P restricted to the traceless part: r >= 2 is central simple; r = 0 is
    type 4 unless some product of traceless basis elements survives (type
    3); r = 1 is the quiver algebra iff tr(L_x) = sum_k c_ikk != 0, where
    x = e_i is the first traceless basis element with a = P_ii != 0, and
    type 2 otherwise.  Validation makes P symmetric (checked), and r is
    found by Gaussian elimination on the boxed pairing (``linalg.rank``).

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
    boxed_validate_fiber_algebra(alg)
    c = alg.constants
    pairing = trace_pairing_fiber(alg)
    if any(pairing[i][j] != pairing[j][i] for i in range(3) for j in range(i)):
        raise InternalInvariantError("trace pairing of a valid algebra is asymmetric")
    r = linalg.rank(pairing, alg.domain)
    if r >= 2:
        return AlgebraType.CENTRAL_SIMPLE
    if r == 0:
        for i in range(1, 4):
            for j in range(1, 4):
                if any(c[16 * i + 4 * j:16 * i + 4 * j + 4]):
                    return AlgebraType.DOUBLE_LINE_CLIFFORD
        return AlgebraType.LOCAL_COMMUTATIVE
    # r == 1: a rank-1 symmetric pairing always has a nonzero diagonal entry
    # away from characteristic 2.
    pivot = next((i for i in range(3) if pairing[i][i]), None)
    if pivot is None:
        raise InternalInvariantError("rank-1 pairing with zero diagonal")
    # c_xkk for x = e_(pivot + 1) sum to tr(L_x).
    if sum((c[16 * (pivot + 1) + 5 * k] for k in range(4)), alg.domain.zero):
        return AlgebraType.KRONECKER_QUIVER
    return AlgebraType.DEGENERATE_CLIFFORD



@st.composite
def fiber_cases(draw):
    """A form and a point of P^2 for fiber_at.  The form is a catalog F23,
    F24 or F25minus form (seeds 0-2) over F_3, F_5, F_101 or Q, or one
    draw in four a form of ``forms()`` (fractional coefficients over Q).
    Over F_p half the draws that can take a point on the discriminant
    curve do; Q points mix denominators."""
    if draw(st.integers(0, 3)) == 0:
        q, zeros = draw(forms()), []
    else:
        domain = draw(st.sampled_from((PrimeField(3), PrimeField(5),
                                       PrimeField(101), QQ)))
        tag = draw(st.sampled_from(("F23", "F24", "F25minus")))
        q, zeros = catalog_form(tag, domain, draw(st.integers(0, 2)))
    domain = q.domain
    if zeros and draw(st.booleans()):
        coords = draw(st.sampled_from(zeros))
    elif domain is QQ:
        value = st.one_of(st.just(0), st.integers(-9, 9), mixed_denominators,
                          st.fractions(min_value=-9, max_value=9, max_denominator=12))
        coords = draw(st.lists(value, min_size=3, max_size=3).filter(any))
    else:
        coords = draw(st.lists(st.integers(-20, 20), min_size=3, max_size=3)
                      .filter(lambda xs: any(map(domain, xs))))
    return q, FiberPoint.make(domain, coords)


@settings(max_examples=300, deadline=None)
@given(case=fiber_cases())
def test_fiber_at_matches_the_boxed_route(case):
    q, p = case
    values = q.matrix.evaluate(p.coords)
    alg = fiber_algebra(values, q.domain)
    expected = boxed_classify(alg)
    rank = linalg.rank(values, q.domain)
    assert fiber_at(q, p) == (rank, expected)
    assert classify(alg) is expected


def test_the_generic_table_is_a_quaternion_ring_identically():
    """Associativity and central anticommutators hold for the generic table
    as polynomial identities in Z[q11, ..., q33], so for every form over
    every commutative ring; validate_fiber_algebra still checks each
    scalar algebra that the specialization builds."""
    q = generic_form()
    assert reference_validation_error(fiber_algebra(q.matrix.entries, q.ring)) is None


def test_a_fiber_call_boxes_nothing_past_the_point(monkeypatch):
    """fiber_at lowers the point once and works on plain ints: over F_101
    it creates at most 3 FpElements, and over Q it makes at most 3
    coercions, the point's coordinates."""
    created, coerced = [], []
    fp_init, qq_call = FpElement.__init__, type(QQ).__call__

    def counted_init(self, value, p):
        created.append(value)
        fp_init(self, value, p)

    def counted_call(self, x):
        coerced.append(x)
        return qq_call(self, x)

    cases = []
    for tag in ("F24", "F25minus"):
        q, zeros = catalog_form(tag, PrimeField(101), 7)
        cases += [(q, created, FiberPoint.make(q.domain, c))
                  for c in [(1, 2, 3), (5, 7, 1), (1, 0, 0)] + zeros[:3]]
        q, _ = catalog_form(tag, QQ, 7)
        cases += [(q, coerced, FiberPoint.make(QQ, c))
                  for c in [(1, 2, 3), (Fraction(1, 2), Fraction(-2, 3), 1),
                            (Fraction(3, 7), 1, 0)]]
    monkeypatch.setattr(FpElement, "__init__", counted_init)
    monkeypatch.setattr(type(QQ), "__call__", counted_call)
    for q, calls, p in cases:
        created.clear()
        coerced.clear()
        fiber_at(q, p)
        assert len(calls) <= 3


# ------------------------------------------------------------- hilbert series

def test_hilbert_f23(ring_q):
    q = diag_form(ring_q)
    s = gamma_hilbert_series(q)
    assert s.numerator == (1, 0, 3)
    coeffs = series_expand(s, 4)
    assert coeffs[0] == 1
    assert coeffs[2] == 6


def test_hilbert_f24_and_f25minus(ring_f101):
    dom = ring_f101.domain
    f24 = gamma_hilbert_series(make_type("F24", domain=dom, seed=0))
    assert f24.numerator == (1, 0, 2, 0, 1)
    f25 = gamma_hilbert_series(make_type("F25minus", domain=dom, seed=0))
    assert f25.numerator == (1, 0, 1, 0, 2)


def test_hilbert_brute_force_agreement(ring_f101):
    dom = ring_f101.domain
    for tag in ("F23", "F24", "F25minus"):
        q = make_type(tag, domain=dom, seed=1)
        coeffs = series_expand(gamma_hilbert_series(q), 12)
        for n in range(0, 13, 2):
            assert gamma_dimension_bruteforce(q, n) == coeffs[n]


def test_hilbert_brute_force_rejects_odd(ring_q):
    with pytest.raises(OddDegreeError):
        gamma_dimension_bruteforce(diag_form(ring_q), 3)
    assert gamma_dimension_bruteforce(diag_form(ring_q), 0) == 1
