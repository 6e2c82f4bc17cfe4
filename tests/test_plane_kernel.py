"""The packed-line plane scan against slower routes.

The first oracle is the ``FpElement`` path: ``linalg.rank`` (Gaussian
elimination, not the census's own minor rule) on the evaluated entries,
``HomogPoly.evaluate`` of the discriminant and ``BiPoly.evaluate`` of the
conic equation, each over ``projective_points``.
The second is ``point_walk``, the per-point int walk the packed kernel
replaced: every term evaluated with ``pow`` at every point of
``plane_points``.
The third is ``point_ranks``, the per-point census that the per-line
identity check replaced: the determinant of the six entry values from
``plane_values`` (in conftest) against the discriminant's value at every
point, and the rank at every zero; ``point_census`` tallies it.
"""

import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from cliffbundle import (
    ConicType,
    FiberPoint,
    PolyRing,
    PrimeField,
    conic_equation,
    conic_point_count,
    discriminant,
    is_nowhere_zero,
    linalg,
    new_qform,
    normalize,
    projective_points,
    qform,
    rank_at,
    twist,
)
from cliffbundle.errors import InternalInvariantError, ScanTooLargeError
from cliffbundle.poly import monomials_of_degree
from cliffbundle.qform import CONIC_BY_RANK, FiberCensus, plane_points
from conftest import diag_form, plane_values, uvw

KINDS = ("generic", "rank_deficient", "vanishing", "monomial")
# Forms whose discriminant vanishes on whole lines of the scan, or at many
# points of every line.
LINE_KINDS = ("whole_lines", "many_zeros")


@st.composite
def forms(draw, kind, primes=(3, 5, 7, 11)):
    """Random forms over F_p, p drawn from ``primes``, of one kind.

    generic: random entries for a random degree pattern.
    rank_deficient: c1 l l^T + c2 m m^T for vectors l, m of linear forms,
      so the rank is at most 2 everywhere and the discriminant is zero.
    vanishing: every entry is a linear form through one drawn point, or a
      multiple of one linear form, so the fibers over that point or along
      that line are WholePlane.
    monomial: every entry is a scalar times one monomial of degree up to
      40, so exponents pass p - 1 for the small primes.
    whole_lines, many_zeros: a generic form with every entry, or the first
      row and column, times L, so the discriminant vanishes where L does,
      with rank 0 or rank <= 2 there.  For whole_lines L is a product of
      one or two of w and u - c w, each zero on a whole line of
      ``plane_lines``; for many_zeros L = prod_{c in S} (v - c w) with S a
      drawn set of up to 12 residues, zero at the points t in S of every
      chart line (at every point when S is all of F_p).
    """
    field = PrimeField(draw(st.sampled_from(primes)))
    ring = PolyRing(field)
    scalar = st.integers(0, field.p - 1)

    def poly(degree, exclude=None):
        return ring.poly({e: draw(scalar) for e in monomials_of_degree(3, degree)
                          if e != exclude})

    if kind in ("generic",) + LINE_KINDS:
        a = tuple(draw(st.integers(0, 1)) for _ in range(3))
        d = draw(st.integers(0, 1))
        upper = {(i, j): poly(a[i] + a[j] + d) for i in range(3) for j in range(i, 3)}
        if kind != "generic":
            a, d, upper = _times_factors(draw, ring, kind, a, d, upper)
    elif kind == "rank_deficient":
        a, d = (0, 0, 0), 2
        l = [poly(1) for _ in range(3)]
        m = [poly(1) for _ in range(3)]
        c1, c2 = draw(scalar), draw(scalar)
        upper = {(i, j): l[i] * l[j] * c1 + m[i] * m[j] * c2
                 for i in range(3) for j in range(i, 3)}
    elif kind == "monomial":
        a = tuple(draw(st.integers(0, 10)) for _ in range(3))
        d = draw(st.integers(0, 20))

        def monomial(degree):
            i = draw(st.integers(0, degree))
            j = draw(st.integers(0, degree - i))
            return ring.monomial(draw(scalar), (i, j, degree - i - j))

        upper = {(i, j): monomial(a[i] + a[j] + d)
                 for i in range(3) for j in range(i, 3)}
    elif draw(st.booleans()):
        a, d = (0, 0, 0), 1
        point = draw(st.sampled_from(list(projective_points(field)))).coords
        k = max(i for i in range(3) if point[i])  # point[k] == 1
        unit = tuple(int(i == k) for i in range(3))

        def through_point():
            f = poly(1, exclude=unit)
            return f - ring.monomial(f.evaluate(point), unit)

        upper = {(i, j): through_point() for i in range(3) for j in range(i, 3)}
    else:
        a, d = (0, 0, 0), 1
        line = poly(1)
        upper = {(i, j): line * draw(scalar) for i in range(3) for j in range(i, 3)}
    grid = [[upper[min(i, j), max(i, j)] for j in range(3)] for i in range(3)]
    return new_qform(a, d, grid)


def _times_factors(draw, ring, kind, a, d, upper):
    """The pattern and upper entries of ``forms`` of a LINE_KINDS kind."""
    p = ring.domain.p
    u, v, w = uvw(ring)
    if kind == "whole_lines":
        lines = st.sampled_from([w] + [u - w * c for c in range(p)])
        factors = draw(st.lists(lines, min_size=1, max_size=2))
    else:
        residues = draw(st.sets(st.integers(0, p - 1), min_size=1, max_size=min(p, 12)))
        factors = [v - w * c for c in sorted(residues)]
    product = ring.one
    for factor in factors:
        product = product * factor
    k = len(factors)
    if draw(st.booleans()):
        return a, d + k, {key: f * product for key, f in upper.items()}
    scaled = {}
    for (i, j), f in upper.items():
        for _ in range((i == 0) + (j == 0)):
            f = f * product
        scaled[i, j] = f
    return (a[0] + k, a[1], a[2]), d, scaled


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_kernel_matches_fp_element_path(kind, data):
    q = data.draw(forms(kind))
    points = list(projective_points(q.domain))
    disc = discriminant(q)

    expected = {t: 0 for t in ConicType}
    for p in points:
        values = q.matrix.evaluate(p.coords)
        expected[CONIC_BY_RANK[linalg.rank(values, q.domain)]] += 1
    result = qform.fiber_census(q)
    assert result.counts == expected
    assert result.discriminant_zeros == sum(
        1 for p in points if not disc.evaluate(p.coords))

    witness = next((p for p in points
                    if not any(x for row in q.matrix.evaluate(p.coords) for x in row)),
                   None)
    found = is_nowhere_zero(q)
    assert found.witness == witness
    assert found.nowhere_zero == (witness is None)

    base = data.draw(st.sampled_from(points))
    cq = conic_equation(q)
    assert conic_point_count(q, base) == sum(
        1 for alpha in points if not cq.evaluate(base.coords, alpha.coords))

    if kind == "rank_deficient":
        assert disc.is_zero
    if kind == "vanishing":
        assert expected[ConicType.WHOLE_PLANE] >= 1


def point_ranks(q):
    """The census one point at a time: at each point of ``plane_values``,
    the determinant of the six entry values must equal the discriminant's
    value mod p.  Yields each point with its rank: 3 where the determinant
    is nonzero, else ``linalg.symmetric_rank``."""
    p = q.domain.p
    polys = q.matrix.upper() + (qform.discriminant(q),)
    for points, columns in plane_values(q.domain, polys):
        for point, (a, d, e, b, f, c, disc) in zip(points, zip(*columns)):
            det = (a * (b * c - f * f) - d * (d * c - e * f)
                   + e * (d * f - b * e)) % p
            if det != disc % p:
                raise InternalInvariantError(
                    f"discriminant {disc % p} and determinant {det} of the entry "
                    f"values disagree at {point}")
            yield point, 3 if det else linalg.symmetric_rank((a, d, e, b, f, c), p)


def point_census(q):
    """The tally of ``point_ranks``."""
    by_rank = [0, 0, 0, 0]
    for _, rank in point_ranks(q):
        by_rank[rank] += 1
    return FiberCensus({t: by_rank[r] for r, t in CONIC_BY_RANK.items()},
                       sum(by_rank[:3]))


@pytest.mark.parametrize("kind", KINDS + LINE_KINDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_line_identity_census_matches_point_census(kind, data):
    q = data.draw(forms(kind, primes=(3, 5, 7, 11, 101)))
    assert qform.fiber_census(q) == point_census(q)


def test_plane_points_order_is_pinned():
    assert list(plane_points(3)) == [
        (0, 0, 1), (0, 1, 1), (0, 2, 1), (1, 0, 1), (1, 1, 1), (1, 2, 1),
        (2, 0, 1), (2, 1, 1), (2, 2, 1), (0, 1, 0), (1, 1, 0), (2, 1, 0), (1, 0, 0)]


@pytest.mark.parametrize("kind", KINDS + LINE_KINDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_zero_ranks_yield_each_zero_once_in_plane_order(kind, data):
    # Every zero of the discriminant, once each, in plane_points order,
    # with the rank point_ranks gives; is_nowhere_zero's witness is the
    # first of rank 0.
    q = data.draw(forms(kind, primes=(3, 5, 7, 11, 101)))
    p = q.domain.p
    expected = [(point, rank) for point, rank in point_ranks(q) if rank < 3]
    produced = [(qform.line_point(p, line, t), rank)
                for lines, ts, ranks in qform.zero_ranks(q)
                for line, t, rank in zip(lines, ts, ranks, strict=True)]
    assert produced == expected
    witness = next((point for point, rank in expected if rank == 0), None)
    found = is_nowhere_zero(q)
    assert found.nowhere_zero == (witness is None)
    assert found.witness == (witness and FiberPoint.make(q.domain, witness))


def _planted_message(census_fn, q):
    with pytest.raises(InternalInvariantError) as raised:
        census_fn(q)
    return str(raised.value)


def test_planted_wrong_discriminant_raises(monkeypatch):
    ring = PolyRing(PrimeField(5))
    u, v, w = uvw(ring)
    monkeypatch.setattr(qform, "discriminant", lambda q: u * v * w + u * u * u)
    q = diag_form(ring)
    assert _planted_message(qform.fiber_census, q) == _planted_message(point_census, q)


def _fourth(x):
    return x * x * x * x


@pytest.mark.parametrize("planted, point", [
    # Zero at every point of the chart w = 1 and at (1 : 0 : 0), not on w = 0.
    (lambda u, v, w: _fourth(v) * (_fourth(v) - _fourth(w)), "(0, 1, 0)"),
    # Zero on both lines, not at the corner (1 : 0 : 0).
    (lambda u, v, w: _fourth(u) * (_fourth(u) - _fourth(v)) * (_fourth(u) - _fourth(w)),
     "(1, 0, 0)"),
])
def test_wrong_discriminant_off_the_chart_raises(monkeypatch, planted, point):
    # diag(u, v, 0) has discriminant 0; each planted one vanishes as a
    # function on the chart, though not as a polynomial in its parameter.
    ring = PolyRing(PrimeField(5))
    u, v, w = uvw(ring)
    z = ring.zero
    q = new_qform((0, 0, 0), 1, [[u, z, z], [z, v, z], [z, z, z]])
    monkeypatch.setattr(qform, "discriminant", lambda q: planted(u, v, w))
    message = _planted_message(qform.fiber_census, q)
    assert message == ("discriminant 1 and determinant 0 of the entry values "
                       f"disagree at {point}")
    assert message == _planted_message(point_census, q)


def _zero_on_chart_lines(u, w, count):
    """prod_{a < count} (u - a w): zero on the chart lines (a, t, 1), a < count."""
    product = u
    for a in range(1, count):
        product = product * (u - w * a)
    return product


@pytest.mark.parametrize("p, diagonal, planted, point", [
    # B = max(3 * 1, 5) = 5 < p - 1: det - disc vanishes on the chart lines
    # a < 5, and line 5, the last one the degree bound checks, fails.
    (13, lambda u, v, w: (u, v, w),
     lambda u, v, w: u * v * w * w * w + _zero_on_chart_lines(u, w, 5), "(5, 0, 1)"),
    # The a-degree is 4 = p - 1, so every chart line is checked; only the
    # last one fails.
    (5, lambda u, v, w: (u, v, w),
     lambda u, v, w: u * v * w * w + _zero_on_chart_lines(u, w, 4), "(4, 0, 1)"),
    # B = 3 * 2 comes from the entries: det = prod_{a < 6} (u - a w) is zero
    # on the chart lines a < 6, and the planted discriminant is zero.
    (11, lambda u, v, w: (u * (u - w), (u - w * 2) * (u - w * 3), (u - w * 4) * (u - w * 5)),
     lambda u, v, w: u - u, "(6, 0, 1)"),
])
def test_wrong_discriminant_on_the_last_checked_line_raises(monkeypatch, p, diagonal,
                                                            planted, point):
    ring = PolyRing(PrimeField(p))
    u, v, w = uvw(ring)
    q11, q22, q33 = diagonal(u, v, w)
    z = ring.zero
    q = new_qform((0, 0, 0), q11.degree, [[q11, z, z], [z, q22, z], [z, z, q33]])
    monkeypatch.setattr(qform, "discriminant", lambda q: planted(u, v, w))
    message = _planted_message(qform.fiber_census, q)
    assert message.endswith(f"disagree at {point}")
    assert message == _planted_message(point_census, q)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_planted_discriminants_fail_where_the_point_census_does(data):
    # disc * w^k + c * v^l * prod_{a < n} (u - a w): a fault on w = 0 for
    # k > 0, and on the chart lines a >= n only, up to a-degree p - 1.
    q = data.draw(forms("generic", primes=(3, 5, 7, 11, 13)))
    p = q.domain.p
    u, v, w = uvw(q.ring)
    disc = discriminant(q)
    k = data.draw(st.integers(0, 2))
    n = data.draw(st.integers(1, p))
    degree = max(n, (disc.degree or 0) + k)
    fault = (_zero_on_chart_lines(u, w, n) * q.ring.monomial(1, (0, degree - n, 0))
             * data.draw(st.integers(0, p - 1)))
    planted = disc * q.ring.monomial(1, (0, 0, degree - (disc.degree or 0))) + fault
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qform, "discriminant", lambda q: planted)
        try:
            expected = point_census(q)
        except InternalInvariantError as raised:
            assert _planted_message(qform.fiber_census, q) == str(raised)
        else:
            assert qform.fiber_census(q) == expected


FORCED_MARKS = ("no mark", "one mark", "last slot")


def _with_forced_marks(test):
    for p in (2, 3, 5, 101, 997):
        for forced in FORCED_MARKS:
            test = example(p=p, seed=p, share=0.3, size=997, forced=forced)(test)
    return test


@_with_forced_marks
@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from((2, 3, 5, 7, 101, 997)), seed=st.integers(0, 2 ** 32),
       share=st.sampled_from((0.0, 0.3, 1.0)), size=st.integers(1, 997),
       forced=st.sampled_from((None,) + FORCED_MARKS))
def test_packed_zero_marks_match_remainders(p, seed, share, size, forced):
    # Slots below p^3, a share of them forced to multiples of p, and the
    # extremes p^3 - 1 and p^3 - p; then, if ``forced``, no multiple of p,
    # exactly one among the first ``size`` slots, or one in slot p - 1.
    # The marks are read through ``line_zeros`` on one column whose row B_0
    # is these slots: lines 0..p read every slot, the corner line slot 0.
    rng = random.Random(seed)
    slots = [p * rng.randrange(p * p) if rng.random() < share else rng.randrange(p ** 3)
             for _ in range(p)]
    slots[rng.randrange(p)] = p ** 3 - 1
    slots[rng.randrange(p)] = p ** 3 - p
    size = min(size, p)
    if forced:
        slots = [x if x % p else x + 1 for x in slots]
    if forced == "one mark":
        slots[rng.randrange(size)] = p * rng.randrange(p * p)
    if forced == "last slot":
        size, slots[p - 1] = p, p * rng.randrange(p * p)
    rows = qform.PackedLines(p)
    packed = qform.pack_slots(slots)
    rows[0] = packed
    *lines, corner = rows.line_zeros([[1] * (p + 2)])
    assert lines == lines[:1] * (p + 1)
    zeros = lines[0] & (1 << qform.SLOT_BITS * size) - 1
    expected = [t for t, x in enumerate(slots[:size]) if not x % p]
    assert zeros.bit_count() == len(expected)
    assert qform._zero_indices(zeros) == expected
    assert qform._zero_indices(corner) == ([] if slots[0] % p else [0])
    assert len(expected) == {"no mark": 0, "one mark": 1}.get(forced, len(expected))
    assert forced != "last slot" or expected[-1] == p - 1
    assert rows.reduce(packed) == qform.pack_slots([x % p for x in slots])


def test_discriminant_zero_on_every_point_reads_whole_lines(monkeypatch):
    # l l^T + 3 m m^T has rank <= 2 everywhere, so its discriminant vanishes
    # at every point: the census reads the entries along each whole line
    # and never visits the zeros one at a time.
    ring = PolyRing(PrimeField(101))
    rng = random.Random(7)
    l, m = ([ring.poly({e: rng.randrange(101) for e in monomials_of_degree(3, 1)})
             for _ in range(3)] for _ in range(2))
    q = new_qform((0, 0, 0), 2, [[l[i] * l[j] + m[i] * m[j] * 3 for j in range(3)]
                                 for i in range(3)])
    assert discriminant(q).is_zero
    expected = point_census(q)

    def one_zero_at_a_time(zeros):
        raise AssertionError("the census visited the zeros one at a time")

    monkeypatch.setattr(qform, "_zero_indices", one_zero_at_a_time)
    assert qform.fiber_census(q) == expected
    assert expected.discriminant_zeros == 101 * 101 + 101 + 1


@pytest.mark.parametrize("p", (3, 7))
def test_a_batch_of_one_zero_is_ranked(p):
    # -1 is no square mod 3 or 7, so n = u^2 + v^2 vanishes only at
    # (0 : 0 : 1), and n^2 + w^4 nowhere.  The forms below, with
    # discriminants n^3 and -n (n^2 + w^4), have that one zero, a batch of
    # one: the first of rank 0, the second of rank 2.
    ring = PolyRing(PrimeField(p))
    u, v, w = uvw(ring)
    n, z = u * u + v * v, ring.zero
    for entries, rank in (([[n, z, z], [z, n, z], [z, z, n]], 0),
                          ([[n, z, z], [z, n, w * w], [z, w * w, -n]], 2)):
        q = new_qform((0, 0, 0), 2, entries)
        assert list(qform.zero_ranks(q)) == [([0], [0], [rank])]
        assert qform.fiber_census(q) == point_census(q)


def test_the_zero_batch_stays_linear_in_p():
    # diag(M u, v, w) with M = prod_{c < 30} (v - c w): the discriminant
    # M u v w vanishes at 30 or 31 points of every chart line, 6,723 zeros
    # at p = 211, nearly all of them batched.  Flushed every p points, the
    # census peaks near 0.4 MB; a batch held whole takes it to 2.6 MB.
    p, k = 211, 30
    ring = PolyRing(PrimeField(p))
    u, v, w = uvw(ring)
    m = u
    for c in range(k):
        m = m * (v - w * c)
    z = ring.zero
    q = new_qform((k // 2, 0, 0), 1, [[m, z, z], [z, v, z], [z, z, w]])
    tracemalloc.start()
    try:
        result = qform.fiber_census(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert result == FiberCensus({ConicType.SMOOTH_CONIC: (p - 1) * (p - k),
                                  ConicType.LINE_PAIR: (k - 1) * p + (p - k) + (p - 1),
                                  ConicType.DOUBLE_LINE: p + 1,
                                  ConicType.WHOLE_PLANE: 1},
                                 k * p + (p - k) + p + 1)


def test_slot_overflow_is_refused(monkeypatch):
    monkeypatch.setattr(qform, "SLOT_BITS", 16)  # 101 * 100^2 > 2^16
    with pytest.raises(InternalInvariantError, match="overflows its slot"):
        qform.fiber_census(diag_form(PolyRing(PrimeField(101))))


def test_line_product_slot_overflow_is_refused(monkeypatch):
    # 127^3 * ceil(2^28 / 127) < 2^43 <= 3 * (127 * 126)^3 + 127 * 126: only
    # the bound on a side of det = disc fails, before anything is packed.
    monkeypatch.setattr(qform, "SLOT_BITS", 43)
    with pytest.raises(InternalInvariantError,
                       match="^a packed line product mod 127 overflows its slot$"):
        qform.fiber_census(diag_form(PolyRing(PrimeField(127))))


def test_barrett_slot_overflow_is_refused(monkeypatch):
    # 101^3 < 2^40, but 101^3 * ceil(2^28 / 101) > 2^40.
    monkeypatch.setattr(qform, "SLOT_BITS", 40)
    with pytest.raises(InternalInvariantError,
                       match="Barrett multiplier overflows its slot"):
        qform.fiber_census(diag_form(PolyRing(PrimeField(101))))


def test_scans_refuse_more_points_than_the_limit():
    field = PrimeField(1009)  # 1009^2 + 1009 + 1 = 1,019,091 points
    q = diag_form(PolyRing(field))
    base = FiberPoint.make(field, (1, 0, 0))
    for scan in (lambda: qform.fiber_census(q), lambda: is_nowhere_zero(q),
                 lambda: conic_point_count(q, base)):
        with pytest.raises(ScanTooLargeError, match="SCAN_POINT_LIMIT"):
            scan()


def point_walk(field, polys):
    """The values mod p of ``polys`` at each point of plane_points, one
    point and one term at a time."""
    p = field.p
    compiled = [[(c.value,) + e for e, c in f.iter_terms()] for f in polys]
    for x, y, z in plane_points(p):
        yield (x, y, z), [sum(c * pow(x, i, p) * pow(y, j, p) * pow(z, k, p)
                              for c, i, j, k in terms) % p
                          for terms in compiled]


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_packed_lines_match_point_walk(kind, data):
    q = data.draw(forms(kind, primes=(3, 5, 101)))
    polys = q.matrix.upper() + (discriminant(q),)
    p = q.domain.p
    packed = []
    for points, columns in plane_values(q.domain, polys):
        points = list(points)  # each line's points come lazily
        assert all(len(column) == len(points) for column in columns)
        packed += [(point, [x % p for x in values])
                   for point, *values in zip(points, *columns)]
    assert packed == list(point_walk(q.domain, polys))


def _witness_form(p, entries):
    ring = PolyRing(PrimeField(p))
    u, v, w = uvw(ring)
    z = ring.zero
    q11, q22 = entries(u, v, w)
    return new_qform((0, 0, 0), 1, [[q11, z, z], [z, q22, z], [z, z, z]])


@pytest.mark.parametrize("p, entries, witness", [
    # u - 2v and w vanish together only at (2 : 1 : 0), and u and w only
    # at (0 : 1 : 0), both on the line w = 0.
    (5, lambda u, v, w: (u - v * 2, w), (2, 1, 0)),
    (101, lambda u, v, w: (u - v * 2, w), (2, 1, 0)),
    (101, lambda u, v, w: (u, w), (0, 1, 0)),
    # v and w vanish together only at (1 : 0 : 0), the last point scanned.
    (5, lambda u, v, w: (v, w), (1, 0, 0)),
    (101, lambda u, v, w: (v, w), (1, 0, 0)),
])
def test_only_whole_plane_point_off_the_chart_is_the_witness(p, entries, witness):
    q = _witness_form(p, entries)
    found = is_nowhere_zero(q)
    assert not found.nowhere_zero
    assert found.witness == FiberPoint.make(q.domain, witness)
    assert qform.fiber_census(q).counts[ConicType.WHOLE_PLANE] == 1


def test_scan_of_huge_exponents_stays_small():
    # diag(u^e, v^e, w^e) has the fibers of diag(u, v, w) over F_p.  The
    # scan reduces exponents by Fermat, so e near EXP_LIMIT costs no table
    # of e powers.
    e = 32766
    ring = PolyRing(PrimeField(101))
    u, v, w = (ring.monomial(1, tuple(e * (i == k) for i in range(3)))
               for k in range(3))
    z = ring.zero
    q = new_qform((0, 0, 0), e, [[u, z, z], [z, v, z], [z, z, w]])
    tracemalloc.start()
    try:
        result = qform.fiber_census(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert result == FiberCensus({ConicType.SMOOTH_CONIC: 100 * 100,
                                  ConicType.LINE_PAIR: 3 * 100,
                                  ConicType.DOUBLE_LINE: 3,
                                  ConicType.WHOLE_PLANE: 0}, 303)


def test_fermat_exponent_is_exact_on_every_residue():
    for p in (3, 5, 7):
        for e in range(4 * p):
            reduced = qform.fermat_exponent(e, p)
            assert reduced < p
            assert all(pow(x, reduced, p) == pow(x, e, p) for x in range(p))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_twist_and_normalize_keep_the_geometry(kind, data):
    q = data.draw(forms(kind))
    point = data.draw(st.sampled_from(list(projective_points(q.domain))))
    expected = (discriminant(q), qform.fiber_census(q), rank_at(q, point))
    for m in range(-3, 4):
        t = twist(q, m)
        assert (discriminant(t), qform.fiber_census(t), rank_at(t, point)) == expected
    n = normalize(q)
    assert (discriminant(n), qform.fiber_census(n), rank_at(n, point)) == expected
