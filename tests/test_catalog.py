"""Catalog constructors: degree patterns, nets, the projected F25plus type."""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cliffbundle import (
    CATALOG,
    DelPezzoTag,
    FiberPoint,
    PolyMatrix,
    PrimeField,
    QQ,
    QuadricNet,
    chi_bundle,
    discriminant,
    linalg,
    make_f25plus,
    make_net,
    make_type,
    net_from_upper,
    new_qform,
    projective_points,
)
from cliffbundle import catalog
from cliffbundle.errors import (
    DegenerateAfterRetriesError,
    DegreePatternError,
    UnknownTagError,
)
from cliffbundle.invariants import CotangentTwist, LineBundle
from conftest import plane_values, uvw


def test_make_type_diag_f23(ring_q):
    u, v, w = uvw(ring_q)
    z = ring_q.zero
    data = CATALOG[DelPezzoTag.F23]
    q = new_qform(data.a, data.d, [[u, z, z], [z, v, z], [z, z, w]])
    assert discriminant(q).degree == 3


def test_f25minus_seed42_entry_degrees():
    q = make_type("F25minus", domain=PrimeField(101), seed=42)
    degs = [[q.entry(i, j).degree for j in range(3)] for i in range(3)]
    assert degs == [[1, 1, 2], [1, 1, 2], [2, 2, 3]]


def test_make_type_rejects_wrong_degree(ring_q):
    u, v, w = uvw(ring_q)
    cubic = u * v * w
    data = CATALOG[DelPezzoTag.F24]
    with pytest.raises(DegreePatternError):
        new_qform(data.a, data.d, [[ring_q.one, u, u],
                                   [u, cubic, u * v],
                                   [u, u * v, v * w]])


def test_make_type_rejects_projected_tag():
    with pytest.raises(UnknownTagError):
        make_type("F25plus", domain=QQ, seed=0)
    with pytest.raises(UnknownTagError):
        make_type("F99", domain=QQ, seed=0)


def test_make_type_seeded_determinism():
    a = make_type("F24", domain=PrimeField(101), seed=9)
    b = make_type("F24", domain=PrimeField(101), seed=9)
    assert a == b
    c = make_type("F24", domain=PrimeField(101), seed=10)
    assert a != c


def test_make_type_nondegenerate_over_small_field():
    for seed in range(10):
        q = make_type("F23", domain=PrimeField(5), seed=seed)
        assert not discriminant(q).is_zero


# ---------------------------------------------------------------------- nets

def test_make_net_normalized_position():
    net = make_net(domain=PrimeField(5), seed=7)
    ring = net.ring
    u, v, w = uvw(ring)
    last = [u, v, w, ring.zero, ring.zero]
    for j in range(5):
        assert net.matrix.entry(4, j) == last[j]
        assert net.matrix.entry(j, 4) == last[j]
    assert net.matrix.is_symmetric()


def test_net_validation_rejects_bad_position(ring_q):
    u, v, w = uvw(ring_q)
    z = ring_q.zero
    entries = [u] * 15
    with pytest.raises(DegreePatternError):
        net_from_upper(ring_q, entries)


def test_a_net_is_a_symmetric_5x5_matrix_of_linear_forms(ring_q):
    u, _, _ = uvw(ring_q)
    rows = [list(row) for row in make_net(domain=QQ, seed=1).matrix.entries]
    square4 = [row[:4] for row in rows[:4]]
    asymmetric = [row[:] for row in rows]
    asymmetric[0][1] = asymmetric[0][1] + u
    quadratic = [row[:] for row in rows]
    quadratic[0][0] = u * u
    for grid, error, message in [
            (square4, ValueError, "a net needs a 5x5 matrix"),
            (asymmetric, ValueError, "net matrix must be symmetric"),
            (quadratic, DegreePatternError, "net entries must be linear or zero")]:
        with pytest.raises(error, match=f"^{message}$"):
            QuadricNet(matrix=PolyMatrix(grid))


def test_generation_gives_up_after_its_retries(monkeypatch):
    tries = catalog.GENERATION_RETRIES
    monkeypatch.setattr(catalog, "discriminant", lambda q: q.ring.zero)
    with pytest.raises(DegenerateAfterRetriesError,
                       match=f"^no nondegenerate F23 form after {tries} tries$"):
        make_type("F23", domain=PrimeField(101), seed=1)
    monkeypatch.setattr(catalog, "det", lambda m: m.ring.zero)
    with pytest.raises(DegenerateAfterRetriesError,
                       match=f"^no net with nonzero quintic after {tries} tries$"):
        make_net(domain=PrimeField(101), seed=1)


def test_net_quintic_degree():
    prov = make_f25plus(make_net(domain=PrimeField(101), seed=3))
    assert prov.det5.degree == 5


def test_f25plus_degeneracy_matches_quintic_f5():
    field = PrimeField(5)
    prov = make_f25plus(make_net(domain=field, seed=7))
    for p in projective_points(field):
        assert prov.degenerate_at(p) == (not prov.det5.evaluate(p.coords))
        assert prov.rank_at(p) == linalg.rank(prov.fiber_form(p), field)


def test_f25plus_rank3_off_quintic_and_symmetric():
    field = PrimeField(101)
    prov = make_f25plus(make_net(domain=field, seed=1))
    rng = random.Random(5)
    seen_rank3 = False
    for _ in range(40):
        coords = [field.random(rng) for _ in range(3)]
        if not any(coords):
            continue
        p = FiberPoint.make(field, coords)
        form = prov.fiber_form(p)
        assert all(form[i][j] == form[j][i] for i in range(3) for j in range(3))
        if prov.det5.evaluate(p.coords):
            assert prov.rank_at(p) == 3
            seen_rank3 = True
    assert seen_rank3


def kernel_route_form(net, p):
    """The F25plus form by elimination: x^T A y over the kernel basis of the
    row p^T A, with the direction of the projection point dropped."""
    dom = net.domain
    a = net.matrix.evaluate(p.coords)
    basis = [v for v in linalg.kernel_basis([a[4]], dom) if not v[4]]
    return [[sum((x[i] * a[i][j] * y[j] for i in range(5) for j in range(5)),
                 dom.zero) for y in basis] for x in basis]


@functools.lru_cache(maxsize=None)
def cached_provider(domain, seed):
    return make_f25plus(make_net(domain=domain, seed=seed))


@functools.lru_cache(maxsize=None)
def quintic_points(domain, seed):
    """The points of P^2(F_p) on det5 = 0, as triples of least residues."""
    p = domain.p
    return [point for points, (values,) in
            plane_values(domain, [cached_provider(domain, seed).det5])
            for point, value in zip(points, values) if not value % p]


@st.composite
def net_points(draw):
    dom = draw(st.sampled_from([PrimeField(3), PrimeField(5), PrimeField(101), QQ]))
    seed = draw(st.integers(0, 40))
    if dom is QQ:
        coords = [Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 7)))
                  for _ in range(3)]
    elif draw(st.booleans()) and quintic_points(dom, seed):
        coords = draw(st.sampled_from(quintic_points(dom, seed)))
    else:
        coords = [draw(st.integers(0, dom.p - 1)) for _ in range(3)]
    if not any(coords):
        coords[2] = 1
    return cached_provider(dom, seed), FiberPoint.make(dom, coords)


@settings(max_examples=300, deadline=None)
@given(case=net_points())
def test_f25plus_fiber_form_matches_the_kernel_route(case):
    prov, p = case
    form = kernel_route_form(prov.net, p)
    assert prov.fiber_form(p) == form
    assert prov.rank_at(p) == linalg.rank(form, prov.net.domain)


def test_f25plus_fibers_need_no_elimination(monkeypatch):
    """No elimination anywhere, and the ranks box nothing: they read the
    six values as ints."""
    def refuse(*args):
        raise AssertionError("elimination or boxing called")

    monkeypatch.setattr(linalg, "rref", refuse)
    monkeypatch.setattr(linalg, "kernel_basis", refuse)
    for dom in (PrimeField(5), PrimeField(101), QQ):
        prov = make_f25plus(make_net(domain=dom, seed=2))
        for coords in ((1, 2, 3), (0, 1, 4), (0, 0, 1), (Fraction(1, 2), 0, 3)):
            p = FiberPoint.make(dom, [dom(c) for c in coords])
            assert len(prov.fiber_form(p)) == 3
            on_quintic = not prov.det5.evaluate(p.coords)
            with monkeypatch.context() as m:
                m.setattr(type(dom), "from_pair", refuse)
                assert (prov.rank_at(p) < 3) == prov.degenerate_at(p) == on_quintic


def test_f25plus_fiber_feeds_clifford():
    from cliffbundle import AlgebraType, classify, fiber_algebra

    field = PrimeField(101)
    prov = make_f25plus(make_net(domain=field, seed=1))
    p = FiberPoint.make(field, (1, 2, 3))
    alg = fiber_algebra(prov.fiber_form(p), field)
    t = classify(alg)
    expected = AlgebraType.CENTRAL_SIMPLE if prov.det5.evaluate(p.coords) \
        else AlgebraType.DEGENERATE_CLIFFORD
    assert t is expected


# ------------------------------------------------------------------ metadata

def test_resolution_examples():
    r23 = CATALOG[DelPezzoTag.F23].resolution
    assert r23.source.summands == (LineBundle(-2),) * 3
    assert r23.target.summands == (LineBundle(-1),) * 3
    r24 = CATALOG[DelPezzoTag.F24].resolution
    assert r24.source.summands == (LineBundle(-2), LineBundle(-3), LineBundle(-3))
    assert r24.target.summands == (LineBundle(-2), LineBundle(-1), LineBundle(-1))
    r25p = CATALOG[DelPezzoTag.F25_PLUS].resolution
    assert r25p.source.summands == (CotangentTwist(-2), LineBundle(-3))
    assert r25p.target.summands == (CotangentTwist(0), LineBundle(-2))


def test_vstar_chi_values():
    expected = {DelPezzoTag.F23: 0, DelPezzoTag.F24: 0,
                DelPezzoTag.F25_PLUS: -1, DelPezzoTag.F25_MINUS: 0}
    for tag, chi in expected.items():
        assert chi_bundle(CATALOG[tag].vstar) == chi


def test_catalog_patterns_match_table():
    assert CATALOG[DelPezzoTag.F23].a == (0, 0, 0)
    assert CATALOG[DelPezzoTag.F23].d == 1
    assert CATALOG[DelPezzoTag.F24].a == (0, 1, 1)
    assert CATALOG[DelPezzoTag.F24].d == 0
    assert CATALOG[DelPezzoTag.F25_MINUS].a == (0, 0, 1)
    assert CATALOG[DelPezzoTag.F25_MINUS].d == 1
    assert CATALOG[DelPezzoTag.F25_PLUS].a is None
