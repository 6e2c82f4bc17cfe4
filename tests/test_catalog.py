"""Catalog constructors: degree patterns, nets, the projected F25plus type."""

import random

import pytest

from cliffbundle import (
    CATALOG,
    DelPezzoTag,
    FiberPoint,
    PrimeField,
    QQ,
    chi_bundle,
    discriminant,
    linalg,
    make_f25plus,
    make_net,
    make_type,
    net_from_upper,
    projective_points,
    resolution_metadata,
)
from cliffbundle.errors import (
    DegreePatternError,
    UnknownTagError,
)
from cliffbundle.invariants import CotangentTwist, LineBundle
from conftest import uvw


def test_make_type_diag_f23(ring_q):
    u, v, w = uvw(ring_q)
    z = ring_q.zero
    q = make_type("F23", entries=[[u, z, z], [z, v, z], [z, z, w]])
    assert discriminant(q).degree == 3


def test_f25minus_seed42_entry_degrees():
    q = make_type("F25minus", domain=PrimeField(101), seed=42)
    degs = [[q.entry(i, j).degree for j in range(3)] for i in range(3)]
    assert degs == [[1, 1, 2], [1, 1, 2], [2, 2, 3]]


def test_make_type_rejects_wrong_degree(ring_q):
    u, v, w = uvw(ring_q)
    cubic = u * v * w
    with pytest.raises(DegreePatternError):
        make_type("F24", entries=[[ring_q.one, u, u],
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
    r23 = resolution_metadata("F23")
    assert r23.source.summands == (LineBundle(-2),) * 3
    assert r23.target.summands == (LineBundle(-1),) * 3
    r24 = resolution_metadata("F24")
    assert r24.source.summands == (LineBundle(-2), LineBundle(-3), LineBundle(-3))
    assert r24.target.summands == (LineBundle(-2), LineBundle(-1), LineBundle(-1))
    r25p = resolution_metadata("F25plus")
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
