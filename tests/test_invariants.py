"""Integer invariants: chi, Chern classes, the two -K^3 routes, the table."""

import dataclasses

import pytest

from cliffbundle import (
    CATALOG,
    BundleDescriptor,
    DelPezzoTag,
    CotangentTwist,
    LineBundle,
    chern_c1_c2,
    chi_O,
    chi_bundle,
    chi_top_conic_bundle,
    chi_top_plane_curve,
    minus_k3_via_chern,
    minus_k3_via_chern_printed,
    minus_k3_via_euler,
    report,
)
from cliffbundle.catalog import ResolutionData
from cliffbundle.errors import InconsistentInvariantsError, UnknownTagError
from cliffbundle.invariants import chi_cotangent, minus_k3_via_chern_p2

TABLE = {
    "F23": dict(d=3, c2=3, chi=0, k3=30, h12=0),
    "F24": dict(d=4, c2=5, chi=0, k3=24, h12=2),
    "F25plus": dict(d=5, c2=9, chi=-1, k3=16, h12=5),
    "F25minus": dict(d=5, c2=8, chi=0, k3=18, h12=5),
}


def test_chi_O_values():
    assert chi_O(0) == 1
    assert chi_O(-1) == 0
    assert chi_O(-3) == 1
    assert chi_O(2) == 6


def test_chi_O_serre_duality():
    for n in range(-12, 13):
        assert chi_O(n) == chi_O(-3 - n)


def test_chi_cotangent():
    assert chi_cotangent(0) == -1  # h^1(Omega^1) = 1
    assert chi_cotangent(1) == 0
    assert chi_cotangent(-1) == 3 * chi_O(-2) - chi_O(-1)


def test_chi_bundle_examples():
    assert chi_bundle(BundleDescriptor.of(*[LineBundle(-1)] * 3)) == 0
    assert chi_bundle(BundleDescriptor.of(CotangentTwist(0), LineBundle(-2))) == -1
    assert chi_bundle(BundleDescriptor.of(LineBundle(-2), LineBundle(-1),
                                          LineBundle(-1))) == 0


def test_chi_bundle_additive():
    left = BundleDescriptor.of(LineBundle(2), CotangentTwist(1))
    right = BundleDescriptor.of(LineBundle(-4))
    both = BundleDescriptor(left.summands + right.summands)
    for twist in (-2, 0, 3):
        assert chi_bundle(both, twist) == chi_bundle(left, twist) + chi_bundle(right, twist)


def test_chern_examples():
    assert chern_c1_c2(BundleDescriptor.of(*[LineBundle(-1)] * 3)) == (-3, 3)
    assert chern_c1_c2(BundleDescriptor.of(LineBundle(-2), LineBundle(-1),
                                           LineBundle(-1))) == (-4, 5)
    assert chern_c1_c2(BundleDescriptor.of(CotangentTwist(0), LineBundle(-2))) == (-5, 9)
    assert chern_c1_c2(BundleDescriptor.of(LineBundle(-2), LineBundle(-2),
                                           LineBundle(-1))) == (-5, 8)


def test_chern_trivial_summand_is_noop():
    b = BundleDescriptor.of(CotangentTwist(0), LineBundle(-2))
    assert chern_c1_c2(b, plus_trivial_summand=True) == chern_c1_c2(b)


def test_chern_cotangent_is_euler_sequence_consistent():
    # c(Omega^1(n)) from twisting: c1 = 2n - 3, c2 = n^2 - 3n + 3
    assert chern_c1_c2(BundleDescriptor.of(CotangentTwist(0))) == (-3, 3)
    assert chern_c1_c2(BundleDescriptor.of(CotangentTwist(1))) == (-1, 1)
    assert chern_c1_c2(BundleDescriptor.of(CotangentTwist(2))) == (1, 1)


def test_minus_k3_examples():
    assert minus_k3_via_euler(3, 0) == 30
    assert minus_k3_via_euler(5, -1) == 16
    assert minus_k3_via_euler(5, 0) == 18
    assert minus_k3_via_chern_p2(3, 3) == 30
    assert minus_k3_via_chern_p2(4, 5) == 24
    assert minus_k3_via_chern_p2(5, 9) == 16
    assert minus_k3_via_chern(9, -9, 9, 3) == 30  # d = 3 spelled out


def test_printed_coefficient_disagrees_on_every_row():
    for row in TABLE.values():
        printed = minus_k3_via_chern_printed(9, -3 * row["d"], row["d"] ** 2,
                                             row["c2"])
        assert printed != minus_k3_via_euler(row["d"], row["chi"])
        assert printed - row["k3"] == row["c2"]


def test_chi_top_examples():
    assert chi_top_plane_curve(3) == 0
    assert chi_top_plane_curve(3, nodes=1) == 1
    assert chi_top_plane_curve(1) == 2
    assert chi_top_plane_curve(5) == -10
    assert chi_top_conic_bundle(3, 0) == 6
    assert chi_top_conic_bundle(3, -10) == -4
    with pytest.raises(ValueError):
        chi_top_plane_curve(0)


@pytest.mark.parametrize("tag", sorted(TABLE))
def test_report_rows(tag):
    row = TABLE[tag]
    rep = report(tag)
    assert rep["type"] == tag
    assert rep["d"] == row["d"]
    assert rep["c2"] == row["c2"]
    assert rep["chi_A_over_O"] == row["chi"]
    assert rep["minus_K3"] == row["k3"]
    assert rep["h12"] == row["h12"]
    assert rep["c1"] == -row["d"]


def test_report_rejects_unknown_tag():
    with pytest.raises(UnknownTagError):
        report("F26")


@pytest.mark.parametrize("tag, change, message", [
    (DelPezzoTag.F23, dict(disc_degree=4),
     "F23: Euler route gives 24, Chern route gives 28"),
    # O + O(-1) + O(-1) at d = 1: both routes give 44, but c1 = -2.
    (DelPezzoTag.F23, dict(disc_degree=1, resolution=ResolutionData(
        source=BundleDescriptor.of(),
        target=BundleDescriptor.of(LineBundle(0), LineBundle(-1), LineBundle(-1)))),
     "F23: c1 = -2 but the discriminant degree is 1"),
    (DelPezzoTag.F24, dict(h12=3),
     r"F24: chi_top\(X\) = 2 gives h12 = 2, the table says 3"),
])
def test_report_refuses_a_row_that_disagrees(monkeypatch, tag, change, message):
    monkeypatch.setitem(CATALOG, tag, dataclasses.replace(CATALOG[tag], **change))
    with pytest.raises(InconsistentInvariantsError, match=f"^{message}$"):
        report(tag)
