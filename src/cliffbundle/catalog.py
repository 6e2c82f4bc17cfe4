"""The minimal del Pezzo quaternion types and their constructors.

Three of the four types are direct degree patterns on P^2:

    F23       a = (0,0,0), d = 1      discriminant degree 3
    F24       a = (0,1,1), d = 0      discriminant degree 4
    F25minus  a = (0,0,1), d = 1      discriminant degree 5

The fourth, F25plus, is not a sum-of-line-bundles form: it arises from a
net of quadrics in P^4 (a symmetric 5x5 matrix of linear forms) by
orthogonal projection away from a common smooth point of the net.  It is
exposed fiberwise only, as a provider of 3x3 scalar forms whose degeneracy
locus is the quintic det5 = 0; all fiber operations accept its output.

``CATALOG`` is the table of the four types, and ``report`` turns one of
its rows into the invariant row the CLI prints, through the formulas of
``invariants``.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from enum import Enum

from . import linalg
from .errors import (
    DegenerateAfterRetriesError,
    DegreePatternError,
    InconsistentInvariantsError,
    UnknownTagError,
)
from .invariants import (
    BundleDescriptor,
    CotangentTwist,
    LineBundle,
    chern_c1_c2,
    chi_bundle,
    chi_top_conic_bundle,
    chi_top_plane_curve,
    minus_k3_via_chern_p2,
    minus_k3_via_euler,
)
from .linalg import symmetric_grid
from .poly import HomogPoly, PolyMatrix, PolyRing, det, lowered_values
from .qform import FiberPoint, QForm, discriminant, qform_from_upper


class DelPezzoTag(Enum):
    F23 = "F23"
    F24 = "F24"
    F25_PLUS = "F25plus"
    F25_MINUS = "F25minus"

    @classmethod
    def coerce(cls, tag) -> "DelPezzoTag":
        if isinstance(tag, cls):
            return tag
        for member in cls:
            if member.value == tag or member.name == tag:
                return member
        raise UnknownTagError(f"unknown del Pezzo tag {tag!r}")


@dataclass(frozen=True)
class ResolutionData:
    """Source and target of the adjusted symmetric resolution of the
    ramification module; the target is the V* of the type."""

    source: BundleDescriptor
    target: BundleDescriptor


@dataclass(frozen=True)
class TypeData:
    tag: DelPezzoTag
    a: tuple | None           # None for the projected type F25plus
    d: int | None
    disc_degree: int
    resolution: ResolutionData
    bs_description: str
    h12: int

    @property
    def vstar(self) -> BundleDescriptor:
        return self.resolution.target


CATALOG = {
    DelPezzoTag.F23: TypeData(
        tag=DelPezzoTag.F23,
        a=(0, 0, 0), d=1, disc_degree=3,
        resolution=ResolutionData(
            source=BundleDescriptor.of(LineBundle(-2), LineBundle(-2), LineBundle(-2)),
            target=BundleDescriptor.of(LineBundle(-1), LineBundle(-1), LineBundle(-1))),
        bs_description="divisor of bidegree (1,2) in P2 x P2",
        h12=0),
    DelPezzoTag.F24: TypeData(
        tag=DelPezzoTag.F24,
        a=(0, 1, 1), d=0, disc_degree=4,
        resolution=ResolutionData(
            source=BundleDescriptor.of(LineBundle(-2), LineBundle(-3), LineBundle(-3)),
            target=BundleDescriptor.of(LineBundle(-2), LineBundle(-1), LineBundle(-1))),
        bs_description="double cover of P1 x P2 ramified in a (2,2) divisor",
        h12=2),
    DelPezzoTag.F25_PLUS: TypeData(
        tag=DelPezzoTag.F25_PLUS,
        a=None, d=None, disc_degree=5,
        resolution=ResolutionData(
            source=BundleDescriptor.of(CotangentTwist(-2), LineBundle(-3)),
            target=BundleDescriptor.of(CotangentTwist(0), LineBundle(-2))),
        bs_description="blow-up of P3 along a degree-7 genus-5 curve",
        h12=5),
    DelPezzoTag.F25_MINUS: TypeData(
        tag=DelPezzoTag.F25_MINUS,
        a=(0, 0, 1), d=1, disc_degree=5,
        resolution=ResolutionData(
            source=BundleDescriptor.of(LineBundle(-4), LineBundle(-3), LineBundle(-3)),
            target=BundleDescriptor.of(LineBundle(-2), LineBundle(-2), LineBundle(-1))),
        bs_description="blow-up of a cubic threefold along a line",
        h12=5),
}

LINE_BUNDLE_TAGS = (DelPezzoTag.F23, DelPezzoTag.F24, DelPezzoTag.F25_MINUS)


def report(type_tag) -> dict:
    """The invariant row of one type, as ``invariants --type`` prints it,
    assembled from its ``CATALOG`` row: -K^3 is computed along both routes
    of ``invariants`` and must agree, c1 must be minus the discriminant
    degree, and h^{1,2} = (6 - chi_top(X)) / 2 = (d^2 - 3d) / 2, derived
    from the Euler characteristic, must be the table's."""
    tag = DelPezzoTag.coerce(type_tag)
    data = CATALOG[tag]
    vstar = data.vstar
    d = data.disc_degree
    chi_AO = chi_bundle(vstar)
    c1, c2 = chern_c1_c2(vstar, plus_trivial_summand=True)
    via_euler = minus_k3_via_euler(d, chi_AO)
    via_chern = minus_k3_via_chern_p2(d, c2)
    if via_euler != via_chern:
        raise InconsistentInvariantsError(
            f"{tag.value}: Euler route gives {via_euler}, "
            f"Chern route gives {via_chern}")
    if c1 != -d:
        raise InconsistentInvariantsError(
            f"{tag.value}: c1 = {c1} but the discriminant degree is {d}")
    # b2(X) = 2 and b3(X) = 2 h^{1,2}, so chi_top(X) = 6 - 2 h^{1,2}.
    chi_top_X = chi_top_conic_bundle(3, chi_top_plane_curve(d))
    h12 = (6 - chi_top_X) // 2
    if h12 != data.h12:
        raise InconsistentInvariantsError(
            f"{tag.value}: chi_top(X) = {chi_top_X} gives h12 = {h12}, "
            f"the table says {data.h12}")
    return {"type": tag.value, "d": d, "chi_A_over_O": chi_AO, "c1": c1,
            "c2": c2, "minus_K3": via_euler, "h12": h12,
            "chi_top_X_smooth_D": chi_top_X}


GENERATION_RETRIES = 100


def make_type(tag, *, domain, seed=None) -> QForm:
    """A validated form of the given line-bundle type, its entries drawn
    with the seeded generator over ``domain`` and regenerated until the
    discriminant is nonzero (bounded retries).  ``new_qform`` on
    ``CATALOG[tag].a`` and ``.d`` builds one from given entries."""
    tag = DelPezzoTag.coerce(tag)
    if tag not in LINE_BUNDLE_TAGS:
        raise UnknownTagError(
            f"{tag.value} is not a direct degree pattern; build it with "
            "make_net / make_f25plus")
    data = CATALOG[tag]
    ring = PolyRing(domain)
    rng = random.Random(seed)
    for _ in range(GENERATION_RETRIES):
        upper = [ring.random_homogeneous(data.a[i] + data.a[j] + data.d, rng)
                 for i in range(3) for j in range(i, 3)]
        q = qform_from_upper(data.a, data.d, upper)
        if not discriminant(q).is_zero:
            return q
    raise DegenerateAfterRetriesError(
        f"no nondegenerate {tag.value} form after {GENERATION_RETRIES} tries")


# ------------------------------------------------------------ nets of quadrics

def last_row(ring: PolyRing) -> list:
    """The last row (u, v, w, 0, 0) of a net in normalized position."""
    return [ring.variable(0), ring.variable(1), ring.variable(2),
            ring.zero, ring.zero]


@dataclass(frozen=True)
class QuadricNet:
    """A net of quadrics in P^4 in normalized position.

    The 5x5 symmetric matrix has linear entries, and the base point
    p = (0:0:0:0:1) is arranged so that the last row reads (u, v, w, 0, 0);
    in particular the (5,5) entry vanishes, i.e. p lies on every quadric,
    and p is a smooth point of each one.
    """

    matrix: PolyMatrix

    def __post_init__(self):
        m = self.matrix
        if m.rows != 5 or m.cols != 5:
            raise ValueError("a net needs a 5x5 matrix")
        if not m.is_symmetric():
            raise ValueError("net matrix must be symmetric")
        for row in m.entries:
            for f in row:
                if f and f.degree != 1:
                    raise DegreePatternError("net entries must be linear or zero")
        if list(m.entries[4]) != last_row(m.ring):
            raise DegreePatternError(
                "normalized position requires the last row (u, v, w, 0, 0)")

    @property
    def ring(self) -> PolyRing:
        return self.matrix.ring

    @property
    def domain(self):
        return self.matrix.ring.domain


def net_from_upper(ring: PolyRing, fifteen_entries) -> QuadricNet:
    """Build a net from its upper triangle, row-major (A11..A15, A22..A55)."""
    if len(fifteen_entries) != 15:
        raise ValueError("expected 15 upper-triangle entries")
    return QuadricNet(matrix=PolyMatrix(symmetric_grid(fifteen_entries)))


def make_net(*, domain, seed=None) -> QuadricNet:
    """Seeded random net in normalized position with nonzero quintic det5."""
    ring = PolyRing(domain)
    rng = random.Random(seed)
    fixed = last_row(ring)
    for _ in range(GENERATION_RETRIES):
        # The last column is fixed; the other entries are drawn row by row.
        upper = [ring.random_homogeneous(1, rng) if j < 4 else fixed[i]
                 for i in range(5) for j in range(i, 5)]
        net = net_from_upper(ring, upper)
        if not det(net.matrix).is_zero:
            return net
    raise DegenerateAfterRetriesError(
        f"no net with nonzero quintic after {GENERATION_RETRIES} tries")


class F25PlusProvider:
    """Fiberwise conic forms of the projected net.

    At q0 = (x0 : x1 : x2) the normalized last row gives p^T A(q0) =
    (x0, x1, x2, 0, 0).  With k the first index of a nonzero x_k (x3 = 0),
    W / <p> for W = ker(p^T A) has the basis b_j = e_j - (x_j/x_k) e_k,
    j in (0, 1, 2, 3) without k, and the form is b_i^T A b_j, degenerate
    exactly on the quintic det5 = 0.  Its six upper-triangle values are
    computed once per point on the lowered ints of the net's entry values:
    ``rank_at`` reads their rank off the ints (``linalg.symmetric_rank``),
    and ``fiber_form`` boxes the six and mirrors them.
    """

    def __init__(self, net: QuadricNet):
        self.net = net

    @functools.cached_property
    def det5(self) -> HomogPoly:
        return det(self.net.matrix)

    def _upper_ints(self, p: FiberPoint) -> tuple:
        """The six upper-triangle values of the form at p, row by row, as
        ``(ints, den)`` in the shape of ``scalars.lower``: value n is
        ints[n] / den, with den = x_k^2 times the net's common denominator."""
        ints, den = lowered_values(self.net.matrix.upper(), p.coords, self.net.domain)
        a = symmetric_grid(ints)
        x = a[4]
        k = next(j for j in range(3) if x[j])
        xk = x[k]
        basis = [j for j in range(4) if j != k]
        return [xk * xk * a[i][j] - xk * x[j] * a[i][k] - xk * x[i] * a[k][j]
                + x[i] * x[j] * a[k][k]
                for n, i in enumerate(basis) for j in basis[n:]], xk * xk * den

    def fiber_form(self, p: FiberPoint):
        upper, den = self._upper_ints(p)
        boxed = (self.net.domain.from_pair(v, den) for v in upper)
        return [list(row) for row in symmetric_grid(boxed)]

    def rank_at(self, p: FiberPoint) -> int:
        return linalg.symmetric_rank(self._upper_ints(p)[0],
                                     self.net.domain.characteristic)

    def degenerate_at(self, p: FiberPoint) -> bool:
        return self.rank_at(p) < 3


def make_f25plus(net: QuadricNet) -> F25PlusProvider:
    return F25PlusProvider(net)
