"""Integer invariant calculus on the projective plane.

Euler characteristics of twisted line bundles and cotangent twists, Chern
classes via the Whitney product, and the two anticanonical-degree formulas
for a conic bundle over P^2 with discriminant degree d:

    -K^3 = 48 - 6 d + 2 chi(A/O)
    -K^3 = 6 K_Z^2 + 3 K_Z.D + D^2 - 2 c2(A)   ( = 54 - 9d + d^2 - 2 c2 )

The second formula is rederived here from surface Riemann-Roch with
c1(A) = -D; the coefficient of c2 is 2, and only that value makes the two
routes agree (the variant with coefficient 1 is kept for reference as
``minus_k3_via_chern_printed``).

This module holds only the descriptors and the formulas and imports
nothing from the package.  ``catalog.report``, beside the table it reads,
assembles the invariant row of each minimal del Pezzo type from them and
refuses a row whose two -K^3 routes, c1 or h^{1,2} disagree.
"""

from __future__ import annotations

from dataclasses import dataclass


# -------------------------------------------------------------- descriptors

@dataclass(frozen=True)
class LineBundle:
    """O(n) on P^2."""

    n: int

    def __str__(self):
        return f"O({self.n})"


@dataclass(frozen=True)
class CotangentTwist:
    """Omega^1(n) on P^2 (rank 2)."""

    n: int

    def __str__(self):
        return f"Omega1({self.n})"


@dataclass(frozen=True)
class BundleDescriptor:
    """A direct sum of line bundles and twisted cotangent bundles."""

    summands: tuple

    @classmethod
    def of(cls, *summands) -> "BundleDescriptor":
        return cls(tuple(summands))

    def __str__(self):
        return " + ".join(str(s) for s in self.summands) or "0"


# ------------------------------------------------------------------ chi / c_i

def chi_O(n: int) -> int:
    """chi(O_{P^2}(n)) = (n+1)(n+2)/2, valid for all integers n."""
    return (n + 1) * (n + 2) // 2


def chi_cotangent(n: int) -> int:
    """chi(Omega^1(n)) = 3 chi(O(n-1)) - chi(O(n)), from the Euler sequence."""
    return 3 * chi_O(n - 1) - chi_O(n)


def chi_bundle(b: BundleDescriptor, twist: int = 0) -> int:
    """Euler characteristic, additive over the summands."""
    total = 0
    for s in b.summands:
        if isinstance(s, LineBundle):
            total += chi_O(s.n + twist)
        elif isinstance(s, CotangentTwist):
            total += chi_cotangent(s.n + twist)
        else:
            raise TypeError(f"unknown summand {s!r}")
    return total


def chern_c1_c2(b: BundleDescriptor, plus_trivial_summand: bool = False):
    """(c1, c2) on P^2 by the Whitney product.

    A line bundle O(n) contributes 1 + n h; a cotangent twist Omega^1(n)
    contributes 1 + (2n-3) h + (n^2-3n+3) h^2.  Adding a trivial summand
    (as in A = O + sA) changes nothing; the flag only documents intent.
    """
    del plus_trivial_summand  # total Chern class of O is 1
    c1, c2 = 0, 0
    for s in b.summands:
        if isinstance(s, LineBundle):
            s1, s2 = s.n, 0
        elif isinstance(s, CotangentTwist):
            s1, s2 = 2 * s.n - 3, s.n * s.n - 3 * s.n + 3
        else:
            raise TypeError(f"unknown summand {s!r}")
        c2 = c2 + c1 * s1 + s2
        c1 = c1 + s1
    return c1, c2


# ------------------------------------------------------------------- -K^3

def minus_k3_via_euler(d: int, chi_AO: int) -> int:
    """-K^3 = 48 - 6 d + 2 chi(A/O), base P^2."""
    return 48 - 6 * d + 2 * chi_AO


def minus_k3_via_chern(K2: int, KD: int, D2: int, c2: int) -> int:
    """-K^3 = 6 K_Z^2 + 3 K_Z.D + D^2 - 2 c2(A), for any smooth base."""
    return 6 * K2 + 3 * KD + D2 - 2 * c2


def minus_k3_via_chern_printed(K2: int, KD: int, D2: int, c2: int) -> int:
    """The same formula with coefficient 1 on c2, as sometimes printed;
    inconsistent with the Euler route on every del Pezzo row.  Reference
    only."""
    return 6 * K2 + 3 * KD + D2 - c2


def minus_k3_via_chern_p2(d: int, c2: int) -> int:
    """Specialization to Z = P^2: K^2 = 9, K.D = -3d, D^2 = d^2."""
    return minus_k3_via_chern(9, -3 * d, d * d, c2)


# ---------------------------------------------------------- Euler topology

def chi_top_conic_bundle(chi_top_Z: int, chi_top_D: int) -> int:
    """chi_top(X) = 2 chi_top(Z) + chi_top(D) for a conic bundle with
    discriminant D."""
    return 2 * chi_top_Z + chi_top_D


def chi_top_plane_curve(d: int, nodes: int = 0) -> int:
    """Topological Euler characteristic of a nodal plane curve of degree d:
    3d - d^2 for the smooth curve, each node adding 1."""
    if d < 1 or nodes < 0:
        raise ValueError("need d >= 1 and nodes >= 0")
    return 3 * d - d * d + nodes
