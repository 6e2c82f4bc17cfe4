"""Exception taxonomy.

Three broad bands, mirrored by the CLI exit codes: bad input (exit 1),
honest mathematical failure of an operation's contract (exit 2), and
internal invariant violations that indicate a bug (exit 3).
"""


class CliffBundleError(Exception):
    """Base class for all library errors."""


# ---------------------------------------------------------------- input band

class PolyParseError(CliffBundleError):
    """Input text does not conform to the polynomial grammar."""


class UnknownVariableError(PolyParseError):
    """A variable name outside the ring's variable list."""


class InhomogeneousError(CliffBundleError):
    """A polynomial mixes terms of different total degree."""


class DegreeMismatchError(CliffBundleError):
    """An arithmetic result would be inhomogeneous (e.g. adding degrees 2 and 3)."""


class AsymmetricEntriesError(CliffBundleError):
    """Matrix entries supposed to be symmetric are not."""


class DegreePatternError(CliffBundleError):
    """A nonzero matrix entry violates its expected degree slot."""


class IndexOutOfRangeError(CliffBundleError, IndexError):
    """Row/column index outside the matrix."""


class ZeroPolynomialError(CliffBundleError):
    """Operation undefined for the zero polynomial."""


class OddDegreeError(CliffBundleError):
    """An even graded degree was required."""


class UnknownTagError(CliffBundleError):
    """Not a recognised del Pezzo type tag for this operation."""


class ScanTooLargeError(CliffBundleError):
    """An exhaustive scan of P^2(F_p) would pass the point limit."""


class ExponentLimitError(CliffBundleError):
    """A variable's exponent would pass the packed-monomial limit."""


# ----------------------------------------------------------- math-failure band

class NotDivisibleError(CliffBundleError):
    """Exact polynomial division failed; carries the remainder witness."""

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class NotAPerfectSquareError(CliffBundleError):
    """The polynomial has no polynomial square root."""


class NonExpandableError(CliffBundleError):
    """Rational series has no power-series expansion (zero constant denominator)."""


class NotRecoverableError(CliffBundleError):
    """Quadratic form cannot be recovered from the given trace pairing."""


class DegenerateAfterRetriesError(CliffBundleError):
    """Random form generation kept producing zero discriminant."""


class MinorNotDivisibleError(CliffBundleError):
    """A minor of the Brauer-Severi matrix failed divisibility by the conic
    equation.  The identity is universal in the q_ij, so this always signals
    an implementation bug, never bad input."""


class BasePointSingularError(CliffBundleError):
    """The projection base point is a singular point of the quadric fiber."""


class InconsistentInvariantsError(CliffBundleError):
    """Two independent invariant computations disagree."""


class InvalidAlgebraError(CliffBundleError):
    """Structure constants violate the rank-4 algebra axioms."""


# ------------------------------------------------------------------ bug band

class InternalInvariantError(CliffBundleError):
    """A cross-check that can only fail through a bug failed."""
