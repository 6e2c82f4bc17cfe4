"""Exception taxonomy, and the exit band of every exception.

Three broad bands, mirrored by the CLI exit codes: bad input (exit 1),
honest mathematical failure of an operation's contract (exit 2, subclasses
of MathFailureError), and internal invariant violations that indicate a bug
(exit 3, InternalInvariantError).  Every other CliffBundleError is bad
input.  ``band`` is the one place that maps an exception to its band; the
CLI reports what it returns.
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


class OrderTooLargeError(CliffBundleError):
    """A requested series order passes its limit."""


class DigitLimitError(CliffBundleError):
    """An integer of the input has more decimal digits than the limit."""


# ----------------------------------------------------------- math-failure band

class MathFailureError(CliffBundleError):
    """Base of the math-failure band: an operation's contract failed."""


class NotDivisibleError(MathFailureError):
    """Exact polynomial division failed; carries the remainder witness."""

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class NotAPerfectSquareError(MathFailureError):
    """The polynomial has no polynomial square root."""


class NonExpandableError(MathFailureError):
    """Rational series has no power-series expansion (zero constant denominator)."""


class NotRecoverableError(MathFailureError):
    """Quadratic form cannot be recovered from the given trace pairing."""


class DegenerateAfterRetriesError(MathFailureError):
    """Random form generation kept producing zero discriminant."""


class InconsistentInvariantsError(MathFailureError):
    """Two independent invariant computations disagree."""


class InvalidAlgebraError(MathFailureError):
    """Structure constants violate the rank-4 algebra axioms."""


# ------------------------------------------------------------------ bug band

class InternalInvariantError(CliffBundleError):
    """A cross-check that can only fail through a bug failed."""


class MinorNotDivisibleError(InternalInvariantError):
    """A minor of the Brauer-Severi matrix failed divisibility by the conic
    equation.  The identity is universal in the q_ij, so this always signals
    an implementation bug, never bad input."""


# ------------------------------------------------------------------- the bands

def band(exc: BaseException) -> tuple:
    """(status, exit code) of an exception that ended a command, by the
    first rule that holds: an InternalInvariantError is a bug
    ("internal-error", 3); a MathFailureError or ZeroDivisionError is a
    broken contract ("math-failure", 2); any other CliffBundleError, and a
    ValueError or OSError (json.JSONDecodeError and UnicodeDecodeError
    among them), is bad input ("invalid-input", 1); anything else is a bug
    ("internal-error", 3)."""
    if isinstance(exc, InternalInvariantError):
        return "internal-error", 3
    if isinstance(exc, (MathFailureError, ZeroDivisionError)):
        return "math-failure", 2
    if isinstance(exc, (CliffBundleError, ValueError, OSError)):
        return "invalid-input", 1
    return "internal-error", 3
