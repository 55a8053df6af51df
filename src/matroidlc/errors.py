"""Exception types shared across the package.

Errors here signal violated input contracts (bad constructions, out of
range arguments, unmet preconditions).  Negative mathematical verdicts,
such as a rejected certificate or a failed inequality, are ordinary
return values and never raised.
"""

from __future__ import annotations


class MatroidLCError(Exception):
    """Base class for all package specific errors."""


class AxiomViolation(MatroidLCError):
    """A set family fails a matroid axiom.

    ``axiom`` is ``"downward-closure"`` or ``"exchange"`` and ``witness``
    is a pair of sets exhibiting the failure.
    """

    def __init__(self, axiom: str, witness: tuple, message: str = ""):
        self.axiom = axiom
        self.witness = witness
        super().__init__(message or f"{axiom} violated, witness {witness}")


class EmptyFamily(MatroidLCError):
    """The independence family contains no sets at all."""


class InvalidRank(MatroidLCError):
    """Uniform matroid rank outside 0..n."""


class InvalidVertexIndex(MatroidLCError):
    """Graph edge endpoint outside the declared vertex range."""


class NonPrimeModulus(MatroidLCError):
    """Finite field modulus is not prime."""


class ElementOutOfRange(MatroidLCError):
    """A queried subset mentions labels outside the ground set."""


class NotIndependent(MatroidLCError):
    """Contraction requested by a dependent set."""


class EnumerationLimitExceeded(MatroidLCError):
    """Ground set too large for exhaustive subset enumeration."""


class DimensionMismatch(MatroidLCError):
    """Vector or matrix sizes do not line up with the variable count."""


class ZeroAtPoint(MatroidLCError):
    """The polynomial vanishes (or is nonpositive) where a positive
    value is required."""


class NegativeCoefficient(MatroidLCError):
    """Operation requires nonnegative coefficients."""


class NotHomogeneous(MatroidLCError):
    """Operation requires a homogeneous polynomial."""


class DegreeTooLow(MatroidLCError):
    """Operation requires total degree at least two."""


class LengthMismatch(MatroidLCError):
    """A coefficient sequence has the wrong length."""


class NegativeEntry(MatroidLCError):
    """A count sequence contains a negative entry."""


class NotBivariate(MatroidLCError):
    """Operation requires a polynomial in exactly two variables."""


class ConsistencyError(MatroidLCError):
    """Two routes that must agree produced different answers.  This
    always indicates a bug in the library, never bad user input."""
